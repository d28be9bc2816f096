"""Orchestration: run conditions (i)-(v) for one boundary map and report.

The five finiteness conditions are computed by their home modules (poisson
for (i)/(ii), logkernel for (iii), energy for (iv)/(v)); this module wires
them together, assembles pairwise ratio tables of the cumulative sums over
shared truncation levels, and reduces the per-condition classifications to
a single verdict per lambda.  Each condition's lambda-free work (the
Whitney field, the (iii) kernel, the (iv)/(v) lift and shared sums) is done
once for every lambda; a failure of one lambda's entry leaves the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .circle_map import CircleHomeomorphism
from .energy import classify_sequence, dyadic_reports, make_report
from .errors import CircleEnergyError, InsufficientDataError, ValidationError
from .logkernel import LogKernel
from .poisson import HarmonicExtension
from . import report as report_io

CONDITIONS = ("i", "ii", "iii", "iv", "v")
_MODULE_OF = {"i": "poisson", "ii": "poisson", "iii": "logkernel",
              "iv": "energy", "v": "energy"}
DEFAULT_LAMBDAS = (-0.5, 0.0, 1.0, 2.0)
MIN_CLASSIFY_LEVELS = 6


@dataclass(frozen=True)
class AnalysisConfig:
    """Validated inputs for one analyze/sweep run."""

    map_spec: dict
    lambdas: tuple = DEFAULT_LAMBDAS
    conditions: tuple = CONDITIONS
    j_disk: int = 10
    j_dyadic: int = 14
    n_boundary: int = 2 ** 14
    gauss_order: int = 4
    direct_resolution: int = 512
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if not self.lambdas:
            raise ValidationError("lambda list must be non-empty")
        for lam in self.lambdas:
            if lam <= -1.0:
                raise ValidationError(
                    f"lambda = {lam} rejected: the exponent range is the open "
                    "interval (-1, inf); the endpoint -1 is excluded")
        if not self.conditions:
            raise ValidationError("condition subset must be non-empty")
        bad = [c for c in self.conditions if c not in CONDITIONS]
        if bad:
            raise ValidationError(f"unknown conditions {bad}; valid: {CONDITIONS}")
        if len(set(self.conditions)) != len(self.conditions):
            raise ValidationError("condition subset contains duplicates")
        if not MIN_CLASSIFY_LEVELS <= self.j_disk <= 12:
            raise ValidationError(
                f"j_disk must be in [{MIN_CLASSIFY_LEVELS}, 12], got {self.j_disk}")
        if not MIN_CLASSIFY_LEVELS <= self.j_dyadic <= 40:
            raise ValidationError(
                f"j_dyadic must be in [{MIN_CLASSIFY_LEVELS}, 40], got {self.j_dyadic}")

    def build_map(self) -> CircleHomeomorphism:
        return CircleHomeomorphism.from_spec(self.map_spec)

    def echo(self) -> dict:
        return {
            "lambdas": list(self.lambdas),
            "conditions": list(self.conditions),
            "j_disk": self.j_disk,
            "j_dyadic": self.j_dyadic,
            "n_boundary": self.n_boundary,
            "gauss_order": self.gauss_order,
            "direct_resolution": self.direct_resolution,
            "seed": self.seed,
        }


_GROUPS = (("i", "ii"), ("iii",), ("iv", "v"))   # conditions sharing lambda-free work


def _entry(cond: str, shared, lam: float, config: AnalysisConfig) -> dict:
    if cond in ("i", "ii"):
        energy = shared.energy_i if cond == "i" else shared.energy_ii
        return report_io.energy_entry(energy(lam, config.j_disk))
    if cond == "iii":
        dy, direct = shared.dyadic(lam), shared.direct(lam)
        rep = make_report("iii", lam, dy.band_levels[-1], dy.band_levels,
                          dy.band_terms)
        return report_io.energy_entry(
            rep, method="dyadic", resolution=dy.resolution,
            far_pair_part=dy.part_one, dyadic_total=dy.total,
            direct_total=direct.total,
            direct_error_bound=direct.excluded_band_bound)
    rep = shared[cond, lam]
    if isinstance(rep, CircleEnergyError):
        raise rep
    return report_io.energy_entry(rep)


def _group_entries(conds, mapping, ext, config: AnalysisConfig) -> dict:
    """(condition, lambda) -> entry for one group of conditions.

    The group's lambda-free work (the extension's Whitney field, the (iii)
    kernel, or the (iv)/(v) reports of one lift) is done once and released on
    return.  If a guard rejects it, every entry of the group fails with the
    guard's message; a failure at one lambda leaves the other lambdas' entries.
    """
    lams = config.lambdas
    try:
        if conds[0] == "iii":
            shared = LogKernel(mapping, config.j_dyadic,
                               direct_resolution=config.direct_resolution)
        elif conds[0] in ("iv", "v"):
            shared = dyadic_reports(mapping, config.j_dyadic,
                                    [(c, lam) for c in conds for lam in lams])
        else:
            shared = ext
    except CircleEnergyError as exc:
        return {(c, lam): report_io.failed_entry(_MODULE_OF[c], exc)
                for c in conds for lam in lams}
    entries = {}
    for cond in conds:
        for lam in lams:
            try:
                entries[cond, lam] = _entry(cond, shared, lam, config)
            except CircleEnergyError as exc:
                entries[cond, lam] = report_io.failed_entry(_MODULE_OF[cond], exc)
    return entries


def _ratio_tables(conds: dict) -> dict:
    names = [c for c in CONDITIONS if c in conds and conds[c]["status"] == "ok"]
    tables = {}
    for a_idx in range(len(names)):
        for b_idx in range(a_idx + 1, len(names)):
            a, b = names[a_idx], names[b_idx]
            ca, cb = conds[a]["cumulative"], conds[b]["cumulative"]
            m = min(len(ca), len(cb))
            ratios = []
            for x, y in zip(ca[:m], cb[:m]):
                r = x / y if y != 0 else math.inf
                ratios.append(r if math.isfinite(r) else None)
            tables[f"{a}/{b}"] = {"levels": list(range(1, m + 1)),
                                  "ratios": ratios}
    return tables


def _verdict(conds: dict) -> str:
    if any(e["status"] == "failed" for e in conds.values()):
        return "mixed/flagged"
    classes = [e["classification"] for e in conds.values()]
    if classes and all(c == "convergent" for c in classes):
        return "all-finite-consistent"
    if classes and all(c == "divergent" for c in classes):
        return "all-divergent-consistent"
    return "mixed/flagged"


def analyze(config: AnalysisConfig) -> dict:
    """Run the configured conditions and return (and optionally write) the report."""
    mapping = config.build_map()
    ext = None
    if "i" in config.conditions or "ii" in config.conditions:
        ext = HarmonicExtension(mapping, n_boundary=config.n_boundary,
                                gauss_order=config.gauss_order)
        ext._whitney_field(config.j_disk)   # one field serves every lambda

    entries = {}
    for group in _GROUPS:
        conds = [c for c in group if c in config.conditions]
        if conds:
            entries.update(_group_entries(conds, mapping, ext, config))
    results = {}
    for lam in config.lambdas:
        conds = {cond: entries[cond, lam] for cond in config.conditions}
        results[repr(lam)] = {
            "conditions": conds,
            "ratio_tables": _ratio_tables(conds),
            "verdict": _verdict(conds),
        }

    doc = {
        "schema_version": report_io.SCHEMA_VERSION,
        "kind": "equivalence_report",
        "map": mapping.to_spec(),
        "config": config.echo(),
        "results": results,
    }
    report_io.validate_report(doc)
    if config.out is not None:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        report_io.write_report(doc, out / "report.json", validate=False)
        report_io.write_levels_csv(doc, out / "levels.csv")
        report_io.write_ratios_csv(doc, out / "ratios.csv")
    return doc


def sweep(config: AnalysisConfig, lambda_grid=None) -> list[dict]:
    """Partial totals and classifications per (lambda, J); J runs from 6 up.

    Truncations below six levels cannot be classified by the slope fit, so
    the table starts at J = 6.
    """
    lambdas = config.lambdas if lambda_grid is None else tuple(
        float(v) for v in lambda_grid)
    base = analyze(replace(config, lambdas=lambdas, out=None))   # revalidates lambdas
    rows = []
    j_max = max(config.j_disk, config.j_dyadic)
    for lam in lambdas:
        conds = base["results"][repr(lam)]["conditions"]
        for J in range(MIN_CLASSIFY_LEVELS, j_max + 1):
            row = {"lambda": lam, "J": J}
            present = False
            for cond, entry in conds.items():
                if entry["status"] != "ok" or len(entry["per_level"]) < J:
                    continue
                present = True
                row[f"total_{cond}"] = entry["cumulative"][J - 1]
                try:
                    row[f"class_{cond}"] = classify_sequence(
                        entry["levels"][:J], entry["per_level"][:J])
                except InsufficientDataError:
                    row[f"class_{cond}"] = "inconclusive"
            if present:
                rows.append(row)
    if config.out is not None:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        report_io.write_sweep_csv(rows, list(config.conditions), out / "sweep.csv")
    return rows
