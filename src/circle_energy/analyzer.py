"""Orchestration: run conditions (i)-(v) for one boundary map and report.

The five finiteness conditions are computed by their home modules (poisson
for (i)/(ii), logkernel for (iii), energy for (iv)/(v)); this module wires
them together, assembles pairwise ratio tables of the cumulative sums over
shared truncation levels, and reduces the per-condition classifications to
a single verdict per lambda.  Each condition's lambda-free work (the
Whitney field and its level masses and bases for (i)/(ii), the (iii) kernel,
the (iv)/(v) lift and shared sums) is done once for every lambda; a failure
of one lambda's entry leaves the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import energy, logkernel, poisson
from . import report as report_io
from .circle_map import CircleHomeomorphism
from .energy import MIN_CLASSIFY_LEVELS, classify_sequence, dyadic_reports, make_report
from .errors import CircleEnergyError, ValidationError
from .logkernel import LogKernel
from .poisson import HarmonicExtension

CONDITIONS = ("i", "ii", "iii", "iv", "v")
_MODULE_OF = {"i": "poisson", "ii": "poisson", "iii": "logkernel",
              "iv": "energy", "v": "energy"}
DEFAULT_LAMBDAS = (-0.5, 0.0, 1.0, 2.0)
# field -> (lowest, highest) value the engines accept; j_dyadic feeds (iii)-(v)
BOUNDS = {
    "j_disk": (MIN_CLASSIFY_LEVELS, poisson.MAX_WHITNEY_J),
    "j_dyadic": (MIN_CLASSIFY_LEVELS, min(energy.MAX_J, logkernel.MAX_J)),
    "n_boundary": poisson.NODES_RANGE,
    "gauss_order": poisson.GAUSS_RANGE,
    "direct_resolution": (logkernel.MIN_RESOLUTION, logkernel.MAX_RESOLUTION),
}


@dataclass(frozen=True)
class AnalysisConfig:
    """Validated inputs for one analyze/sweep run."""

    map_spec: dict
    lambdas: tuple = DEFAULT_LAMBDAS
    conditions: tuple = CONDITIONS
    j_disk: int = 10
    j_dyadic: int = 14
    n_boundary: int = poisson.DEFAULT_NODES
    gauss_order: int = poisson.DEFAULT_GAUSS
    direct_resolution: int = 512
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if not self.lambdas:
            raise ValidationError("lambda list must be non-empty")
        for lam in self.lambdas:
            if not -1.0 < lam < math.inf:
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
        for name, (lo, hi) in BOUNDS.items():
            value = getattr(self, name)
            if not (isinstance(value, int) and lo <= value <= hi):
                raise ValidationError(f"{name} must be an integer in [{lo}, {hi}], "
                                      f"got {value!r}")
        if self.n_boundary < 2 ** (self.j_disk + 4):   # else aliasing swamps (i)/(ii)
            raise ValidationError(f"n_boundary must be at least 2**(j_disk + 4) = "
                                  f"{2 ** (self.j_disk + 4)}, got {self.n_boundary}")

    def build_map(self) -> CircleHomeomorphism:
        return CircleHomeomorphism.from_spec(self.map_spec)

    def echo(self) -> dict:
        """The run's settings for the report: every field but map_spec and out."""
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
                for f in fields(self) if f.name not in ("map_spec", "out")}


_GROUPS = (("i", "ii"), ("iii",), ("iv", "v"))   # conditions sharing lambda-free work


def _entry(cond: str, shared, lam: float) -> dict:
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


def _group_entries(conds, mapping, config: AnalysisConfig) -> dict:
    """(condition, lambda) -> entry for one group of conditions.

    The group's lambda-free work (the (i)/(ii) reports of one Whitney field,
    the (iii) kernel, or the (iv)/(v) reports of one lift) is done once and
    released on return.  If a guard rejects it, every entry of the group fails
    with the guard's message; a failure at one lambda leaves the other
    lambdas' entries.
    """
    tasks = [(c, lam) for c in conds for lam in config.lambdas]
    try:
        if conds[0] == "iii":
            shared = LogKernel(mapping, config.j_dyadic,
                               direct_resolution=config.direct_resolution)
        elif conds[0] in ("iv", "v"):
            shared = dyadic_reports(mapping, config.j_dyadic, tasks)
        else:
            shared = HarmonicExtension(
                mapping, n_boundary=config.n_boundary,
                gauss_order=config.gauss_order).energy_reports(config.j_disk, tasks)
    except CircleEnergyError as exc:
        return {(c, lam): report_io.failed_entry(_MODULE_OF[c], exc) for c, lam in tasks}
    entries = {}
    for cond, lam in tasks:
        try:
            entries[cond, lam] = _entry(cond, shared, lam)
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
    entries = {}
    for group in _GROUPS:
        conds = [c for c in group if c in config.conditions]
        if conds:
            entries.update(_group_entries(conds, mapping, config))
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
        report_io.write_report(doc, out / "report.json")
        report_io.write_levels_csv(doc, out / "levels.csv")
        report_io.write_ratios_csv(doc, out / "ratios.csv")
    return doc


def sweep(config: AnalysisConfig) -> list[dict]:
    """Partial totals and classifications per (lambda, J); J runs up from
    MIN_CLASSIFY_LEVELS, the fewest levels the slope fit classifies."""
    base = analyze(replace(config, out=None))
    rows = []
    j_max = max(config.j_disk, config.j_dyadic)
    for lam in config.lambdas:
        conds = base["results"][repr(lam)]["conditions"]
        for J in range(MIN_CLASSIFY_LEVELS, j_max + 1):
            row = {"lambda": lam, "J": J}
            present = False
            for cond, entry in conds.items():
                if entry["status"] != "ok" or len(entry["per_level"]) < J:
                    continue
                present = True
                row[f"total_{cond}"] = entry["cumulative"][J - 1]
                row[f"class_{cond}"] = classify_sequence(
                    entry["levels"][:J], entry["per_level"][:J])
            if present:
                rows.append(row)
    if config.out is not None:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        report_io.write_sweep_csv(rows, list(config.conditions), out / "sweep.csv")
    return rows
