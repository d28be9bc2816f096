"""Orchestration: run conditions (i)-(v) for one boundary map and report.

The five finiteness conditions are computed by their home modules (poisson
for (i)/(ii), logkernel for (iii), energy for (iv)/(v)); this module wires
them together, assembles pairwise ratio tables of the cumulative sums over
shared truncation levels, and reduces the per-condition classifications to
a single verdict per lambda.  Results are keyed, so runs are deterministic
for a fixed config regardless of the thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from .circle_map import CircleHomeomorphism
from .energy import classify_sequence, dyadic_energy_iv, dyadic_energy_v, make_report
from .errors import CircleEnergyError, DomainError, InsufficientDataError, ValidationError
from .logkernel import log_energy_direct, log_energy_dyadic
from .poisson import HarmonicExtension
from . import report as report_io

CONDITIONS = ("i", "ii", "iii", "iv", "v")
_MODULE_OF = {"i": "poisson", "ii": "poisson", "iii": "logkernel",
              "iv": "energy", "v": "energy"}
THREADS_ENV = "CIRCLE_ENERGY_THREADS"
DEFAULT_LAMBDAS = (-0.5, 0.0, 1.0, 2.0)
MIN_CLASSIFY_LEVELS = 6


def default_threads() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if n < 1:
        raise ValidationError(f"{THREADS_ENV} must be >= 1, got {n}")
    return n


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
    threads: int = field(default_factory=default_threads)
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
        if self.threads < 1:
            raise ValidationError("thread count must be >= 1")

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
            "threads": self.threads,
        }


def _compute_condition(cond: str, mapping, ext, lam: float,
                       config: AnalysisConfig) -> dict:
    if cond == "i":
        return report_io.energy_entry(ext.energy_i(lam, config.j_disk))
    if cond == "ii":
        return report_io.energy_entry(ext.energy_ii(lam, config.j_disk))
    if cond == "iii":
        dy = log_energy_dyadic(mapping, lam, J=config.j_dyadic)
        rep = make_report("iii", lam, dy.band_levels[-1], dy.band_levels,
                          dy.band_terms)
        direct = log_energy_direct(mapping, lam,
                                   resolution=config.direct_resolution)
        return report_io.energy_entry(
            rep, method="dyadic", resolution=dy.resolution,
            far_pair_part=dy.part_one, dyadic_total=dy.total,
            direct_total=direct.total,
            direct_error_bound=direct.excluded_band_bound)
    if cond == "iv":
        return report_io.energy_entry(dyadic_energy_iv(mapping, lam, config.j_dyadic))
    if cond == "v":
        return report_io.energy_entry(dyadic_energy_v(mapping, lam, config.j_dyadic))
    raise DomainError(f"unknown condition {cond!r}")


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
        ext._whitney_field(config.j_disk)   # shared read-only cache for workers

    tasks = [(lam, cond) for lam in config.lambdas for cond in config.conditions]

    def run(task):
        lam, cond = task
        # float overflow (huge lambda) is numerical; anything else is a bug
        try:
            return task, _compute_condition(cond, mapping, ext, lam, config)
        except (CircleEnergyError, OverflowError) as exc:
            return task, report_io.failed_entry(_MODULE_OF[cond], exc)

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            done = dict(pool.map(run, tasks))
    else:
        done = dict(map(run, tasks))

    results = {}
    for lam in config.lambdas:
        conds = {cond: done[(lam, cond)] for cond in config.conditions}
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
