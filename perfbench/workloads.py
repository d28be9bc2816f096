"""Workloads of the circle-energy benchmark: operations, output checks, timing.

Each workload is a list of operations, calls into the package's public entry
points (`analyze`, `run_suite`), that one round runs in order.  A run repeats
whole rounds, so every run attempts the same operations in the same shares.
Each operation's output is checked against oracles.py; a wrong output is a
CheckError and makes the run incorrect.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from spans import OP, SUITES, Tracer, parse_importtime

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

LAMBDAS = (-0.5, 0.0, 1.0)
DISK_CONFIG = {"conditions": ["i", "ii"], "j_disk": 10, "n_boundary": 2 ** 14,
               "gauss_order": 4, "lambdas": list(LAMBDAS)}
BOUNDARY_CONFIG = {"conditions": ["iii", "iv", "v"], "j_dyadic": 20,
                   "lambdas": list(LAMBDAS)}
# rotation's disk field costs as much as the identity's and is symmetric to
# it; its symmetry is checked on the boundary workload (README.md)
DISK_MAPS = ("identity", "mobius_trace", "power")
# power (f'(0) = 0) is the only catalog map that is not bi-Lipschitz
BILIPSCHITZ = ("identity", "rotation", "mobius_trace", "log_singular",
               "smoothed_cantor", "piecewise_linear")
SEEDED_PL = 2            # bi-Lipschitz piecewise-linear maps drawn per seed
PL_SEGMENTS = 7
POINTS = 8               # seeded interior points for the derivative checks

# tolerances, relative unless stated; each is a few times the error measured
# on the parent commit (README.md, "Output checks")
TOL_I_IDENTITY = 2e-6        # N_b aliasing at level 10: measured <= 4.0e-7
TOL_II_IDENTITY = 5e-6       # measured <= 1.2e-6
TOL_MOBIUS_AREA = 2.5e-4     # order-4 Gauss rule: measured 1.65e-4
TOL_SYMMETRY = 1e-12         # rotation vs identity: measured <= 6.7e-16
TOL_DYADIC = 1e-12           # (iv)/(v) vs own arc lengths: measured ~3e-16
TOL_POINT = 1e-9             # absolute, |z| <= 0.9: measured ~5e-16


class CheckError(Exception):
    """An output of the program disagrees with its reference value."""


@dataclass
class Op:
    """One timed call into the package and the checks on its output.

    `check` raises CheckError on a wrong output and returns the outcomes of
    the op's `counted` sub-operations (True = held), which are counted as
    attempted operations, and as failed ones when they do not hold.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    counted: int = 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    times: dict = field(default_factory=dict)   # op name -> [seconds per round]

    def wall(self) -> float:
        """One round's wall time: sum over ops of the op's median time."""
        return math.fsum(statistics.median(v) for v in self.times.values())


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# -- workloads ------------------------------------------------------------------

def check_entries(doc: dict, name: str, conditions, bilipschitz: bool) -> None:
    """Every condition ran; no finite-energy map is classified divergent."""
    expect(doc["config"].get("threads", 1) == 1, f"{name}: threads != 1")
    expect(set(doc["results"]) == {repr(lam) for lam in LAMBDAS},
           f"{name}: lambda keys {sorted(doc['results'])}")
    for key, res in doc["results"].items():
        expect(set(res["conditions"]) == set(conditions),
               f"{name} lam={key}: conditions {sorted(res['conditions'])}")
        for cond, entry in res["conditions"].items():
            expect(entry["status"] == "ok", f"{name} lam={key} ({cond}): {entry}")
            if bilipschitz:
                expect(entry["classification"] != "divergent",
                       f"{name} lam={key} ({cond}) classified divergent")


def check_same(doc: dict, ref: dict, name: str, conditions) -> None:
    """Totals and per-level terms equal those of `ref` within TOL_SYMMETRY."""
    for key in doc["results"]:
        for cond in conditions:
            a = doc["results"][key]["conditions"][cond]
            b = ref["results"][key]["conditions"][cond]
            for x, y in zip(a["per_level"] + [a["total"]], b["per_level"] + [b["total"]]):
                expect(abs(x - y) <= TOL_SYMMETRY * abs(y),
                       f"{name} lam={key} ({cond}): {x!r} vs identity {y!r}")


def check_points(ce, spec: dict, points, h_z: Callable, name: str) -> None:
    ext = ce.HarmonicExtension(ce.CircleHomeomorphism.from_spec(spec),
                               n_boundary=DISK_CONFIG["n_boundary"])
    for z in points:
        d = ext.derivative(z)
        expect(abs(d.h_z - h_z(z)) <= TOL_POINT and abs(d.h_zbar) <= TOL_POINT,
               f"{name}: Dh({z:.6f}) = ({d.h_z}, {d.h_zbar})")


def mobius_parameter(spec: dict) -> float:
    a = spec["params"]["a"]
    expect(isinstance(a, float) and spec["base_point_image_angle"] == 0.0,
           f"mobius_trace oracle needs real a and base angle 0, got {spec}")
    return a


def disk_ops(ce, seed: int) -> list[Op]:
    cat = ce.catalog()
    specs = {name: cat[name].to_spec() for name in DISK_MAPS}
    J = DISK_CONFIG["j_disk"]
    a = mobius_parameter(specs["mobius_trace"])
    ref_i = {lam: oracles.identity_energy_i(lam, J) for lam in LAMBDAS}
    ref_ii = {lam: math.fsum(oracles.identity_energy_ii_levels(lam, J))
              for lam in LAMBDAS}
    area = oracles.mobius_area(a, J)
    rng = np.random.default_rng(seed)
    points = (rng.uniform(0.0, 0.9, POINTS)
              * np.exp(1j * rng.uniform(0.0, oracles.TWO_PI, POINTS)))

    def check(name):
        def run_check(doc):
            check_entries(doc, name, DISK_CONFIG["conditions"], name in BILIPSCHITZ)
            conds = {lam: doc["results"][repr(lam)]["conditions"] for lam in LAMBDAS}
            if name == "identity":
                for lam in LAMBDAS:
                    got_i, got_ii = conds[lam]["i"]["total"], conds[lam]["ii"]["total"]
                    expect(rel(got_i, ref_i[lam]) <= TOL_I_IDENTITY,
                           f"identity (i) lam={lam}: {got_i!r} vs {ref_i[lam]!r}")
                    expect(rel(got_ii, ref_ii[lam]) <= TOL_II_IDENTITY,
                           f"identity (ii) lam={lam}: {got_ii!r} vs {ref_ii[lam]!r}")
                check_points(ce, specs[name], points, lambda z: 1.0, name)
            elif name == "mobius_trace":
                got = conds[0.0]["i"]["total"]
                expect(rel(got, area) <= TOL_MOBIUS_AREA,
                       f"mobius_trace (i) lam=0: {got!r} vs area {area!r}")
                check_points(ce, specs[name], points,
                             lambda z: oracles.mobius_derivative(a, z), name)
            return []
        return run_check

    ops = []
    for name in DISK_MAPS:
        config = ce.AnalysisConfig(map_spec=specs[name], **DISK_CONFIG)
        ops.append(Op(name, lambda c=config: ce.analyze(c), check(name)))
    return ops


def seeded_knots(rng) -> list[list[float]]:
    """Knots of a bi-Lipschitz lift: segment slopes within a factor 4."""
    t = np.sort(rng.uniform(0.0, oracles.TWO_PI, PL_SEGMENTS - 1))
    t = np.concatenate([[0.0], t, [oracles.TWO_PI]])
    rise = rng.uniform(0.5, 2.0, PL_SEGMENTS) * np.diff(t)
    v = oracles.TWO_PI * np.concatenate([[0.0], np.cumsum(rise)]) / rise.sum()
    knots = [[float(x), float(y)] for x, y in zip(t, v)]
    knots[-1] = [oracles.TWO_PI, oracles.TWO_PI]
    return knots


def boundary_ops(ce, seed: int) -> list[Op]:
    cat = ce.catalog()
    specs = {name: m.to_spec() for name, m in cat.items()}
    rng = np.random.default_rng(seed)
    seeded = [f"pl_seed_{i}" for i in range(SEEDED_PL)]
    for name in seeded:
        specs[name] = {"kind": "piecewise_linear",
                       "params": {"knots": seeded_knots(rng)},
                       "base_point_image_angle": 0.0}
    bilip = set(BILIPSCHITZ) | set(seeded)
    J = BOUNDARY_CONFIG["j_dyadic"]

    expect(specs["power"]["params"]["p"] == 2.0, f"power oracle needs p=2: {specs['power']}")
    lengths = {"identity": oracles.identity_lengths, "rotation": oracles.identity_lengths,
               "power": oracles.power2_lengths}
    for name in ["piecewise_linear"] + seeded:
        lengths[name] = (lambda j, k=specs[name]["params"]["knots"]:
                         oracles.piecewise_linear_lengths(k, j))
    ref = {name: oracles.dyadic_levels(fn, LAMBDAS, J) for name, fn in lengths.items()}
    ref_iii = {lam: oracles.identity_log_energy(lam) for lam in LAMBDAS}
    last = {}

    def check(name, out: Path):
        def run_check(doc):
            last[name] = doc
            check_entries(doc, name, BOUNDARY_CONFIG["conditions"], name in bilip)
            if name in ref:
                for (lam, cond), levels in ref[name].items():
                    entry = doc["results"][repr(lam)]["conditions"][cond]
                    for j, (x, y) in enumerate(zip(entry["per_level"], levels), 1):
                        expect(rel(x, y) <= TOL_DYADIC,
                               f"{name} ({cond}) lam={lam} level {j}: {x!r} vs {y!r}")
                    expect(rel(entry["total"], math.fsum(levels)) <= TOL_DYADIC,
                           f"{name} ({cond}) lam={lam} total {entry['total']!r}")
            if name == "rotation":
                expect("identity" in last, "rotation ran before the identity")
                check_same(doc, last["identity"], name, BOUNDARY_CONFIG["conditions"])
            on_disk = json.loads((out / "report.json").read_text())
            expect(on_disk == json.loads(json.dumps(doc)), f"{name}: report.json differs")
            rows = sum(len(e["per_level"]) for res in doc["results"].values()
                       for e in res["conditions"].values())
            with open(out / "levels.csv") as fh:
                expect(sum(1 for _ in fh) == rows + 1, f"{name}: levels.csv rows")
            expect((out / "ratios.csv").stat().st_size > 0, f"{name}: ratios.csv empty")
            if name not in ("identity", "rotation"):
                return []
            # (iii) direct quadrature against its own error bar, one per lambda
            held = []
            for lam in LAMBDAS:
                e = doc["results"][repr(lam)]["conditions"]["iii"]
                held.append(abs(ref_iii[lam] - e["direct_total"]) <= e["direct_error_bound"])
            return held
        return run_check

    ops = []
    for name, spec in specs.items():
        out = RESULTS / "boundary" / name
        config = ce.AnalysisConfig(map_spec=spec, out=str(out), **BOUNDARY_CONFIG)
        counted = len(LAMBDAS) if name in ("identity", "rotation") else 0
        ops.append(Op(name, lambda c=config: ce.analyze(c), check(name, out), counted))
    return ops


def certify_ops(ce, seed: int) -> list[Op]:
    """One `run_suite(name, seed)` per suite; `verify all` runs the same list.

    The orlicz suite is left out: its maximal-operator check fails on some
    seeds only (CHANGES.md, FOUND), which would make the failed share of a
    run depend on the seed.
    """
    def check(suite):
        def run_check(results):
            bad = [f"{r.name} ({r.detail})" for r in results if not r.passed]
            expect(not bad, f"verify {suite} failed: " + "; ".join(bad))
            expect(results and {r.suite for r in results} == {suite},
                   f"verify {suite} ran suites {sorted({r.suite for r in results})}")
            return []
        return run_check
    return [Op(f"verify_{suite}", lambda s=suite: ce.run_suite(s, seed=seed), check(suite))
            for suite in SUITES if suite != "orlicz"]


WORKLOADS = {"disk": disk_ops, "boundary": boundary_ops, "certify": certify_ops}


# -- measurement ------------------------------------------------------------------

def measure_imports(src: Path) -> tuple[float, float]:
    """(package, scipy) import seconds from one `python -X importtime` child."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import circle_energy", str(src)],
        check=True, capture_output=True, text=True)
    return parse_importtime(proc.stderr)


def run_round(ops: list[Op], tally: Tally, tracer: Tracer | None, roots: dict) -> None:
    for op in ops:
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                tracer.active = True
                try:
                    result = tracer.call(OP, op.run)
                finally:
                    tracer.active = False
                roots.setdefault(op.name, []).append(tracer.spans[-1][0])
        except Exception:
            traceback.print_exc()
            tally.attempted += 1 + op.counted
            tally.failed += 1 + op.counted
            continue
        tally.times.setdefault(op.name, []).append(time.perf_counter() - t0)
        try:
            held = op.check(result)
        except CheckError as exc:
            tally.errors.append(f"{op.name}: {exc}")
            held = []
        except Exception:   # an output the checks cannot read is wrong too
            tally.errors.append(f"{op.name}: {traceback.format_exc()}")
            held = []
        tally.attempted += 1 + op.counted
        tally.failed += held.count(False) + (op.counted - len(held))


def run_rounds(ops, seconds: float, tracer: Tracer | None = None,
               roots: dict | None = None) -> tuple[Tally, int]:
    """Whole rounds while the next one, as long as the last, fits in `seconds`;
    always at least one."""
    tally, rounds = Tally(), 0
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        run_round(ops, tally, tracer, roots if roots is not None else {})
        rounds += 1
        now = time.perf_counter()
        if tally.errors or (now - start) + (now - begin) > seconds:
            return tally, rounds


def per_layer(tracer: Tracer, rounds: int, roots: dict, imports, overhead: float):
    totals = tracer.layer_totals()
    own = tracer.self_times()

    def t(layer):
        return totals.get(layer, 0.0) / rounds

    def c(name):
        return tracer.counts.get(name, 0) / rounds

    for name, sids in roots.items():
        print(f"unattributed {name}: {statistics.median(own[s] for s in sids):.6f} s")
    m = {
        "setup.import_s": (imports[0], "s"),
        "setup.scipy_import_s": (imports[1], "s"),
        "circle_map.lift_s": (t("circle_map.lift"), "s"),
        "circle_map.lift_points": (c("circle_map.lift_points"), "count"),
        "energy.dyadic_s": (t("energy.dyadic"), "s"),
        "energy.calls": (c("energy.calls"), "count"),
        "logkernel.dyadic_s": (t("logkernel.dyadic"), "s"),
        "logkernel.direct_s": (t("logkernel.direct"), "s"),
        "poisson.field_s": (t("poisson.field"), "s"),
        "poisson.energy_s": (t("poisson.energy"), "s"),
        "poisson.point_s": (t("poisson.point"), "s"),
        "poisson.point_calls": (c("poisson.point_calls"), "count"),
        "analyzer.self_s": (t("analyzer"), "s"),
        "report.validate_s": (t("report.validate"), "s"),
        "report.write_s": (t("report.write"), "s"),
        "report.bytes": (c("report.bytes"), "bytes"),
    }
    m.update({f"verify.{s}_s": (t(f"verify.{s}"), "s") for s in SUITES})
    m.update({
        "orlicz.maximal_s": (t("orlicz.maximal"), "s"),
        "orlicz.field_s": (t("orlicz.field"), "s"),
        "chordarc.constant_s": (t("chordarc.constant"), "s"),
        "dyadic.decomposition_s": (t("dyadic.decomposition"), "s"),
        "trace.unattributed_s": (t(OP), "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    return m


def measure(ce, workload: str, seed: int, seconds: float, trace: bool,
            src: Path) -> tuple[Tally, int, dict]:
    """Run the workload; return its tally, untraced rounds and, when traced,
    the per-layer metrics {name: (value, unit)}."""
    RESULTS.mkdir(exist_ok=True)
    ops = WORKLOADS[workload](ce, seed)
    tally, rounds = run_rounds(ops, seconds)
    if not trace:
        return tally, rounds, {}
    imports = measure_imports(src)
    tracer, roots = Tracer(), {}
    tracer.install()
    try:
        traced, traced_rounds = run_rounds(ops, seconds, tracer, roots)
    finally:
        tracer.uninstall()
    tracer.write(RESULTS / f"trace-{workload}-seed{seed}.jsonl")
    metrics = per_layer(tracer, traced_rounds, roots, imports,
                        traced.wall() - tally.wall())
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    tally.errors += traced.errors
    return tally, rounds, metrics
