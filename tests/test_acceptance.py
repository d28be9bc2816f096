"""Acceptance suite: one test per numbered criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest tests/test_acceptance.py -v -s``) and then asserts, so the pytest
outcome mirrors the printed line.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import circle_energy.orlicz as oz
from circle_energy.analyzer import AnalysisConfig, analyze
from circle_energy.chordarc import (PairSampler, chordarc_constant,
                                    cusp_domain, internal_chordarc_constant,
                                    regular_polygon)
from circle_energy.circle_map import catalog, identity_map
from circle_energy.dyadic import (DyadicArc, annular_decomposition,
                                  inducer_counts)
from circle_energy.energy import dyadic_energy_iv
from circle_energy.poisson import HarmonicExtension
from circle_energy.report import load_report

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "equivalence_windows.json"
SMOOTH_FAMILIES = ("identity", "rotation", "mobius_trace", "power",
                   "log_singular")


def _line(num, name, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    extra = f"  ({detail})" if detail else ""
    print(f"\n[{mark}] criterion {num}: {name}{extra}")
    assert ok, f"criterion {num}: {name}{extra}"


def _interior_points(n, r_max, seed):
    rng = np.random.default_rng(seed)
    r = r_max * np.sqrt(rng.uniform(size=n))
    th = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return r * np.exp(1j * th)


def test_criterion_1_annular_decomposition_reference_set():
    expected = {DyadicArc(4, 7), DyadicArc(4, 8), DyadicArc(3, 3),
                DyadicArc(3, 5), DyadicArc(3, 6), DyadicArc(2, 1),
                DyadicArc(2, 4)}
    annular_decomposition(DyadicArc(4, 7))     # warm (imports, caches)
    t0 = time.perf_counter()
    got = set(annular_decomposition(DyadicArc(4, 7)).members)
    dt = time.perf_counter() - t0
    _line(1, "annular decomposition of arc (4,7) matches the reference set",
          got == expected and dt < 1e-3,
          f"{len(got)} members, {dt * 1e6:.0f} us")


def test_criterion_2_counting_bound_exhaustive():
    t0 = time.perf_counter()
    counts = inducer_counts(max_target_level=6, max_seed_level=12)
    violations = [((j, n, m), c) for (j, n, m), c in counts.items()
                  if c > 3 * 2 ** (j - n)]
    dt = time.perf_counter() - t0
    _line(2, "inducer counts <= 3*2^(j-n) for all n <= 6, j <= 12",
          not violations and dt < 120.0,
          f"{len(counts)} (target, seed-level) cells, "
          f"{len(violations)} violations, {dt:.1f} s")


def test_criterion_3_identity_pipeline():
    t0 = time.perf_counter()
    ext = HarmonicExtension(identity_map())
    zs = _interior_points(1000, 0.95, seed=3)
    err_pt = max(abs(ext.extend(z) - z) for z in zs)

    e1 = ext.energy_i(0.0, 10).total
    e1_truth = math.pi * (1.0 - 2.0 ** -10) ** 2
    err_e1 = abs(e1 - e1_truth) / e1_truth

    err_iv = 0.0
    for J in (6, 10, 14):
        truth = 4.0 * math.pi ** 2 * (1.0 - 2.0 ** -J)
        got = dyadic_energy_iv(identity_map(), 0.0, J).total
        err_iv = max(err_iv, abs(got - truth) / truth)
    dt = time.perf_counter() - t0
    _line(3, "identity pipeline (h(z)=z, disk and dyadic closed forms)",
          err_pt < 1e-9 and err_e1 < 1e-6 and err_iv < 1e-12 and dt < 30.0,
          f"max|h(z)-z| {err_pt:.2e}, energy_i rel {err_e1:.2e}, "
          f"(iv) rel {err_iv:.2e}, {dt:.1f} s")


def test_criterion_4_derivative_fidelity():
    t0 = time.perf_counter()
    zs = _interior_points(100, 0.9, seed=4)
    worst = 0.0
    for name in SMOOTH_FAMILIES:
        ext = HarmonicExtension(catalog()[name])
        for z in zs:
            ker = ext.derivative(z)
            fd = ext.fd_derivative(z, step=1e-5)
            worst = max(worst, abs(ker.h_z - fd.h_z),
                        abs(ker.h_zbar - fd.h_zbar))
    dt = time.perf_counter() - t0
    _line(4, "kernel derivatives match central differences on smooth families",
          worst < 1e-6 and dt < 60.0,
          f"worst abs deviation {worst:.2e} over "
          f"{len(SMOOTH_FAMILIES)} families x {len(zs)} points, {dt:.1f} s")


def test_criterion_5_stieltjes_bound_dominates():
    t0 = time.perf_counter()
    zs = _interior_points(100, 0.9, seed=5)
    worst = math.inf
    for name, mapping in catalog().items():
        ext = HarmonicExtension(mapping)
        for z in zs:
            slack = ext.derivative_bound(z) - abs(ext.derivative(z).h_z)
            worst = min(worst, slack)
    dt = time.perf_counter() - t0
    _line(5, "derivative bound >= |h_z| - 1e-6 on every family",
          worst >= -1e-6 and dt < 60.0,
          f"min slack {worst:.2e} over {len(catalog())} families, {dt:.1f} s")


def test_criterion_6_equivalence_windows():
    fixture = json.loads(FIXTURE_PATH.read_text())
    cfg = fixture["meta"]["config"]
    lambdas = tuple(fixture["meta"]["lambdas"])
    t0 = time.perf_counter()
    breaches = []
    disagreements = []
    for family, cells in sorted(fixture["families"].items()):
        doc = analyze(AnalysisConfig(map_spec=catalog()[family].to_spec(),
                                     lambdas=lambdas, **cfg))
        for lam_key, cell in cells.items():
            conds = doc["results"][lam_key]["conditions"]
            classes = {c: e["classification"] for c, e in conds.items()}
            if len(set(classes.values())) != 1:
                disagreements.append((family, lam_key, classes))
            if classes != cell["classifications"]:
                disagreements.append((family, lam_key, "fixture drift"))
            for pair, spec in cell["windows"].items():
                a, b = pair.split("/")
                lo, hi = spec["window"]
                for j in range(spec["j_lo"], spec["j_hi"] + 1):
                    r = (conds[a]["cumulative"][j - 1]
                         / conds[b]["cumulative"][j - 1])
                    if not lo <= r <= hi:
                        breaches.append((family, lam_key, pair, j, r))
    dt = time.perf_counter() - t0
    _line(6, "truncated (i)-(v) ratios inside per-family windows, "
             "classifications agree per cell",
          not breaches and not disagreements and dt < 600.0,
          f"{len(fixture['families'])} families x {len(lambdas)} lambdas, "
          f"{len(breaches)} window breaches, "
          f"{len(disagreements)} class disagreements, {dt:.0f} s")


def test_criterion_7_orlicz_machinery():
    t0 = time.perf_counter()
    grid = oz.log_grid()
    phi0 = oz.log_weighted_square(0.0)
    pointwise = bool(np.all(phi0(2.0 * grid) == 4.0 * phi0(grid)))
    d2 = oz.delta2_constant(phi0)

    kr_ok = all(oz.check_kr_criterion(oz.log_weighted_square(lam), 2.0)
                for lam in (0.0, 1.0, 2.0))
    kr_neg_ok = all(
        oz.check_kr_criterion(oz.log_weighted_square(lam),
                              2.0 ** (1.0 / (1.0 + lam)))
        for lam in (-0.5, -0.9))

    # full s x t grid; one flat and one weighted N-function fit the budget
    young = min(oz.complementary_pair(oz.log_weighted_square(lam))
                .young_slack(grid, grid) for lam in (0.0, 1.0))
    dt = time.perf_counter() - t0
    _line(7, "Delta2(lam=0) == 4 exactly, KR criterion choices, Young holds",
          pointwise and d2 == 4.0 and kr_ok and kr_neg_ok
          and young >= 0.0 and dt < 10.0,
          f"Delta2 {d2}, min Young slack {young:.2e}, {dt:.1f} s")


def test_criterion_8_chordarc_contrast():
    t0 = time.perf_counter()
    cusp = cusp_domain(64)
    sampler = PairSampler(seed=0)
    cc = chordarc_constant(cusp, sampler)
    ic = internal_chordarc_constant(cusp, sampler)

    gon = regular_polygon(256, 1.0)
    gc = chordarc_constant(gon, sampler)
    gi = internal_chordarc_constant(gon, sampler)
    dt = time.perf_counter() - t0
    _line(8, "cusp separates chord-arc from internal chord-arc; 256-gon near pi/2",
          cc > 50.0 and ic <= 10.0 and abs(gc - gi) <= 1e-9
          and abs(gc - math.pi / 2) / (math.pi / 2) <= 0.02 and dt < 60.0,
          f"cusp {cc:.1f} vs {ic:.2f}; 256-gon {gc:.6f} "
          f"(|cc-ic| {abs(gc - gi):.1e}), {dt:.1f} s")


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    def run(sub):
        analyze(AnalysisConfig(
            map_spec={"kind": "mobius_trace", "params": {"a": 0.5}},
            lambdas=(0.0, 1.0), j_disk=6, j_dyadic=8, n_boundary=2 ** 10,
            out=str(tmp_path / sub)))
        return {name: (tmp_path / sub / name).read_bytes()
                for name in ("report.json", "levels.csv", "ratios.csv")}

    first, second = run("a"), run("b")
    identical = first == second
    load_report(tmp_path / "a" / "report.json")     # schema validation
    dt = time.perf_counter() - t0
    _line(9, "repeated analyze runs are byte-identical and schema-valid",
          identical and dt < 60.0,
          f"report.json {len(first['report.json'])} bytes, {dt:.1f} s")
