import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_energy import energy, logkernel, poisson, report
from circle_energy.analyzer import (CONDITIONS, MIN_CLASSIFY_LEVELS, AnalysisConfig,
                                    analyze, sweep)
from circle_energy.circle_map import TWO_PI, CircleHomeomorphism, catalog
from circle_energy.errors import ResourceGuardError, ValidationError

IDENTITY_SPEC = {"kind": "identity", "params": {},
                 "base_point_image_angle": 0.0}


def quick_config(**overrides):
    kw = dict(map_spec=IDENTITY_SPEC, lambdas=(0.0, 1.0), j_disk=6,
              j_dyadic=8, n_boundary=2 ** 10, direct_resolution=128)
    kw.update(overrides)
    return AnalysisConfig(**kw)


# -- config validation -----------------------------------------------------------

def test_lambda_endpoint_rejected_with_open_interval_message():
    with pytest.raises(ValidationError, match="endpoint -1 is excluded"):
        quick_config(lambdas=(-1.0,))
    with pytest.raises(ValidationError):
        quick_config(lambdas=(-2.0, 0.0))
    with pytest.raises(ValidationError):
        quick_config(lambdas=())
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            quick_config(lambdas=(0.0, lam))


def test_condition_subset_validation():
    with pytest.raises(ValidationError):
        quick_config(conditions=())
    with pytest.raises(ValidationError, match="unknown conditions"):
        quick_config(conditions=("i", "vi"))
    with pytest.raises(ValidationError, match="duplicates"):
        quick_config(conditions=("iv", "iv"))
    cfg = quick_config(conditions=("v", "i"))
    assert cfg.conditions == ("v", "i")


def test_level_and_thread_bounds():
    with pytest.raises(ValidationError):
        quick_config(j_disk=5)
    with pytest.raises(ValidationError):
        quick_config(j_disk=13)
    with pytest.raises(ValidationError):
        quick_config(j_dyadic=41)


@pytest.mark.parametrize("name, lowest, highest", [
    ("j_disk", MIN_CLASSIFY_LEVELS, poisson.MAX_WHITNEY_J),
    ("j_dyadic", MIN_CLASSIFY_LEVELS, energy.MAX_J),
    ("n_boundary", *poisson.NODES_RANGE),
    ("gauss_order", *poisson.GAUSS_RANGE),
    ("direct_resolution", logkernel.MIN_RESOLUTION, logkernel.MAX_RESOLUTION),
])
def test_config_bounds_are_the_module_guards(name, lowest, highest):
    # the aliasing guard n_boundary >= 2^(j_disk + 4) asks 2^16 nodes at j_disk = 12,
    # and at quick_config's j_disk = 6 it lifts the n_boundary floor from 2^8 to 2^10
    nodes = {"n_boundary": 2 ** 16} if name == "j_disk" else {}
    if name == "n_boundary":
        with pytest.raises(ValidationError, match=name):
            quick_config(n_boundary=lowest)
        lowest = 2 ** 10
    for value in (lowest, highest):
        assert getattr(quick_config(**nodes, **{name: value}), name) == value
    for value in (lowest - 1, highest + 1):
        with pytest.raises(ValidationError, match=name):
            quick_config(**nodes, **{name: value})


# -- analyze ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def identity_doc():
    return analyze(quick_config())


def test_identity_all_conditions_convergent(identity_doc):
    assert set(identity_doc["results"]) == {"0.0", "1.0"}
    for block in identity_doc["results"].values():
        assert block["verdict"] == "all-finite-consistent"
        assert set(block["conditions"]) == set(CONDITIONS)
        for entry in block["conditions"].values():
            assert entry["status"] == "ok"
            assert entry["classification"] == "convergent"


def test_iii_entry_carries_both_methods(identity_doc):
    entry = identity_doc["results"]["0.0"]["conditions"]["iii"]
    assert entry["method"] == "dyadic"
    # dyadic_total = far-pair part + the banded near-diagonal sum
    assert entry["dyadic_total"] == pytest.approx(
        entry["far_pair_part"] + entry["total"], rel=1e-12)
    assert entry["direct_total"] > 0
    assert entry["direct_error_bound"] > 0
    # both estimates see the same finite quantity, up to surrogate slack
    assert 0.3 < entry["dyadic_total"] / entry["direct_total"] < 3.0


def test_iv_v_ratio_table_is_unity_at_lambda_zero(identity_doc):
    # at lambda = 0 both dyadic sums carry weight 1, so the ratios collapse
    tab = identity_doc["results"]["0.0"]["ratio_tables"]["iv/v"]
    assert tab["ratios"] == [1.0] * len(tab["levels"])
    assert tab["levels"] == list(range(1, 9))


def test_all_condition_pairs_tabulated(identity_doc):
    pairs = set(identity_doc["results"]["0.0"]["ratio_tables"])
    assert pairs == {f"{a}/{b}" for i, a in enumerate(CONDITIONS)
                     for b in CONDITIONS[i + 1:]}


def test_failed_condition_recorded_not_raised():
    # log^(lambda+1) overflows a double at lambda = 1000 inside the (iii) engine
    doc = analyze(quick_config(lambdas=(1000.0,), conditions=("iii",)))
    entry = doc["results"]["1000.0"]["conditions"]["iii"]
    assert entry["status"] == "failed"
    assert entry["module"] == "logkernel"
    assert doc["results"]["1000.0"]["verdict"] == "mixed/flagged"


def test_failed_conditions_never_give_a_consistent_verdict(monkeypatch):
    # (iii) converges, but the (iv)/(v) engine stops at a resource guard
    import circle_energy.analyzer as analyzer_mod

    def guarded(*args, **kwargs):
        raise ResourceGuardError("J 8 exceeds guard 7")

    monkeypatch.setattr(analyzer_mod, "dyadic_reports", guarded)
    doc = analyze(quick_config(lambdas=(0.0,), conditions=("iii", "iv", "v")))
    block = doc["results"]["0.0"]
    assert block["conditions"]["iii"]["classification"] == "convergent"
    for cond in ("iv", "v"):
        assert block["conditions"][cond]["status"] == "failed"
        assert "exceeds guard" in block["conditions"][cond]["error"]
    assert block["verdict"] == "mixed/flagged"


def test_disk_group_guard_fails_its_entries_only(monkeypatch):
    import circle_energy.analyzer as analyzer_mod

    def guarded(*args, **kwargs):
        raise ResourceGuardError("Whitney depth 13 exceeds guard 12")

    monkeypatch.setattr(analyzer_mod, "HarmonicExtension", guarded)
    doc = analyze(quick_config(conditions=("i", "ii", "iv")))
    for block in doc["results"].values():
        for cond in ("i", "ii"):
            assert block["conditions"][cond]["module"] == "poisson"
            assert "exceeds guard" in block["conditions"][cond]["error"]
        assert block["conditions"]["iv"]["status"] == "ok"


def test_non_finite_lift_gives_no_ok_entry():
    # t * beta overflows, so the lift is inf / inf = nan away from t = 0
    spec = {"kind": "log_singular", "params": {"beta": 1e308}}
    with np.errstate(over="ignore", invalid="ignore"):
        doc = analyze(quick_config(map_spec=spec))
    entries = [e for block in doc["results"].values() for e in block["conditions"].values()]
    assert len(entries) == 10
    assert {e["status"] for e in entries} == {"failed"}

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    json.loads(report.render_report(doc), parse_constant=reject)


def test_float_overflow_is_a_failed_entry():
    # j^lambda and log^(lambda+1) overflow Python floats at lambda = 1000
    doc = analyze(quick_config(lambdas=(1000.0,), conditions=("iii", "iv", "v")))
    block = doc["results"]["1000.0"]
    assert {e["status"] for e in block["conditions"].values()} == {"failed"}
    assert block["verdict"] == "mixed/flagged"


def test_programming_errors_propagate(monkeypatch):
    import circle_energy.analyzer as analyzer_mod

    def broken(*args, **kwargs):
        raise TypeError("not a numerical failure")

    monkeypatch.setattr(analyzer_mod, "dyadic_reports", broken)
    with pytest.raises(TypeError, match="not a numerical failure"):
        analyze(quick_config(lambdas=(0.0,), conditions=("iv",)))


def test_analyze_writes_deterministic_files(tmp_path):
    doc_a = analyze(quick_config(lambdas=(0.5,), out=str(tmp_path / "a")))
    doc_b = analyze(quick_config(lambdas=(0.5,), out=str(tmp_path / "b")))
    assert doc_a == doc_b
    text_a = (tmp_path / "a" / "report.json").read_bytes()
    text_b = (tmp_path / "b" / "report.json").read_bytes()
    assert text_a == text_b
    for name in ("report.json", "levels.csv", "ratios.csv"):
        assert (tmp_path / "a" / name).is_file()
    loaded = json.loads(text_a)
    assert loaded == doc_a


# -- one engine per condition ---------------------------------------------------

ENGINE_LAMBDAS = (-0.5, 0.0, 1.0, 2.0)


def _one_lambda_entries(m, lam, J):
    """The (iii)/(iv)/(v) entries from the one-lambda public functions."""
    dy = logkernel.log_energy_dyadic(m, lam, J)
    direct = logkernel.log_energy_direct(m, lam)
    rep = energy.make_report("iii", lam, dy.band_levels[-1], dy.band_levels,
                             dy.band_terms)
    return {
        "iii": report.energy_entry(
            rep, method="dyadic", resolution=dy.resolution,
            far_pair_part=dy.part_one, dyadic_total=dy.total,
            direct_total=direct.total,
            direct_error_bound=direct.excluded_band_bound),
        "iv": report.energy_entry(energy.dyadic_energy_iv(m, lam, J)),
        "v": report.energy_entry(energy.dyadic_energy_v(m, lam, J)),
    }


def test_analyze_equals_the_one_lambda_functions_bit_for_bit():
    for name, m in catalog().items():
        doc = analyze(AnalysisConfig(map_spec=m.to_spec(), lambdas=ENGINE_LAMBDAS,
                                     conditions=("iii", "iv", "v"), j_dyadic=14))
        for lam in ENGINE_LAMBDAS:
            got = doc["results"][repr(lam)]["conditions"]
            assert got == _one_lambda_entries(m, lam, 14), (name, lam)


def test_a_failing_lambda_leaves_the_others():
    # each group of conditions: the (iii)-(v) engines overflow at lambda = 1000;
    # log(e + |Dh|)**1000 is finite where |Dh| = 1, log(e + 1)**10000 is not
    for conditions, huge in ((("iii", "iv", "v"), 1000.0), (("i", "ii"), 10000.0)):
        both = analyze(quick_config(lambdas=(0.0, huge), conditions=conditions))["results"]
        alone = analyze(quick_config(lambdas=(0.0,), conditions=conditions))["results"]
        assert both["0.0"] == alone["0.0"]
        assert {e["status"] for e in both["0.0"]["conditions"].values()} == {"ok"}
        assert {e["status"] for e in both[repr(huge)]["conditions"].values()} == {"failed"}


def test_dyadic_conditions_share_one_lift(monkeypatch):
    lifted = []
    original = CircleHomeomorphism.lift_values

    def counting(self, thetas):
        lifted.append(len(thetas))
        return original(self, thetas)

    monkeypatch.setattr(CircleHomeomorphism, "lift_values", counting)
    for lambdas in ((0.0,), ENGINE_LAMBDAS):
        lifted.clear()
        analyze(quick_config(lambdas=lambdas, conditions=("iv", "v")))
        assert lifted == [2 ** 8 + 1], lambdas
        # at J = 18 the one lift is made in blocks of edges, each lifted once
        lifted.clear()
        analyze(quick_config(lambdas=lambdas, conditions=("iv", "v"), j_dyadic=18))
        assert sum(lifted) == 2 ** 18 + 1, (lambdas, lifted)


@st.composite
def bilipschitz_knots(draw):
    """Knots of a piecewise-linear lift: 2-12 segments, slopes within a factor 32."""
    n = draw(st.integers(2, 12))
    widths = np.array(draw(st.lists(st.floats(1.0, 32.0), min_size=n, max_size=n)))
    slopes = np.array(draw(st.lists(st.floats(1.0, 32.0), min_size=n, max_size=n)))
    t = TWO_PI * np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum()
    rise = slopes * np.diff(t)
    v = TWO_PI * np.concatenate([[0.0], np.cumsum(rise)]) / rise.sum()
    return [[float(a), float(b)] for a, b in zip(t[:-1], v[:-1])] + [[TWO_PI, TWO_PI]]


@settings(max_examples=6)
@given(bilipschitz_knots())
def test_bilipschitz_maps_never_fail_or_diverge(knots):
    # the fixture config: J_disk = 10, J_dyadic = 14, N_b = 2^14
    spec = {"kind": "piecewise_linear", "params": {"knots": knots},
            "base_point_image_angle": 0.0}
    doc = analyze(AnalysisConfig(map_spec=spec, lambdas=(-0.5, 0.0, 1.0)))
    for key, block in doc["results"].items():
        for cond, entry in block["conditions"].items():
            assert entry["status"] == "ok", (key, cond, entry)
            assert entry["classification"] != "divergent", (key, cond, knots)


# -- sweep ------------------------------------------------------------------------------

def test_sweep_rows_identity(tmp_path):
    cfg = quick_config(lambdas=(0.0,), conditions=("iv", "v"), j_dyadic=10,
                       out=str(tmp_path))
    rows = sweep(cfg)
    assert [r["J"] for r in rows] == list(range(6, 11))
    for row in rows:
        assert row["class_iv"] == "convergent"
        assert row["class_v"] == "convergent"
    totals = [r["total_iv"] for r in rows]
    assert totals == sorted(totals)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda,J,total_iv,class_iv,total_v,class_v"
    assert len(lines) == 1 + len(rows)


def test_sweep_lambda_grid_override_and_rejection():
    cfg = quick_config(lambdas=(0.0,), conditions=("iv",), j_dyadic=8)
    rows = sweep(replace(cfg, lambdas=(1.0, 2.0)))
    assert sorted({r["lambda"] for r in rows}) == [1.0, 2.0]
    with pytest.raises(ValidationError):
        sweep(replace(cfg, lambdas=(-1.0,)))


def test_deep_cantor_verdict_matches_fixture():
    # the Cantor stage (8) exceeds every tested truncation level, yet the
    # dyadic second moments still decay, so the cell stays finite-consistent
    fixture = json.loads(
        (Path(__file__).parent / "fixtures"
         / "equivalence_windows.json").read_text())
    example = fixture["deep_cantor_example"]
    doc = analyze(AnalysisConfig(map_spec=example["map_spec"],
                                 lambdas=(example["lam"],),
                                 **fixture["meta"]["config"]))
    block = doc["results"][repr(example["lam"])]
    assert block["verdict"] == example["verdict"]
    got = {c: e["classification"] for c, e in block["conditions"].items()}
    assert got == example["classifications"]


def test_sweep_totals_monotone_in_lambda():
    # heavier weight per cell for larger lambda once the arcs are short
    cfg = quick_config(lambdas=(0.0,), conditions=("v",), j_dyadic=8)
    rows = sweep(replace(cfg, lambdas=(0.0, 1.0, 2.0)))
    final = {r["lambda"]: r["total_v"] for r in rows if r["J"] == 8}
    assert final[0.0] < final[1.0] < final[2.0]
