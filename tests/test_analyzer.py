import json
from pathlib import Path

import pytest

from circle_energy import energy, logkernel, report
from circle_energy.analyzer import CONDITIONS, AnalysisConfig, analyze, sweep
from circle_energy.circle_map import CircleHomeomorphism, catalog
from circle_energy.errors import ValidationError

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
    # resolution below the direct-method floor fails inside the worker
    doc = analyze(quick_config(lambdas=(0.0,), conditions=("iii",),
                               direct_resolution=16))
    entry = doc["results"]["0.0"]["conditions"]["iii"]
    assert entry["status"] == "failed"
    assert entry["module"] == "logkernel"
    assert doc["results"]["0.0"]["verdict"] == "mixed/flagged"


def test_failed_conditions_never_give_a_consistent_verdict():
    # (iii) converges at J=24, but (iv) and (v) stop at their level guard
    doc = analyze(quick_config(lambdas=(0.0,), conditions=("iii", "iv", "v"),
                               j_dyadic=24))
    block = doc["results"]["0.0"]
    assert block["conditions"]["iii"]["classification"] == "convergent"
    for cond in ("iv", "v"):
        assert block["conditions"][cond]["status"] == "failed"
        assert "exceeds guard" in block["conditions"][cond]["error"]
    assert block["verdict"] == "mixed/flagged"


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
    cfg = dict(conditions=("iii", "iv", "v"))
    both = analyze(quick_config(lambdas=(0.0, 1000.0), **cfg))["results"]
    alone = analyze(quick_config(lambdas=(0.0,), **cfg))["results"]
    assert both["0.0"] == alone["0.0"]
    assert {e["status"] for e in both["0.0"]["conditions"].values()} == {"ok"}
    assert {e["status"] for e in both["1000.0"]["conditions"].values()} == {"failed"}


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
    rows = sweep(cfg, lambda_grid=[1.0, 2.0])
    assert sorted({r["lambda"] for r in rows}) == [1.0, 2.0]
    with pytest.raises(ValidationError):
        sweep(cfg, lambda_grid=[-1.0])


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
    rows = sweep(cfg, lambda_grid=[0.0, 1.0, 2.0])
    final = {r["lambda"]: r["total_v"] for r in rows if r["J"] == 8}
    assert final[0.0] < final[1.0] < final[2.0]
