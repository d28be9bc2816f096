import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import circle_energy
from circle_energy import report
from circle_energy.chordarc import load_vertices
from circle_energy.cli import main

FAST = ["--lambda", "0,1", "--levels", "8", "--disk-levels", "6",
        "--n-boundary", "1024"]


def test_analyze_stdout_is_a_valid_report(capsys):
    code = main(["analyze", "--map", "identity", *FAST,
                 "--conditions", "iii,iv,v"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    report.validate_report(doc)
    assert doc["map"]["kind"] == "identity"
    assert sorted(doc["results"]) == ["0.0", "1.0"]


def test_analyze_out_dir(tmp_path, capsys):
    code = main(["analyze", "--map", "identity", *FAST,
                 "--conditions", "iv,v", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda=0.0: verdict all-finite-consistent" in out
    assert f"wrote report.json, levels.csv, ratios.csv under {tmp_path}" in out
    doc = report.load_report(tmp_path / "report.json")
    assert doc["config"]["j_dyadic"] == 8
    assert (tmp_path / "levels.csv").is_file()
    assert (tmp_path / "ratios.csv").is_file()


def test_analyze_exits_2_after_reporting_failed_conditions(tmp_path, capsys):
    # j^lambda overflows a double at lambda = 1000
    args = ["analyze", "--map", "identity", "--lambda", "1000", "--conditions", "iv"]
    assert main(args) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["1000.0"]["conditions"]["iv"]["status"] == "failed"
    assert main([*args, "--out", str(tmp_path)]) == 2
    assert "verdict mixed/flagged" in capsys.readouterr().out
    assert (tmp_path / "report.json").is_file()


def test_huge_disk_lambda_fails_its_entries_without_warnings(capsys):
    # log(e + |Dh|)**10000 and log(2/(1-r))**10000 overflow a double; the
    # overflow is a failed entry (at N_b = 1024, |Dh| = 1 keeps (i) finite at 1000)
    args = ["analyze", "--map", "identity", "--lambda", "0,10000", "--conditions", "i,ii",
            "--disk-levels", "6", "--n-boundary", "1024"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 2
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    results = json.loads(capsys.readouterr().out)["results"]
    assert {e["status"] for e in results["10000.0"]["conditions"].values()} == {"failed"}
    assert {e["status"] for e in results["0.0"]["conditions"].values()} == {"ok"}


def test_overflowing_level_sum_fails_its_entries(capsys):
    # at lambda = 897 each (v) level term of the identity is finite but their
    # sum is not; the (iv) weight 3^897 overflows on its own
    args = ["analyze", "--map", "identity", "--conditions", "iv,v", "--lambda", "0,897",
            "--levels", "10"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    results = json.loads(captured.out)["results"]
    assert {e["status"] for e in results["897.0"]["conditions"].values()} == {"failed"}
    assert {e["status"] for e in results["0.0"]["conditions"].values()} == {"ok"}


def test_disk_config_below_the_aliasing_guard_rejected(capsys):
    args = ["analyze", "--map", "identity", "--conditions", "i", "--lambda", "0",
            "--disk-levels", "12"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "n_boundary" in captured.err
    assert captured.out == ""


def test_out_of_range_levels_rejected_before_any_work(capsys):
    args = ["analyze", "--map", "identity", "--conditions", "iv", "--levels", "24",
            "--lambda", "0"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "j_dyadic" in captured.err
    assert captured.out == ""


def test_non_finite_inputs_exit_1_before_any_output(tmp_path, capsys):
    for lam in ("inf", "nan", "-inf"):
        args = ["analyze", "--map", "identity", "--lambda", lam,
                "--conditions", "iii,iv,v", "--levels", "6"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "lambda" in captured.err
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "rotation", "params": {"c": NaN}}')
    assert main(["analyze", "--map", str(spec), "--conditions", "iv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_negative_lambda_value_in_space_separated_form(capsys):
    # "-0.5,0" must parse as the flag's value, not as an unknown option
    code = main(["analyze", "--map", "identity", "--lambda", "-0.5,0",
                 "--levels", "8", "--conditions", "iv"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc["results"]) == ["-0.5", "0.0"]


def test_analyze_map_spec_file(tmp_path, capsys):
    spec = {"kind": "power", "params": {"p": 2.0},
            "base_point_image_angle": 0.0}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(spec))
    code = main(["analyze", "--map", str(path), *FAST, "--conditions", "iv"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["map"]["params"] == {"p": 2.0}


def test_unknown_map_name_lists_families(capsys):
    assert main(["analyze", "--map", "nonesuch", "--conditions", "iv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "identity" in err


def test_bad_spec_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--map", str(bad), "--conditions", "iv"]) == 1
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["analyze", "--map", str(arr), "--conditions", "iv"]) == 1
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff{}")
    assert main(["analyze", "--map", str(binary), "--conditions", "iv"]) == 1
    assert "not valid JSON" in capsys.readouterr().err
    missing = tmp_path / "spec.json"
    missing.write_text('{"kind": "power", "params": {}}')
    assert main(["analyze", "--map", str(missing), "--conditions", "iv"]) == 1
    assert "requires param" in capsys.readouterr().err


def test_invalid_flag_values_exit_1(capsys):
    assert main(["analyze", "--map", "identity", "--lambda", "abc"]) == 1
    assert main(["analyze", "--map", "identity", "--lambda", "-1"]) == 1
    assert main(["analyze", "--map", "identity", "--conditions", "vii"]) == 1
    assert main(["analyze", "--map", "identity", "--levels", "99"]) == 1
    assert main(["analyze"]) == 1                      # --map is required
    assert main(["frobnicate"]) == 1                   # unknown subcommand
    capsys.readouterr()


def test_verify_suite_passes(capsys):
    code = main(["verify", "energy"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("[PASS] energy:") for line in lines[:-1])
    n = len(lines) - 1
    assert lines[-1] == f"{n}/{n} checks passed"


def test_verify_coarse_poisson_fails_with_exit_3(capsys):
    code = main(["verify", "poisson", "--n-boundary", "256"])
    assert code == 3
    out = capsys.readouterr().out
    assert "[FAIL] poisson:" in out
    assert "kernel derivatives match" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nonesuch"]) == 1
    capsys.readouterr()


def test_sweep_requires_out(tmp_path, capsys):
    assert main(["sweep", "--map", "identity", *FAST,
                 "--conditions", "iv"]) == 1
    capsys.readouterr()
    code = main(["sweep", "--map", "identity", *FAST,
                 "--conditions", "iv,v", "--out", str(tmp_path)])
    assert code == 0
    assert "rows" in capsys.readouterr().out
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda,J,total_iv,class_iv,total_v,class_v"
    assert len(lines) > 1


def test_cusp_demo(tmp_path, capsys):
    code = main(["cusp-demo", "--resolution", "32", "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "chord-arc constant" in out
    assert "internal chord-arc" in out
    doc = json.loads((tmp_path / "cusp_report.json").read_text())
    assert doc["resolution"] == 32
    assert doc["chordarc_constant"] > doc["internal_chordarc_constant"]
    assert doc["reflex_vertex_count"] == 1
    dom = load_vertices(tmp_path / "cusp_vertices.txt")
    assert dom.vertices.shape[0] == doc["vertex_count"]


def test_cusp_demo_bad_resolution(capsys):
    assert main(["cusp-demo", "--resolution", "8"]) == 1
    capsys.readouterr()


def test_analyze_validates_each_report_once(tmp_path, capsys, monkeypatch):
    calls = []
    validate = report.validate_report
    monkeypatch.setattr(report, "validate_report",
                        lambda doc: calls.append(doc) or validate(doc))
    for out in ([], ["--out", str(tmp_path)]):
        calls.clear()
        assert main(["analyze", "--map", "identity", *FAST,
                     "--conditions", "iv,v", *out]) == 0
        assert len(calls) == 1, out
    capsys.readouterr()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; a fresh interpreter shows what the
    # CLI itself pulls in
    src = str(Path(circle_energy.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import circle_energy.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, src], check=True,
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "[]"


def test_cli_and_chordarc_suite_load_no_jsonschema():
    # only report validation needs jsonschema; `verify` and `cusp-demo` skip it
    src = str(Path(circle_energy.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import circle_energy.cli; "
            "from circle_energy.verify import run_suite; run_suite('chordarc'); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))")
    proc = subprocess.run([sys.executable, "-c", code, src], check=True,
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "[]"
