import json

import pytest

import circle_energy.energy as en
from circle_energy import report
from circle_energy.errors import ValidationError


@pytest.fixture()
def doc(identity):
    rep = en.dyadic_energy_iv(identity, 0.0, 6)
    return {
        "schema_version": report.SCHEMA_VERSION,
        "kind": "equivalence_report",
        "map": {"kind": "identity", "params": {},
                "base_point_image_angle": 0.0},
        "config": {"lambdas": [0.0], "conditions": ["iv"], "j_disk": 6,
                   "j_dyadic": 6, "n_boundary": 1024, "gauss_order": 4,
                   "seed": 0},
        "results": {
            "0.0": {
                "conditions": {
                    "iv": report.energy_entry(rep),
                    "ii": report.failed_entry("poisson", ValueError("boom")),
                },
                "ratio_tables": {
                    "iv/v": {"levels": [5, 6], "ratios": [1.0, 1.0]},
                },
                "verdict": "all-finite-consistent",
            },
        },
    }


def test_energy_entry_is_json_ready(identity):
    rep = en.dyadic_energy_iv(identity, 0.5, 4)
    entry = report.energy_entry(rep, method="dyadic")
    assert entry["status"] == "ok"
    assert entry["method"] == "dyadic"
    assert isinstance(entry["levels"], list)
    assert json.loads(json.dumps(entry)) == entry


def test_failed_entry_shape():
    entry = report.failed_entry("poisson", ValueError("boom"))
    assert entry == {"status": "failed", "module": "poisson", "error": "boom"}


def test_validate_accepts_good_doc(doc):
    report.validate_report(doc)


def test_validate_rejects_missing_section(doc):
    del doc["config"]
    with pytest.raises(ValidationError):
        report.validate_report(doc)


def test_validate_rejects_bad_verdict(doc):
    doc["results"]["0.0"]["verdict"] = "looks fine"
    with pytest.raises(ValidationError):
        report.validate_report(doc)


def test_validate_rejects_bad_classification(doc):
    doc["results"]["0.0"]["conditions"]["iv"]["classification"] = "maybe"
    with pytest.raises(ValidationError):
        report.validate_report(doc)


def test_render_is_deterministic_and_sorted(doc):
    text = report.render_report(doc)
    assert text == report.render_report(doc)
    # key order in the source dict must not matter
    shuffled = {k: doc[k] for k in reversed(list(doc))}
    assert report.render_report(shuffled) == text
    assert text.index('"config"') < text.index('"results"')


def test_write_and_load_roundtrip(doc, tmp_path):
    path = tmp_path / "report.json"
    report.write_report(doc, path)
    assert report.load_report(path) == doc


def test_load_rejects_invalid_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"kind": "equivalence_report"}')
    with pytest.raises(ValidationError):
        report.load_report(path)


def test_levels_csv_skips_failed_entries(doc, tmp_path):
    path = tmp_path / "levels.csv"
    report.write_levels_csv(doc, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,condition,j,term,cumulative"
    assert len(lines) == 1 + 6          # six levels, failed (ii) omitted
    assert all(line.startswith("0.0,iv,") for line in lines[1:])
    term = float(lines[1].split(",")[3])
    assert term == doc["results"]["0.0"]["conditions"]["iv"]["per_level"][0]


def test_ratios_csv(doc, tmp_path):
    path = tmp_path / "ratios.csv"
    report.write_ratios_csv(doc, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,pair,j,ratio"
    assert lines[1] == "0.0,iv/v,5,1.0"
    assert lines[2] == "0.0,iv/v,6,1.0"


def test_sweep_csv_blank_for_missing_totals(tmp_path):
    rows = [
        {"lambda": 0.0, "J": 6, "total_iv": 1.25, "class_iv": "convergent"},
        {"lambda": 1.0, "J": 6},
    ]
    path = tmp_path / "sweep.csv"
    report.write_sweep_csv(rows, ["iv"], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,J,total_iv,class_iv"
    assert lines[1] == "0.0,6,1.25,convergent"
    assert lines[2] == "1.0,6,,"
