"""Equivalence-report document model, JSON schema, and CSV companions.

Reports are deterministic: keys are emitted sorted, floats use repr (exact
round-trip), and no timestamps or environment data are embedded, so two
runs with the same configuration produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import jsonschema

from .energy import EnergyReport
from .errors import ValidationError

SCHEMA_VERSION = "2.0"

_ENERGY_ENTRY = {
    "type": "object",
    "required": ["status", "condition", "lam", "J", "levels", "per_level",
                 "cumulative", "total", "classification", "tail_ratio"],
    "properties": {
        "status": {"const": "ok"},
        "condition": {"type": "string"},
        "lam": {"type": "number"},
        "J": {"type": "integer"},
        "levels": {"type": "array", "items": {"type": "integer"}},
        "per_level": {"type": "array", "items": {"type": "number"}},
        "cumulative": {"type": "array", "items": {"type": "number"}},
        "total": {"type": "number"},
        "classification": {"enum": ["convergent", "divergent", "inconclusive"]},
        "tail_ratio": {"type": ["number", "null"]},
        "method": {"type": "string"},
        "resolution": {"type": "integer"},
        "far_pair_part": {"type": "number"},
        "dyadic_total": {"type": "number"},
        "direct_total": {"type": "number"},
        "direct_error_bound": {"type": "number"},
    },
}

_FAILED_ENTRY = {
    "type": "object",
    "required": ["status", "module", "error"],
    "properties": {
        "status": {"const": "failed"},
        "module": {"type": "string"},
        "error": {"type": "string"},
    },
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "kind", "map", "config", "results"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "kind": {"const": "equivalence_report"},
        "map": {
            "type": "object",
            "required": ["kind", "params", "base_point_image_angle"],
        },
        "config": {
            "type": "object",
            "required": ["lambdas", "conditions", "j_disk", "j_dyadic",
                         "n_boundary", "gauss_order", "seed"],
        },
        "results": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["conditions", "ratio_tables", "verdict"],
                "properties": {
                    "conditions": {
                        "type": "object",
                        "additionalProperties": {
                            "oneOf": [_ENERGY_ENTRY, _FAILED_ENTRY],
                        },
                    },
                    "ratio_tables": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "object",
                            "required": ["levels", "ratios"],
                        },
                    },
                    "verdict": {"enum": ["all-finite-consistent",
                                         "all-divergent-consistent",
                                         "mixed/flagged"]},
                },
            },
        },
    },
}


def energy_entry(rep: EnergyReport, **extra) -> dict:
    d = asdict(rep)
    d["levels"] = list(d["levels"])
    d["per_level"] = list(d["per_level"])
    d["cumulative"] = list(d["cumulative"])
    d["status"] = "ok"
    d.update(extra)
    return d


def failed_entry(module: str, error: Exception | str) -> dict:
    return {"status": "failed", "module": module, "error": str(error)}


@functools.cache
def _validator():
    """The schema's validator, with the schema itself checked once."""
    cls = jsonschema.validators.validator_for(REPORT_SCHEMA)
    cls.check_schema(REPORT_SCHEMA)
    return cls(REPORT_SCHEMA)


def validate_report(doc: dict) -> None:
    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        raise ValidationError(f"report failed schema validation: {error.message}")


def render_report(doc: dict, validate: bool = True) -> str:
    """The report as deterministic JSON; `validate=False` for a validated doc."""
    if validate:
        validate_report(doc)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_report(doc: dict, path, validate: bool = True) -> None:
    Path(path).write_text(render_report(doc, validate))


def load_report(path) -> dict:
    doc = json.loads(Path(path).read_text())
    validate_report(doc)
    return doc


def write_levels_csv(doc: dict, path) -> None:
    """Flat per-level table: one row per (lambda, condition, level)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lambda", "condition", "j", "term", "cumulative"])
        for lam_key in sorted(doc["results"]):
            conds = doc["results"][lam_key]["conditions"]
            for cname in sorted(conds):
                entry = conds[cname]
                if entry["status"] != "ok":
                    continue
                for j, term, cum in zip(entry["levels"], entry["per_level"],
                                        entry["cumulative"]):
                    w.writerow([lam_key, cname, j, repr(term), repr(cum)])


def write_ratios_csv(doc: dict, path) -> None:
    """Flat ratio table: one row per (lambda, condition pair, level)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lambda", "pair", "j", "ratio"])
        for lam_key in sorted(doc["results"]):
            tables = doc["results"][lam_key]["ratio_tables"]
            for pair in sorted(tables):
                tab = tables[pair]
                for j, r in zip(tab["levels"], tab["ratios"]):
                    w.writerow([lam_key, pair, j, repr(r)])


def write_sweep_csv(rows: list[dict], conditions: list[str], path) -> None:
    """One row per (lambda, J); per-condition partial total and class."""
    cols = ["lambda", "J"]
    for c in conditions:
        cols += [f"total_{c}", f"class_{c}"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in rows:
            out = [repr(row["lambda"]), row["J"]]
            for c in conditions:
                tot = row.get(f"total_{c}")
                out.append("" if tot is None else repr(tot))
                out.append(row.get(f"class_{c}", ""))
            w.writerow(out)
