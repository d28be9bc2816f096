"""Regenerate equivalence_windows.json.

For every built-in family and lambda in LAMBDAS this records, per condition
pair, the observed range of cumulative-sum ratios over the shared truncation
levels (disk conditions over J = 6..10, dyadic conditions over J = 8..14),
widened by MARGIN in log space, plus the per-condition classifications.

Run from the repository root:

    python3 tests/fixtures/generate_windows.py
"""

import json
import math
from pathlib import Path

from circle_energy.analyzer import AnalysisConfig, analyze
from circle_energy.circle_map import catalog

LAMBDAS = (-0.5, 0.0, 1.0)
DISK_RANGE = (6, 10)        # truncations compared for conditions (i)/(ii)
DYADIC_RANGE = (8, 14)      # truncations compared for (iii)/(iv)/(v)
MARGIN = 1.2                # multiplicative widening of each window
CONFIG = dict(j_disk=DISK_RANGE[1], j_dyadic=DYADIC_RANGE[1],
              n_boundary=2 ** 14, gauss_order=4, direct_resolution=512,
              seed=0)
CONDITIONS = ("i", "ii", "iii", "iv", "v")

# deep pre-asymptotic regime: the Cantor stage exceeds every tested level
DEEP_CANTOR = {"map_spec": {"kind": "smoothed_cantor",
                            "params": {"stage": 8, "floor": 1e-6}},
               "lam": 2.0}


def j_range(cond):
    return DISK_RANGE if cond in ("i", "ii") else DYADIC_RANGE


def ratio_window(entry_a, entry_b, cond_a, cond_b):
    lo = max(j_range(cond_a)[0], j_range(cond_b)[0])
    hi = min(j_range(cond_a)[1], j_range(cond_b)[1])
    ratios = [entry_a["cumulative"][j - 1] / entry_b["cumulative"][j - 1]
              for j in range(lo, hi + 1)]
    return [min(ratios) / MARGIN, max(ratios) * MARGIN], (lo, hi)


def main():
    doc = {
        "meta": {
            "lambdas": list(LAMBDAS),
            "disk_j_range": list(DISK_RANGE),
            "dyadic_j_range": list(DYADIC_RANGE),
            "margin": MARGIN,
            "config": CONFIG,
        },
        "families": {},
    }
    for name in sorted(catalog()):
        spec = catalog()[name].to_spec()
        result = analyze(AnalysisConfig(map_spec=spec, lambdas=LAMBDAS,
                                        conditions=CONDITIONS, **CONFIG))
        per_lambda = {}
        for lam in LAMBDAS:
            conds = result["results"][repr(lam)]["conditions"]
            bad = [c for c, e in conds.items() if e["status"] != "ok"]
            if bad:
                raise RuntimeError(f"{name} lam={lam}: failed entries {bad}")
            windows = {}
            for i, a in enumerate(CONDITIONS):
                for b in CONDITIONS[i + 1:]:
                    win, (lo, hi) = ratio_window(conds[a], conds[b], a, b)
                    windows[f"{a}/{b}"] = {"window": win, "j_lo": lo, "j_hi": hi}
            classes = {c: conds[c]["classification"] for c in CONDITIONS}
            per_lambda[repr(lam)] = {
                "classifications": classes,
                "agreement": len(set(classes.values())) == 1,
                "windows": windows,
            }
        doc["families"][name] = per_lambda
        agree = all(v["agreement"] for v in per_lambda.values())
        print(f"{name}: classifications "
              f"{'agree' if agree else 'DISAGREE'} across cells")
        if not agree:
            for lam_key, block in per_lambda.items():
                if not block["agreement"]:
                    print(f"  lam={lam_key}: {block['classifications']}")

    deep = analyze(AnalysisConfig(map_spec=DEEP_CANTOR["map_spec"],
                                  lambdas=(DEEP_CANTOR["lam"],),
                                  conditions=CONDITIONS, **CONFIG))
    block = deep["results"][repr(DEEP_CANTOR["lam"])]
    doc["deep_cantor_example"] = {
        "map_spec": DEEP_CANTOR["map_spec"],
        "lam": DEEP_CANTOR["lam"],
        "verdict": block["verdict"],
        "classifications": {c: block["conditions"][c]["classification"]
                            for c in CONDITIONS},
    }
    print(f"deep cantor example: verdict {block['verdict']}")

    out = Path(__file__).with_name("equivalence_windows.json")
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
