"""Benchmark for circle-energy: end-to-end metrics, output checks, traced layers.

    python3 perfbench/run.py --workload {disk,boundary,certify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from ./src.
A run first times the set-up every CLI call pays (import circle_energy, build
catalog(), validate the AnalysisConfig) in this interpreter and in fresh
ones, then repeats whole rounds of the workload's operations while the next
round is expected to end within S seconds (at least one round), checks every output against values
computed apart from the package, and prints one JSON object as its last
line.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
the rounds run once untraced and once traced, and the metrics are per-layer
self times and counts.  Exit status: 0 when every check holds, 1 when an
output check fails, 2 when the package sources are missing.

Only the standard library is imported before the set-up sample of this
interpreter is taken, so that sample is a cold set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("disk", "boundary", "certify")
SETUP_CHILDREN = 1       # fresh interpreters besides this one

# the set-up of one CLI call; a CONFIG dict is given, SETUP_S is set
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import circle_energy as ce
cat = ce.catalog()
ce.AnalysisConfig(map_spec=cat["power"].to_spec(), **CONFIG)
SETUP_S = time.perf_counter() - t0
"""
CHILD_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
ns = {"CONFIG": json.loads(sys.argv[2])}
exec(sys.argv[3], ns)
print(repr(ns["SETUP_S"]))
"""
# the fixture config of the disk workload; every CLI call validates one
SETUP_CONFIG = {"conditions": ["i", "ii"], "j_disk": 10, "n_boundary": 2 ** 14,
                "gauss_order": 4, "lambdas": [-0.5, 0.0, 1.0]}


def setup_here() -> float:
    ns = {"CONFIG": dict(SETUP_CONFIG)}
    exec(SETUP_CODE, ns)
    return ns["SETUP_S"]


def setup_child() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_CODE, str(SRC), json.dumps(SETUP_CONFIG), SETUP_CODE],
        check=True, capture_output=True, text=True)
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "circle_energy" / "__init__.py").is_file():
        print(f"circle_energy sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CIRCLE_ENERGY_THREADS", None)   # threads = 1, the CLI default
    # one BLAS thread: with the default two, run-to-run spread on two vCPUs
    # was about twice as wide (README.md)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    samples = [setup_here()]
    import circle_energy as ce
    if not args.trace:
        samples += [setup_child() for _ in range(SETUP_CHILDREN)]

    import workloads
    tally, rounds, metrics = workloads.measure(ce, args.workload, args.seed,
                                               args.seconds, bool(args.trace), SRC)
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "wall_s": (tally.wall(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }

    for err in tally.errors:
        print(f"CHECK FAILED {err}", file=sys.stderr)
    correct = not tally.errors
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"rounds {rounds} attempted {tally.attempted} failed {tally.failed} "
          f"correct {correct}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
