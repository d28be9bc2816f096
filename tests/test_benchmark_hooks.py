"""The benchmark's tracer hooks still find every name they wrap.

`perfbench/spans.py` wraps package functions and methods by name for its
per-layer (`--trace 1`) metrics; a renamed or removed name fails here rather
than in a benchmark run.
"""

import importlib.util
from pathlib import Path

from circle_energy.circle_map import CircleHomeomorphism

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_hook_and_restores_it():
    spans = _spans_module()
    eval_lift = vars(CircleHomeomorphism)["eval_lift"]
    tracer = spans.Tracer()
    try:
        tracer.install()        # raises if a wrapped name is gone
        hooks = list(tracer._restore)
        wrapped = [vars(owner)[attr] for owner, attr, _ in hooks]
    finally:
        tracer.uninstall()
    # every listed function and method, energy_i/energy_ii and run_suite
    assert len(hooks) >= len(spans._FUNCTIONS) + len(spans._METHODS) + 3
    assert all(w is not orig for w, (_, _, orig) in zip(wrapped, hooks))
    assert all(vars(owner)[attr] is orig for owner, attr, orig in hooks)
    assert vars(CircleHomeomorphism)["eval_lift"] is eval_lift
    assert not tracer._restore
