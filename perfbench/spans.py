"""Per-layer spans recorded around calls into circle_energy's modules.

`Tracer.install` replaces selected public functions and methods of the
package with wrappers that record a span (layer, start, end, parent) while
the tracer is active, and counts work at the same boundary.  Spans stay in
memory until `write` and are reduced to self time by `layer_totals`: a span's
self time is its duration minus the durations of its direct children.

One layer is reached only through a private name: `analyze` builds the
Whitney field through `HarmonicExtension._whitney_field`.  The field is also
timed around the first `energy_i`/`energy_ii` call of a fresh extension,
which is the public call that first triggers it, so the layer stays measured
if the private name goes away.  Each `run_suite(name)` call is a span of
layer `verify.<name>`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref
from importlib import import_module

import numpy as np

SUITES = ("dyadic", "energy", "logkernel", "poisson", "orlicz", "chordarc")

# (module, attribute, layer, counter); counter names a per-layer count.
_FUNCTIONS = [
    ("energy", "dyadic_energy_iv", "energy.dyadic", "energy.calls"),
    ("energy", "dyadic_energy_v", "energy.dyadic", "energy.calls"),
    ("energy", "comparability_split", "energy.dyadic", "energy.calls"),
    ("logkernel", "log_energy_dyadic", "logkernel.dyadic", None),
    ("logkernel", "log_energy_direct", "logkernel.direct", None),
    ("analyzer", "analyze", "analyzer", None),
    ("report", "validate_report", "report.validate", None),
    ("report", "write_report", "report.write", "report.bytes"),
    ("report", "write_levels_csv", "report.write", "report.bytes"),
    ("report", "write_ratios_csv", "report.write", "report.bytes"),
    ("orlicz", "maximal_field", "orlicz.maximal", None),
    ("orlicz", "maximal_on_grid", "orlicz.maximal", None),
    ("orlicz", "orlicz_maximal_test", "orlicz.maximal", None),
    ("orlicz", "field_from_extension", "orlicz.field", None),
    ("chordarc", "chordarc_constant", "chordarc.constant", None),
    ("chordarc", "internal_chordarc_constant", "chordarc.constant", None),
    ("dyadic", "annular_decomposition", "dyadic.decomposition", None),
    ("dyadic", "inducer_counts", "dyadic.decomposition", None),
    ("dyadic", "whitney_cells_up_to", "dyadic.decomposition", None),
    ("dyadic", "whitney_covering_constant", "dyadic.decomposition", None),
]

# (module, class, method, layer, counter)
_METHODS = [
    ("circle_map", "CircleHomeomorphism", "lift_values", "circle_map.lift",
     "circle_map.lift_points"),
    ("circle_map", "CircleHomeomorphism", "eval_lift", "circle_map.lift",
     "circle_map.lift_points"),
    ("poisson", "HarmonicExtension", "extend", "poisson.point", "poisson.point_calls"),
    ("poisson", "HarmonicExtension", "derivative", "poisson.point", "poisson.point_calls"),
    ("poisson", "HarmonicExtension", "fd_derivative", "poisson.point",
     "poisson.point_calls"),
    ("poisson", "HarmonicExtension", "derivative_bound", "poisson.point",
     "poisson.point_calls"),
    ("poisson", "HarmonicExtension", "laplacian_probe", "poisson.point",
     "poisson.point_calls"),
    ("orlicz", "GridField", "__init__", "orlicz.field", None),
]

# amount of work each counter adds per call: (args, kwargs) -> number
_COUNT = {
    "energy.calls": lambda a, k: 1,
    "poisson.point_calls": lambda a, k: 1,
    "circle_map.lift_points": lambda a, k: int(np.size(a[1] if len(a) > 1 else
                                                       next(iter(k.values())))),
    "report.bytes": lambda a, k: os.path.getsize(a[1] if len(a) > 1 else k["path"]),
}

PACKAGE = "circle_energy"
OP = "op"   # root span of one benchmark operation; not a layer


class Tracer:
    """In-memory span recorder; wrappers pass straight through when inactive."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []   # (id, parent, layer, t0, t1)
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._next = 0
        self._restore: list[tuple] = []
        self._field_built = weakref.WeakSet()   # extensions whose field exists

    # -- recording ----------------------------------------------------------

    def open(self, layer: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, layer, time.perf_counter()

    def close(self, token) -> None:
        t1 = time.perf_counter()
        sid, parent, layer, t0 = token
        self._stack.pop()
        self.spans.append((sid, parent, layer, t0, t1))

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span of `layer` when active."""
        if not self.active:
            return fn(*args, **kwargs)
        token = self.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(token)

    def _wrap(self, fn, layer, counter: str | None = None):
        """Wrapper recording a span; `layer` is a name or args -> name."""
        tracer = self
        count = _COUNT.get(counter)
        layer_of = layer if callable(layer) else (lambda args: layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = tracer.open(layer_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(token)
            if count is not None:
                tracer.count(counter, count(args, kwargs))
            return result
        return wrapper

    def _field_or_energy(self, args) -> str:
        """energy_i/energy_ii: the first call on a fresh extension is the field."""
        fresh = args[0] not in self._field_built
        self._field_built.add(args[0])
        return "poisson.field" if fresh else "poisson.energy"

    def _field(self, args) -> str:
        self._field_built.add(args[0])
        return "poisson.field"

    # -- hooks --------------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _patch_everywhere(self, orig, wrapper) -> None:
        """Rebind every module-level name that refers to `orig`."""
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        pkg = PACKAGE
        for modname, attr, layer, counter in _FUNCTIONS:
            mod = import_module(f"{pkg}.{modname}")
            orig = getattr(mod, attr)
            self._patch_everywhere(orig, self._wrap(orig, layer, counter))
        for modname, clsname, meth, layer, counter in _METHODS:
            cls = getattr(import_module(f"{pkg}.{modname}"), clsname)
            self._patch_attr(cls, meth, self._wrap(cls.__dict__[meth], layer, counter))
        ext_cls = import_module(f"{pkg}.poisson").HarmonicExtension
        for meth in ("energy_i", "energy_ii"):
            self._patch_attr(ext_cls, meth,
                             self._wrap(ext_cls.__dict__[meth], self._field_or_energy))
        if "_whitney_field" in ext_cls.__dict__:
            self._patch_attr(ext_cls, "_whitney_field",
                             self._wrap(ext_cls.__dict__["_whitney_field"], self._field))
        run_suite = import_module(f"{pkg}.verify").run_suite
        self._patch_everywhere(run_suite, self._wrap(run_suite,
                                                     lambda args: f"verify.{args[0]}"))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        child: dict[int, float] = {}
        for _sid, parent, _layer, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        return {sid: (t1 - t0) - child.get(sid, 0.0)
                for sid, _parent, _layer, t0, t1 in self.spans}

    def layer_totals(self) -> dict[str, float]:
        """Self time per layer, summed over all spans (the op root included)."""
        own = self.self_times()
        totals: dict[str, float] = {}
        for sid, _parent, layer, _t0, _t1 in self.spans:
            totals[layer] = totals.get(layer, 0.0) + own[sid]
        return totals

    def write(self, path) -> None:
        """One JSON line per span, times relative to the first span."""
        base = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, layer, t0, t1 in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                     "start_s": t0 - base, "end_s": t1 - base}) + "\n")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(package import s, scipy import s) from `python -X importtime` output.

    The scipy figure sums the cumulative time of every scipy module whose
    importer is not itself a scipy module, so nested scipy imports are not
    counted twice.  Lines are printed children first, so they are walked in
    reverse to recover each module's importer.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue   # header line
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cum) * 1e-6))
    pkg_s = scipy_s = 0.0
    stack: list[tuple[int, str]] = []
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == PACKAGE:
            pkg_s += cum
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_s += cum
        stack.append((depth, name))
    return pkg_s, scipy_s
