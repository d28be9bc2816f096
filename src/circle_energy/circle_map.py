"""Circle homeomorphisms stored through their monotone lifts.

A map phi of the unit circle S is represented by a strictly increasing lift
f: [0, 2*pi] -> [0, 2*pi] with f(0) = 0 and f(2*pi) = 2*pi, together with the
image of the base point:  phi(e^{i*theta}) = phi(1) * e^{i*f(theta)}.
Only orientation-preserving maps fit this representation; an
orientation-reversing candidate fails the monotonicity invariant and is
rejected rather than silently flipped.

The increment f(b) - f(a) is both the length of the image arc and the
Lebesgue-Stieltjes mass mu_f([a, b]); everything downstream (dyadic energies,
sublevel measures, boundary quadrature weights) is built from such
increments, so they telescope across nested partitions by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError

TWO_PI = 2.0 * math.pi

_KINDS = (
    "identity",
    "rotation",
    "mobius_trace",
    "power",
    "log_singular",
    "smoothed_cantor",
    "piecewise_linear",
)


def _as_array(theta) -> np.ndarray:
    return np.asarray(theta, dtype=float)


def _snap_endpoints(theta: np.ndarray, values: np.ndarray) -> np.ndarray:
    # pin f(0) = 0 and f(2*pi) = 2*pi exactly so masses telescope to 2*pi
    values = np.where(theta == 0.0, 0.0, values)
    return np.where(theta == TWO_PI, TWO_PI, values)


def _bisect_inverse(lift: Callable[[float], float], value: float, tol: float) -> float:
    lo, hi = 0.0, TWO_PI
    flo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = lift(mid)
        if abs(fmid - value) <= tol or hi - lo <= tol:
            return mid
        if fmid < value:
            lo, flo = mid, fmid
        else:
            hi = mid
    raise ConvergenceError(f"lift inversion did not reach tol={tol}")


# --- family lifts (vectorised; theta assumed inside [0, 2*pi]) -------------


def _mobius_wrapped(x: np.ndarray, r: float) -> np.ndarray:
    """Continuous increasing extension of the boundary angle distortion of
    z -> (z - r)/(1 - r z), r real in (-1, 1)."""
    k = np.round(x / TWO_PI)
    w = x - TWO_PI * k
    core = 2.0 * np.arctan2((1.0 + r) * np.sin(0.5 * w), (1.0 - r) * np.cos(0.5 * w))
    return TWO_PI * k + core


def _mobius_wrapped_inv(y: np.ndarray, r: float) -> np.ndarray:
    k = np.round(y / TWO_PI)
    w = y - TWO_PI * k
    core = 2.0 * np.arctan2((1.0 - r) * np.sin(0.5 * w), (1.0 + r) * np.cos(0.5 * w))
    return TWO_PI * k + core


def _cantor_value(i: int, stage: int) -> float:
    """Cantor function at i/3**stage, exactly (a finite dyadic rational)."""
    if i <= 0:
        return 0.0
    if i >= 3 ** stage:
        return 1.0
    digits = []
    n = i
    for _ in range(stage):
        n, d = divmod(n, 3)
        digits.append(d)
    digits.reverse()
    value, scale = 0.0, 0.5
    for d in digits:
        if d == 1:
            value += scale
            break
        value += scale * (d // 2)
        scale *= 0.5
    return value


def _require(p: dict, key: str, kind: str):
    if key not in p:
        raise ValidationError(f"{kind} requires param {key!r}")
    return p.pop(key)


def _build_family(kind: str, params: dict):
    """Return (lift, inverse_or_None, normalised_params, base_rotation)."""
    p = dict(params)

    if kind == "identity":
        if p:
            raise ValidationError(f"identity takes no params, got {sorted(p)}")
        return (lambda t: _as_array(t).copy(), lambda v: _as_array(v).copy(), {}, 0.0)

    if kind == "rotation":
        c = float(_require(p, "c", kind))
        if p:
            raise ValidationError(f"unknown rotation params {sorted(p)}")
        # the lift of a rigid rotation relative to the rotated base point is
        # the identity; the rotation itself lives in base_point_image
        return (lambda t: _as_array(t).copy(), lambda v: _as_array(v).copy(),
                {"c": c}, c % TWO_PI)

    if kind == "mobius_trace":
        a = _require(p, "a", kind)
        if p:
            raise ValidationError(f"unknown mobius_trace params {sorted(p)}")
        if isinstance(a, (list, tuple)):
            a = complex(a[0], a[1])
        a = complex(a)
        if abs(a) >= 1.0:
            raise ValidationError(f"mobius parameter must satisfy |a| < 1, got {a}")
        r = abs(a)
        alpha = math.atan2(a.imag, a.real)
        off = float(_mobius_wrapped(np.asarray(-alpha), r))

        def lift(t, r=r, alpha=alpha, off=off):
            return _mobius_wrapped(_as_array(t) - alpha, r) - off

        def inv(v, r=r, alpha=alpha, off=off):
            return _mobius_wrapped_inv(_as_array(v) + off, r) + alpha

        m1 = (1.0 - a) / (1.0 - np.conj(a))  # image of the base point z = 1
        base = math.atan2(m1.imag, m1.real) % TWO_PI
        prm = {"a": a if a.imag else a.real}
        return lift, inv, prm, base

    if kind == "power":
        q = float(_require(p, "p", kind))
        if p:
            raise ValidationError(f"unknown power params {sorted(p)}")
        if not q > 0.0:
            raise ValidationError(f"power exponent must be positive, got {q}")

        def lift(t, q=q):
            return TWO_PI * (_as_array(t) / TWO_PI) ** q

        def inv(v, q=q):
            return TWO_PI * (_as_array(v) / TWO_PI) ** (1.0 / q)

        return lift, inv, {"p": q}, 0.0

    if kind == "log_singular":
        beta = float(_require(p, "beta", kind))
        if p:
            raise ValidationError(f"unknown log_singular params {sorted(p)}")
        if not beta > 0.0:
            raise ValidationError(f"beta must be positive, got {beta}")
        norm = math.log1p(TWO_PI * beta)

        def lift(t, beta=beta, norm=norm):
            return TWO_PI * np.log1p(_as_array(t) * beta) / norm

        def inv(v, beta=beta, norm=norm):
            return np.expm1(_as_array(v) * norm / TWO_PI) / beta

        return lift, inv, {"beta": beta}, 0.0

    if kind in ("smoothed_cantor", "piecewise_linear"):
        if kind == "smoothed_cantor":
            stage = int(_require(p, "stage", kind))
            floor = float(_require(p, "floor", kind))
            if p:
                raise ValidationError(f"unknown smoothed_cantor params {sorted(p)}")
            if not 1 <= stage <= 12:
                raise ValidationError(f"stage must be in 1..12, got {stage}")
            if not 0.0 < floor < 1.0:
                raise ValidationError(f"slope floor must be in (0, 1), got {floor}")
            n = 3 ** stage
            xs = np.arange(n + 1) / n
            cs = np.array([_cantor_value(i, stage) for i in range(n + 1)])
            # convex mix with the identity keeps every slope >= floor
            knots_t = TWO_PI * xs
            knots_v = TWO_PI * ((1.0 - floor) * cs + floor * xs)
            prm = {"stage": stage, "floor": floor}
        else:
            knots = _require(p, "knots", kind)
            if p:
                raise ValidationError(f"unknown piecewise_linear params {sorted(p)}")
            arr = np.asarray(knots, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
                raise ValidationError("knots must be a list of (theta, value) pairs")
            knots_t, knots_v = arr[:, 0].copy(), arr[:, 1].copy()
            if abs(knots_t[0]) > 1e-12 or abs(knots_v[0]) > 1e-12:
                raise ValidationError("first knot must be (0, 0)")
            if abs(knots_t[-1] - TWO_PI) > 1e-9 or abs(knots_v[-1] - TWO_PI) > 1e-9:
                raise ValidationError("last knot must be (2*pi, 2*pi)")
            if np.any(np.diff(knots_t) <= 0) or np.any(np.diff(knots_v) <= 0):
                raise ValidationError("knots must be strictly increasing in both coordinates")
            prm = {"knots": [[float(a), float(b)] for a, b in arr]}
        knots_t[0] = knots_v[0] = 0.0
        knots_t[-1] = knots_v[-1] = TWO_PI

        def lift(t, xp=knots_t, fp=knots_v):
            return np.interp(_as_array(t), xp, fp)

        def inv(v, xp=knots_t, fp=knots_v):
            return np.interp(_as_array(v), fp, xp)

        return lift, inv, prm, 0.0

    raise ValidationError(f"unknown map kind {kind!r}; expected one of {_KINDS}")


@dataclass(frozen=True)
class CircleHomeomorphism:
    """Orientation-preserving circle homeomorphism phi with lift f."""

    kind: str
    params: dict = field(compare=False)
    base_point_image: complex
    inverse_tolerance: float
    _lift: Callable = field(repr=False, compare=False)
    _inverse: Callable | None = field(repr=False, compare=False)

    # -- construction --------------------------------------------------

    @staticmethod
    def create(kind: str, params: dict | None = None, *,
               base_point_image_angle: float = 0.0,
               inverse_tolerance: float = 1e-12) -> "CircleHomeomorphism":
        if not 0.0 < inverse_tolerance <= 1e-6:
            raise ValidationError(
                f"inverse_tolerance must be in (0, 1e-6], got {inverse_tolerance}")
        lift, inv, prm, extra = _build_family(kind, params or {})
        angle = (float(base_point_image_angle) + extra) % TWO_PI
        base = complex(math.cos(angle), math.sin(angle))
        return CircleHomeomorphism(
            kind=kind, params=prm, base_point_image=base,
            inverse_tolerance=inverse_tolerance, _lift=lift, _inverse=inv)

    @staticmethod
    def from_spec(spec: dict) -> "CircleHomeomorphism":
        """Build from a map-spec record {kind, params, base_point_image_angle}.

        Strict: unknown top-level fields are rejected, as are unknown params.
        """
        if not isinstance(spec, dict):
            raise ValidationError("map spec must be a mapping")
        rec = dict(spec)
        kind = rec.pop("kind", None)
        params = rec.pop("params", {})
        angle = rec.pop("base_point_image_angle", 0.0)
        if rec:
            raise ValidationError(f"unknown map spec fields {sorted(rec)}")
        if kind not in _KINDS:
            raise ValidationError(f"unknown map kind {kind!r}; expected one of {_KINDS}")
        if not isinstance(params, dict):
            raise ValidationError("params must be a mapping")
        if not isinstance(angle, (int, float)):
            raise ValidationError("base_point_image_angle must be a number")
        return CircleHomeomorphism.create(kind, params, base_point_image_angle=float(angle))

    def to_spec(self) -> dict:
        angle = math.atan2(self.base_point_image.imag, self.base_point_image.real) % TWO_PI
        params = dict(self.params)
        extra = 0.0
        if self.kind == "rotation":
            extra = params["c"] % TWO_PI
        elif self.kind == "mobius_trace":
            a = complex(params["a"])
            m1 = (1.0 - a) / (1.0 - a.conjugate())
            extra = math.atan2(m1.imag, m1.real) % TWO_PI
            if a.imag:
                params["a"] = [a.real, a.imag]
        return {
            "kind": self.kind,
            "params": params,
            "base_point_image_angle": (angle - extra) % TWO_PI,
        }

    # -- evaluation -----------------------------------------------------

    def eval_lift(self, theta: float) -> float:
        """f(theta) for theta in [0, 2*pi] (1e-12 slack, clamped)."""
        t = float(theta)
        if not -1e-12 <= t <= TWO_PI + 1e-12:
            raise DomainError(f"theta must lie in [0, 2*pi], got {theta!r}")
        t = min(max(t, 0.0), TWO_PI)
        if t == 0.0:
            return 0.0
        if t == TWO_PI:
            return TWO_PI
        return float(self._lift(t))

    def lift_values(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorised lift on angles already inside [0, 2*pi]."""
        t = _as_array(thetas)
        return _snap_endpoints(t, self._lift(t))

    def eval(self, zeta: complex) -> complex:
        z = complex(zeta)
        if abs(abs(z) - 1.0) > 1e-9:
            raise DomainError(f"zeta must lie on the unit circle, got |zeta|={abs(z)}")
        theta = math.atan2(z.imag, z.real) % TWO_PI
        f = self.eval_lift(theta)
        return self.base_point_image * complex(math.cos(f), math.sin(f))

    def invert_lift(self, value: float) -> float:
        """theta with f(theta) = value, via closed form or monotone bisection."""
        v = float(value)
        if not -1e-12 <= v <= TWO_PI + 1e-12:
            raise DomainError(f"value must lie in [0, 2*pi], got {value!r}")
        v = min(max(v, 0.0), TWO_PI)
        if v == 0.0:
            return 0.0
        if v == TWO_PI:
            return TWO_PI
        if self._inverse is not None:
            t = float(self._inverse(v))
            return min(max(t, 0.0), TWO_PI)
        return _bisect_inverse(lambda t: float(self._lift(t)), v, self.inverse_tolerance)

    # -- measures ---------------------------------------------------------

    def stieltjes_mass(self, a: float, b: float) -> float:
        """mu_f([a, b]) = f(b) - f(a); requires a <= b inside [0, 2*pi]."""
        if b < a - 1e-12:
            raise DomainError(f"need a <= b, got a={a}, b={b}")
        if b < a:
            b = a
        return self.eval_lift(b) - self.eval_lift(a)

    def cyclic_mass(self, a: float, width: float) -> float:
        """Mass of the arc [a, a + width] taken cyclically, width in [0, 2*pi]."""
        if not 0.0 <= width <= TWO_PI:
            raise DomainError(f"width must lie in [0, 2*pi], got {width}")
        lo = a % TWO_PI
        hi = lo + width
        if hi <= TWO_PI:
            return self.eval_lift(hi) - self.eval_lift(lo)
        return (TWO_PI - self.eval_lift(lo)) + self.eval_lift(hi - TWO_PI)

    def level_image_lengths(self, j: int) -> np.ndarray:
        """All 2**j image arc lengths at level j (telescoping differences)."""
        edges = TWO_PI * np.arange(2 ** j + 1) / 2 ** j
        edges[-1] = TWO_PI
        return np.diff(self.lift_values(edges))


# ---------------------------------------------------------------------------


def identity_map() -> CircleHomeomorphism:
    return CircleHomeomorphism.create("identity")


def catalog() -> dict[str, CircleHomeomorphism]:
    """Default-parameter instance of every map family.

    The parameters are chosen so the family spans clearly bi-Lipschitz maps,
    maps with a vanishing or exploding boundary density, and a singular-ish
    self-similar map, giving both convergent and divergent energies.
    """
    return {
        "identity": identity_map(),
        "rotation": CircleHomeomorphism.create("rotation", {"c": 2.399963229728653}),
        "mobius_trace": CircleHomeomorphism.create("mobius_trace", {"a": 0.5}),
        "power": CircleHomeomorphism.create("power", {"p": 2.0}),
        # beta sets the log/linear crossover scale 1/beta; 16 keeps the map
        # steep near 0 while its Lipschitz tail is visible to truncated sums
        "log_singular": CircleHomeomorphism.create("log_singular", {"beta": 16.0}),
        "smoothed_cantor": CircleHomeomorphism.create(
            "smoothed_cantor", {"stage": 6, "floor": 1.0e-3}),
        "piecewise_linear": CircleHomeomorphism.create(
            "piecewise_linear",
            {"knots": [[0.0, 0.0], [math.pi, 1.5 * math.pi], [TWO_PI, TWO_PI]]}),
    }
