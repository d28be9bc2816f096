"""The double log-integral of condition (iii), two ways.

Direct: tensor-product midpoint quadrature of
|log|phi^{-1}(xi) - phi^{-1}(eta)||^(lambda+1) over S x S, parametrized by
source angles so that |d xi| = d mu_f pulls back to exact mass weights.
Because phi^{-1}(xi) runs over the *source* circle, the chordal distances in
the integrand live on the uniform source grid whatever the map is.

Dyadic: the layer-cake surrogate.  With Lambda(t) = (lambda+1) log^lambda(1/t)/t
one has int_t^1 Lambda = log^(lambda+1)(1/t), so the sub-unit region is
sliced into dyadic chordal bands [2^-j-1, 2^-j] whose weight has the closed
form below, each multiplied by the integrated sublevel arc measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle_map import TWO_PI, CircleHomeomorphism
from .errors import DomainError, ResourceGuardError, checked_pow

MIN_RESOLUTION = 64
MAX_RESOLUTION = 2048
LN2 = math.log(2.0)


def _check_lambda(lam: float) -> None:
    if not lam > -1.0:
        raise DomainError(f"lambda must exceed -1, got {lam}")


@dataclass(frozen=True)
class LogIntegralResult:
    """Split value of the (iii) double integral.

    part_one covers chordal distances in [1, 2], part_two the sub-unit
    region; total = part_one + part_two holds exactly.  For the direct
    method `excluded_band_bound` estimates the contribution of the excluded
    near-diagonal band (an error bar, not part of `total`).
    """

    lam: float
    part_one: float
    part_two: float
    total: float
    method: str            # direct | dyadic
    resolution: int
    excluded_band_bound: float = 0.0
    band_levels: tuple[int, ...] = ()
    band_terms: tuple[float, ...] = ()


def lambda_weight(t: float, lam: float) -> float:
    """Lambda(t) = (lambda+1) * log^lambda(1/t) / t on 0 < t < 1."""
    _check_lambda(lam)
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie in (0, 1), got {t}")
    return (lam + 1.0) * checked_pow(math.log(1.0 / t), lam) / t


def interval_weight(a: float, b: float, lam: float) -> float:
    """int_a^b Lambda(t) dt = log^(lambda+1)(1/a) - log^(lambda+1)(1/b)."""
    _check_lambda(lam)
    if not 0.0 < a <= b <= 1.0:
        raise DomainError(f"need 0 < a <= b <= 1, got a={a}, b={b}")
    return (checked_pow(math.log(1.0 / a), lam + 1.0)
            - checked_pow(math.log(1.0 / b), lam + 1.0))


def band_weight(j: int, lam: float) -> float:
    """int over the dyadic band [2^-(j+1), 2^-j] of Lambda."""
    _check_lambda(lam)
    if j < 1:
        raise DomainError(f"band index must be >= 1, got {j}")
    return checked_pow((j + 1) * LN2, lam + 1.0) - checked_pow(j * LN2, lam + 1.0)


def sublevel_arc_measure(map_: CircleHomeomorphism, xi_angle: float, t: float) -> float:
    """Image-arc length of {eta : |phi^{-1}(xi) - phi^{-1}(eta)| <= t}.

    xi_angle is the angular position of xi on the image circle measured from
    phi(1).  The preimages form the arc of angular radius 2*arcsin(t/2)
    around phi^{-1}(xi); its f-mass is returned, wraparound included.
    """
    if not 0.0 < t <= 2.0:
        raise DomainError(f"chordal distance must lie in (0, 2], got {t}")
    u = map_.invert_lift(xi_angle % TWO_PI if xi_angle != TWO_PI else TWO_PI)
    alpha = 2.0 * math.asin(0.5 * t)
    if 2.0 * alpha >= TWO_PI:
        return TWO_PI
    return map_.cyclic_mass(u - alpha, 2.0 * alpha)


def _source_grid(map_: CircleHomeomorphism, resolution: int):
    """Midpoint source angles and their exact image-mass weights."""
    edges = TWO_PI * np.arange(resolution + 1) / resolution
    edges[-1] = TWO_PI
    values = map_.lift_values(edges)
    weights = np.diff(values)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return mids, weights


def sublevel_integral(map_: CircleHomeomorphism, t: float, resolution: int = 1024) -> float:
    """int_S sublevel_arc_measure(xi, t) |d xi| by pullback midpoint quadrature."""
    if not 0.0 < t <= 2.0:
        raise DomainError(f"chordal distance must lie in (0, 2], got {t}")
    alpha = 2.0 * math.asin(0.5 * t)
    if 2.0 * alpha >= TWO_PI:
        return TWO_PI * TWO_PI
    mids, weights = _source_grid(map_, resolution)
    lo = (mids - alpha) % TWO_PI
    hi = lo + 2.0 * alpha
    wrap = hi > TWO_PI
    flo = map_.lift_values(lo)
    fhi = map_.lift_values(np.where(wrap, hi - TWO_PI, hi))
    masses = np.where(wrap, (TWO_PI - flo) + fhi, fhi - flo)
    return float(np.dot(weights, masses))


def _check_resolution(resolution: int) -> None:
    if resolution < MIN_RESOLUTION:
        raise DomainError(f"resolution must be >= {MIN_RESOLUTION}, got {resolution}")
    if resolution > MAX_RESOLUTION:
        raise ResourceGuardError(f"resolution {resolution} exceeds guard {MAX_RESOLUTION}")


def _pair_grid(map_: CircleHomeomorphism, resolution: int):
    """lambda -> (part_one, part_two) of the 2-D midpoint quadrature."""
    mids, weights = _source_grid(map_, resolution)
    dist = 2.0 * np.abs(np.sin(0.5 * (mids[:, None] - mids[None, :])))
    ww = weights[:, None] * weights[None, :]
    with np.errstate(divide="ignore"):
        logd = np.abs(np.log(np.where(dist > 0.0, dist, 1.0)))
    far = dist >= 1.0
    # any floor in (0, t0), t0 = 2 sin(pi/resolution), drops exactly the diagonal cells
    near = (dist < 1.0) & (dist >= math.sin(math.pi / resolution))

    def parts(lam: float) -> tuple[float, float]:
        with np.errstate(over="ignore"):
            weighted = ww * logd ** (lam + 1.0)
        return float(np.sum(weighted[far])), float(np.sum(weighted[near]))
    return parts


class LogKernel:
    """The lambda-free parts of (iii) for one map, built once for every lambda.

    With J: the sublevel integrals of the dyadic bands 1..J.  With
    direct_resolution: those of the direct method's excluded region.  Each
    pair grid is built once, and once for both methods at equal resolutions.
    """

    def __init__(self, map_: CircleHomeomorphism, J: int | None = None,
                 resolution: int = 1024, direct_resolution: int | None = None):
        self.resolution, self.direct_resolution = resolution, direct_resolution
        grids = {}
        if J is not None:
            _check_resolution(resolution)
            if not isinstance(J, int) or J < 1:
                raise DomainError(f"J must be a positive integer, got {J!r}")
            if J > 40:
                raise ResourceGuardError(f"J={J} exceeds guard 40")
            self._bands = [sublevel_integral(map_, 2.0 ** -j, resolution)
                           for j in range(1, J + 1)]
            res = min(resolution, 512)
            self._dyadic_parts = grids[res] = _pair_grid(map_, res)
        if direct_resolution is not None:
            _check_resolution(direct_resolution)
            self._t0 = t0 = 2.0 * math.sin(math.pi / direct_resolution)
            self._k = k = math.ceil(-math.log2(t0))
            self._tail = [sublevel_integral(map_, t, direct_resolution)
                          for t in [t0] + [2.0 ** -j for j in range(k, k + 44)]]
            self._direct_parts = (grids.get(direct_resolution)
                                  or _pair_grid(map_, direct_resolution))

    def direct(self, lam: float) -> LogIntegralResult:
        """log_energy_direct at this lambda."""
        _check_lambda(lam)
        part_one, part_two = self._direct_parts(lam)
        t0, k, (at_t0, *bands) = self._t0, self._k, self._tail
        tail = [at_t0 * checked_pow(abs(math.log(t0)), lam + 1.0),
                at_t0 * interval_weight(2.0 ** -k, t0, lam)]
        tail += [s * band_weight(j, lam) for j, s in enumerate(bands, k)]
        return LogIntegralResult(
            lam=lam, part_one=part_one, part_two=part_two,
            total=part_one + part_two, method="direct",
            resolution=self.direct_resolution, excluded_band_bound=math.fsum(tail))

    def dyadic(self, lam: float) -> LogIntegralResult:
        """log_energy_dyadic at this lambda."""
        _check_lambda(lam)
        terms = [s * band_weight(j, lam) for j, s in enumerate(self._bands, 1)]
        part_two = math.fsum(terms)
        part_one, _ = self._dyadic_parts(lam)
        return LogIntegralResult(
            lam=lam, part_one=part_one, part_two=part_two,
            total=part_one + part_two, method="dyadic", resolution=self.resolution,
            band_levels=tuple(range(1, len(terms) + 1)), band_terms=tuple(terms))


def log_energy_direct(map_: CircleHomeomorphism, lam: float,
                      resolution: int = 512) -> LogIntegralResult:
    """Direct quadrature of the (iii) integral on a resolution^2 grid.

    The diagonal cells are excluded: their angular gaps reach 2 pi/resolution,
    i.e. chordal distances up to t0 = 2 sin(pi/resolution), which is also the
    nearest off-diagonal distance of the grid.  The layer-cake bound of the
    region below t0 is reported separately as `excluded_band_bound`: the
    boundary term sublevel(t0) |log t0|^(lambda+1), the partial band from t0
    down to the next power of two, then the dyadic bands, each band weighted
    by the sublevel integral at its upper end.  A non-finite total is
    returned as divergence evidence rather than raised.
    """
    return LogKernel(map_, direct_resolution=resolution).direct(lam)


def log_energy_dyadic(map_: CircleHomeomorphism, lam: float, J: int,
                      resolution: int = 1024) -> LogIntegralResult:
    """Dyadic band surrogate for part_two, same restricted grid for part_one.

    part_two = sum_{j=1..J} [int_S sublevel(xi, 2^-j) |d xi|] * band_weight(j).
    """
    return LogKernel(map_, J, resolution).dyadic(lam)
