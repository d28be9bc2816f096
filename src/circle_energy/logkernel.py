"""The double log-integral of condition (iii), two ways.

Direct: tensor-product midpoint quadrature of
|log|phi^{-1}(xi) - phi^{-1}(eta)||^(lambda+1) over S x S, parametrized by
source angles so that |d xi| = d mu_f pulls back to exact mass weights.
The distances then live on the uniform source grid, where a pair's distance
depends only on its offset d = b - a mod n: the grid sums as n - 1 offsets
weighted by the cyclic autocorrelation of the cell masses, in O(n) memory.

Dyadic: the layer-cake surrogate.  With Lambda(t) = (lambda+1) log^lambda(1/t)/t
one has int_t^1 Lambda = log^(lambda+1)(1/t), so the sub-unit region is
sliced into dyadic chordal bands [2^-j-1, 2^-j] whose weight has the closed
form below, each multiplied by the integrated sublevel arc measure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circle_map import TWO_PI, CircleHomeomorphism
from .errors import (DomainError, ResourceGuardError, check_lambda, check_level,
                     checked_pow)

MIN_RESOLUTION = 64
MAX_RESOLUTION = 2048
MAX_J = 40
LN2 = math.log(2.0)


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
    check_lambda(lam)
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie in (0, 1), got {t}")
    return (lam + 1.0) * checked_pow(math.log(1.0 / t), lam) / t


def interval_weight(a: float, b: float, lam: float) -> float:
    """int_a^b Lambda(t) dt = log^(lambda+1)(1/a) - log^(lambda+1)(1/b)."""
    check_lambda(lam)
    if not 0.0 < a <= b <= 1.0:
        raise DomainError(f"need 0 < a <= b <= 1, got a={a}, b={b}")
    return (checked_pow(math.log(1.0 / a), lam + 1.0)
            - checked_pow(math.log(1.0 / b), lam + 1.0))


def band_weight(j: int, lam: float) -> float:
    """int over the dyadic band [2^-(j+1), 2^-j] of Lambda."""
    check_lambda(lam)
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


def _sublevel_integrals(map_: CircleHomeomorphism, ts, mids, weights) -> list[float]:
    """sublevel_integral at each t from one source grid, bit for bit: one dot per t."""
    alphas = np.array([2.0 * math.asin(0.5 * t) for t in ts])[:, None]
    masses = map_.cyclic_mass(mids - alphas, 2.0 * alphas)
    return [TWO_PI * TWO_PI if 2.0 * a >= TWO_PI else float(np.dot(weights, row))
            for a, row in zip(alphas[:, 0], masses)]


def sublevel_integral(map_: CircleHomeomorphism, t: float, resolution: int = 1024) -> float:
    """int_S sublevel_arc_measure(xi, t) |d xi| by pullback midpoint quadrature."""
    if not 0.0 < t <= 2.0:
        raise DomainError(f"chordal distance must lie in (0, 2], got {t}")
    return _sublevel_integrals(map_, [t], *map_.uniform_cells(resolution))[0]


def _check_resolution(resolution: int) -> None:
    if resolution < MIN_RESOLUTION:
        raise DomainError(f"resolution must be >= {MIN_RESOLUTION}, got {resolution}")
    if resolution > MAX_RESOLUTION:
        raise ResourceGuardError(f"resolution {resolution} exceeds guard {MAX_RESOLUTION}")


def _offset_sums(mids: np.ndarray, weights: np.ndarray):
    """lambda -> (part_one, part_two) of the 2-D midpoint quadrature off its
    diagonal (offset 0): sum_{d=1}^{n-1} c_d |log dist_d|^(lambda+1), with c the
    cyclic autocorrelation of the masses, so c_d = sum_a w_a w_(a+d mod n)."""
    mass = np.correlate(np.concatenate([weights, weights[:-1]]), weights, "valid")[1:]
    dist = 2.0 * np.sin(0.5 * (mids[1:] - mids[0]))
    logd = np.abs(np.log(dist))
    far = dist >= 1.0

    def parts(lam: float) -> tuple[float, float]:
        with np.errstate(over="ignore"):
            weighted = mass * logd ** (lam + 1.0)
        return float(np.sum(weighted[far])), float(np.sum(weighted[~far]))
    return parts


class LogKernel:
    """The lambda-free parts of (iii) for one map, built once for every lambda.

    With J: the sublevel integrals of the dyadic bands 1..J.  With
    direct_resolution: those of the direct method's excluded region.  Each
    source grid is lifted, and each route's offset masses formed, once.
    """

    def __init__(self, map_: CircleHomeomorphism, J: int | None = None,
                 resolution: int = 1024, direct_resolution: int | None = None):
        self.resolution, self.direct_resolution = resolution, direct_resolution
        source = functools.cache(map_.uniform_cells)
        if J is not None:
            _check_resolution(resolution)
            check_level(J, MAX_J, what="J")
            self._bands = _sublevel_integrals(
                map_, [2.0 ** -j for j in range(1, J + 1)], *source(resolution))
            self._dyadic_parts = _offset_sums(*source(min(resolution, 512)))
        if direct_resolution is not None:
            _check_resolution(direct_resolution)
            self._t0 = t0 = 2.0 * math.sin(math.pi / direct_resolution)
            self._k = k = math.ceil(-math.log2(t0))
            ts = [t0] + [2.0 ** -j for j in range(k, k + 44)]
            self._tail = _sublevel_integrals(map_, ts, *source(direct_resolution))
            self._direct_parts = _offset_sums(*source(direct_resolution))

    def direct(self, lam: float) -> LogIntegralResult:
        """log_energy_direct at this lambda."""
        check_lambda(lam)
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
        check_lambda(lam)
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
