"""Reference values computed apart from circle_energy.

Nothing here imports the package under test: every value comes from a closed
form, from scipy quadrature, or from a lift written out again from its
definition, so that an error in the package cannot hide in its own oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

TWO_PI = 2.0 * math.pi


# -- disk energies (i) and (ii) -------------------------------------------------

def identity_energy_i(lam: float, J: int) -> float:
    """(i) for the identity: |Dh| = 1 on the disk of radius 1 - 2^-J."""
    return math.pi * (1.0 - 2.0 ** -J) ** 2 * math.log(math.e + 1.0) ** lam


def identity_energy_ii_levels(lam: float, J: int) -> list[float]:
    """(ii) for the identity, one scipy quadrature per Whitney annulus.

    Level j is the annulus 1 - 2^(1-j) <= r <= 1 - 2^-j, where |Dh| = 1 and
    the weight is log^lambda(2/(1-r)).
    """
    out = []
    for j in range(1, J + 1):
        lo, hi = 1.0 - 2.0 ** (1 - j), 1.0 - 2.0 ** -j
        val, _err = integrate.quad(
            lambda r: r * math.log(2.0 / (1.0 - r)) ** lam, lo, hi,
            epsabs=0.0, epsrel=1e-13, limit=200)
        out.append(TWO_PI * val)
    return out


def mobius_area(a: float, J: int) -> float:
    """Area of M(|z| < rho), M(z) = (z - a)/(1 - a z), rho = 1 - 2^-J.

    For a Mobius map h_zbar = 0 and |Dh|^2 = |M'|^2 is the Jacobian, so (i)
    at lambda = 0 is this area.
    """
    rho = 1.0 - 2.0 ** -J
    return math.pi * rho ** 2 * (1.0 - a * a) ** 2 / (1.0 - a * a * rho * rho) ** 2


def mobius_derivative(a: float, z: complex) -> complex:
    return (1.0 - a * a) / (1.0 - a * z) ** 2


# -- dyadic arc lengths and the sums (iv), (v) -----------------------------------

def identity_lengths(j: int) -> np.ndarray:
    return np.full(2 ** j, TWO_PI / 2 ** j)


def power2_lengths(j: int) -> np.ndarray:
    """Image arcs of f(t) = 2pi (t/2pi)^2: l_{j,k} = 2pi (2k-1)/4^j."""
    k = np.arange(1, 2 ** j + 1, dtype=float)
    return TWO_PI * (2.0 * k - 1.0) / 4.0 ** j


def piecewise_linear_lengths(knots, j: int) -> np.ndarray:
    """Image arcs of the piecewise-linear lift through `knots`.

    Each arc's length is sum over segments of slope * overlap, accumulated
    from the segment table rather than by interpolating the lift.
    """
    kt = np.array([p[0] for p in knots], dtype=float)
    kv = np.array([p[1] for p in knots], dtype=float)
    kt[0] = kv[0] = 0.0
    kt[-1] = kv[-1] = TWO_PI
    slope = np.diff(kv) / np.diff(kt)
    edges = TWO_PI * np.arange(2 ** j + 1) / 2 ** j
    left, right = edges[:-1], edges[1:]
    out = np.zeros(2 ** j)
    for s, a, b in zip(slope, kt[:-1], kt[1:]):
        overlap = np.clip(np.minimum(right, b) - np.maximum(left, a), 0.0, None)
        out += s * overlap
    return out


def dyadic_levels(lengths_at, lams, J: int) -> dict:
    """Per-level terms of (iv) and (v) for each lambda, {(lam, cond): [...]}.

    `lengths_at(j)` gives the 2^j image arc lengths at level j; each level's
    lengths are computed once and shared by every (lambda, condition).
    """
    out = {(lam, cond): [] for lam in lams for cond in ("iv", "v")}
    for j in range(1, J + 1):
        l = lengths_at(j)
        sq = l * l
        log_w = np.log(math.e + l * 2.0 ** j)
        for lam in lams:
            out[(lam, "iv")].append(float(j) ** lam * float(np.sum(sq)))
            out[(lam, "v")].append(float(np.sum(sq * log_w ** lam)))
    return out


# -- condition (iii) on the identity ---------------------------------------------

def identity_log_energy(lam: float) -> float:
    """2pi * int_0^{2pi} |log(2 sin(t/2))|^(lambda+1) dt by scipy quad.

    The integrand is symmetric about pi, has an integrable log singularity at
    0 and a kink at pi/3 where log(2 sin(t/2)) changes sign.
    """
    val, _err = integrate.quad(
        lambda t: abs(math.log(2.0 * math.sin(0.5 * t))) ** (lam + 1.0),
        0.0, math.pi, points=[math.pi / 3.0], epsabs=0.0, epsrel=1e-12,
        limit=400)
    return TWO_PI * 2.0 * val
