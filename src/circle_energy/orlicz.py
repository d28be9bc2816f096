"""N-function machinery and a discrete Hardy-Littlewood maximal operator.

The central family is Phi(t) = t^2 log^lambda(e + t) for lambda > -1, with
density (derivative)

    phi_N(t) = 2 t log^lambda(e+t) + lambda t^2 log^{lambda-1}(e+t) / (e+t),

which is increasing with phi_N(0) = 0, so Phi is an N-function.  The
complementary function comes from monotone inversion of the density,
psi(t) = sup{s : phi_N(s) <= t} by bisection, and Young's equality
Psi(t) = t psi(t) - Phi(psi(t)).  The independent oracle
(`legendre_residual`) integrates psi over [0, t] with `gauss_legendre`:
16-point Gauss-Legendre on 40 panels whose widths double away from 0,
with the error estimated as the distance to the same rule on 80 panels
(every panel halved).

The maximal operator averages grid samples over disks whose cell membership
is decided by the cell-center rule; the radius list is finite (dyadic by
default), so the result is a lower bound for the continuous maximal
function.  `orlicz_maximal_test` reports the two sides of the Orlicz
maximal inequality without asserting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalError, check_lambda

_E = math.e
GRID_LO, GRID_HI = 1e-8, 1e8
_DISK_RTOL = 1e-9   # far above the rounding of d^2, far below any real gap


def log_grid(n: int = 200, lo: float = GRID_LO, hi: float = GRID_HI) -> np.ndarray:
    """Log-spaced evaluation grid used by the Delta2 / doubling diagnostics."""
    if not (lo > 0 and hi > lo):
        raise DomainError("log grid needs 0 < lo < hi")
    return np.logspace(math.log10(lo), math.log10(hi), n)


def phi_lambda(t, lam: float):
    """Phi(t) = t^2 log^lambda(e + t), elementwise on arrays."""
    lam = check_lambda(lam)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("Phi is defined for t >= 0")
    out = t * t * np.log(_E + t) ** lam
    return float(out) if out.ndim == 0 else out


def phi_lambda_density(t, lam: float):
    """Derivative of phi_lambda in t; increasing with value 0 at t = 0."""
    lam = check_lambda(lam)
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise DomainError("density is defined for t >= 0")
    lg = np.log(_E + t)
    out = 2.0 * t * lg ** lam + lam * t * t * lg ** (lam - 1.0) / (_E + t)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class NFunction:
    """Convex Phi with Phi(0)=0, Phi(t)/t -> 0 (t->0) and -> inf (t->inf)."""

    evaluate: Callable
    density: Callable
    lam: float | None = None
    name: str = "N-function"

    def __call__(self, t):
        return self.evaluate(t)


def log_weighted_square(lam: float) -> NFunction:
    """The package's canonical N-function t^2 log^lambda(e+t)."""
    lam = check_lambda(lam)
    return NFunction(evaluate=lambda t: phi_lambda(t, lam),
                     density=lambda t: phi_lambda_density(t, lam),
                     lam=lam, name=f"t^2 log^{lam:g}(e+t)")


# -- complementary function ------------------------------------------------

@dataclass(frozen=True)
class ComplementaryPair:
    primal: NFunction

    def psi(self, t):
        """Generalized inverse sup{s : density(s) <= t}, elementwise on arrays.

        hi doubles from 1 until density(hi) > t, lo is 0 or hi/2, and the
        bracket is halved until lo and hi are adjacent doubles; lo is returned.
        """
        ts = np.asarray(t, dtype=float)
        if not np.all(ts >= 0):
            raise DomainError("psi is defined for t >= 0")
        dens = self.primal.density
        out = np.zeros(ts.shape)
        pos = ts > 0
        tp = ts[pos]
        hi = np.ones_like(tp)
        while (low := dens(hi) <= tp).any():
            hi[low] *= 2.0
            if hi.max() > 1e300:
                raise NumericalError("density never exceeded the target level")
        lo = np.where(dens(hi / 2) > tp, 0.0, hi / 2)
        while True:
            mid = 0.5 * (lo + hi)
            if not ((lo < mid) & (mid < hi)).any():
                break
            below = dens(mid) <= tp
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out[pos] = lo
        return float(out) if out.ndim == 0 else out

    def complementary(self, t):
        """Psi(t) = t psi(t) - Phi(psi(t)), Young's equality at s = psi(t)."""
        s = self.psi(t)
        out = np.asarray(t, dtype=float) * s - np.asarray(self.primal(s))
        return float(out) if out.ndim == 0 else out

    def legendre_residual(self, t: float) -> float:
        """|Q - Psi(t)| / max(1, Q), Q = int_0^t psi by quadrature; near 0."""
        val, err = gauss_legendre(self.psi, 0.0, t)
        if not math.isfinite(val) or (val > 0 and err / val > 1e-8):
            raise NumericalError(
                f"complementary quadrature did not reach 1e-8 relative at t={t}")
        return abs(val - self.complementary(t)) / max(1.0, abs(val))

    def young_slack(self, s_grid, t_grid) -> float:
        """min over the grid of Phi(s) + Psi(t) - s t; >= -tol numerically."""
        s = np.asarray(s_grid, dtype=float)
        t = np.asarray(t_grid, dtype=float)
        phis = np.asarray(self.primal(s))
        big_psi = np.asarray(self.complementary(t))
        slack = phis[None, :] + big_psi[:, None] - s[None, :] * t[:, None]
        return float(np.min(slack, initial=math.inf))


def complementary_pair(f: NFunction) -> ComplementaryPair:
    return ComplementaryPair(primal=f)


def gauss_legendre(f: Callable, a: float, b: float) -> tuple[float, float]:
    """(int_a^b f, error estimate) by composite Gauss-Legendre.

    Panel edges are a and a + (b - a) 2^-k for k = 39 .. 0, so the 40 widths
    double away from a, where psi and Lambda vary on the smallest scale;
    each panel takes 16 nodes.  The value is the rule with every panel
    halved and the estimate its distance from the unhalved rule, which
    bounds the error only for f analytic on [a, b] (for t^-1/2 on [0, 1] it
    reads 2.1e-8 against a true 5.0e-8).  f is called once per rule with an
    array of nodes.
    """
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.concatenate(([0.0], 2.0 ** np.arange(-39.0, 1.0)))
    halved = np.sort(np.concatenate((edges, (edges[:-1] + edges[1:]) / 2)))
    values = []
    for e in (edges, halved):
        half = np.diff(e)[:, None] / 2
        u = e[:-1, None] + half * (1.0 + x)
        values.append(float(np.sum(half * w * np.asarray(f(a + (b - a) * u))))
                      * (b - a))
    coarse, fine = values
    return fine, abs(fine - coarse)


# -- doubling diagnostics ----------------------------------------------------

def _positive_grid(grid) -> np.ndarray:
    """The positive points of grid (log_grid() when None); none is a DomainError."""
    ts = log_grid() if grid is None else np.asarray(grid, dtype=float)
    ts = ts[ts > 0]
    if ts.size == 0:
        raise DomainError("evaluation grid has no positive points")
    return ts


def delta2_constant(f: NFunction, grid=None) -> float:
    """max over the grid of Phi(2t)/Phi(t); 4 exactly when lambda = 0."""
    ts = _positive_grid(grid)
    ratios = np.asarray(f(2.0 * ts)) / np.asarray(f(ts))
    return float(np.max(ratios))


def doubling_window(f: NFunction, c: float, grid=None) -> tuple[float, float]:
    """(min, max) of Phi(c t)/Phi(t) over the grid; both finite and positive."""
    if c <= 0:
        raise DomainError("scale must be positive")
    ts = _positive_grid(grid)
    ratios = np.asarray(f(c * ts)) / np.asarray(f(ts))
    return float(np.min(ratios)), float(np.max(ratios))


def check_kr_criterion(f: NFunction, l: float, grid=None) -> bool:
    """Phi(t) <= (1/2l) Phi(l t) at every grid point.

    Passing certifies that the complementary function satisfies Delta2.
    For lambda >= 0 the choice l = 2 works; for -1 < lambda < 0 take
    l = 2^{1/(1+lambda)}.
    """
    if not l > 1.0:
        raise DomainError(f"the criterion needs l > 1, got {l}")
    ts = _positive_grid(grid)
    lhs = np.asarray(f(ts))
    rhs = np.asarray(f(l * ts)) / (2.0 * l)
    return bool(np.all(lhs <= rhs))


# -- discrete maximal operator ----------------------------------------------

@dataclass(frozen=True)
class GridField:
    """Nonnegative samples at cell centers of a square grid on [-extent, extent]^2."""

    values: np.ndarray
    extent: float = 1.25

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise DomainError("grid field must be a square 2-D array")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise DomainError("grid field must be finite and nonnegative")
        if not self.extent > 0:
            raise DomainError("extent must be positive")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def cell_size(self) -> float:
        return 2.0 * self.extent / self.n

    @property
    def cell_area(self) -> float:
        return self.cell_size ** 2

    def centers(self) -> np.ndarray:
        return -self.extent + self.cell_size * (np.arange(self.n) + 0.5)


def dyadic_radii(extent: float = 1.25, m_max: int = 10) -> list[float]:
    """Radii extent * 2^-m, m = 0..m_max; the finite sup set of the operator."""
    return [extent * 2.0 ** -m for m in range(m_max + 1)]


def _validate_radii(field: GridField, radii: Sequence[float]) -> np.ndarray:
    rs = np.asarray(list(radii), dtype=float)
    if rs.size == 0 or np.any(rs <= 0):
        raise DomainError("radius list must be nonempty and positive")
    if np.any(rs > 2.0 * field.extent):
        raise DomainError("radii must be bounded by the grid extent")
    return rs


def _in_disk(d2, r: float):
    """Cell-center rule: squared distance d2 within the closed disk of radius r.

    Shared by the per-point and the FFT averages, which compute d2 with
    different roundings; the tolerance keeps a center exactly r away (such
    as r = 3h) inside for both.
    """
    return d2 <= r * r * (1.0 + _DISK_RTOL)


def maximal_on_grid(field: GridField, x: tuple[float, float],
                    radii: Sequence[float]) -> float:
    """max over radii of the average of samples with cell center in B(x, r)."""
    rs = _validate_radii(field, radii)
    px, py = float(x[0]), float(x[1])
    if max(abs(px), abs(py)) > field.extent:
        raise DomainError("query point lies outside the grid")
    cx = field.centers()
    d2 = (cx[None, :] - px) ** 2 + (cx[:, None] - py) ** 2
    best = -math.inf
    for r in rs:
        mask = _in_disk(d2, r)
        cnt = int(np.count_nonzero(mask))
        if cnt == 0:
            if r == np.min(rs):
                raise DomainError(
                    f"disk of radius {r:g} captures no cell center at {x}")
            continue
        best = max(best, float(field.values[mask].sum() / cnt))
    return best


def maximal_field(field: GridField, radii: Sequence[float] | None = None) -> np.ndarray:
    """Discrete maximal values at all cell centers via FFT disk averages.

    Matches maximal_on_grid at every center; cells outside the grid never
    contribute, so averages near the edge divide by the in-grid count.
    """
    radii = dyadic_radii(field.extent) if radii is None else radii
    rs = _validate_radii(field, radii)
    vals = field.values
    n, h = field.n, field.cell_size
    out = np.full_like(vals, -math.inf)
    for r in rs:
        # zero-padded to the full linear size n + 2k, then the central n x n
        k = int(r / h) + 1
        shape = (n + 2 * k,) * 2
        off = np.arange(-k, k + 1)
        kernel = _in_disk((off[None, :] ** 2 + off[:, None] ** 2) * h * h, r)
        kf = np.fft.rfft2(kernel.astype(float), shape)
        num, cnt = (np.fft.irfft2(np.fft.rfft2(v, shape) * kf, shape)[k:-k, k:-k]
                    for v in (vals, np.ones_like(vals)))
        cnt = np.rint(cnt)
        cnt[cnt < 1] = 1
        np.maximum(out, num / cnt, out=out)
    return np.maximum(out, 0.0)


@dataclass(frozen=True)
class MaximalTestResult:
    lhs: float
    rhs: float
    b: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else math.inf


def orlicz_maximal_test(field: GridField, f: NFunction, b: float,
                        radii: Sequence[float] | None = None) -> MaximalTestResult:
    """Evaluate (sum Phi(b M u) dA, sum Phi(u) dA); reported, never asserted."""
    if not b > 0:
        raise DomainError("b must be positive")
    mf = maximal_field(field, radii)
    area = field.cell_area
    lhs = float(np.sum(np.asarray(f(b * mf))) * area)
    rhs = float(np.sum(np.asarray(f(field.values))) * area)
    return MaximalTestResult(lhs=lhs, rhs=rhs, b=b)


def field_from_extension(ext, n: int = 512, extent: float = 1.25,
                         r_cap: float = 0.999) -> GridField:
    """|Dh| sampled at cell centers inside the disk (0 outside |z| <= r_cap)."""
    from .poisson import operator_norm

    if n < 8:
        raise DomainError("grid resolution must be at least 8")
    cx = -extent + 2.0 * extent * (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(cx, cx, indexing="xy")
    zz = xx + 1j * yy
    mask = np.abs(zz) <= r_cap
    vals = np.zeros((n, n))
    if np.any(mask):
        hz, hzb = ext._derivative_batch(zz[mask])
        vals[mask] = operator_norm(hz, hzb)
    return GridField(values=vals, extent=extent)
