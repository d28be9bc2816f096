"""Poisson extension of a circle homeomorphism and its disk energies.

h(z) = (1/2pi) int_S (1-|z|^2)/|z-zeta|^2 phi(zeta) |d zeta| is evaluated by
the midpoint rule on N_b boundary nodes; the quadrature error is
O(N_b^-2 * (1-|z|)^-2) for rough boundary data and spectrally small for
smooth phi away from the boundary.  Differentiating the kernel in z gives
d/dz formula zeta/(z-zeta)^2; since the Poisson kernel is real, its d/dzbar
derivative is the conjugate kernel conj(zeta)/(zbar - conj(zeta))^2, applied
to the *unconjugated* boundary values.  Both are validated against central
finite differences of `extend`.

Two evaluators compute the same midpoint-rule derivatives.  Points off the
Whitney grid (`derivative`, `dump_derivative_raster`,
`orlicz.field_from_extension`) go through `_derivative_batch`, a direct
O(N_b) kernel sum per point that the tests also use as the oracle.  The
Whitney field goes through a spectral ring evaluation: the midpoint nodes
are the roots of zeta^N = -1 (N = N_b), so for psi = phi the z-derivative is
the power series sum_n (n+1) b_n z^n with anti-periodic coefficients
b_{n+N} = -b_n, b_q = e^{-i pi q/N} FFT(psi zeta^-1 / N)[q], and summing the
periods in closed form gives, with w = z^N,

    h_z = A/(1+w) - N w B/(1+w)^2,   A = sum_{q<N} (q+1) b_q z^q,
                                      B = sum_{q<N} b_q z^q.

h_zbar is the conjugate of the same expression built from psi = conj(phi).
The z^N term is the aliasing term of the periodic trapezoidal rule
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56, 2014).  The 2^j nodes of a Whitney ring at Gauss radius r
and Gauss angle t are z0 omega^m, z0 = r e^{it}, omega = e^{2 pi i/2^j}.
With q = p + k 2^j, p < 2^j, L = ceil(N/2^j) and C[k, p] = b_{p + k 2^j}
(0 for q >= N),

    B(z0 omega^m) = sum_{p<2^j} omega^{mp} z0^p sum_{k<L} C[k, p] z0^{k 2^j},

and A likewise from (q+1) b_q.  Per level the four rows b_q, (q+1) b_q of
psi = phi and psi = conj(phi) form one (K_j, 4 2^j) matrix C; per Gauss angle
the (g, K_j) matrix V[b, k] = (r_b e^{it})^{k 2^j} of the g radii gives every
radius and row as one product V C, and a multiplication by z0^p and one
batched 2^j-point inverse FFT give A and B on the whole ring.

The ring sums stop at the K_j <= L rows that rounding can see.  As |phi| = 1,
|b_q| <= 1, so with r the largest Gauss radius of the level the rows k >= K add
at most sum_{q>=Q} (q+1) r^q <= r^Q ((Q+1)/(1-r) + 1/(1-r)^2), Q = K 2^j, to A
or B; K_j is the least K whose bound is at most RING_TAIL = 2^-60 (eps/256).
At N_b = 2^14, g = 4, level 1 keeps 31 of its 8192 rows and no level more than
53.  The aliasing term w stays exact: where rows drop, r^N <= r^Q < RING_TAIL.

Energies (i) and (ii) integrate Phi(|Dh|) over Whitney cells with tensor
Gauss-Legendre quadrature in polar coordinates, |Dh| = |h_z| + |h_zbar|
(the single norm convention used everywhere in this package).  Their level
sums go through energy's task loop, with the rounding bound stated there.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .circle_map import TWO_PI, CircleHomeomorphism
from .dyadic import whitney_cell
from .energy import EnergyReport, level_reports, only_result
from .errors import DomainError, NumericalError, check_level

BARRIER = 1.0 - 2.0 ** -20
DEFAULT_NODES = 2 ** 14
DEFAULT_GAUSS = 4
NODES_RANGE = (2 ** 8, 2 ** 18)
GAUSS_RANGE = (2, 12)
MAX_WHITNEY_J = 12
_CHUNK_ENTRIES = 4_000_000  # complex entries per kernel-matrix chunk
RING_TAIL = np.finfo(float).eps * 2.0 ** -8   # 2^-60: dropped ring-sum tail


def _ring_rows(n_boundary: int, j: int, r_max: float) -> int:
    """K_j of the module docstring for largest Gauss radius r_max, capped at L."""
    q, r = 2 ** j, float(r_max)
    while q < n_boundary and r ** q * ((q + 1) / (1 - r) + 1 / (1 - r) ** 2) > RING_TAIL:
        q += 2 ** j
    return q // 2 ** j


def operator_norm(h_z, h_zbar):
    """|Dh| = |h_z| + |h_zbar|; every module must use this definition."""
    return np.abs(h_z) + np.abs(h_zbar)


@dataclass(frozen=True)
class DerivativePair:
    h_z: complex
    h_zbar: complex

    @property
    def norm(self) -> float:
        return float(operator_norm(self.h_z, self.h_zbar))

    @property
    def jacobian(self) -> float:
        return abs(self.h_z) ** 2 - abs(self.h_zbar) ** 2


class HarmonicExtension:
    """Midpoint-quadrature Poisson extension of a boundary circle map."""

    def __init__(self, map_: CircleHomeomorphism, n_boundary: int = DEFAULT_NODES,
                 gauss_order: int = DEFAULT_GAUSS):
        for name, value, (lo, hi) in (("n_boundary", n_boundary, NODES_RANGE),
                                      ("gauss_order", gauss_order, GAUSS_RANGE)):
            if not lo <= value <= hi:
                raise DomainError(f"{name} must be in [{lo}, {hi}], got {value}")
        self.map = map_
        self.n_boundary = int(n_boundary)
        self.gauss_order = int(gauss_order)

        theta, self._masses = map_.uniform_cells(self.n_boundary)  # Stieltjes cell masses
        self._zeta = np.exp(1j * theta)
        self._phi = map_.base_point_image * np.exp(1j * map_.lift_values(theta))
        self._dtheta = TWO_PI / self.n_boundary
        self._field_cache: dict[int, list] = {}

    # -- point evaluation ------------------------------------------------

    def _check_point(self, z: complex) -> complex:
        z = complex(z)
        if abs(z) > BARRIER:
            raise DomainError(
                f"|z|={abs(z):.9f} violates the boundary barrier 1-2^-20")
        return z

    def extend(self, z: complex) -> complex:
        """h(z) for |z| <= 1 - 2^-20."""
        z = self._check_point(z)
        ker = (1.0 - abs(z) ** 2) / np.abs(z - self._zeta) ** 2
        return complex(np.dot(ker, self._phi) * (self._dtheta / TWO_PI))

    def derivative(self, z: complex) -> DerivativePair:
        z = self._check_point(z)
        hz, hzb = self._derivative_batch(np.asarray([z], dtype=complex))
        return DerivativePair(complex(hz[0]), complex(hzb[0]))

    def derivative_bound(self, z: complex) -> float:
        """Stieltjes bound (1/2pi) int d mu_f(theta)/|z - e^{i theta}| >= |h_z|."""
        z = self._check_point(z)
        return float(np.dot(self._masses, 1.0 / np.abs(z - self._zeta)) / TWO_PI)

    # -- batched kernel ----------------------------------------------------

    def _derivative_batch(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Direct kernel sums (h_zbar as conj(sum zeta conj(phi)/(z - zeta)^2)),
        in chunks of at most _CHUNK_ENTRIES matrix entries."""
        cz, czb = self._zeta * self._phi, self._zeta * np.conj(self._phi)
        hz, hzb = np.empty(len(zs), dtype=complex), np.empty(len(zs), dtype=complex)
        chunk = max(1, _CHUNK_ENTRIES // self.n_boundary)
        for i in range(0, len(zs), chunk):
            inv2 = zs[i:i + chunk, None] - self._zeta
            np.reciprocal(np.square(inv2, out=inv2), out=inv2)
            hz[i:i + chunk] = inv2 @ cz
            hzb[i:i + chunk] = inv2 @ czb
        scale = self._dtheta / TWO_PI
        return hz * scale, np.conj(hzb) * scale

    # -- Whitney-grid derivative field ------------------------------------

    def _whitney_field(self, J: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(|Dh|, polar weights, Gauss radii) of each level j = 1..J.

        With g = gauss_order, |Dh| and the weights are shaped (2^j g, g): row
        m g + a is Gauss angle a of cell m + 1, column b the b-th of the g
        radii.  Each level is evaluated with the row-matrix form of the module
        docstring (`_ring_norm`), which equals the direct kernel sum of
        `_derivative_batch` at the same nodes up to rounding.  Besides the
        levels built so far, the working set is the (4, N_b) rows, the
        4 K_j 2^j-entry C of the level (`_ring_rows`) and, per Gauss angle,
        O(g (K_j + 2^j)) entries for V, z0^p and V C.
        """
        check_level(J, MAX_WHITNEY_J, what="Whitney depth")
        if J in self._field_cache:
            return self._field_cache[J]

        gx, gw = np.polynomial.legendre.leggauss(self.gauss_order)
        rows = self._ring_coefficients()
        field = []
        for j in range(1, J + 1):
            c0 = whitney_cell(j, 1)
            r = 0.5 * (c0.r_outer + c0.r_inner) + 0.5 * (c0.r_outer - c0.r_inner) * gx
            wr = 0.5 * (c0.r_outer - c0.r_inner) * gw
            half = math.pi / 2 ** j
            t0 = half * (gx + 1.0)          # nodes in the first cell [0, 2*half]
            w = np.tile(half * gw, 2 ** j)[:, None] * (wr * r)[None, :]
            field.append((self._ring_norm(rows, j, r, t0).reshape(w.shape), w, r))
        self._field_cache[J] = field
        return field

    def _ring_coefficients(self) -> np.ndarray:
        """(4, N_b) rows b_q, b_q^*, (q+1) b_q, (q+1) b_q^*; * marks psi = conj(phi)."""
        n = self.n_boundary
        psi = np.stack([self._phi, np.conj(self._phi)]) * np.conj(self._zeta)
        b = np.fft.fft(psi, axis=-1) * (np.exp(-1j * math.pi * np.arange(n) / n) / n)
        return np.concatenate([b, b * np.arange(1, n + 1)])

    def _ring_norm(self, rows: np.ndarray, j: int, r: np.ndarray,
                   t0: np.ndarray) -> np.ndarray:
        """|Dh| at r_b e^{i(t0_a + 2 pi m/2^j)}, shaped (2^j, len(t0), len(r))."""
        n, size = self.n_boundary, 2 ** j
        length = _ring_rows(n, j, np.max(r))   # K_j rows of C
        c = np.pad(rows[:, :length * size], ((0, 0), (0, max(0, length * size - n))))
        c = c.reshape(4, length, size).transpose(1, 0, 2)   # C[k, s 2^j + p]: row s
        c = c.reshape(length, 4 * size)
        k, p = size * np.arange(length), np.arange(size)
        r_k, r_p = r[:, None] ** k, r[:, None] ** p
        # (omega^m)^N, with the exponent reduced exactly in integers
        spin = np.exp(2j * math.pi * ((p * n) % size) / size)
        out = np.empty((size, t0.size, r.size))
        for a, t in enumerate(t0):
            sums = ((r_k * np.exp(1j * t * k)) @ c).reshape(r.size, 4, size)  # V C
            sums *= (r_p * np.exp(1j * t * p))[:, None, :]                   # z0^p
            sums = np.fft.ifft(sums, norm="forward").swapaxes(0, 1)  # (4, len(r), 2^j)
            w = (r ** n * np.exp(1j * n * t))[:, None] * spin
            # (h_z, conj(h_zbar)); |conj(h_zbar)| = |h_zbar|
            h = sums[2:] / (1.0 + w) - n * w * sums[:2] / (1.0 + w) ** 2
            out[:, a, :] = operator_norm(*h).T
        return out

    def energy_reports(self, J: int, tasks) -> dict:
        """(i)/(ii) reports of every (condition, lambda) task from one field,
        by `energy.level_reports`: a failed sum maps to its NumericalError, a
        failed guard or (ii) window check raises for the whole call."""
        return level_reports(self._disk_levels(J, tasks), J, tasks, ("i", "ii"))

    def _disk_levels(self, J: int, tasks):
        """Each level as one block: masses |Dh|^2 w and the bases log(e + |Dh|)
        of (i) and log(2/(1-r)) of (ii) that a task with lambda != 0 needs."""
        weighted = {c for c, lam in tasks if lam != 0.0}
        for j, (norm, w, r) in enumerate(self._whitney_field(J), start=1):
            # log(2/(1-r)) must sit in [j ln 2, (j+1) ln 2] at the Gauss radii,
            # which makes the (ii) weight uniformly comparable to j^lam
            logw = np.log(2.0 / (1.0 - r))
            lo, hi = j * math.log(2.0), (j + 1) * math.log(2.0)
            if np.any(logw < lo - 1e-9) or np.any(logw > hi + 1e-9):
                raise NumericalError(
                    f"(ii) weight escaped its comparability window at level {j}")
            yield [(((norm * norm * w).ravel(),), {   # column b of a level is radius b
                "i": (np.log(math.e + norm.ravel()),) if "i" in weighted else None,
                "ii": (np.tile(logw, len(norm)),) if "ii" in weighted else None})]

    def energy_i(self, lam: float, J: int = 10) -> EnergyReport:
        """int over Whitney cells of |Dh|^2 log^lambda(e + |Dh|)."""
        return only_result(self.energy_reports(J, [("i", lam)]))

    def energy_ii(self, lam: float, J: int = 10) -> EnergyReport:
        """int over Whitney cells of |Dh|^2 log^lambda(2/(1-|z|))."""
        return only_result(self.energy_reports(J, [("ii", lam)]))

    # -- diagnostics -------------------------------------------------------

    def fd_derivative(self, z: complex, step: float = 1e-5) -> DerivativePair:
        """Central finite-difference Wirtinger derivatives of extend."""
        z = self._check_point(z)
        dx = (self.extend(z + step) - self.extend(z - step)) / (2 * step)
        dy = (self.extend(z + 1j * step) - self.extend(z - 1j * step)) / (2 * step)
        return DerivativePair(0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy))

    def laplacian_probe(self, z: complex, step: float = 1e-3) -> float:
        """5-point discrete Laplacian of Re/Im of h; near 0 for harmonic h."""
        z = self._check_point(z)
        vals = [self.extend(z + d) for d in (step, -step, 1j * step, -1j * step)]
        lap = (sum(vals) - 4.0 * self.extend(z)) / step ** 2
        return abs(lap)

    def dump_derivative_raster(self, path, radii, angles) -> None:
        """CSV raster of |h_z|, |h_zbar| on the polar grid radii x angles."""
        radii = np.asarray(radii, dtype=float)
        angles = np.asarray(angles, dtype=float)
        if np.any(radii > BARRIER) or np.any(radii < 0):
            raise DomainError("raster radii must lie in [0, 1 - 2^-20]")
        zs = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
        hz, hzb = self._derivative_batch(zs)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["r", "theta", "abs_h_z", "abs_h_zbar"])
            idx = 0
            for r in radii:
                for t in angles:
                    w.writerow([repr(float(r)), repr(float(t)),
                                repr(float(abs(hz[idx]))), repr(float(abs(hzb[idx])))])
                    idx += 1

