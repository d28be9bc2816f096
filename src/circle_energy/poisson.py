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
SIAM Review 56, 2014).  The 2^j nodes of a Whitney ring at one Gauss radius
and Gauss angle are z0 * omega^m with omega = e^{2 pi i/2^j}, so folding
b_q z0^q modulo 2^j turns A and B on the whole ring into one 2^j-point
inverse FFT each.

Energies (i) and (ii) integrate Phi(|Dh|) over Whitney cells with tensor
Gauss-Legendre quadrature in polar coordinates, |Dh| = |h_z| + |h_zbar|
(the single norm convention used everywhere in this package).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .circle_map import TWO_PI, CircleHomeomorphism
from .dyadic import whitney_cell
from .energy import EnergyReport, make_report
from .errors import DomainError, NumericalError, check_lambda, check_level

BARRIER = 1.0 - 2.0 ** -20
DEFAULT_NODES = 2 ** 14
DEFAULT_GAUSS = 4
NODES_RANGE = (2 ** 8, 2 ** 18)
GAUSS_RANGE = (2, 12)
MAX_WHITNEY_J = 12
_CHUNK_ENTRIES = 4_000_000  # complex entries per kernel-matrix chunk


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

        edges = TWO_PI * np.arange(self.n_boundary + 1) / self.n_boundary
        edges[-1] = TWO_PI
        theta = 0.5 * (edges[:-1] + edges[1:])
        lift = map_.lift_values(theta)
        self._zeta = np.exp(1j * theta)
        self._phi = map_.base_point_image * np.exp(1j * lift)
        self._dtheta = TWO_PI / self.n_boundary
        self._masses = np.diff(map_.lift_values(edges))  # Stieltjes cell masses
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
        """Direct kernel sums, in chunks of at most _CHUNK_ENTRIES matrix entries."""
        scale = self._dtheta / TWO_PI
        cz = self._zeta * self._phi * scale
        czb = np.conj(self._zeta) * self._phi * scale
        hz, hzb = np.empty(len(zs), dtype=complex), np.empty(len(zs), dtype=complex)
        chunk = max(1, _CHUNK_ENTRIES // self.n_boundary)
        for i in range(0, len(zs), chunk):
            dz = zs[i:i + chunk, None] - self._zeta
            inv2 = 1.0 / (dz * dz)
            hz[i:i + chunk] = inv2 @ cz
            hzb[i:i + chunk] = np.conj(inv2) @ czb
        return hz, hzb

    # -- Whitney-grid derivative field ------------------------------------

    def _whitney_field(self, J: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(|Dh|, polar weights, Gauss radii) of each level j = 1..J.

        With g = gauss_order, |Dh| and the weights are shaped (2^j g, g): row
        m g + a is Gauss angle a of cell m + 1, column b the b-th of the g
        radii.  Each level is evaluated ring by ring with the spectral formula
        of the module docstring (`_ring_derivatives`), which equals the direct
        kernel sum of `_derivative_batch` at the same nodes up to rounding.
        """
        check_level(J, MAX_WHITNEY_J, what="Whitney depth")
        if J in self._field_cache:
            return self._field_cache[J]

        gx, gw = np.polynomial.legendre.leggauss(self.gauss_order)
        coeffs = self._ring_coefficients()
        # one (g, N_b) workspace for all levels: arrays this large, allocated
        # per level, are handed back to the system and faulted in again
        work = (np.empty((self.gauss_order, self.n_boundary)),
                np.empty((2, self.gauss_order, self.n_boundary), dtype=complex))
        field = []
        for j in range(1, J + 1):
            c0 = whitney_cell(j, 1)
            r = 0.5 * (c0.r_outer + c0.r_inner) + 0.5 * (c0.r_outer - c0.r_inner) * gx
            wr = 0.5 * (c0.r_outer - c0.r_inner) * gw
            half = math.pi / 2 ** j
            t0 = half * (gx + 1.0)          # nodes in the first cell [0, 2*half]
            w = np.tile(half * gw, 2 ** j)[:, None] * (wr * r)[None, :]
            norm = operator_norm(*self._ring_derivatives(coeffs, j, r, t0, work))
            field.append((norm.reshape(w.shape), w, r))
        self._field_cache[J] = field
        return field

    def _ring_coefficients(self) -> np.ndarray:
        """b_q for psi = phi (row 0) and psi = conj(phi) (row 1), q < N_b."""
        n = self.n_boundary
        psi = np.stack([self._phi, np.conj(self._phi)]) * np.conj(self._zeta)
        return np.fft.fft(psi, axis=-1) * (np.exp(-1j * math.pi * np.arange(n) / n) / n)

    def _ring_derivatives(self, coeffs: np.ndarray, j: int, r: np.ndarray,
                          t0: np.ndarray, work: tuple) -> tuple[np.ndarray, np.ndarray]:
        """h_z, h_zbar at r_b e^{i(t0_a + 2 pi m/2^j)}, shaped (2^j, len(t0), len(r)).

        One Gauss-angle row at a time, so the working set is O(len(r) N_b):
        `work` = (r^q, (z0^q, beta)), the real and the two complex arrays that
        `_whitney_field` allocates once for all levels, each (len(r), N_b).
        """
        n, size = self.n_boundary, 2 ** j
        q = np.arange(n)
        r_pow, (z0_pow, beta) = work
        np.power(r[:, None], q, out=r_pow)
        # (omega^m)^N, with the exponent reduced exactly in integers
        spin = np.exp(2j * math.pi * ((np.arange(size) * n) % size) / size)
        out = np.empty((2, size, t0.size, r.size), dtype=complex)
        for a, t in enumerate(t0):
            np.multiply(r_pow, np.exp(1j * t * q), out=z0_pow)  # z0^q per Gauss radius
            w = (r ** n * np.exp(1j * n * t))[:, None] * spin
            for s in range(2):
                np.multiply(coeffs[s], z0_pow, out=beta)
                big_b = _fold_ifft(beta, size)
                big_a = _fold_ifft(np.multiply(q + 1, beta, out=beta), size)
                out[s, :, a, :] = (big_a / (1.0 + w)
                                   - n * w * big_b / (1.0 + w) ** 2).T
        return out[0], np.conj(out[1])

    def _energy(self, condition: str, lam: float, J: int) -> EnergyReport:
        check_lambda(lam)
        per_level = []
        for j, (norm, w, r) in enumerate(self._whitney_field(J), start=1):
            if condition == "i":
                weight = np.log(math.e + norm) ** lam
            else:
                logw = np.log(2.0 / (1.0 - r))
                self._check_ii_weight(j, logw)
                weight = logw ** lam
            per_level.append(math.fsum((norm * norm * weight * w).ravel().tolist()))
        return make_report(condition, lam, J, range(1, J + 1), per_level)

    @staticmethod
    def _check_ii_weight(j: int, logw: np.ndarray) -> None:
        # log(2/(1-r)) must sit in [j ln 2, (j+1) ln 2] at the Gauss radii,
        # which makes the weight uniformly comparable to j^lam
        lo, hi = j * math.log(2.0), (j + 1) * math.log(2.0)
        if np.any(logw < lo - 1e-9) or np.any(logw > hi + 1e-9):
            raise NumericalError(
                f"(ii) weight escaped its comparability window at level {j}")

    def energy_i(self, lam: float, J: int = 10) -> EnergyReport:
        """int over Whitney cells of |Dh|^2 log^lambda(e + |Dh|)."""
        return self._energy("i", lam, J)

    def energy_ii(self, lam: float, J: int = 10) -> EnergyReport:
        """int over Whitney cells of |Dh|^2 log^lambda(2/(1-|z|))."""
        return self._energy("ii", lam, J)

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


def _fold_ifft(x: np.ndarray, size: int) -> np.ndarray:
    """sum_q x_q e^{2 pi i m q/size} for m < size along the last axis.

    x is folded modulo size first, zero-padded when size does not divide
    its length (this covers size > length).
    """
    pad = -x.shape[-1] % size
    if pad:
        x = np.concatenate([x, np.zeros(x.shape[:-1] + (pad,), dtype=x.dtype)], axis=-1)
    folded = x.reshape(x.shape[:-1] + (-1, size)).sum(axis=-2)
    return np.fft.ifft(folded, axis=-1) * size
