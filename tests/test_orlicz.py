import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize, signal

from circle_energy.circle_map import identity_map
from circle_energy.errors import DomainError, NumericalError
from circle_energy.orlicz import (GridField, NFunction, _in_disk,
                                  check_kr_criterion, complementary_pair,
                                  delta2_constant, doubling_window,
                                  dyadic_radii, field_from_extension,
                                  gauss_legendre, log_grid,
                                  log_weighted_square, maximal_field,
                                  maximal_on_grid, orlicz_maximal_test,
                                  phi_lambda, phi_lambda_density)
from circle_energy.poisson import HarmonicExtension


# -- the N-function family ------------------------------------------------------

def test_phi_lambda_zero_is_plain_square():
    ts = np.geomspace(1e-6, 1e6, 40)
    np.testing.assert_array_equal(phi_lambda(ts, 0.0), ts * ts)
    np.testing.assert_array_equal(phi_lambda_density(ts, 0.0), 2.0 * ts)


def test_phi_density_matches_finite_differences():
    for lam in (-0.5, 1.0, 2.5):
        for t in (0.05, 1.0, 17.0):
            h = 1e-6 * max(t, 1.0)
            fd = (phi_lambda(t + h, lam) - phi_lambda(t - h, lam)) / (2 * h)
            assert phi_lambda_density(t, lam) == pytest.approx(fd, rel=1e-7)


@given(st.floats(min_value=-0.9, max_value=3.0),
       st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_phi_midpoint_convex(lam, a, b):
    mid = phi_lambda(0.5 * (a + b), lam)
    assert mid <= 0.5 * (phi_lambda(a, lam) + phi_lambda(b, lam)) * (1 + 1e-12)


def test_phi_domain_guards():
    with pytest.raises(DomainError):
        phi_lambda(-1.0, 0.0)
    with pytest.raises(DomainError):
        phi_lambda(1.0, -1.0)
    with pytest.raises(DomainError):
        phi_lambda_density(-0.5, 1.0)


# -- doubling constants -----------------------------------------------------------

def test_delta2_exactly_four_at_lambda_zero():
    # Phi(2t)/Phi(t) = 4 identically; IEEE multiplication keeps it exact
    assert delta2_constant(log_weighted_square(0.0)) == 4.0


def test_delta2_within_analytic_bound():
    for lam in (-0.9, -0.5, 1.0, 2.0):
        d2 = delta2_constant(log_weighted_square(lam))
        assert 0.0 < d2 <= 4.0 * 2.0 ** abs(lam) + 1e-9


def test_kr_criterion_choices():
    for lam in (0.0, 1.0, 2.0):
        assert check_kr_criterion(log_weighted_square(lam), l=2.0)
    for lam in (-0.5, -0.9):
        assert check_kr_criterion(log_weighted_square(lam),
                                  l=2.0 ** (1.0 / (1.0 + lam)))
    # too small an l fails for negative lambda
    assert not check_kr_criterion(log_weighted_square(-0.9), l=1.1)
    with pytest.raises(DomainError):
        check_kr_criterion(log_weighted_square(0.0), l=1.0)


def test_doubling_window_finite_positive():
    for lam in (-0.5, 0.0, 2.0):
        lo, hi = doubling_window(log_weighted_square(lam), 3.0)
        assert 0.0 < lo <= hi < math.inf


@pytest.mark.parametrize("call", [
    lambda f, grid: delta2_constant(f, grid=grid),
    lambda f, grid: doubling_window(f, 2.0, grid=grid),
    lambda f, grid: check_kr_criterion(f, 2.0, grid=grid),
], ids=["delta2", "doubling", "kr"])
def test_doubling_diagnostics_reject_grids_without_positive_points(call):
    # no positive point must not make check_kr_criterion pass vacuously, nor
    # doubling_window fail inside numpy's max of an empty array
    f = log_weighted_square(1.0)
    for grid in ([-1.0, 0.0], [0.0], []):
        with pytest.raises(DomainError, match="no positive points"):
            call(f, grid)
    assert call(f, [-1.0, 0.0, 2.0]) == call(f, [2.0])   # the positive points only


def test_log_grid_positive_increasing():
    g = log_grid()
    assert np.all(g > 0) and np.all(np.diff(g) > 0)


# -- complementary function --------------------------------------------------------

def test_legendre_identity_residual():
    # Psi(t) = t psi(t) - Phi(psi(t)) ties the quadrature to the inversion
    for lam in (-0.9, -0.5, 0.0, 1.0, 2.0):
        pair = complementary_pair(log_weighted_square(lam))
        for t in (1e-6, 0.3, 3.7, 40.0, 1e4):
            assert pair.legendre_residual(t) < 1e-8, (lam, t)


def test_psi_is_generalized_inverse():
    pair = complementary_pair(log_weighted_square(-0.5))
    dens = pair.primal.density
    for t in (0.1, 1.0, 10.0):
        s = pair.psi(t)
        assert dens(s) == pytest.approx(t, rel=1e-10)


@pytest.mark.parametrize("lam", [-0.9, -0.5, 0.0, 1.0, 2.0])
def test_psi_matches_brentq_reference(lam):
    # scipy's Brent solver on the same bracket is a second route to psi
    pair = complementary_pair(log_weighted_square(lam))
    dens = pair.primal.density

    def brent(t):
        hi = 1.0
        while dens(hi) <= t:
            hi *= 2.0
        lo = 0.0 if dens(hi / 2) > t else hi / 2
        return optimize.brentq(lambda s: dens(s) - t, lo, hi,
                               xtol=1e-300, rtol=8.9e-16)

    ts = np.logspace(-8, 8, 200)
    got = pair.psi(ts)
    assert got.shape == ts.shape
    np.testing.assert_allclose(got, [brent(t) for t in ts],
                               rtol=4 * np.finfo(float).eps, atol=0.0)
    assert pair.psi(float(ts[57])) == got[57]


def test_psi_and_complementary_accept_arrays():
    pair = complementary_pair(log_weighted_square(1.0))
    ts = np.array([[0.0, 0.5], [3.0, 50.0]])
    np.testing.assert_array_equal(
        pair.complementary(ts),
        [[pair.complementary(float(t)) for t in row] for row in ts])
    with pytest.raises(DomainError):
        pair.psi(np.array([1.0, np.nan]))


def test_gauss_legendre_error_estimate():
    val, err = gauss_legendre(np.exp, 0.0, 1.0)
    assert val == pytest.approx(math.e - 1.0, rel=1e-15) and err < 1e-15
    # a density with a jump gives psi a flat stretch, whose kinks the
    # rule cannot resolve; the residual refuses rather than answering
    jump = NFunction(evaluate=lambda t: np.asarray(t) ** 2,
                     density=lambda s: 2.0 * s + np.where(s > 1.0, 5.0, 0.0))
    pair = complementary_pair(jump)
    assert gauss_legendre(pair.psi, 0.0, 10.0)[1] > 1e-4
    with pytest.raises(NumericalError):
        pair.legendre_residual(10.0)


def test_young_inequality_nonnegative():
    pair = complementary_pair(log_weighted_square(1.0))
    slack = pair.young_slack(np.geomspace(0.01, 100.0, 50), [0.5, 2.0, 5.0])
    assert slack > -1e-6


def test_pair_domain_guards():
    pair = complementary_pair(log_weighted_square(0.0))
    with pytest.raises(DomainError):
        pair.psi(-1.0)
    with pytest.raises(DomainError):
        pair.complementary(-2.0)
    assert pair.psi(0.0) == 0.0
    assert pair.complementary(0.0) == 0.0


# -- discrete maximal operator ------------------------------------------------------

@pytest.fixture()
def spike_field():
    vals = np.zeros((8, 8))
    vals[3, 4] = 64.0
    return GridField(vals, extent=1.0)


def test_maximal_spike_oracles(spike_field):
    # cell size 0.25; the smallest dyadic radius 0.0625 isolates one cell and
    # radius 0.25 captures the five cells of the axis cross
    c = spike_field.centers()
    radii = dyadic_radii(1.0, 4)
    assert radii == [1.0, 0.5, 0.25, 0.125, 0.0625]
    at_spike = maximal_on_grid(spike_field, (float(c[4]), float(c[3])), radii)
    assert at_spike == pytest.approx(64.0)
    at_neighbour = maximal_on_grid(spike_field, (float(c[5]), float(c[3])), radii)
    assert at_neighbour == pytest.approx(64.0 / 5.0)


def test_maximal_field_matches_per_point(spike_field):
    c = spike_field.centers()
    radii = dyadic_radii(1.0, 4)
    ff = maximal_field(spike_field, radii)
    gg = np.array([[maximal_on_grid(spike_field, (float(c[j]), float(c[i])), radii)
                    for j in range(8)] for i in range(8)])
    np.testing.assert_allclose(ff, gg, atol=1e-12)


def test_maximal_disk_edge_tie():
    # r = 1.25/8 = 3h on a 48-cell grid: the centers 3 cells right of and
    # below the probe lie exactly on the disk's edge and count for both
    # evaluations (23 in-grid centers at this probe next to the left edge)
    gf = GridField(np.zeros((48, 48)), extent=1.25)
    gf.values[5, 4] = gf.values[8, 1] = 1.0
    cs = gf.centers()
    r = 1.25 * 2.0 ** -3
    per_point = maximal_on_grid(gf, (float(cs[1]), float(cs[5])), [r])
    assert per_point == pytest.approx(2.0 / 23.0, rel=1e-12)
    assert maximal_field(gf, [r])[5, 1] == pytest.approx(per_point, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_maximal_field_matches_fftconvolve_reference(seed):
    # scipy's fftconvolve ("same" mode) is a second route to the disk sums
    gf = GridField(np.random.default_rng(seed).uniform(0, 3, (48, 48)),
                   extent=1.25)
    h = gf.cell_size
    want = np.full((48, 48), -math.inf)
    for r in dyadic_radii(1.25):
        k = int(r / h) + 1
        off = np.arange(-k, k + 1)
        kernel = _in_disk((off[None, :] ** 2 + off[:, None] ** 2) * h * h, r)
        kernel = kernel.astype(float)
        num = signal.fftconvolve(gf.values, kernel, mode="same")
        cnt = np.rint(signal.fftconvolve(np.ones((48, 48)), kernel, mode="same"))
        np.maximum(want, num / np.maximum(cnt, 1), out=want)
    np.testing.assert_allclose(maximal_field(gf), np.maximum(want, 0.0),
                               rtol=0.0, atol=1e-12)


def test_maximal_dominates_field(spike_field):
    ff = maximal_field(spike_field, dyadic_radii(1.0, 4))
    assert np.all(ff >= spike_field.values - 1e-12)


def test_maximal_guards(spike_field):
    with pytest.raises(DomainError):
        maximal_on_grid(spike_field, (1.0, 1.0), [0.01])   # empty smallest disk
    with pytest.raises(DomainError):
        maximal_on_grid(spike_field, (3.0, 0.0), [0.5])    # outside grid
    with pytest.raises(DomainError):
        maximal_on_grid(spike_field, (0.0, 0.0), [])
    with pytest.raises(DomainError):
        maximal_on_grid(spike_field, (0.0, 0.0), [5.0])    # beyond extent


def test_grid_field_validation():
    with pytest.raises(DomainError):
        GridField(np.zeros((4, 5)))
    with pytest.raises(DomainError):
        GridField(-np.ones((4, 4)))
    with pytest.raises(DomainError):
        GridField(np.full((4, 4), np.nan))
    with pytest.raises(DomainError):
        GridField(np.zeros((4, 4)), extent=0.0)


def test_orlicz_maximal_report_on_identity_gradient():
    # |Dh| = 1 for the identity, so the field is the disk indicator; the
    # scaled maximal integral stays well under the unscaled one (measured
    # ratio 0.067 with b = 1/4)
    ext = HarmonicExtension(identity_map(), n_boundary=2 ** 10)
    field = field_from_extension(ext, n=128)
    res = orlicz_maximal_test(field, log_weighted_square(1.0), b=0.25)
    assert res.lhs > 0.0 and res.rhs > 0.0
    assert res.b == 0.25
    assert res.ratio <= 2.0
    with pytest.raises(DomainError):
        orlicz_maximal_test(field, log_weighted_square(1.0), b=0.0)


def test_field_from_extension_identity_values():
    # |Dh| = 1 holds wherever the boundary quadrature resolves the kernel;
    # near the rim the node spacing dominates, so check well inside
    ext = HarmonicExtension(identity_map(), n_boundary=2 ** 10)
    field = field_from_extension(ext, n=64)
    c = field.centers()
    rr = np.hypot(c[None, :], c[:, None])
    inner = field.values[(rr <= 0.9) & (field.values > 0)]
    assert inner.size > 0
    np.testing.assert_allclose(inner, 1.0, atol=1e-9)
