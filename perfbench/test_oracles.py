"""Each benchmark oracle against a second route; the tracer's reductions.

    python3 -m pytest perfbench -q
"""

import math

import numpy as np
import pytest
from scipy import integrate

import oracles
from spans import Tracer, parse_importtime

TWO_PI = 2.0 * math.pi
LAMS = (-0.5, 0.0, 1.0)


def test_identity_energy_i_is_sum_of_annuli():
    J = 10
    for lam in LAMS:
        annuli = math.fsum(math.pi * ((1 - 2.0 ** -j) ** 2 - (1 - 2.0 ** (1 - j)) ** 2)
                           for j in range(1, J + 1))
        want = annuli * math.log(math.e + 1.0) ** lam
        assert oracles.identity_energy_i(lam, J) == pytest.approx(want, rel=1e-14)


def _antiderivative_lam1(s):
    # int (1 - s)(log 2 - log s) ds, with s = 1 - r
    L = math.log(2.0)
    return (L * s - (s * math.log(s) - s) - L * s * s / 2
            + (s * s / 2 * math.log(s) - s * s / 4))


def test_identity_energy_ii_against_closed_forms_and_gauss():
    J = 10
    got0 = oracles.identity_energy_ii_levels(0.0, J)
    got1 = oracles.identity_energy_ii_levels(1.0, J)
    goth = oracles.identity_energy_ii_levels(-0.5, J)
    x, w = np.polynomial.legendre.leggauss(60)
    for j in range(1, J + 1):
        lo, hi = 1.0 - 2.0 ** (1 - j), 1.0 - 2.0 ** -j
        assert got0[j - 1] == pytest.approx(math.pi * (hi * hi - lo * lo), rel=1e-13)
        lam1 = TWO_PI * (_antiderivative_lam1(1 - lo) - _antiderivative_lam1(1 - hi))
        assert got1[j - 1] == pytest.approx(lam1, rel=1e-12)
        r = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        gauss = TWO_PI * 0.5 * (hi - lo) * np.sum(w * r * np.log(2 / (1 - r)) ** -0.5)
        assert goth[j - 1] == pytest.approx(gauss, rel=1e-12)


def test_mobius_area_against_polar_quadrature():
    a, J = 0.5, 10
    rho = 1.0 - 2.0 ** -J
    val, _ = integrate.dblquad(
        lambda t, r: r * abs(oracles.mobius_derivative(a, r * np.exp(1j * t))) ** 2,
        0.0, rho, 0.0, TWO_PI, epsabs=0.0, epsrel=1e-11)
    assert oracles.mobius_area(a, J) == pytest.approx(val, rel=1e-9)


def test_mobius_derivative_against_finite_difference():
    a, h = 0.5, 1e-6
    m = lambda z: (z - a) / (1 - a * z)
    for z in (0.3 + 0.2j, -0.7j, 0.85):
        fd = (m(z + h) - m(z - h)) / (2 * h)
        assert abs(oracles.mobius_derivative(a, z) - fd) < 1e-8


def test_power2_lengths_against_lift_and_series():
    for j in (1, 5, 12):
        n = 2 ** j
        edges = np.arange(n + 1) / n
        lift = TWO_PI * edges ** 2
        l = oracles.power2_lengths(j)
        assert np.allclose(l, np.diff(lift), rtol=0, atol=1e-14)
        # sum_k (2k - 1)^2 = n (4n^2 - 1) / 3
        want = TWO_PI ** 2 / 16.0 ** j * n * (4 * n * n - 1) / 3
        assert math.fsum((l * l).tolist()) == pytest.approx(want, rel=1e-13)


def test_piecewise_linear_lengths_against_interp():
    knots = [[0.0, 0.0], [1.0, 2.5], [2.2, 3.0], [4.0, 5.5], [TWO_PI, TWO_PI]]
    kt, kv = np.array(knots).T
    for j in (1, 3, 10):
        edges = TWO_PI * np.arange(2 ** j + 1) / 2 ** j
        want = np.diff(np.interp(edges, kt, kv))
        assert np.allclose(oracles.piecewise_linear_lengths(knots, j), want,
                           rtol=0, atol=1e-13)


def test_dyadic_levels_identity_closed_form():
    got = oracles.dyadic_levels(oracles.identity_lengths, LAMS, 12)
    for lam in LAMS:
        for j in range(1, 13):
            iv = j ** lam * 4 * math.pi ** 2 / 2 ** j
            v = 4 * math.pi ** 2 / 2 ** j * math.log(math.e + TWO_PI) ** lam
            assert got[(lam, "iv")][j - 1] == pytest.approx(iv, rel=1e-14)
            assert got[(lam, "v")][j - 1] == pytest.approx(v, rel=1e-14)


def test_identity_log_energy_against_series_and_substitution():
    # lam = 1: int_0^{2pi} log^2(2 sin(t/2)) dt = pi^3/6
    assert oracles.identity_log_energy(1.0) == pytest.approx(TWO_PI * math.pi ** 3 / 6,
                                                            rel=1e-11)
    # lam = 0: int_0^{2pi} |log(2 sin(t/2))| dt = 4 Cl_2(pi/3), Clausen series
    n = np.arange(1, 200001, dtype=float)
    cl2 = math.fsum((np.sin(n * math.pi / 3) / n ** 2).tolist())
    assert oracles.identity_log_energy(0.0) == pytest.approx(TWO_PI * 4 * cl2, rel=1e-9)
    # lam = -0.5: t = pi e^{-x} moves the log singularity to infinity; the
    # integrand is below e^{-200} past x = 200
    f = lambda t: abs(math.log(2 * math.sin(0.5 * t))) ** 0.5
    tail, _ = integrate.quad(lambda x: f(math.pi * math.exp(-x)) * math.pi * math.exp(-x),
                             math.log(3.0), 200.0, epsrel=1e-12, limit=400)
    head, _ = integrate.quad(f, math.pi / 3, math.pi, epsrel=1e-12, limit=400)
    assert oracles.identity_log_energy(-0.5) == pytest.approx(
        TWO_PI * 2 * (head + tail), rel=1e-9)


def test_tracer_self_time_and_nesting():
    tr = Tracer()
    tr.spans = [(0, -1, "op", 0.0, 10.0), (1, 0, "a", 1.0, 6.0),
                (2, 1, "b", 2.0, 4.0), (3, 0, "b", 7.0, 8.0)]
    assert tr.layer_totals() == {"op": 4.0, "a": 3.0, "b": 3.0}


def test_tracer_wraps_only_while_active():
    tr = Tracer()
    f = tr._wrap(lambda x: x * 2, "layer", "energy.calls")
    assert f(3) == 6 and tr.spans == []
    tr.active = True
    assert f(4) == 8
    assert [s[2] for s in tr.spans] == ["layer"] and tr.counts == {"energy.calls": 1}


def test_parse_importtime_counts_top_scipy_imports_once():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |        350 |   circle_energy.verify",
        "import time:       400 |        400 |     scipy.signal",
        "import time:       100 |        500 |   circle_energy.orlicz",
        "import time:        10 |        900 | circle_energy",
    ])
    pkg, scipy_s = parse_importtime(sample)
    assert pkg == pytest.approx(900e-6)
    assert scipy_s == pytest.approx(700e-6)
