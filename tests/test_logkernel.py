import math

import pytest

from circle_energy.errors import DomainError, NumericalError, ResourceGuardError
from circle_energy.logkernel import (band_weight, interval_weight,
                                     lambda_weight, log_energy_direct,
                                     log_energy_dyadic, sublevel_arc_measure,
                                     sublevel_integral)

TWO_PI = 2.0 * math.pi

# identity truth values: the chordal distance depends only on the angle gap,
# so the double integral reduces to 2*pi * int_0^2pi |log(2 sin(t/2))|^(lam+1),
# evaluated with adaptive quadrature (abs err <= 2e-8) and frozen here
IDENTITY_TRUTH = {
    -0.5: 29.162713762558166,
    0.0: 25.508264756153526,
    1.0: 32.46969701133487,
}


# -- weight functions ---------------------------------------------------------

def test_interval_weight_is_integral_of_lambda_weight():
    # closed form log^(lam+1)(1/a) - log^(lam+1)(1/b); midpoint-rule check.
    # b stays below 1 where Lambda has an integrable singularity for lam < 0
    for a, b, lam in ((0.1, 0.9, 0.0), (0.01, 0.5, 1.0), (0.2, 0.95, -0.5)):
        n = 200_000
        h = (b - a) / n
        riemann = math.fsum(
            lambda_weight(a + (i + 0.5) * h, lam) * h for i in range(n)
            if a + (i + 0.5) * h < 1.0)
        assert interval_weight(a, b, lam) == pytest.approx(riemann, rel=1e-6)


def test_interval_weight_frozen_values():
    assert interval_weight(0.1, 0.9, 0.0) == pytest.approx(2.1972245773362196,
                                                           rel=1e-14)
    assert interval_weight(0.01, 0.5, 1.0) == pytest.approx(20.727139427995397,
                                                            rel=1e-14)
    assert interval_weight(0.2, 1.0, -0.5) == pytest.approx(1.2686362411795196,
                                                            rel=1e-14)


def test_band_weights_telescope():
    for lam in (-0.5, 0.0, 1.0, 2.0):
        J = 20
        s = math.fsum(band_weight(j, lam) for j in range(1, J + 1))
        closed = ((J + 1) * math.log(2.0)) ** (lam + 1) - math.log(2.0) ** (lam + 1)
        assert s == pytest.approx(closed, rel=1e-12)
        assert s == pytest.approx(interval_weight(2.0 ** -(J + 1), 0.5, lam),
                                  rel=1e-12)


def test_weight_domain_guards():
    with pytest.raises(DomainError):
        lambda_weight(0.0, 0.0)
    with pytest.raises(DomainError):
        lambda_weight(1.5, 0.0)
    with pytest.raises(DomainError):
        lambda_weight(0.5, -1.0)
    with pytest.raises(DomainError):
        interval_weight(0.5, 0.1, 0.0)
    with pytest.raises(DomainError):
        band_weight(0, 0.0)


# -- sublevel measures ----------------------------------------------------------

def test_identity_sublevel_arc_measure_closed_form(identity):
    for t in (0.05, 0.7, 1.5):
        assert sublevel_arc_measure(identity, 1.0, t) == pytest.approx(
            4.0 * math.asin(0.5 * t), rel=1e-13)


def test_identity_sublevel_integral_closed_form(identity):
    for t in (0.1, 0.7):
        assert sublevel_integral(identity, t) == pytest.approx(
            8.0 * math.pi * math.asin(0.5 * t), rel=1e-12)


def test_sublevel_measure_saturates(identity):
    assert sublevel_arc_measure(identity, 0.5, 2.0) == pytest.approx(TWO_PI)
    with pytest.raises(DomainError):
        sublevel_arc_measure(identity, 0.5, 0.0)
    with pytest.raises(DomainError):
        sublevel_arc_measure(identity, 0.5, 2.5)


def test_sublevel_measure_monotone_in_t(families):
    m = families["log_singular"]
    prev = 0.0
    for t in (0.01, 0.1, 0.5, 1.0, 1.9):
        cur = sublevel_arc_measure(m, 2.0, t)
        assert cur >= prev
        prev = cur


# -- the two evaluation methods -------------------------------------------------

def test_identity_direct_approaches_truth(identity):
    # midpoint quadrature bias grows with lam; windows measured at res 512
    for lam, tol in ((-0.5, 0.01), (0.0, 0.03), (1.0, 0.12)):
        res = log_energy_direct(identity, lam, resolution=512)
        truth = IDENTITY_TRUTH[lam]
        assert res.total == pytest.approx(truth, rel=tol)
        assert res.total == res.part_one + res.part_two
        assert res.excluded_band_bound > 0.0
        assert math.isfinite(res.excluded_band_bound)


def test_direct_error_bar_covers_diagonal_cells(identity):
    # the excluded diagonal cells reach chordal distance 2 sin(pi/resolution);
    # the bar must cover the true error without being vacuous (measured
    # ratios bar/error 1.69-1.93 at these resolutions)
    for resolution in (256, 512, 1024):
        for lam, truth in IDENTITY_TRUTH.items():
            res = log_energy_direct(identity, lam, resolution=resolution)
            err = abs(res.total - truth)
            assert err <= res.excluded_band_bound <= 2.5 * err, (resolution, lam)


def test_identity_dyadic_surrogate_comparable_to_truth(identity):
    # the layer-cake band surrogate is two-sided comparable, not equal:
    # measured ratios 0.733, 0.844, 1.156 at J = 30
    for lam in (-0.5, 0.0, 1.0):
        res = log_energy_dyadic(identity, lam, 30, resolution=1024)
        ratio = res.total / IDENTITY_TRUTH[lam]
        assert 0.5 < ratio < 2.0


def test_identity_dyadic_band_terms_closed_form(identity):
    res = log_energy_dyadic(identity, 0.0, 12, resolution=1024)
    assert res.band_levels == tuple(range(1, 13))
    for j, term in zip(res.band_levels, res.band_terms):
        oracle = 8.0 * math.pi * math.asin(2.0 ** -(j + 1)) * band_weight(j, 0.0)
        assert term == pytest.approx(oracle, rel=1e-12)
    assert math.fsum(res.band_terms) == pytest.approx(res.part_two, rel=1e-15)


def test_far_pair_part_bounded(families):
    # distances in [1, 2] carry weight at most log^(lam+1)(2) per unit mass
    for name, m in families.items():
        for lam in (-0.5, 0.0, 1.0):
            res = log_energy_dyadic(m, lam, 8, resolution=256)
            bound = math.log(2.0) ** (lam + 1.0) * TWO_PI ** 2
            assert 0.0 <= res.part_one <= bound, (name, lam)


def test_methods_tagged_and_deterministic(identity):
    a = log_energy_dyadic(identity, 1.0, 10)
    b = log_energy_dyadic(identity, 1.0, 10)
    assert a == b
    assert a.method == "dyadic"
    assert log_energy_direct(identity, 1.0, resolution=64).method == "direct"


def test_resolution_and_level_guards(identity):
    with pytest.raises(DomainError):
        log_energy_direct(identity, 0.0, resolution=32)
    with pytest.raises(ResourceGuardError):
        log_energy_direct(identity, 0.0, resolution=4096)
    with pytest.raises(DomainError):
        log_energy_dyadic(identity, 0.0, 0)
    with pytest.raises(ResourceGuardError):
        log_energy_dyadic(identity, 0.0, 41)
    with pytest.raises(DomainError):
        log_energy_dyadic(identity, -1.5, 10)


def test_huge_lambda_raises_numerical_error(families):
    # log^(lambda+1) of the band ends overflows a double at lambda = 1000;
    # the direct grid's own overflow stays silent divergence evidence
    for m in (families["identity"], families["power"]):
        with pytest.raises(NumericalError):
            log_energy_dyadic(m, 1000.0, 8)
        with pytest.raises(NumericalError):
            log_energy_direct(m, 1000.0)
    with pytest.raises(NumericalError):
        band_weight(2, 1000.0)
    with pytest.raises(NumericalError):
        interval_weight(1e-3, 0.5, 1000.0)
