import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from circle_energy.circle_map import catalog
from circle_energy.energy import (EnergyReport, _exact_split_sums, _rounded, chi_bound,
                                  classify_convergence, classify_sequence,
                                  comparability_split, dyadic_energy_iv,
                                  dyadic_energy_v, make_report)
from circle_energy.errors import (DomainError, InsufficientDataError,
                                  NumericalError, ResourceGuardError)

TWO_PI = 2.0 * math.pi


# -- identity oracles ---------------------------------------------------------

def test_identity_iv_closed_form(identity):
    # every level-j image arc has length 2*pi*2^-j, so
    # s_j = j^lam * 2^j * (2*pi*2^-j)^2 = j^lam * 4*pi^2 * 2^-j
    for lam in (-0.5, 0.0, 1.0, 2.0):
        rep = dyadic_energy_iv(identity, lam, 12)
        oracle = [j ** lam * 4.0 * math.pi ** 2 * 2.0 ** -j for j in rep.levels]
        np.testing.assert_allclose(rep.per_level, oracle, rtol=1e-12)
        assert rep.total == pytest.approx(math.fsum(oracle), rel=1e-12)


def test_identity_iv_lambda0_total(identity):
    for J in (6, 10, 14):
        rep = dyadic_energy_iv(identity, 0.0, J)
        assert rep.total == pytest.approx(4.0 * math.pi ** 2 * (1.0 - 2.0 ** -J),
                                          rel=1e-12)


def test_identity_v_closed_form(identity):
    # identity arcs satisfy l * 2^j = 2*pi exactly, so the (v) weight is the
    # constant log^lam(e + 2*pi)
    for lam in (-0.5, 1.0):
        rep = dyadic_energy_v(identity, lam, 10)
        w = math.log(math.e + TWO_PI) ** lam
        oracle = [4.0 * math.pi ** 2 * 2.0 ** -j * w for j in rep.levels]
        np.testing.assert_allclose(rep.per_level, oracle, rtol=1e-12)


def test_iv_equals_v_at_lambda_zero(families):
    for name, m in families.items():
        r4 = dyadic_energy_iv(m, 0.0, 10)
        r5 = dyadic_energy_v(m, 0.0, 10)
        assert r4.per_level == r5.per_level, name


def test_rotation_matches_identity(identity, families):
    # a rigid rotation has the identity lift, so every dyadic sum coincides
    r_id = dyadic_energy_iv(identity, 1.0, 10)
    r_rot = dyadic_energy_iv(families["rotation"], 1.0, 10)
    assert r_id.per_level == r_rot.per_level


def test_power_iv_closed_form(families):
    # for f(t) = 2*pi*(t/2*pi)^2 the image lengths are 2*pi*(2k-1)/4^j and
    # sum_k (2k-1)^2 = n(4n^2-1)/3 with n = 2^j
    rep = dyadic_energy_iv(families["power"], 0.0, 10)
    for j in (1, 4, 9):
        n = 2 ** j
        oracle = 4.0 * math.pi ** 2 / 16.0 ** j * (n * (4.0 * n * n - 1.0) / 3.0)
        assert rep.per_level[j - 1] == pytest.approx(oracle, rel=1e-13)


# -- report invariants --------------------------------------------------------

def test_report_partial_sums_nondecreasing(families):
    for name, m in families.items():
        rep = dyadic_energy_iv(m, -0.5, 12)
        assert all(s >= 0.0 for s in rep.per_level), name
        assert all(b >= a for a, b in zip(rep.cumulative, rep.cumulative[1:])), name
        assert rep.cumulative[-1] == pytest.approx(rep.total, rel=1e-12), name


def test_monotone_in_lambda_per_level(families):
    # j^l1 <= j^l2 for j >= 1 whenever l1 <= l2, hence per-level domination
    for name, m in families.items():
        lo = dyadic_energy_iv(m, -0.5, 10)
        mid = dyadic_energy_iv(m, 0.0, 10)
        hi = dyadic_energy_iv(m, 1.0, 10)
        for a, b, c in zip(lo.per_level, mid.per_level, hi.per_level):
            assert a <= b * (1 + 1e-15) and b <= c * (1 + 1e-15), name


def test_make_report_tail_ratio():
    rep = make_report("iv", 0.0, 3, [1, 2, 3], [4.0, 2.0, 1.0])
    assert rep.cumulative == (4.0, 6.0, 7.0)
    assert rep.tail_ratio == pytest.approx(1.0 / 7.0)
    assert rep.classification == "inconclusive"  # too few levels to fit


def test_argument_guards(identity):
    with pytest.raises(DomainError):
        dyadic_energy_iv(identity, -1.0, 8)
    with pytest.raises(DomainError):
        dyadic_energy_iv(identity, -2.0, 8)
    with pytest.raises(DomainError):
        dyadic_energy_iv(identity, 0.0, -1)
    with pytest.raises(ResourceGuardError):
        dyadic_energy_iv(identity, 0.0, 21)
    # J = 0 is the legal empty truncation
    assert dyadic_energy_iv(identity, 0.0, 0).total == 0.0


# -- comparability split ------------------------------------------------------

def test_split_reconstructs_total(families):
    for name, m in families.items():
        for lam in (-0.5, 1.0):
            p1, p2 = comparability_split(m, lam, 12, condition="iv")
            rep = dyadic_energy_iv(m, lam, 12)
            assert p1 + p2 == rep.total, (name, lam)  # bit-exact by construction
            assert p2 >= 0.0
    # and at the level guard, where one lift serves all 20 levels
    p1, p2 = comparability_split(families["mobius_trace"], 1.0, 20)
    assert p1 + p2 == dyadic_energy_iv(families["mobius_trace"], 1.0, 20).total


def test_split_thin_part_bounded(families):
    for name, m in families.items():
        for lam in (-0.5, 0.0, 1.0):
            for cond in ("iv", "v"):
                _p1, p2 = comparability_split(m, lam, 12, condition=cond)
                assert p2 <= chi_bound(lam, 12, condition=cond), (name, lam, cond)


def test_chi_bound_closed_form():
    assert chi_bound(0.0, 10) == pytest.approx(
        math.fsum(2.0 ** (-0.5 * j) for j in range(1, 11)), rel=1e-15)
    # for lambda <= 0 the (v) bound drops the log factor entirely
    assert chi_bound(-0.5, 9, condition="v") == pytest.approx(
        math.fsum(2.0 ** (-0.5 * j) for j in range(1, 10)), rel=1e-15)


def test_unknown_condition_rejected(identity):
    with pytest.raises(DomainError):
        comparability_split(identity, 0.0, 8, condition="vi")


# -- exact summation -----------------------------------------------------------

# nonnegative doubles from the smallest subnormal 2^-1074 up to about 2^300:
# integer mantissas below 2^53 scaled by a power of two, plus plain draws
_MAGNITUDES = st.one_of(
    st.just(0.0),
    st.builds(math.ldexp, st.integers(0, 2 ** 53 - 1), st.integers(-1074, 247)),
    st.floats(min_value=0.0, max_value=2.0 ** 300, allow_subnormal=True))


@given(st.lists(st.tuples(_MAGNITUDES, st.booleans()), max_size=40))
@example([(1.0, False), (2.0 ** -53, False)])                      # tie, to even
@example([(1.0, True), (2.0 ** -53, True), (2.0 ** -106, True)])   # just above a tie
@example([(1.0 + 2.0 ** -52, False), (2.0 ** -53, True)])          # tie, up to even
@example([(5e-324, True)])
@example([(2.0 ** 300, False)])
def test_exact_split_sums_equal_fsum_bit_for_bit(pairs):
    x = np.array([v for v, _ in pairs], dtype=float)
    chi = np.array([c for _, c in pairs], dtype=bool)
    n0, n1 = _exact_split_sums(x, chi)
    assert _rounded(n0 + n1, n0, n1) == (math.fsum(x.tolist()),
                                         math.fsum(x[~chi].tolist()),
                                         math.fsum(x[chi].tolist()))


def test_exact_split_sums_reject_non_finite_terms():
    for bad in (math.inf, math.nan):
        with pytest.raises(NumericalError):
            _exact_split_sums(np.array([1.0, bad]), np.array([True, False]))


def test_huge_lambda_raises_numerical_error(families):
    # j^1000 overflows a double at j = 3, and log(e + l 2^j)^1000 overflows
    # to inf in every (v) term; neither may escape as an OverflowError or warn
    for m in (families["identity"], families["power"]):
        for fn in (dyadic_energy_iv, dyadic_energy_v):
            with pytest.raises(NumericalError):
                fn(m, 1000.0, 4)
        with pytest.raises(NumericalError):
            comparability_split(m, 1000.0, 4)
        with pytest.raises(NumericalError):
            chi_bound(1000.0, 4)


def _fsum_reference(m, lam, J, condition):
    """The per-level lift and math.fsum summation the kernel must reproduce."""
    per_level, p1_terms, p2_terms = [], [], []
    for j in range(1, J + 1):
        lengths = m.level_image_lengths(j)
        sq = lengths * lengths
        if condition == "iv":
            terms = float(j) ** lam * sq
        else:
            terms = sq * np.log(math.e + lengths * 2.0 ** j) ** lam
        chi = lengths > 2.0 ** (-0.75 * j)
        per_level.append(math.fsum(terms))
        p1_terms.extend(terms[chi])
        p2_terms.extend(terms[~chi])
    return tuple(per_level), math.fsum(p1_terms) + math.fsum(p2_terms)


def test_reports_equal_the_fsum_reference(families):
    for name, m in families.items():
        for lam in (-0.5, 0.0, 1.0):
            for cond, fn in (("iv", dyadic_energy_iv), ("v", dyadic_energy_v)):
                rep = fn(m, lam, 14)
                per_level, total = _fsum_reference(m, lam, 14, cond)
                assert rep.per_level == per_level, (name, lam, cond)
                assert rep.total == total, (name, lam, cond)


# -- classification -----------------------------------------------------------

def test_classifier_three_regimes():
    levels = list(range(1, 15))
    geo_decay = [2.0 ** -j for j in levels]
    geo_growth = [2.0 ** j for j in levels]
    flat = [1.0 for _ in levels]
    assert classify_sequence(levels, geo_decay) == "convergent"
    assert classify_sequence(levels, geo_growth) == "divergent"
    assert classify_sequence(levels, flat) == "inconclusive"


def test_classifier_critical_profile_inconclusive():
    # profile j^lam * j^-1 at lam = 1: constant rate, slope fit lands at zero
    levels = list(range(1, 15))
    crit = [j ** 1.0 * (1.0 / j) for j in levels]
    assert classify_sequence(levels, crit) == "inconclusive"


def test_classifier_threshold_is_configurable():
    levels = list(range(1, 13))
    slow = [2.0 ** (-0.03 * j) for j in levels]
    assert classify_sequence(levels, slow) == "inconclusive"
    assert classify_sequence(levels, slow, eps=0.01) == "convergent"


def test_classifier_needs_six_levels():
    with pytest.raises(InsufficientDataError):
        classify_sequence([1, 2, 3, 4, 5], [1.0] * 5)


def test_classifier_zero_terms_inconclusive():
    levels = list(range(1, 13))
    vals = [0.0] * 12
    assert classify_sequence(levels, vals) == "inconclusive"


def test_classify_convergence_on_reports(identity):
    assert classify_convergence(dyadic_energy_iv(identity, 0.0, 12)) == "convergent"


@given(st.floats(min_value=-0.9, max_value=3.0),
       st.integers(min_value=8, max_value=14))
def test_report_is_deterministic_pure_function(lam, J):
    m = catalog()["mobius_trace"]
    a = dyadic_energy_iv(m, lam, J)
    b = dyadic_energy_iv(m, lam, J)
    assert a == b
    assert isinstance(a, EnergyReport)
