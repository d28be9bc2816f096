import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circle_energy.circle_map import CircleHomeomorphism, catalog, identity_map
from circle_energy.errors import DomainError, ValidationError

TWO_PI = 2.0 * math.pi


# -- lift axioms --------------------------------------------------------------

def test_lift_endpoints_pinned(families):
    for name, m in families.items():
        assert m.eval_lift(0.0) == 0.0, name
        assert m.eval_lift(TWO_PI) == TWO_PI, name


def test_lift_strictly_increasing_on_grid(families):
    thetas = np.linspace(0.0, TWO_PI, 2048)
    for name, m in families.items():
        vals = m.lift_values(thetas)
        assert np.all(np.diff(vals) > 0.0), name


@given(st.floats(min_value=0.0, max_value=TWO_PI),
       st.floats(min_value=0.0, max_value=TWO_PI))
def test_lift_order_preserving(a, b):
    m = catalog()["log_singular"]
    lo, hi = min(a, b), max(a, b)
    assert m.eval_lift(lo) <= m.eval_lift(hi)


def test_eval_lift_domain_guard(identity):
    with pytest.raises(DomainError):
        identity.eval_lift(-0.5)
    with pytest.raises(DomainError):
        identity.eval_lift(TWO_PI + 0.5)
    # 1e-12 slack is clamped, not rejected
    assert identity.eval_lift(-1e-13) == 0.0


# -- family oracles -----------------------------------------------------------
# Mobius values from the transform itself: arg((z-a)/(1-conj(a)z)) at z=e^(it),
# rebased so f(0)=0, computed in an independent script and frozen here.

MOBIUS_ORACLE = {
    1.0: 2.0458756723586644,
    2.5: 2.9209762317964065,
    5.0: 3.980998118331173,
}


def test_mobius_lift_matches_transform_argument(families):
    m = families["mobius_trace"]
    for theta, expected in MOBIUS_ORACLE.items():
        assert m.eval_lift(theta) == pytest.approx(expected, abs=1e-13)


def test_mobius_base_point_image(families):
    # a = 0.5 is real, so the base point z = 1 maps to itself
    assert families["mobius_trace"].base_point_image == pytest.approx(1.0 + 0.0j)


def test_power_lift_closed_form(families):
    m = families["power"]
    assert m.eval_lift(math.pi) == pytest.approx(TWO_PI * 0.25, abs=1e-15)
    for t in (0.3, 1.0, 4.0):
        assert m.eval_lift(t) == pytest.approx(TWO_PI * (t / TWO_PI) ** 2, abs=1e-15)


def test_log_singular_lift_closed_form(families):
    m = families["log_singular"]
    beta = 16.0
    for t in (1e-6, 0.01, 1.3, 6.0):
        expected = TWO_PI * math.log1p(beta * t) / math.log1p(TWO_PI * beta)
        assert m.eval_lift(t) == pytest.approx(expected, rel=1e-14)


def test_smoothed_cantor_hits_middle_plateau(families):
    # the Cantor function equals 1/2 at 1/3; the convex mix with slope floor
    # 1e-3 shifts it by floor * (1/3 - 1/2)
    m = families["smoothed_cantor"]
    expected = TWO_PI * ((1.0 - 1e-3) * 0.5 + 1e-3 / 3.0)
    assert m.eval_lift(TWO_PI / 3.0) == pytest.approx(expected, abs=1e-13)
    assert m.eval_lift(TWO_PI / 3.0) == pytest.approx(3.1405454560385966, abs=1e-13)


def test_rotation_is_identity_lift_with_rotated_base(families):
    m = families["rotation"]
    c = m.params["c"]
    assert m.eval_lift(1.25) == pytest.approx(1.25, abs=1e-15)
    assert m.base_point_image == pytest.approx(complex(math.cos(c), math.sin(c)))
    assert m.eval(1.0 + 0.0j) == pytest.approx(complex(math.cos(c), math.sin(c)))


def test_eval_composes_lift_and_base_point(families):
    m = families["power"]
    theta = 2.0
    f = m.eval_lift(theta)
    expected = m.base_point_image * complex(math.cos(f), math.sin(f))
    assert m.eval(complex(math.cos(theta), math.sin(theta))) == pytest.approx(expected)
    with pytest.raises(DomainError):
        m.eval(0.5 + 0.0j)


# -- inversion ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(catalog()))
def test_invert_lift_roundtrip(families, name):
    m = families[name]
    for v in np.linspace(0.01, TWO_PI - 0.01, 17):
        t = m.invert_lift(v)
        assert m.eval_lift(t) == pytest.approx(v, abs=1e-9)


def test_invert_lift_domain_guard(identity):
    with pytest.raises(DomainError):
        identity.invert_lift(7.0)


# -- Stieltjes masses ---------------------------------------------------------

def test_stieltjes_mass_additive(families):
    for name, m in families.items():
        a, b, c = 0.3, 1.9, 4.4
        lhs = m.stieltjes_mass(a, b) + m.stieltjes_mass(b, c)
        assert lhs == pytest.approx(m.stieltjes_mass(a, c), abs=1e-12), name


def test_stieltjes_mass_order_guard(identity):
    with pytest.raises(DomainError):
        identity.stieltjes_mass(2.0, 1.0)


def test_cyclic_mass_wraps_and_totals(families):
    for name, m in families.items():
        assert m.cyclic_mass(5.0, TWO_PI) == pytest.approx(TWO_PI, abs=1e-12), name
        wrap = m.cyclic_mass(6.0, 1.0)
        direct = (TWO_PI - m.eval_lift(6.0)) + m.eval_lift((6.0 + 1.0) % TWO_PI)
        assert wrap == pytest.approx(direct, abs=1e-14), name


def test_cyclic_mass_broadcasts_bit_for_bit(families):
    # wrapping arcs, negative and large starts, widths 0 and 2 pi
    rng = np.random.default_rng(7)
    a = np.concatenate([rng.uniform(-10.0, 20.0, 60), [0.0, TWO_PI, 6.0, -1e-20]])
    width = np.concatenate([rng.uniform(0.0, TWO_PI, 60), [0.0, TWO_PI, 1.0, 0.0]])
    for name, m in families.items():
        masses = m.cyclic_mass(a, width)
        assert masses.shape == a.shape
        assert masses.tolist() == [m.cyclic_mass(float(x), float(w))
                                   for x, w in zip(a, width)], name
        grid = m.cyclic_mass(a[:, None], width[None, :8])
        assert grid[:, 3].tolist() == [m.cyclic_mass(float(x), float(width[3]))
                                       for x in a], name
    assert isinstance(families["power"].cyclic_mass(1.0, 2.0), float)


def test_cyclic_mass_rejects_any_width_out_of_range(identity):
    for bad in ([0.5, TWO_PI + 1e-9], [-1e-300, 1.0], [1.0, math.nan]):
        with pytest.raises(DomainError, match="width must lie in"):
            identity.cyclic_mass(np.zeros(2), np.asarray(bad))


def _old_mobius_inverse(a: complex, v: np.ndarray) -> np.ndarray:
    # reference: the inverse written out, 1 - r and 1 + r where the lift has 1 + r and 1 - r
    def wrapped_inv(y, r):
        k = np.round(y / TWO_PI)
        w = y - TWO_PI * k
        core = 2.0 * np.arctan2((1.0 - r) * np.sin(0.5 * w), (1.0 + r) * np.cos(0.5 * w))
        return TWO_PI * k + core
    r, alpha = abs(a), math.atan2(a.imag, a.real)
    k = np.round(-alpha / TWO_PI)
    w = -alpha - TWO_PI * k
    off = TWO_PI * k + 2.0 * np.arctan2((1.0 + r) * np.sin(0.5 * w),
                                        (1.0 - r) * np.cos(0.5 * w))
    return np.clip(wrapped_inv(v + off, r) + alpha, 0.0, TWO_PI)


@pytest.mark.parametrize("a", [0.5, [0.3, -0.45]])
def test_mobius_inverse_is_the_lift_at_minus_r_bit_for_bit(a):
    m = CircleHomeomorphism.create("mobius_trace", {"a": a})
    v = np.random.default_rng(11).uniform(0.0, TWO_PI, 200)
    want = _old_mobius_inverse(complex(*a) if isinstance(a, list) else complex(a), v)
    assert [m.invert_lift(float(x)) for x in v] == want.tolist()


def test_level_image_lengths_partition_circle(families):
    for name, m in families.items():
        lengths = m.level_image_lengths(7)
        assert lengths.shape == (128,), name
        assert np.all(lengths > 0.0), name
        assert math.fsum(lengths) == pytest.approx(TWO_PI, abs=1e-12), name


# -- spec records -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(catalog()))
def test_spec_roundtrip_reproduces_lift(families, name):
    m = families[name]
    again = CircleHomeomorphism.from_spec(m.to_spec())
    thetas = np.linspace(0.0, TWO_PI, 257)
    np.testing.assert_allclose(again.lift_values(thetas), m.lift_values(thetas),
                               atol=1e-12)
    assert again.base_point_image == pytest.approx(m.base_point_image, abs=1e-12)


def test_from_spec_strictness():
    with pytest.raises(ValidationError):
        CircleHomeomorphism.from_spec({"kind": "identity", "colour": "red"})
    with pytest.raises(ValidationError):
        CircleHomeomorphism.from_spec({"kind": "spiral"})
    with pytest.raises(ValidationError):
        CircleHomeomorphism.from_spec({"kind": "power", "params": {"p": 2, "x": 1}})
    with pytest.raises(ValidationError):
        CircleHomeomorphism.from_spec([1, 2, 3])
    with pytest.raises(ValidationError):
        CircleHomeomorphism.from_spec({"kind": "identity",
                                       "base_point_image_angle": "north"})


def test_missing_required_param_is_validation_error():
    for kind in ("rotation", "mobius_trace", "power", "log_singular"):
        with pytest.raises(ValidationError, match="requires param"):
            CircleHomeomorphism.create(kind, {})
    with pytest.raises(ValidationError, match="requires param"):
        CircleHomeomorphism.create("smoothed_cantor", {"stage": 3})


def test_parameter_range_guards():
    with pytest.raises(ValidationError):
        CircleHomeomorphism.create("mobius_trace", {"a": 1.0})
    with pytest.raises(ValidationError):
        CircleHomeomorphism.create("power", {"p": -2.0})
    with pytest.raises(ValidationError):
        CircleHomeomorphism.create("log_singular", {"beta": 0.0})
    with pytest.raises(ValidationError):
        CircleHomeomorphism.create("smoothed_cantor", {"stage": 0, "floor": 0.5})
    with pytest.raises(ValidationError):
        CircleHomeomorphism.create("smoothed_cantor", {"stage": 3, "floor": 1.5})
    with pytest.raises(ValidationError):
        CircleHomeomorphism.create("identity", {"p": 1.0})


@pytest.mark.parametrize("text", [
    '{"kind": "rotation", "params": {"c": NaN}}',
    '{"kind": "identity", "base_point_image_angle": NaN}',
    '{"kind": "power", "params": {"p": 2.0}, "base_point_image_angle": -Infinity}',
    '{"kind": "power", "params": {"p": Infinity}}',
    '{"kind": "log_singular", "params": {"beta": Infinity}}',
    '{"kind": "mobius_trace", "params": {"a": NaN}}',
    '{"kind": "mobius_trace", "params": {"a": [0.5, NaN]}}',
    '{"kind": "piecewise_linear", "params": {"knots": '
    '[[0, 0], [NaN, 3], [6.283185307179586, 6.283185307179586]]}}',
])
def test_non_finite_map_parameters_rejected(text):
    # json.loads reads NaN and Infinity; the map is refused before any lift
    with pytest.raises(ValidationError, match="must be finite"):
        CircleHomeomorphism.from_spec(json.loads(text))


def test_piecewise_linear_knot_validation():
    good = [[0.0, 0.0], [3.0, 2.0], [TWO_PI, TWO_PI]]
    CircleHomeomorphism.create("piecewise_linear", {"knots": good})
    with pytest.raises(ValidationError):
        CircleHomeomorphism.create("piecewise_linear",
                                   {"knots": [[0.0, 0.0], [1.0, 1.0]]})
    with pytest.raises(ValidationError):
        CircleHomeomorphism.create("piecewise_linear",
                                   {"knots": [[0.1, 0.0], [TWO_PI, TWO_PI]]})
    with pytest.raises(ValidationError):
        CircleHomeomorphism.create(
            "piecewise_linear",
            {"knots": [[0.0, 0.0], [2.0, 1.0], [1.0, 2.0], [TWO_PI, TWO_PI]]})


def test_complex_mobius_spec_roundtrip():
    m = CircleHomeomorphism.create("mobius_trace", {"a": [0.3, 0.4]},
                                   base_point_image_angle=1.0)
    again = CircleHomeomorphism.from_spec(m.to_spec())
    thetas = np.linspace(0.0, TWO_PI, 101)
    np.testing.assert_allclose(again.lift_values(thetas), m.lift_values(thetas),
                               atol=1e-12)
    assert again.base_point_image == pytest.approx(m.base_point_image, abs=1e-12)


def test_spec_returns_the_given_angle_bit_for_bit():
    # re-deriving the angle from base_point_image lost ulps, or gave 2 pi for 0
    rng = np.random.default_rng(7)
    specs = [{"kind": "rotation", "params": {"c": c}, "base_point_image_angle": 0.0}
             for c in (0.1, 4.0)]
    for c, angle in rng.uniform(0.0, TWO_PI, (200, 2)):
        specs.append({"kind": "rotation", "params": {"c": float(c)},
                      "base_point_image_angle": float(angle)})
    for r, arg, angle in rng.uniform(0.0, 1.0, (200, 3)):
        a = 0.9 * r * complex(math.cos(TWO_PI * arg), math.sin(TWO_PI * arg))
        specs.append({"kind": "mobius_trace", "params": {"a": [a.real, a.imag]},
                      "base_point_image_angle": float(TWO_PI * angle)})
    for spec in specs:
        assert CircleHomeomorphism.from_spec(spec).to_spec() == spec


def test_catalog_covers_every_kind():
    cat = catalog()
    assert sorted(cat) == ["identity", "log_singular", "mobius_trace",
                           "piecewise_linear", "power", "rotation",
                           "smoothed_cantor"]
    assert identity_map().kind == "identity"
