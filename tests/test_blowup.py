"""Weighted blow-up transforms and pullback bookkeeping."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab import (
    BlowupSpec,
    ClassVector,
    CurveConfig,
    QuotientSingularity,
    SingularPointRecord,
    exceptional_self_intersection,
    log_discrepancy_of_e,
    transform_config,
)
from kstab import blowup
from kstab.blowup import BlowupSpecError
from kstab.catalog import default_n_values, instantiate, load_catalog, load_fixture
from kstab.surface import DimensionMismatchError
from tests import _oracles
from tests._oracles import FractionClassVector, oracle_blow_up_gram, oracle_pullback, oracle_square, random_chain_config
from tests.test_surface import WIDE_ENTRIES, wide_configs

F = Fraction


def test_exceptional_self_intersection_examples():
    assert exceptional_self_intersection(7, 2, 3) == F(-7, 6)
    assert exceptional_self_intersection(13, 2, 5) == F(-13, 10)
    assert exceptional_self_intersection(1, 1, 1) == -1


def test_log_discrepancy_examples():
    assert log_discrepancy_of_e(13, 2, 5) == F(7, 13)
    assert log_discrepancy_of_e(7, 3, 2) == F(5, 7)
    assert log_discrepancy_of_e(1, 1, 1) == 2


def test_weights_must_be_coprime_to_order():
    with pytest.raises(BlowupSpecError):
        exceptional_self_intersection(6, 2, 5)
    with pytest.raises(BlowupSpecError):
        log_discrepancy_of_e(6, 5, 3)


def test_weights_with_a_common_factor_are_refused():
    # (2, 4) names the divisor of (1, 2): E^2 = -1/2 and A(E) = 3, where these weights gave -1/8 and 6
    for n, a, b in [(1, 2, 4), (1, 3, 3), (5, 2, 6), (7, 6, 9)]:
        with pytest.raises(BlowupSpecError, match=rf"^weights \({a},{b}\) must be coprime$"):
            exceptional_self_intersection(n, a, b)
        with pytest.raises(BlowupSpecError):
            BlowupSpec.make(QuotientSingularity(n, (1, 1)), (a, b), {})
    assert exceptional_self_intersection(1, 1, 2) == F(-1, 2) and log_discrepancy_of_e(1, 1, 2) == 3


def _hyperplane_config(square, point, order_of_curve):
    return CurveConfig.make(
        basis=["C_x"],
        gram=[[square]],
        anticanonical=[2],
        singular_points=[SingularPointRecord.make(point, {"C_x": order_of_curve})],
    )


def test_transform_weighted_order13():
    point = QuotientSingularity(13, (2, 5), "p_z")
    config = _hyperplane_config(F(1, 52), point, 10)
    spec = BlowupSpec.make(point, (2, 5), {"C_x": 10})
    result = transform_config(config, spec)
    up = result.upstairs
    assert up.basis == ("C_x", "E")
    assert up.pairing(up.basis_vector("C_x"), up.basis_vector("C_x")) == F(-3, 4)
    assert up.pairing(up.basis_vector("C_x"), up.basis_vector("E")) == 1
    assert up.pairing(up.basis_vector("E"), up.basis_vector("E")) == F(-13, 10)
    assert result.log_discrepancy_e == F(7, 13)
    assert result.pullback(ClassVector([2])) == ClassVector([2, F(20, 13)])


def test_pullback_refuses_a_vector_off_the_downstairs_basis():
    point = QuotientSingularity(13, (2, 5), "p_z")
    result = transform_config(_hyperplane_config(F(1, 52), point, 10), BlowupSpec.make(point, (2, 5), {"C_x": 10}))
    with pytest.raises(DimensionMismatchError) as info:
        result.pullback(ClassVector([1, 2]))
    assert str(info.value) == "vector of length 2 against basis of size 1"


def test_transform_weighted_order7():
    point = QuotientSingularity(7, (5, 4), "p_z")
    config = _hyperplane_config(F(2, 35), point, 6)
    result = transform_config(config, BlowupSpec.make(point, (2, 3), {"C_x": 6}))
    up = result.upstairs
    assert up.pairing(up.basis_vector("C_x"), up.basis_vector("C_x")) == F(-4, 5)
    assert up.pairing(up.basis_vector("E"), up.basis_vector("E")) == F(-7, 6)


def test_curve_missing_the_center_is_untouched():
    point = QuotientSingularity(3, (1, 1), "p")
    config = CurveConfig.make(
        basis=["A", "B"],
        gram=[[F(1, 6), F(1, 2)], [F(1, 2), F(-1, 3)]],
        anticanonical=[2, 0],
        singular_points=[SingularPointRecord.make(point, {"A": 1})],
    )
    result = transform_config(config, BlowupSpec.make(point, (1, 1), {"A": 1}))
    up = result.upstairs
    b = up.basis_vector("B")
    assert up.pairing(b, b) == F(-1, 3)
    assert up.pairing(b, up.basis_vector("E")) == 0
    assert up.pairing(up.basis_vector("A"), up.basis_vector("E")) == 1


def test_pullback_isometry_and_orthogonality():
    point = QuotientSingularity(5, (4, 3), "p_z")
    config = CurveConfig.make(
        basis=["L1", "L2"],
        gram=[[F(-7, 20), F(2, 5)], [F(2, 5), F(-7, 20)]],
        anticanonical=[2, 2],
        singular_points=[SingularPointRecord.make(point, {"L1": 1, "L2": 1})],
    )
    result = transform_config(config, BlowupSpec.make(point, (4, 3), {"L1": 3, "L2": 3}))
    up = result.upstairs
    e = up.basis_vector("E")
    assert list(up.anticanonical) == oracle_pullback(config, result.spec, config.anticanonical)
    assert up.pairing(e, e) == exceptional_self_intersection(5, 4, 3)
    rng = random.Random(7)
    for _ in range(25):
        v = ClassVector([F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)])
        w = ClassVector([F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)])
        assert up.pairing(result.pullback(v), result.pullback(w)) == config.pairing(v, w)
        assert up.pairing(result.pullback(v), e) == 0


def test_strict_transform_meets_exceptional_iff_order_positive():
    point = QuotientSingularity(5, (4, 3), "p_z")
    config = CurveConfig.make(
        basis=["L1", "L2"],
        gram=[[F(-7, 20), F(2, 5)], [F(2, 5), F(-7, 20)]],
        anticanonical=[2, 2],
        singular_points=[SingularPointRecord.make(point, {"L1": 1, "L2": 1})],
    )
    up = transform_config(
        config, BlowupSpec.make(point, (4, 3), {"L1": 3, "L2": 3})
    ).upstairs
    for name in ("L1", "L2"):
        assert up.pairing(up.basis_vector(name), up.basis_vector("E")) > 0


def test_multiplicity_pairing_identity():
    # pullback(D) - mE pairs with E as (n/(a*b)) * m, for any m
    point = QuotientSingularity(7, (5, 4), "p_z")
    config = _hyperplane_config(F(2, 35), point, 6)
    result = transform_config(config, BlowupSpec.make(point, (2, 3), {"C_x": 6}))
    up = result.upstairs
    e = up.basis_vector("E")
    rng = random.Random(11)
    for _ in range(10):
        m = F(rng.randint(0, 20), rng.randint(1, 9))
        d_tilde = result.pullback(ClassVector([2])) - m * e
        assert up.pairing(d_tilde, e) == F(7, 6) * m


def test_center_must_be_recorded_when_singular():
    point = QuotientSingularity(7, (5, 4), "p_z")
    config = CurveConfig.make(["C_x"], [[F(2, 35)]], [2])  # no record
    with pytest.raises(BlowupSpecError):
        transform_config(config, BlowupSpec.make(point, (2, 3), {"C_x": 6}))


def test_missing_curve_order_is_rejected():
    point = QuotientSingularity(7, (5, 4), "p_z")
    config = _hyperplane_config(F(2, 35), point, 6)
    with pytest.raises(BlowupSpecError):
        transform_config(config, BlowupSpec.make(point, (2, 3), {}))


def test_exceptional_name_collision_is_rejected():
    point = QuotientSingularity(7, (5, 4), "p_z")
    config = _hyperplane_config(F(2, 35), point, 6)
    with pytest.raises(BlowupSpecError):
        transform_config(
            config, BlowupSpec.make(point, (2, 3), {"C_x": 6}, exceptional="C_x")
        )


def test_negative_order_rejected():
    point = QuotientSingularity(7, (5, 4), "p_z")
    with pytest.raises(BlowupSpecError):
        BlowupSpec.make(point, (2, 3), {"C_x": -1})


def test_composed_blowups_reproduce_residual_identity():
    # two-stage transform: order-3 point first, then a smooth point on E;
    # the residual class pairs with the first exceptional curve as 3m - n - a
    first_center = QuotientSingularity(3, (1, 1), "p_y")
    config = _hyperplane_config(F(1, 6), first_center, 1)
    stage1 = transform_config(config, BlowupSpec.make(first_center, (1, 1), {"C_x": 1}))
    smooth = QuotientSingularity(1, (1, 1), "q")
    stage2 = transform_config(
        stage1.upstairs, BlowupSpec.make(smooth, (1, 1), {"E": 1}, exceptional="G")
    )
    up = stage2.upstairs
    assert up.basis == ("C_x", "E", "G")
    e_hat = up.basis_vector("E")
    assert up.pairing(e_hat, e_hat) == -4
    rng = random.Random(23)
    for _ in range(10):
        m = F(rng.randint(0, 9), rng.randint(1, 7))
        n = F(rng.randint(0, 9), rng.randint(1, 7))
        a = F(rng.randint(0, 9), rng.randint(1, 7))
        total = stage2.pullback(stage1.pullback(ClassVector([2])))
        residual = (
            total
            - m * stage2.pullback(stage1.upstairs.basis_vector("E"))
            - n * up.basis_vector("G")
            - a * up.basis_vector("C_x")
        )
        assert up.pairing(residual, e_hat) == 3 * m - n - a


# -- the integer Gram update against the Fraction formula ----------------------


def _assert_matches_fraction_formula(result):
    up = result.upstairs
    assert [list(row) for row in up.gram] == oracle_blow_up_gram(result.downstairs, result.spec)
    assert CurveConfig.make(up.basis, up.gram, up.anticanonical, up.singular_points) == up
    assert CurveConfig.from_json_dict(up.to_json_dict()) == up


def _recorded_random_chain_blowups(monkeypatch) -> list:
    """Every blow-up of 100 random chains of 0 to 31 stages, as transform_config returned it."""
    results = []

    def recording(config, spec):
        results.append(transform_config(config, spec))
        return results[-1]

    monkeypatch.setattr(_oracles, "transform_config", recording)
    rng = random.Random("integer-blow-up")
    sizes = [random_chain_config(rng, stages=i % 32)[0].size for i in range(100)]
    assert max(sizes) == 32 and len(results) == sum(sizes) - len(sizes)
    return results


def test_upstairs_gram_matches_the_fraction_formula_on_random_chains(monkeypatch):
    for result in _recorded_random_chain_blowups(monkeypatch):
        _assert_matches_fraction_formula(result)


def test_upstairs_gram_matches_the_fraction_formula_on_every_catalog_blowup():
    catalog = load_catalog()
    checked = 0
    for entry in catalog.families:
        for n in [entry.minimum_n, entry.minimum_n + 1000] if entry.parametric else [None]:
            for result in instantiate(catalog, entry.family_id, n).blowups.values():
                _assert_matches_fraction_formula(result)
                checked += 1
    assert checked == 2 * 1 + 2 + 1 + 2 + 1 + 1 + 1  # family 1 twice, then families 3, 4, 5, 7, 9, 10


def test_upstairs_gram_matches_the_fraction_formula_at_fractional_orders():
    point = QuotientSingularity(5, (4, 3), "p_z")
    config = CurveConfig.make(
        basis=["L1", "L2"],
        gram=[[F(-7, 20), F(2, 5)], [F(2, 5), F(-7, 20)]],
        anticanonical=[2, 2],
        singular_points=[SingularPointRecord.make(point, {"L1": 1, "L2": 1})],
    )
    result = transform_config(config, BlowupSpec.make(point, (4, 3), {"L1": F(3, 2), "L2": F(5, 3)}))
    _assert_matches_fraction_formula(result)
    assert result.upstairs.gram[0][1] == F(2, 5) - F(3, 2) * F(5, 3) / 60


# -- the integer pullback against the Fraction formula -------------------------


def _assert_pullback_matches_the_fraction_formula(result, rng):
    down, up, spec = result.downstairs, result.upstairs, result.spec
    expected = oracle_pullback(down, spec, down.anticanonical)
    assert list(up.anticanonical) == expected
    assert all(type(c) is F for c in up.anticanonical)
    assert oracle_square(up, up.anticanonical) == oracle_square(down, down.anticanonical) > 0
    assert result.pullback(down.anticanonical) == ClassVector(expected)
    for _ in range(3):
        v = ClassVector(F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(down.size))
        assert list(result.pullback(v)) == oracle_pullback(down, spec, v)


def test_pullback_matches_the_fraction_formula_on_random_chains(monkeypatch):
    rng = random.Random("integer-pullback")
    for result in _recorded_random_chain_blowups(monkeypatch):
        _assert_pullback_matches_the_fraction_formula(result, rng)


def test_pullback_matches_the_fraction_formula_on_every_catalog_blowup():
    catalog, rng = load_catalog(), random.Random("catalog-pullback")
    checked = 0
    for entry in catalog.families:
        for n in default_n_values(entry):
            for result in instantiate(catalog, entry.family_id, n).blowups.values():
                _assert_pullback_matches_the_fraction_formula(result, rng)
                checked += 1
    assert checked == 11 + 2 + 1 + 2 + 1 + 1 + 1  # family 1 at its 11 default n, then families 3, 4, 5, 7, 9, 10


def test_pullback_matches_the_fraction_formula_at_fractional_orders_and_polarization():
    point = QuotientSingularity(5, (4, 3), "p_z")
    config = CurveConfig.make(
        basis=["L1", "L2", "M"],
        gram=[[F(-7, 20), F(2, 5), 0], [F(2, 5), F(-7, 20), 0], [0, 0, F(3, 7)]],
        anticanonical=[F(2, 3), F(5, 7), F(-1, 2)],
        singular_points=[SingularPointRecord.make(point, {"L1": 1, "L2": 1})],
    )
    result = transform_config(config, BlowupSpec.make(point, (4, 3), {"L1": F(3, 2), "L2": F(5, 3)}))
    _assert_pullback_matches_the_fraction_formula(result, random.Random(5))
    assert result.upstairs.anticanonical[-1] == (F(2, 3) * F(3, 2) + F(5, 7) * F(5, 3)) / 5


def test_loading_a_chain_checks_each_blowups_weights_once(monkeypatch):
    calls = []
    validate = blowup._validate_weights
    monkeypatch.setattr(blowup, "_validate_weights", lambda *args: calls.append(args) or validate(*args))
    _, results = load_fixture("chain", _oracles.bench_chain_fixture(1, 10))
    assert len(results) == 9
    assert calls == [(r.spec.center.order, *r.spec.weights) for r in results]


@settings(max_examples=150, deadline=None)
@given(wide_configs(), st.data())
def test_pullback_matches_the_fraction_tuple_oracle(config, data):
    # a blow-up of a point of order n on some curves of a wide config, at drawn rational orders
    n = data.draw(st.sampled_from([1, 2, 3, 5, 7]))
    unit = st.integers(1, 12).filter(lambda x: math.gcd(x, n) == 1)
    a = data.draw(unit)
    b = data.draw(unit.filter(lambda x: math.gcd(x, a) == 1))
    through = data.draw(st.lists(st.sampled_from(config.basis), min_size=1, unique=True))
    orders = {name: data.draw(st.fractions(min_value=F(1, 12), max_value=40, max_denominator=12)) for name in through}
    point = QuotientSingularity(n, (a, b), "p")
    config = CurveConfig(config.basis, config.integer_gram, config.anticanonical,
                         (SingularPointRecord.make(point, {name: 1 for name in through}),))
    weights = data.draw(st.tuples(unit, unit).filter(lambda w: math.gcd(*w) == 1))
    result = transform_config(config, BlowupSpec.make(point, weights, orders))
    down = FractionClassVector(config.anticanonical)
    assert result.upstairs.anticanonical == ClassVector(down.pullback(result))
    for _ in range(3):
        xs = data.draw(st.lists(WIDE_ENTRIES, min_size=config.size, max_size=config.size))
        got, expected = result.pullback(ClassVector(xs)), FractionClassVector(xs).pullback(result)
        assert type(got) is ClassVector and got.coeffs == expected.coeffs
        assert math.gcd(got.denominator, *got.numerators) == 1
        assert result.pullback(xs) == got  # a sequence of rationals is taken as its vector
