"""Weighted blow-up transforms and pullback bookkeeping."""

import random
from fractions import Fraction

import pytest

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
from kstab.blowup import BlowupSpecError

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
    assert up.anticanonical == result.pullback(config.anticanonical)
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
