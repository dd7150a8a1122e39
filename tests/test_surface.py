"""Quintuple combinatorics and curve-configuration pairing arithmetic."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab import (
    ClassVector,
    CurveConfig,
    QuotientSingularity,
    Quintuple,
    SingularPointRecord,
    ambient_pairing,
    config_pairing,
    index_of,
    is_negative_definite,
    is_well_formed,
)
from kstab.arith import Poly
from kstab.surface import DimensionMismatchError, solve_linear_system
from tests._oracles import assert_negative_definite_oracle

F = Fraction


def test_index_examples():
    assert index_of(Quintuple((1, 4, 5, 7), 15)) == 2
    assert index_of(Quintuple((1, 3, 5, 7), 15)) == 1
    assert index_of(Quintuple((1, 1, 1, 1), 4)) == 0


def test_index_invariant_under_weight_permutation():
    for perm in itertools.permutations((1, 4, 5, 7)):
        assert Quintuple(tuple(sorted(perm)), 15).index == 2


def test_quintuple_validation():
    with pytest.raises(ValueError):
        Quintuple((4, 1, 5, 7), 15)
    with pytest.raises(ValueError):
        Quintuple((0, 1, 5, 7), 15)
    with pytest.raises(ValueError):
        Quintuple((1, 4, 5, 7), 0)


def test_well_formed_examples():
    for n in (2, 3, 5, 11):
        assert is_well_formed(Quintuple((1, 1, n, n), 2 * n))
    assert is_well_formed(Quintuple((2, 3, 5, 9), 18))
    assert not is_well_formed(Quintuple((1, 3, 3, 3), 8))
    assert not is_well_formed(Quintuple((2, 2, 2, 3), 7))


def test_ambient_pairing_examples():
    for n in range(0, 12):
        q = Quintuple(tuple(sorted((1, 2, n + 2, n + 3))), 2 * n + 6)
        assert ambient_pairing(q, 2, 2) == F(4, n + 2)
        assert ambient_pairing(q, 1, 1) == F(1, n + 2)
    s22 = Quintuple((1, 5, 7, 11), 22)
    assert ambient_pairing(s22, 2, 7) == F(4, 5)
    assert F(18, 17) * ambient_pairing(s22, 2, 7) == F(72, 85)


def test_ambient_pairing_rejects_non_well_formed():
    with pytest.raises(ValueError):
        ambient_pairing(Quintuple((1, 3, 3, 3), 8), 1, 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_ambient_pairing_symmetric_bilinear(m, k, l):
    q = Quintuple((1, 4, 5, 8), 16)
    assert ambient_pairing(q, m, k) == ambient_pairing(q, k, m)
    assert ambient_pairing(q, m + l, k) == ambient_pairing(q, m, k) + ambient_pairing(q, l, k)


FAMILY5 = CurveConfig.make(
    basis=["L1", "L2"],
    gram=[[F(-7, 20), F(2, 5)], [F(2, 5), F(-7, 20)]],
    anticanonical=[2, 2],
)


def test_config_pairing_examples():
    cx = ClassVector([1, 1])
    assert config_pairing(FAMILY5, cx, cx) == F(1, 10)
    assert config_pairing(FAMILY5, ClassVector([1, 0]), ClassVector([0, 1])) == F(2, 5)
    assert config_pairing(FAMILY5, ClassVector([0, 0]), cx) == 0


def test_config_pairing_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        config_pairing(FAMILY5, ClassVector([1]), ClassVector([1, 0]))


def test_config_requires_symmetric_gram_and_big_polarization():
    with pytest.raises(ValueError):
        CurveConfig.make(["A", "B"], [[1, 0], [1, 1]], [1, 0])
    with pytest.raises(ValueError):
        CurveConfig.make(["A"], [[-1]], [1])


def test_negative_definite_examples():
    assert not is_negative_definite(FAMILY5, [0, 1])
    assert_negative_definite_oracle(
        [[F(-7, 20), F(2, 5)], [F(2, 5), F(-7, 20)]], False
    )
    # determinant of the pair block: 49/400 - 4/25 = -3/80 < 0
    det = F(-7, 20) * F(-7, 20) - F(2, 5) * F(2, 5)
    assert det == F(-3, 80)

    n = 2
    blowup = CurveConfig.make(
        basis=["C1", "C2", "G"],
        gram=[
            [F(1 - 2 * n, n), 0, 1],
            [0, F(1 - 2 * n, n), 1],
            [1, 1, -1],
        ],
        anticanonical=[2, 2, 4],
    )
    assert is_negative_definite(blowup, [0, 1])
    assert_negative_definite_oracle(
        [[F(1 - 2 * n, n), 0], [0, F(1 - 2 * n, n)]], True
    )
    assert is_negative_definite(blowup, [])
    assert not is_negative_definite(blowup, [0, 1, 2])


@st.composite
def symmetric_matrices(draw, max_size=6):
    """Symmetric rational matrices, shifted down the diagonal so that roughly
    as many are negative definite as not."""
    size = draw(st.integers(1, max_size))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    shift = draw(st.integers(0, 3 * size))
    gram = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            gram[i][j] = gram[j][i] = draw(entries) - (shift if i == j else 0)
    return gram


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_negative_definite_matches_eigenvalue_oracle(gram):
    import numpy as np

    size = len(gram)
    eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in gram]))
    if max(abs(e) for e in eigs) < 1e-9 or min(abs(e) for e in eigs) < 1e-9:
        return  # numerically borderline; the exact pivot test is the authority
    config = CurveConfig.make(
        basis=[f"C{i}" for i in range(size + 1)],
        gram=[row + [F(0)] for row in gram] + [[F(0)] * size + [F(1)]],
        anticanonical=[0] * size + [1],
    )
    assert config.is_negative_definite(list(range(size))) == bool((eigs < 0).all())


def _random_nonsingular_matrix(rng, n):
    """L U with unit lower L and an upper U whose diagonal is nonzero, rows shuffled."""
    def entry():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    def diagonal():
        return F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    lower = [[entry() if j < i else F(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[entry() if j > i else diagonal() if j == i else F(0) for j in range(n)]
             for i in range(n)]
    matrix = [[sum(lower[i][t] * upper[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
    rng.shuffle(matrix)
    return matrix


def test_solve_linear_system_on_random_nonsingular_systems():
    rng = random.Random(7)
    u = Poly.variable()
    for _ in range(200):
        n = rng.randint(1, 6)
        matrix = _random_nonsingular_matrix(rng, n)
        rhs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        x = solve_linear_system(matrix, rhs)
        assert [sum(m * v for m, v in zip(row, x)) for row in matrix] == rhs
        # polynomial right-hand sides, as in the ray decomposition
        rhs_poly = [Poly.constant(b) - rng.randint(-3, 3) * u for b in rhs]
        x_poly = solve_linear_system(matrix, rhs_poly)
        assert [sum((m * v for m, v in zip(row, x_poly)), Poly()) for row in matrix] == rhs_poly


def test_solve_linear_system_rejects_singular_systems():
    with pytest.raises(ValueError):
        solve_linear_system([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])


def test_vector_construction_and_basis_lookup():
    v = FAMILY5.vector({"L2": "1/2"})
    assert v == ClassVector([0, F(1, 2)])
    assert FAMILY5.basis_vector("L1") == ClassVector([1, 0])
    with pytest.raises(KeyError):
        FAMILY5.vector({"bogus": 1})
    with pytest.raises(KeyError):
        FAMILY5.index_of("bogus")


def test_quotient_singularity_validation():
    QuotientSingularity(7, (4, 5), "p_t")
    with pytest.raises(ValueError):
        QuotientSingularity(4, (2, 1))  # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        QuotientSingularity(5, (2, 4))  # gcd(2, 4) != 1


def test_config_json_round_trip():
    config = CurveConfig.make(
        basis=["C_x"],
        gram=[[F(1, 52)]],
        anticanonical=[2],
        singular_points=[
            SingularPointRecord.make(
                QuotientSingularity(13, (2, 5), "p_z"), {"C_x": 10}
            )
        ],
    )
    round_tripped = CurveConfig.from_json_dict(config.to_json_dict())
    assert round_tripped == config
    assert round_tripped.singular_point("p_z").multiplicity("C_x") == 10
    assert round_tripped.singular_point("p_z").multiplicity("other") == 0
