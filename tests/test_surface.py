"""Quintuple combinatorics and curve-configuration pairing arithmetic."""

import itertools
import math
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
from kstab.catalog import CatalogError, instantiate, load_catalog
from kstab.surface import DimensionMismatchError, solve_linear_system
from tests._oracles import (
    FractionClassVector,
    FractionPoly,
    assert_negative_definite_oracle,
    oracle_is_negative_definite,
    oracle_solve_linear_system,
)

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
    with pytest.raises(DimensionMismatchError):
        FAMILY5.basis_pairings([Poly([1])] * (FAMILY5.size + 1))


def test_config_requires_symmetric_gram_and_big_polarization():
    with pytest.raises(ValueError):
        CurveConfig.make(["A", "B"], [[1, 0], [1, 1]], [1, 0])
    with pytest.raises(ValueError):
        CurveConfig.make(["A"], [[-1]], [1])
    # fractional polarizations with A.A = 0, -1/6, -1/3 and -4/245
    for gram, anticanonical in [
        ([[0, 1], [1, -1]], [F(1, 2), 0]),
        ([[F(-2, 3), 2], [2, F(-2, 3)]], [F(1, 2), 0]),
        ([[0, 1], [1, 0]], [F(1, 2), F(-1, 3)]),
        ([[F(1, 3), F(1, 2)], [F(1, 2), F(-1, 5)]], [0, F(2, 7)]),
    ]:
        with pytest.raises(ValueError, match="^anticanonical class must have positive self-intersection$") as exc:
            CurveConfig.make(["A", "B"], gram, anticanonical)
        assert type(exc.value) is ValueError


def test_config_refuses_an_anticanonical_that_is_no_class_vector():
    for anticanonical in ([1], (F(1),), "1"):
        with pytest.raises(TypeError, match="^anticanonical must be a ClassVector, not "):
            CurveConfig(("A",), (1, ((1,),)), anticanonical)
    assert CurveConfig(("A",), (1, ((1,),)), ClassVector([1])).anticanonical == ClassVector([1])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_config_accepts_a_polarization_exactly_when_its_fraction_square_is_positive(data):
    k = data.draw(st.integers(1, 5))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    upper = {(i, j): data.draw(entries) for i in range(k) for j in range(i, k)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]
    anticanonical = data.draw(st.lists(st.one_of(entries, WIDE_ENTRIES), min_size=k, max_size=k))
    square = sum((a * g * b for row, a in zip(gram, anticanonical) for g, b in zip(row, anticanonical)), F(0))
    if square > 0:
        config = CurveConfig.make([f"C{i}" for i in range(k)], gram, anticanonical)
        assert config.to_json_dict()["anticanonical"] == [str(F(c)) for c in anticanonical]
    else:
        with pytest.raises(ValueError, match="^anticanonical class must have positive self-intersection$"):
            CurveConfig.make([f"C{i}" for i in range(k)], gram, anticanonical)


def test_integer_gram_is_square_over_a_positive_denominator_in_lowest_terms():
    with pytest.raises(ValueError):
        CurveConfig(("A", "B"), (1, ((1, 0), (0,))), ClassVector([1, 0]))
    with pytest.raises(ValueError):
        CurveConfig(("A",), (1, ((1,), (1,))), ClassVector([1]))
    for den in (0, -2):
        with pytest.raises(ValueError):
            CurveConfig(("A",), (den, ((-1,),)), ClassVector([1]))
    # any (d, G) for the same matrix gives the same config, so == and hash compare values
    config = CurveConfig(("A", "B"), (6, [[3, -9], [-9, 0]]), ClassVector([1, 0]))
    assert config.integer_gram == (2, ((1, -3), (-3, 0)))
    assert config == CurveConfig.make(["A", "B"], [[F(1, 2), F(-3, 2)], [F(-3, 2), 0]], [1, 0])
    assert hash(config) == hash(CurveConfig.make(["A", "B"], [["1/2", "-3/2"], ["-3/2", "0"]], [1, 0]))
    assert config.gram == ((F(1, 2), F(-3, 2)), (F(-3, 2), 0))


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


def test_int_rows_solve_as_their_fraction_rows_do():
    # decompose_ray passes int Gram rows, which are taken as they are
    rng = random.Random(11)
    u = Poly.variable()
    for _ in range(100):
        n = rng.randint(1, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        rhs = [Poly([F(rng.randint(-9, 9), rng.randint(1, 4))]) - F(rng.randint(-3, 3), rng.randint(1, 3)) * u
               for _ in range(n)]
        try:
            expected = solve_linear_system([[F(x) for x in row] for row in matrix], rhs)
        except ValueError:
            with pytest.raises(ValueError):
                solve_linear_system(matrix, rhs)
            continue
        assert solve_linear_system(matrix, rhs) == expected
        mixed = [row if i % 2 else [F(x) for x in row] for i, row in enumerate(matrix)]
        assert solve_linear_system(mixed, rhs) == expected


def test_solve_linear_system_refuses_a_bad_shape_or_an_inexact_entry():
    # each was answered before: [0], two of three values, [2], an IndexError
    for matrix, rhs in [
        ([[1, 0], [0, 1]], [F(1)]),
        ([[1, 0], [0, 1]], [F(1), F(2), F(3)]),
        ([[1, 2]], [F(1)]),
        ([[1, 2], [3]], [F(1), F(2)]),
        ([[F(1), 2], [3]], [Poly.variable(), F(2)]),
    ]:
        with pytest.raises(DimensionMismatchError):
            solve_linear_system(matrix, rhs)
    for matrix, rhs in [
        ([[1.0, 0], [0, 1]], [F(1), F(2)]),
        ([[F(1), 0], [0, 0.5]], [Poly.variable(), F(2)]),
        ([[1, 0], [0, 1]], [1.5, F(2)]),
        ([[1, 0], [0, 1]], [None, Poly.variable()]),
    ]:
        with pytest.raises(TypeError):
            solve_linear_system(matrix, rhs)


def test_solve_linear_system_rejects_singular_systems():
    with pytest.raises(ValueError):
        solve_linear_system([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])
    with pytest.raises(ValueError):
        solve_linear_system([[F(-1), F(1)], [F(1), F(-1)]], [Poly.variable(), F(0)])


# -- the fraction-free kernel against the Fraction Gauss-Jordan oracle --------

MIXED_ENTRIES = st.one_of(
    st.just(F(0)),
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)


@st.composite
def square_matrices(draw, max_size=8):
    """Square matrices of ints and Fractions with mixed denominators.

    Zero entries are common, so leading minors vanish and row swaps are
    needed; half the time one row is replaced by a combination of two others,
    making the matrix singular.
    """
    n = draw(st.integers(1, max_size))
    rows = [draw(st.lists(MIXED_ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j, t = (draw(st.integers(0, n - 1)) for _ in range(3))
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        rows[t] = [c * a + b for a, b in zip(rows[i], rows[j])]
    return rows


def _rhs_entries(kind):
    if kind == "int":
        return st.integers(-9, 9)
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=8)
    if kind == "fraction":
        return fractions
    return st.lists(fractions, max_size=2).map(Poly)


@settings(max_examples=300, deadline=None)
@given(square_matrices(), st.sampled_from(["int", "fraction", "poly"]), st.data())
def test_solve_matches_gauss_jordan_oracle(matrix, kind, data):
    n = len(matrix)
    rhs = data.draw(st.lists(_rhs_entries(kind), min_size=n, max_size=n))
    try:
        expected = oracle_solve_linear_system(matrix, rhs)
    except ValueError:
        with pytest.raises(ValueError):
            solve_linear_system(matrix, rhs)
        return
    x = solve_linear_system(matrix, rhs)
    assert x == expected
    assert all(type(v) is (Poly if kind == "poly" else F) for v in x)


@settings(max_examples=300, deadline=None)
@given(square_matrices(), st.data())
def test_negative_definite_matches_gauss_jordan_oracle(matrix, data):
    size = len(matrix)
    gram = [[matrix[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
    if data.draw(st.booleans()):  # push toward definiteness
        shift = data.draw(st.integers(1, 4 * size))
        gram = [[x - shift * (i == j) for j, x in enumerate(row)] for i, row in enumerate(gram)]
    config = CurveConfig.make(
        basis=[f"C{i}" for i in range(size + 1)],
        gram=[row + [F(0)] for row in gram] + [[F(0)] * size + [F(1)]],
        anticanonical=[0] * size + [1],
    )
    subset = data.draw(st.permutations(range(size + 1)))[: data.draw(st.integers(0, size + 1))]
    assert config.is_negative_definite(subset) == oracle_is_negative_definite(config, subset)


# zeros, small fractions with mixed denominators, and values near 10^12 as
# in the 10^6 sweeps
WIDE_ENTRIES = st.one_of(
    st.just(F(0)),
    st.integers(-10**12, 10**12).map(F),
    st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


@st.composite
def wide_configs(draw):
    """Configs of k <= 8 curves with WIDE_ENTRIES Gram matrices; the first
    curve, given a positive square, is the polarization."""
    k = draw(st.integers(1, 8))
    upper = {(i, j): draw(WIDE_ENTRIES) for i in range(k) for j in range(i, k)}
    upper[0, 0] = abs(upper[0, 0]) + F(1, draw(st.integers(1, 9)))
    gram = [[upper[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]
    return CurveConfig.make([f"C{i}" for i in range(k)], gram, [1] + [0] * (k - 1))


@settings(max_examples=150, deadline=None)
@given(wide_configs(), st.data())
def test_pairing_matches_a_fraction_double_loop(config, data):
    vectors = st.lists(WIDE_ENTRIES, min_size=config.size, max_size=config.size)
    v, w = data.draw(vectors), data.draw(vectors)
    expected = sum(
        (a * config.gram[i][j] * b for i, a in enumerate(v) for j, b in enumerate(w)), F(0)
    )
    got = config.pairing(v, w)
    assert got == expected and type(got) is F
    assert config.pairing(w, v) == expected


@settings(max_examples=150, deadline=None)
@given(wide_configs(), st.data())
def test_basis_pairings_match_a_fraction_double_loop(config, data):
    k = config.size
    coeff_lists = data.draw(st.lists(st.lists(WIDE_ENTRIES, max_size=3), min_size=k, max_size=k))
    got = config.basis_pairings([Poly(cs) for cs in coeff_lists])
    assert len(got) == k and all(type(q) is Poly for q in got)
    for j, q in enumerate(got):
        expected = sum(
            (config.gram[i][j] * FractionPoly(cs) for i, cs in enumerate(coeff_lists)), FractionPoly()
        )
        assert q.coeffs == expected.coeffs
    rationals = ClassVector(cs[0] if cs else F(0) for cs in coeff_lists)
    got = config.basis_pairings(rationals)
    assert got == [sum((config.gram[i][j] * r for i, r in enumerate(rationals)), F(0)) for j in range(k)]
    assert all(type(q) is F for q in got)
    # column j is the pairing with the j-th basis vector
    assert got == [config.pairing(rationals, config.basis_vector(name)) for name in config.basis]


@settings(max_examples=200, deadline=None)
@given(wide_configs(), st.data())
def test_class_vectors_match_the_fraction_tuple_oracle(config, data):
    k = config.size
    vectors = st.lists(WIDE_ENTRIES, min_size=k, max_size=k)
    xs, ys, c = data.draw(vectors), data.draw(st.one_of(vectors, st.just([0] * k))), data.draw(WIDE_ENTRIES)
    v, w, fv, fw = ClassVector(xs), ClassVector(ys), FractionClassVector(xs), FractionClassVector(ys)
    # one stored form: int numerators over a positive denominator coprime to them
    for x, fx in ((v, fv), (w, fw)):
        assert all(type(n) is int for n in x.numerators) and type(x.denominator) is int and x.denominator > 0
        assert math.gcd(x.denominator, *x.numerators) == 1
        assert x.coeffs == fx.coeffs == tuple(x) == tuple(x[i] for i in range(k)) and len(x) == k
        assert all(type(q) is F for q in x.coeffs)
        assert x.is_zero() == fx.is_zero()
    # == and hash follow the value, whatever numerators and denominator it was built from
    m = data.draw(st.integers(-10**6, 10**6).filter(bool))
    twin = ClassVector.from_integers([m * n for n in v.numerators], m * v.denominator)
    assert twin == v and hash(twin) == hash(v) and twin.numerators == v.numerators
    assert (v == w) == (fv == fw) and (v != w) == (fv != fw)
    if v == w:
        assert hash(v) == hash(w)
    for got, expected in ((v + w, fv + fw), (v - w, fv - fw), (c * v, c * fv), (-v, -fv)):
        assert type(got) is ClassVector and got == ClassVector(expected) and got.coeffs == expected.coeffs
    assert config.pairing(v, w) == fv.pairing(config, fw)
    assert config.basis_pairings(v) == fv.basis_pairings(config)


def test_class_vector_examples():
    assert ClassVector([F(1, 2), 1]) == ClassVector.from_integers([1, 2], 2) == ClassVector.from_integers([-3, -6], -6)
    assert hash(ClassVector([F(1, 2), 1])) == hash(ClassVector.from_integers([1, 2], 2))
    assert ClassVector([F(2, 4), F(3, 6)]).numerators == (1, 1) and ClassVector([F(1, 2), 1]).denominator == 2
    assert ClassVector([0, 0]).denominator == 1 and ClassVector([0, 0]).is_zero()
    assert repr(ClassVector([F(1, 2), -3])) == "ClassVector(1/2, -3)"
    assert ClassVector([1, F(1, 3)]) + ClassVector([F(1, 2), F(2, 3)]) == ClassVector([F(3, 2), 1])
    assert ClassVector([1, F(1, 3)]) + [F(1, 2), "2/3"] == ClassVector([F(3, 2), 1])  # a sequence is its vector
    assert ClassVector([1, F(1, 3)]) - [1, 1] == ClassVector([0, F(-2, 3)])
    with pytest.raises(DimensionMismatchError, match="^vector lengths differ$"):
        ClassVector([1, 2]) - ClassVector([1])


def test_kernel_edge_cases():
    # a zero leading entry: solving needs a row swap, definiteness fails at once
    assert solve_linear_system([[0, 1], [1, 0]], [F(2), F(3)]) == [3, 2]
    swap = CurveConfig.make(["A", "B", "C"], [[0, 1, 0], [1, -1, 0], [0, 0, 1]], [0, 0, 1])
    assert not swap.is_negative_definite([0, 1])
    assert not swap.is_negative_definite([1, 0])  # -1 then det = -1: second minor negative
    # a nonzero leading entry but a zero second leading minor
    flat = CurveConfig.make(["A", "B", "C"], [[-1, 1, 0], [1, -1, 0], [0, 0, 1]], [0, 0, 1])
    assert not flat.is_negative_definite([0, 1])
    # the empty system has the empty solution
    assert solve_linear_system([], []) == []
    # Poly right-hand sides are solved coefficient by coefficient
    u = Poly.variable()
    assert solve_linear_system([[F(1, 2), 0], [0, F(-3)]], [1 - u, u]) == [
        2 - 2 * u,
        F(-1, 3) * u,
    ]


def test_vector_construction_and_basis_lookup():
    v = FAMILY5.vector({"L2": "1/2"})
    assert v == ClassVector([0, F(1, 2)]) == FAMILY5.vector([0, "1/2"])
    assert FAMILY5.basis_vector("L1") == ClassVector([1, 0])
    with pytest.raises(KeyError):
        FAMILY5.vector({"bogus": 1})


def test_a_sequence_off_the_basis_size_is_no_vector():
    # a mapping names its curves; a sequence must have one entry per basis curve
    for values in ([1], [1, 2, 3], []):
        with pytest.raises(DimensionMismatchError, match=f"^vector of length {len(values)} against basis of size 2$"):
            FAMILY5.vector(values)
    with pytest.raises(KeyError):
        FAMILY5.index_of("bogus")


def test_quotient_singularity_validation():
    QuotientSingularity(7, (4, 5), "p_t")
    with pytest.raises(ValueError):
        QuotientSingularity(4, (2, 1))  # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        QuotientSingularity(5, (2, 4))  # gcd(2, 4) != 1


P_Z = CurveConfig.make(
    basis=["C_x"],
    gram=[[F(1, 52)]],
    anticanonical=[2],
    singular_points=[SingularPointRecord.make(QuotientSingularity(13, (2, 5), "p_z"), {"C_x": 10})],
)


def test_config_json_round_trip():
    round_tripped = CurveConfig.from_json_dict(P_Z.to_json_dict())
    assert round_tripped == P_Z
    assert round_tripped.singular_point("p_z").multiplicity("C_x") == 10
    assert round_tripped.singular_point("p_z").multiplicity("other") == 0
    # every stage of every catalog family, a parametric one at its minimum n and at 10^6
    catalog = load_catalog()
    for entry in catalog.families:
        for n in (entry.minimum_n, 10**6) if entry.parametric else (None,):
            for name, stage in instantiate(catalog, entry.family_id, n).stages.items():
                assert CurveConfig.from_json_dict(stage.to_json_dict()) == stage, (entry.family_id, n, name)


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (lambda data: data.update(basis="LR"), "basis must be a list of curve names"),
        (lambda data: data.pop("gram"), "gram must be a list of rows of expressions"),
        (lambda data: data["singular_points"][0].update(order=13.9), "singular point order must be an expression"),
        (lambda data: data["singular_points"][0].update(order=True), "singular point order must be an expression"),
        (lambda data: data["singular_points"][0].update(weights=[2.7, 5]), "singular point weights must be two integers"),
    ],
    ids=["text basis", "no gram", "float order", "boolean order", "float weight"],
)
def test_config_json_is_read_by_the_catalog_rules(corrupt, named):
    data = P_Z.to_json_dict()
    corrupt(data)
    with pytest.raises(CatalogError, match=named) as exc:
        CurveConfig.from_json_dict(data)
    assert len(str(exc.value).splitlines()) == 1


def test_config_json_rationals_are_catalog_expressions():
    data = P_Z.to_json_dict()
    data["gram"] = [["1/(4*13)"]]
    assert CurveConfig.from_json_dict(data) == P_Z
    data["gram"] = [["(1+2)/3"]]
    assert CurveConfig.from_json_dict(data).gram == ((1,),)


@st.composite
def integer_grams(draw):
    """(d, G) with d = 1 or any positive int and symmetric int rows of any sign,
    zeros included; the first curve, given a positive square, is the polarization."""
    k = draw(st.integers(1, 6))
    den = draw(st.one_of(st.just(1), st.integers(1, 10**6)))
    entries = st.one_of(st.just(0), st.integers(-30, 30), st.integers(-10**12, 10**12))
    upper = {(i, j): draw(entries) for i in range(k) for j in range(i, k)}
    upper[0, 0] = abs(upper[0, 0]) + 1
    gram = [[upper[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]
    return den, gram


@settings(max_examples=200, deadline=None)
@given(integer_grams())
def test_config_json_renders_the_integer_gram_without_the_fraction_view(dg):
    den, gram = dg
    k = len(gram)
    config = CurveConfig(tuple(f"C{i}" for i in range(k)), (den, gram), ClassVector([1] + [0] * (k - 1)))
    rendered = config.to_json_dict()["gram"]
    assert "gram" not in vars(config)
    assert rendered == [[str(x) for x in row] for row in config.gram]
