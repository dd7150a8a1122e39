"""Exact polynomial and piecewise-polynomial arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab.arith import (
    DomainMismatchError,
    IntervalNotCoveredError,
    PiecewisePoly,
    Poly,
    piecewise_combine,
    piecewise_integrate,
    poly_eval,
    rat,
)
from tests._oracles import FractionPoly, simpson, simpson_matches

F = Fraction


def test_rat_coercions():
    assert rat("25/162") == F(25, 162)
    assert rat(7) == F(7)
    assert rat(F(1, 3)) == F(1, 3)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ValueError):
        rat("1/0")


def test_poly_eval_constant_term():
    p = Poly([F(8, 3), 0, -1])
    assert poly_eval(p, 0) == F(8, 3)


def test_poly_eval_root_by_construction():
    # (4-u)^2/5 expanded
    p = Poly([F(16, 5), F(-8, 5), F(1, 5)])
    assert poly_eval(p, 4) == 0


def test_poly_eval_derived_value():
    # frozen from the double-precision oracle: 3/7 - (7/6)*(3/14)^2 = 3/8
    p = Poly([F(3, 7), 0, F(-7, 6)])
    value = poly_eval(p, F(3, 14))
    assert value == F(3, 8)
    assert abs(float(value) - (3 / 7 - (7 / 6) * (3 / 14) ** 2)) < 1e-12


def test_poly_canonical_form():
    assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert Poly([0, 0]).is_zero()
    assert Poly([]).degree == -1
    assert Poly([1, 2]) == Poly(["1", "2"])


def test_poly_arithmetic():
    u = Poly.variable()
    p = (1 - u) * (1 + u)
    assert p == Poly([1, 0, -1])
    assert p.derivative() == Poly([0, -2])
    assert (2 * u + 3 * u) == 5 * u
    assert (u - u).is_zero()


def test_poly_format():
    p = Poly([F(2, 3), F(-4, 3), F(-2, 3)])
    assert p.format() == "2/3 - 4/3*u - 2/3*u^2"
    assert Poly().format() == "0"
    assert Poly([0, 1]).format() == "u"


def test_integrate_square_piece():
    f = PiecewisePoly.single(0, 2, Poly([4, -4, 1]))  # (2-u)^2
    assert piecewise_integrate(f, 0, 2) == F(8, 3)


def test_integrate_published_two_piece_fixture():
    # integrating the published case expressions as given reproduces 25/162
    f = PiecewisePoly(
        [
            (0, F(1, 3), Poly([F(2, 3), F(-4, 3), F(-2, 3)])),
            (F(1, 3), F(1, 2), Poly([F(28, 12), F(-28, 3), F(28, 3)])),
        ]
    )
    assert piecewise_integrate(f, 0, F(1, 2)) == F(25, 162)
    assert simpson_matches(f, F(25, 162))


def test_integrate_zero():
    f = PiecewisePoly.single(0, 1, Poly())
    assert piecewise_integrate(f, 0, 1) == 0


def test_integrate_reversed_and_out_of_range():
    f = PiecewisePoly.single(0, 2, Poly([1]))
    assert piecewise_integrate(f, 2, 0) == -2
    with pytest.raises(IntervalNotCoveredError):
        piecewise_integrate(f, 0, 3)


def test_combine_product():
    u = Poly.variable()
    f = PiecewisePoly.single(0, 1, u)
    g = PiecewisePoly.single(0, 1, 1 - u)
    assert piecewise_combine(f, g, "mul") == PiecewisePoly.single(0, 1, u - u * u)


def test_combine_breakpoint_refinement():
    u = Poly.variable()
    f = PiecewisePoly.single(0, 1, Poly([1]))
    g = PiecewisePoly([(0, F(1, 2), Poly()), (F(1, 2), 1, u)])
    combined = piecewise_combine(f, g, "add")
    assert combined == PiecewisePoly([(0, F(1, 2), Poly([1])), (F(1, 2), 1, 1 + u)])


def test_combine_split_fiber_integrand_at_n1():
    # product of the two split-fiber factors at n = 1, spot-checked pointwise
    n = 1
    u = Poly.variable()
    lo = F(2, n + 3)
    f = PiecewisePoly.single(lo, 1, Poly([F(4, n + 1)]) * (1 - u))
    g = PiecewisePoly.single(
        lo, 1, Poly([F(n + 3, (n + 1) * (n + 2))]) * ((n + 3) * u - 2)
    )
    product = piecewise_combine(f, g, "mul")
    assert product(1) == 0
    for x in [lo, F(3, 5), F(2, 3), F(3, 4), F(9, 10)]:
        assert product(x) == f(x) * g(x)


def test_combine_domain_mismatch():
    f = PiecewisePoly.single(0, 1, Poly([1]))
    g = PiecewisePoly.single(0, 2, Poly([1]))
    with pytest.raises(DomainMismatchError):
        piecewise_combine(f, g, "add")
    with pytest.raises(ValueError):
        piecewise_combine(f, f, "pow")


def test_pieces_must_be_contiguous_and_nondegenerate():
    with pytest.raises(ValueError):
        PiecewisePoly([(0, 1, Poly([1])), (2, 3, Poly([1]))])
    with pytest.raises(ValueError):
        PiecewisePoly([(1, 1, Poly([1]))])


def test_equal_adjacent_pieces_merge():
    p = Poly([1, 2])
    f = PiecewisePoly([(0, 1, p), (1, 2, p)])
    assert len(f.pieces) == 1
    assert f.pieces[0][:2] == (F(0), F(2))


small_rational = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


@st.composite
def piecewise_polys(draw):
    cuts = sorted(
        draw(
            st.lists(
                st.fractions(min_value=0, max_value=3, max_denominator=8),
                min_size=2,
                max_size=5,
                unique=True,
            )
        )
    )
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        coeffs = draw(st.lists(small_rational, min_size=0, max_size=3))
        pieces.append((lo, hi, Poly(coeffs)))
    return PiecewisePoly(pieces)


@settings(max_examples=60, deadline=None)
@given(piecewise_polys(), st.fractions(min_value=0, max_value=1, max_denominator=16))
def test_integral_additivity(f, t):
    a, b = f.left, f.right
    c = a + (b - a) * t
    assert f.integrate(a, b) == f.integrate(a, c) + f.integrate(c, b)


@settings(max_examples=60, deadline=None)
@given(piecewise_polys(), piecewise_polys())
def test_integral_of_sum(f, g):
    if (f.left, f.right) != (g.left, g.right):
        g = PiecewisePoly(
            [(f.left, f.right, g.pieces[0][2])]
        )
    h = piecewise_combine(f, g, "add")
    a, b = f.left, f.right
    assert h.integrate(a, b) == f.integrate(a, b) + g.integrate(a, b)


@settings(max_examples=60, deadline=None)
@given(piecewise_polys(), piecewise_polys())
def test_combine_outputs_are_canonical(f, g):
    if (f.left, f.right) != (g.left, g.right):
        g = PiecewisePoly([(f.left, f.right, g.pieces[0][2])])
    for op in ("add", "mul"):
        h = piecewise_combine(f, g, op)
        for (l1, r1, p1), (l2, r2, p2) in zip(h.pieces, h.pieces[1:]):
            assert r1 == l2
            assert p1 != p2  # equal neighbours must have merged
        assert all(l < r for l, r, _ in h.pieces)


polys = st.builds(Poly, st.lists(small_rational, min_size=0, max_size=4))


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys, small_rational)
def test_poly_ring_laws(p, q, r, x):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_antiderivative_inverts_derivative(p):
    assert p.antiderivative().derivative() == p
    assert p.integrate(0, 1) == p.antiderivative()(1) - p.antiderivative()(0)


def _coercing(coeffs) -> Poly:
    """A Poly built through the public, coercing constructor."""
    return Poly(list(coeffs))


@settings(max_examples=120, deadline=None)
@given(polys, polys, st.integers(-3, 3))
def test_arithmetic_results_are_canonical_fraction_polys(p, q, c):
    # p + c*q - p and p + q - q cancel leading (or all) terms
    lead = Poly([0] * max(p.degree, 0) + [-p.coefficient(p.degree) if p.coeffs else 1])
    length = max(len(p.coeffs), len(q.coeffs))
    results = {
        "p + q": (p + q, [p.coefficient(i) + q.coefficient(i) for i in range(length)]),
        "p - q": (p - q, [p.coefficient(i) - q.coefficient(i) for i in range(length)]),
        "p + c*q - p": ((p + c * q) - p, [c * x for x in q.coeffs]),
        "p + lead": (p + lead, [p.coefficient(i) + lead.coefficient(i) for i in range(length + 1)]),
        "-p": (-p, [-x for x in p.coeffs]),
        "c + p": (c + p, [p.coefficient(0) + c] + list(p.coeffs[1:])),
        "p * q": (p * q, [
            sum((p.coefficient(i) * q.coefficient(k - i) for i in range(k + 1)), F(0))
            for k in range(len(p.coeffs) + len(q.coeffs))
        ]),
        "c * p": (c * p, [c * x for x in p.coeffs]),
        "p'": (p.derivative(), [i * x for i, x in enumerate(p.coeffs)][1:]),
        "integral of p": (p.antiderivative(), [0] + [x / (i + 1) for i, x in enumerate(p.coeffs)]),
    }
    for name, (result, reference) in results.items():
        assert result == _coercing(result.coeffs) == _coercing(reference), name
        assert all(type(x) is Fraction for x in result.coeffs), name
        assert not result.coeffs or result.coeffs[-1] != 0, name


@settings(max_examples=40, deadline=None)
@given(piecewise_polys())
def test_exact_integral_matches_simpson(f):
    assert simpson_matches(f, f.integrate(f.left, f.right))


def test_simpson_helper_on_a_known_integral():
    assert abs(simpson(lambda x: x * x, 0.0, 2.0) - 8 / 3) < 1e-12


# zeros, small fractions with mixed denominators, and values near 10^12 as
# in the 10^6 sweeps
WIDE_RATIONALS = st.one_of(
    st.just(F(0)),
    st.integers(-10**12, 10**12).map(F),
    st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)
coefficient_lists = st.lists(WIDE_RATIONALS, max_size=5)


@settings(max_examples=150, deadline=None)
@given(coefficient_lists, coefficient_lists, WIDE_RATIONALS, WIDE_RATIONALS, WIDE_RATIONALS)
def test_every_poly_operation_matches_the_fraction_oracle(cs, ds, c, a, b):
    p, q, op, oq = Poly(cs), Poly(ds), FractionPoly(cs), FractionPoly(ds)
    results = {
        "p": (p, op),
        "constant": (Poly.constant(c), FractionPoly.constant(c)),
        "variable": (Poly.variable(), FractionPoly.variable()),
        "p + q": (p + q, op + oq),
        "p - q": (p - q, op - oq),
        "p + c": (p + c, op + c),
        "c - p": (c - p, c - op),
        "p * q": (p * q, op * oq),
        "p * c": (p * c, op * c),
        "c * p": (c * p, c * op),
        "-p": (-p, -op),
        "p'": (p.derivative(), op.derivative()),
        "antiderivative": (p.antiderivative(), op.antiderivative()),
    }
    for name, (got, want) in results.items():
        assert got.coeffs == want.coeffs, name
        assert all(type(x) is F for x in got.coeffs), name
        assert (got.degree, got.is_zero(), bool(got)) == (want.degree, want.is_zero(), bool(want)), name
        assert [got.coefficient(k) for k in range(7)] == [want.coefficient(k) for k in range(7)], name
        assert got.format() == want.format() and got.format("t") == want.format("t"), name
        assert got(a) == want(a) and type(got(a)) is F, name
        assert got.integrate(a, b) == want.integrate(a, b), name
        # the integer form is canonical
        assert got.denominator > 0 and math.gcd(got.denominator, *got.numerators) == 1, name
        assert not got.numerators or got.numerators[-1] != 0, name
        assert got == Poly(want.coeffs) and hash(got) == hash(Poly(want.coeffs)), name
    assert (p == q) == (op == oq)
    assert (p == c) == (op == c)


def test_equal_polynomials_from_different_routes_compare_and_hash_equal():
    u = Poly.variable()
    half_plus_u = [
        Poly([F(1, 2), 1]),
        Poly(["1/2", "2/2"]),
        u + F(1, 2),
        F(1, 2) + u,
        (2 * u + 1) * F(1, 2),
        Poly([F(1, 2), 1, 3]) - 3 * u * u,
        Poly([0, F(1, 2), F(1, 2)]).derivative(),
        Poly.from_integers([3, 6], 6),
        Poly.from_integers([-1, -2, 0], -2),
    ]
    zero = [Poly(), Poly([0, 0]), u - u, Poly.from_integers([0], 7), F(0) * u, u * Poly()]
    for routes in (half_plus_u, zero):
        assert all(p == routes[0] for p in routes)
        assert len({hash(p) for p in routes}) == 1
        assert len({(p.numerators, p.denominator) for p in routes}) == 1
    assert zero[0] == 0 and half_plus_u[0] != 0
