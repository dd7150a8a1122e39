"""Exact polynomial and piecewise-polynomial arithmetic."""

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
from tests._oracles import simpson, simpson_matches

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


@settings(max_examples=40, deadline=None)
@given(piecewise_polys())
def test_exact_integral_matches_simpson(f):
    assert simpson_matches(f, f.integrate(f.left, f.right))


def test_simpson_helper_on_a_known_integral():
    assert abs(simpson(lambda x: x * x, 0.0, 2.0) - 8 / 3) < 1e-12
