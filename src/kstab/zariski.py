"""Exact Zariski decomposition of divisor classes and one-parameter rays.

``zariski_decompose_at`` splits a single pseudoeffective class D = P + N by
iteratively enlarging the negative support.  ``decompose_ray`` walks the ray
A - uE through its Zariski chambers: along the ray the negative support only
grows, so starting from u = 0 with an empty support it adds every curve
whose P(u).C turns negative just to the right, solves once on each support it
grows to (the negative-part coefficients are linear in u), and steps to the
next root of some P(u).C or to the volume's rational root tau.  That is at
most k linear solves for a basis of k curves.  It decides on integer linear forms:
P(u) = (p0 + u p1) / q and d q P(u).C_j = alpha_j + u beta_j on ints, whose
sign at u = m/n is that of alpha_j n + beta_j m.  Each chamber [l, r] with support S is
certified on its whole interval: S is negative definite, its curves pair
non-negatively with all other basis curves (as distinct curves do), P(u).C = 0
identically for C in S, and the linear N coefficients and P(u).C are >= 0 at
l and r.  By uniqueness the certified decomposition then holds on [l, r].
One rule, ``_chamber_end``, decides where a chamber ends: at the first root r
of a falling P(u).C where signs show vol > 0 on (l, r], else at vol's first
rational root after l, which must come no later than r and is tau; where there
is none the ray is refused.  The walk runs the same code on ``kstab.plan``'s
numbers over Q(n), where a sign is a guard and a rational root is a square root
over Q(n).  ``zariski_decompose_at`` is the walk's independent oracle (tests,
bench gates).
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .arith import Frozen, PiecewisePoly, Poly, RationalLike, _over_lcm, _quotient_str, isqrt, rat, ratio
from .surface import ClassVector, CurveConfig, DimensionMismatchError, _as_vector, solve_linear_system


class NotPseudoeffectiveError(ValueError):
    """No valid decomposition: the class is not in the effective span."""


class InconsistentConfigError(ValueError):
    """The configuration admits no consistent decomposition where one is required."""


class RayNeverEffectiveError(ValueError):
    """The ray's volume never reaches zero at a rational parameter."""


def zariski_decompose_at(
    config: CurveConfig, d: ClassVector
) -> tuple[ClassVector, ClassVector]:
    """Split d = P + N with P nef on the basis, N >= 0 on a ND support.

    Starts from empty support, solves (d - N).C = 0 over it and adds any basis
    curve with P.C < 0 (refused if it pairs negatively with another) to a fixpoint.
    """
    k = config.size
    d_dot = config.basis_pairings(d)
    support: list[int] = []
    coeffs: list[Fraction] = []
    for _ in range(k + 1):
        if support:
            m = [[config.gram[i][j] for j in support] for i in support]
            rhs = [d_dot[i] for i in support]
            try:
                coeffs = solve_linear_system(m, rhs)
            except ValueError:
                raise InconsistentConfigError(
                    f"degenerate support {_names(config, support)}"
                ) from None
        n_vec = _support_vector(config.size, support, coeffs)
        p_vec = d - n_vec
        p_dot = config.basis_pairings(p_vec) if support else d_dot
        violating = [j for j in range(k) if j not in support and p_dot[j] < 0]
        if not violating:
            break
        _refuse_negative_pairing(config, violating[:1], "")
        support.append(violating[0])
        support.sort()
    else:
        raise InconsistentConfigError("support iteration did not converge")

    if any(c < 0 for c in coeffs):
        raise NotPseudoeffectiveError(
            f"negative coefficient on support {_names(config, support)}"
        )
    if not config.is_negative_definite(support):
        raise NotPseudoeffectiveError(
            f"support {_names(config, support)} is not negative definite"
        )
    if config.pairing(p_vec, p_vec) < 0:
        # nef classes on a surface lattice have non-negative square
        raise NotPseudoeffectiveError("positive part has negative self-intersection")
    return p_vec, n_vec


class RayInterval(Frozen):
    """One stretch [left, right] of the ray with a fixed negative support, a tuple of
    basis indices.

    ``negative_coeffs`` holds the support curves' coefficients as polynomials
    in u (degree <= 1); ``positive_part`` is P(u) coordinate-wise, one linear
    polynomial per basis curve.
    """

    _fields = ("left", "right", "support", "negative_coeffs", "positive_part")

    def negative_part_at(self, u: RationalLike, size: int) -> ClassVector:
        return _support_vector(size, self.support, [poly(u) for poly in self.negative_coeffs])

    def positive_part_at(self, u: RationalLike) -> ClassVector:
        return ClassVector(p(u) for p in self.positive_part)


class RayDecomposition(Frozen):
    """Piecewise-in-u Zariski decomposition of ample - u*ray on a config."""

    _fields = ("config", "ample", "ray", "intervals", "nef_threshold", "tau", "volume")

    @cached_property
    def volume_integral(self) -> Fraction:
        """The integral of the volume over [0, tau], computed once per ray."""
        return self.volume.integrate(0, self.tau)

    @cached_property
    def ample_square(self) -> Fraction:
        """The self-intersection A.A of the ample class, computed once per ray."""
        return self.config.pairing(self.ample, self.ample)

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple([iv.left for iv in self.intervals] + [self.tau])

    def class_at(self, u: RationalLike) -> ClassVector:
        u = rat(u)
        return self.ample - u * self.ray

    def interval_at(self, u: RationalLike) -> RayInterval:
        u = rat(u)
        if u < 0 or u > self.tau:
            raise ValueError(f"u = {u} outside [0, {self.tau}]")
        for iv in self.intervals:
            if iv.left <= u < iv.right:
                return iv
        return self.intervals[-1]

    def positive_part_at(self, u: RationalLike) -> ClassVector:
        return self.interval_at(u).positive_part_at(u)

    def negative_part_at(self, u: RationalLike) -> ClassVector:
        return self.interval_at(u).negative_part_at(u, self.config.size)

    def to_json_dict(self) -> dict:
        def texts(x) -> list[str]:  # a Poly's or ClassVector's coefficients as str() writes their Fractions
            return [_quotient_str(c, x.denominator) for c in x.numerators]

        return {
            "ample": texts(self.ample),
            "ray": texts(self.ray),
            "nef_threshold": str(self.nef_threshold),
            "tau": str(self.tau),
            "breakpoints": [str(b) for b in self.breakpoints],
            "intervals": [
                {
                    "left": str(iv.left),
                    "right": str(iv.right),
                    "support": [self.config.basis[i] for i in iv.support],
                    "negative_coeffs": {
                        self.config.basis[i]: texts(poly)
                        for i, poly in zip(iv.support, iv.negative_coeffs)
                    },
                    "positive_part": {
                        name: texts(poly)
                        for name, poly in zip(self.config.basis, iv.positive_part)
                    },
                }
                for iv in self.intervals
            ],
            "volume": [
                {"left": str(l), "right": str(r), "coeffs": texts(p)}
                for l, r, p in self.volume.pieces
            ],
        }


def decompose_ray(
    config: CurveConfig, ample: ClassVector | Sequence[RationalLike], ray: ClassVector | Sequence[RationalLike]
) -> RayDecomposition:
    """Decompose ample - u*ray for u in [0, tau], exactly.

    ``ample`` must be nef on the basis and big (positive self-intersection);
    ``ray`` is the class being subtracted (usually a single basis curve).
    A chamber that fails its certificate raises InconsistentConfigError.
    """
    ample, ray = _as_vector(ample), _as_vector(ray)
    k, (den, gram) = config.size, config.integer_gram
    if len(ample) != k or len(ray) != k:
        raise DimensionMismatchError(f"vectors of length {len(ample)}, {len(ray)} against basis of size {k}")
    # scale (A - uE) = a + u e on ints; G a + u G e = scale d (A - uE).C_i is the right-hand side, G a gives A's signs
    a, e, scale = _over_lcm(ample, ray)
    e = [-x for x in e]
    ga = config._gram_times(a)
    if sum(map(operator.mul, a, ga)) <= 0:
        raise ValueError("ample class must have positive self-intersection")
    for name, x in zip(config.basis, ga):
        if x < 0:
            raise ValueError(f"ample class is not nef: negative against {name}")
    if ray.is_zero():
        raise ValueError("ray class must be nonzero")
    rhs = [Poly.from_integers(form, scale) for form in zip(ga, config._gram_times(e))]
    support, coeffs = [], []  # the negative support, and its coefficients as polynomials in u
    intervals: list[RayInterval] = []
    vol_pieces: list[tuple[Fraction, Fraction, Poly]] = []
    left, tau = Fraction(0), None
    while tau is None:
        # P(u) = (p0 + u p1) / q and d q P(u).C_j = alpha_j + u beta_j, all on ints
        q = math.lcm(scale, *(c.denominator for c in coeffs))
        p0, p1 = [x * (q // scale) for x in a], [x * (q // scale) for x in e]
        for i, c in zip(support, coeffs):
            n0, n1 = (*c.numerators, 0, 0)[:2]
            p0[i] -= n0 * (q // c.denominator)
            p1[i] -= n1 * (q // c.denominator)
        alpha, beta = config._gram_times(p0), config._gram_times(p1)
        entering = [
            j for j in range(k)
            if j not in support and (_sign_at(alpha[j], beta[j], left), beta[j]) < (0, 0)
        ]
        if entering:
            # P(u).C turns negative just to the right of `left`: grow the support, solve on it, look again
            support = sorted(support + entering)
            if not config.is_negative_definite(support):
                raise InconsistentConfigError(
                    f"support {_names(config, support)} at u = {left} is not negative definite"
                )
            _refuse_negative_pairing(config, entering, f" at u = {left}")
            m = [[gram[i][j] for j in support] for i in support]
            coeffs = solve_linear_system(m, [rhs[i] for i in support])
            continue
        # P.C = 0 on the support identically: then P.N = 0, vol = P.P, and only outside curves have slopes
        if any(alpha[i] or beta[i] for i in support):
            raise InconsistentConfigError(
                f"P(u) is not orthogonal to support {_names(config, support)} from u = {left}"
            )
        p_polys = [Poly.from_integers(form, q) for form in zip(p0, p1)]
        p_dot = [Poly.from_integers(form, den * q) for form in zip(alpha, beta)]
        vol = sum((p * c for p, c in zip(p_polys, p_dot)), Poly())
        right, tau = _chamber_end(alpha, beta, vol, left)
        # N's coefficients and P.C are linear in u: >= 0 at both ends is >= 0 throughout
        forms = [(*c.numerators, 0, 0)[:2] for c in coeffs] + list(zip(alpha, beta))
        if any(_sign_at(x, y, left) < 0 or _sign_at(x, y, right) < 0 for x, y in forms):
            raise InconsistentConfigError(
                f"support {_names(config, support)} is not a Zariski chamber on [{left}, {right}]"
            )
        intervals.append(RayInterval(left, right, tuple(support), tuple(coeffs), tuple(p_polys)))
        vol_pieces.append((left, right, vol))
        left = right

    rd = RayDecomposition(
        config=config,
        ample=ample,
        ray=ray,
        intervals=tuple(intervals),
        nef_threshold=intervals[0].right if not intervals[0].support else Fraction(0),
        tau=tau,
        volume=PiecewisePoly(vol_pieces),
    )
    _check_continuity(rd)
    return rd


def volume_profile(rd: RayDecomposition) -> PiecewisePoly:
    """Piecewise-quadratic vol(ample - u*ray) on [0, tau]."""
    return rd.volume


# -- internals ----------------------------------------------------------------


def _chamber_end(alpha: Sequence, beta: Sequence, vol: Poly, left: Fraction) -> tuple[Fraction, Optional[Fraction]]:
    """Where the chamber from ``left`` ends, as (right, tau), with tau = right where vol reaches zero there.

    right is the first root alpha_j / -beta_j of a falling P.C_j, compared by
    cross-multiplication.  Signs decide first, on vol's int numerators c (vol at
    u = p/r has the sign of c0 r^2 + c1 p r + c2 p^2): vol >= 0 at left, > 0 at
    right, and a convex vol with no zero at a vertex -c1 / (2 c2) inside, is
    vol > 0 on (left, right].  Otherwise vol reaches zero after left, and that
    zero must be its first rational root, no later than right; else the ray is
    refused.  No chamber starts with vol = 0 identically: vol(0) = A.A > 0, and
    each later chamber starts where the one before proved vol > 0.
    """
    first = None
    for x, y in zip(alpha, beta):
        if y < 0 and (first is None or x * first[1] < -y * first[0]):
            first = (x, -y)
    right = None if first is None else ratio(*first)
    c0, c1, c2 = (*vol.numerators, 0, 0, 0)[:3]

    def vol_sign_at(u):
        return c0 * u.denominator ** 2 + (c1 * u.denominator + c2 * u.numerator) * u.numerator

    if right is not None and vol_sign_at(left) >= 0 and vol_sign_at(right) > 0 and not (
        c2 > 0 and _sign_at(c1, 2 * c2, left) < 0 < _sign_at(c1, 2 * c2, right) and c1 * c1 >= 4 * c0 * c2
    ):
        return right, None
    root = _smallest_rational_root_at_least(vol, left)
    if root is not None and (right is None or root <= right):
        return root, root
    if right is None:
        raise RayNeverEffectiveError("volume does not reach zero at a rational parameter")
    raise RayNeverEffectiveError("volume crosses zero at an irrational parameter")


def _smallest_rational_root_at_least(q: Poly, lo: Fraction) -> Optional[Fraction]:
    """Smallest rational root of q that is > lo; None if there is none.

    Decided on q's int numerators: a quadratic c0 + c1 u + c2 u^2 has
    rational roots exactly when its discriminant c1^2 - 4 c2 c0 is a perfect
    square (in the catalog the terminal quadratic is always a multiple of
    (tau - u)^2); otherwise the root is irrational and not representable.
    """
    c = q.numerators
    if len(c) <= 1:
        return None
    if len(c) == 2:
        root = ratio(-c[0], c[1])
        return root if root > lo else None
    c0, c1, c2 = c
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return None
    sq = isqrt(disc)
    if sq * sq != disc:
        return None
    for r in sorted((ratio(-c1 - sq, 2 * c2), ratio(-c1 + sq, 2 * c2))):
        if r > lo:
            return r
    return None


def _sign_at(x0: int, x1: int, u: Fraction) -> int:
    """x0 + u x1 times u's (positive) denominator: an int with the sign of the form at u."""
    return x0 * u.denominator + x1 * u.numerator


def _check_continuity(rd: RayDecomposition) -> None:
    pieces = rd.volume.pieces
    for (l1, r1, p1), (l2, r2, p2) in zip(pieces, pieces[1:]):
        if p1(r1) != p2(l2):
            raise InconsistentConfigError(f"volume discontinuous at u = {r1}")
    if rd.volume(Fraction(0)) != rd.ample_square:
        raise InconsistentConfigError("volume at 0 does not equal ample self-intersection")


def _refuse_negative_pairing(config: CurveConfig, entering: Sequence[int], at: str) -> None:
    clash = next(((i, j) for i in entering for j, g in enumerate(config.integer_gram[1][i]) if g < 0 and j != i), None)
    if clash:
        curve, other = (config.basis[x] for x in clash)
        raise InconsistentConfigError(f"{curve} enters the support{at} but pairs negatively with {other}")


def _support_vector(size: int, support: Sequence[int], coeffs) -> ClassVector:
    out = [Fraction(0)] * size
    for idx, c in zip(support, coeffs):
        out[idx] = c
    return ClassVector(out)


def _names(config: CurveConfig, subset: Sequence[int]) -> str:
    return "{" + ", ".join(config.basis[i] for i in subset) + "}"
