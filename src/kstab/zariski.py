"""Exact Zariski decomposition of divisor classes and one-parameter rays.

``zariski_decompose_at`` splits a single pseudoeffective class D = P + N by
iteratively enlarging the negative support.  ``decompose_ray`` walks the ray
A - uE through its Zariski chambers: along the ray the negative support only
grows, so starting from u = 0 with an empty support it solves once on the
current support (the negative-part coefficients are linear in u), adds every
curve whose P(u).C turns negative just to the right, and steps to the next
root of some P(u).C or to the volume's rational root tau.  That is O(k)
linear solves for a basis of k curves.  Each chamber [l, r] with support S is
certified on its whole interval: S is negative definite, its curves pair
non-negatively with all other basis curves (as distinct curves do), P(u).C = 0
identically for C in S, and the linear N coefficients and P(u).C are >= 0 at
l and r.  By uniqueness the certified decomposition then holds on [l, r].
``zariski_decompose_at`` is the walk's independent oracle (tests, bench gates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .arith import PiecewisePoly, Poly, RationalLike, rat
from .surface import ClassVector, CurveConfig, solve_linear_system


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


@dataclass(frozen=True)
class RayInterval:
    """One stretch [left, right] of the ray with a fixed negative support.

    ``negative_coeffs`` holds the support curves' coefficients as polynomials
    in u (degree <= 1); ``positive_part`` is P(u) coordinate-wise, one linear
    polynomial per basis curve.
    """

    left: Fraction
    right: Fraction
    support: tuple[int, ...]
    negative_coeffs: tuple[Poly, ...]
    positive_part: tuple[Poly, ...]

    def negative_part_at(self, u: RationalLike, size: int) -> ClassVector:
        return _support_vector(size, self.support, [poly(u) for poly in self.negative_coeffs])

    def positive_part_at(self, u: RationalLike) -> ClassVector:
        return ClassVector(p(u) for p in self.positive_part)


@dataclass(frozen=True)
class RayDecomposition:
    """Piecewise-in-u Zariski decomposition of ample - u*ray on a config."""

    config: CurveConfig
    ample: ClassVector
    ray: ClassVector
    intervals: tuple[RayInterval, ...]
    nef_threshold: Fraction
    tau: Fraction
    volume: PiecewisePoly

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
        return {
            "ample": [str(c) for c in self.ample],
            "ray": [str(c) for c in self.ray],
            "nef_threshold": str(self.nef_threshold),
            "tau": str(self.tau),
            "breakpoints": [str(b) for b in self.breakpoints],
            "intervals": [
                {
                    "left": str(iv.left),
                    "right": str(iv.right),
                    "support": [self.config.basis[i] for i in iv.support],
                    "negative_coeffs": {
                        self.config.basis[i]: [str(c) for c in poly.coeffs]
                        for i, poly in zip(iv.support, iv.negative_coeffs)
                    },
                    "positive_part": {
                        name: [str(c) for c in poly.coeffs]
                        for name, poly in zip(self.config.basis, iv.positive_part)
                    },
                }
                for iv in self.intervals
            ],
            "volume": [
                {"left": str(l), "right": str(r), "coeffs": [str(c) for c in p.coeffs]}
                for l, r, p in self.volume.pieces
            ],
        }


def decompose_ray(config: CurveConfig, ample: ClassVector, ray: ClassVector) -> RayDecomposition:
    """Decompose ample - u*ray for u in [0, tau], exactly.

    ``ample`` must be nef on the basis and big (positive self-intersection);
    ``ray`` is the class being subtracted (usually a single basis curve).
    A chamber that fails its certificate raises InconsistentConfigError.
    """
    if config.pairing(ample, ample) <= 0:
        raise ValueError("ample class must have positive self-intersection")
    ample_dot = config.basis_pairings(ample)
    for name, q in zip(config.basis, ample_dot):
        if q < 0:
            raise ValueError(f"ample class is not nef: negative against {name}")
    if ray.is_zero():
        raise ValueError("ray class must be nonzero")

    u = Poly.variable()
    d_polys = [Poly.constant(a) - u * Poly.constant(e) for a, e in zip(ample, ray)]
    den, gram = config.integer_gram
    # d (A - uE).C_i: the right-hand side over the integer Gram rows
    rhs = [Poly([den * a, -den * e]) for a, e in zip(ample_dot, config.basis_pairings(ray))]
    support: list[int] = []
    intervals: list[RayInterval] = []
    vol_pieces: list[tuple[Fraction, Fraction, Poly]] = []
    left, tau = Fraction(0), None
    while tau is None:
        # grow the support until P(u).C >= 0 just to the right of `left`
        while True:
            m = [[gram[i][j] for j in support] for i in support]
            coeffs = solve_linear_system(m, [rhs[i] for i in support])
            p_polys = list(d_polys)
            for idx, c in zip(support, coeffs):
                p_polys[idx] = p_polys[idx] - c
            p_dot = config.basis_pairings(p_polys)
            entering = [
                j for j, q in enumerate(p_dot)
                if j not in support and (q(left), q.coefficient(1)) < (0, 0)
            ]
            if not entering:
                break
            support = sorted(support + entering)
            if not config.is_negative_definite(support):
                raise InconsistentConfigError(
                    f"support {_names(config, support)} at u = {left} is not negative definite"
                )
            _refuse_negative_pairing(config, entering, f" at u = {left}")
        # P.C = 0 on the support identically: then P.N = 0, vol = P.P, and only outside curves have slopes
        if any(p_dot[i] for i in support):
            raise InconsistentConfigError(
                f"P(u) is not orthogonal to support {_names(config, support)} from u = {left}"
            )
        right = min(
            (-q.coefficient(0) / q.coefficient(1) for q in p_dot if q.coefficient(1) < 0),
            default=None,
        )
        vol = sum((p * q for p, q in zip(p_polys, p_dot)), Poly())
        root = _smallest_rational_root_at_least(vol, left)
        if root is not None and (right is None or root <= right):
            right = tau = root
        elif right is None:
            raise RayNeverEffectiveError("volume does not reach zero at a rational parameter")
        elif _quadratic_negative_on(vol, left, right):
            raise RayNeverEffectiveError("volume crosses zero at an irrational parameter")
        # N's coefficients and P.C are linear in u: >= 0 at both ends is >= 0 throughout
        if any(q(left) < 0 or q(right) < 0 for q in (*coeffs, *p_dot)):
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


def _quadratic_negative_on(q: Poly, lo: Fraction, hi: Fraction) -> bool:
    """True iff the (degree <= 2) polynomial dips below zero on [lo, hi]."""
    if q(lo) < 0 or q(hi) < 0:
        return True
    if q.degree == 2 and q.coefficient(2) > 0:
        vertex = -q.coefficient(1) / (2 * q.coefficient(2))
        if lo < vertex < hi and q(vertex) < 0:
            return True
    return False


def _smallest_rational_root_at_least(q: Poly, lo: Fraction) -> Optional[Fraction]:
    """Smallest rational root of q that is > lo; None if there is none.

    Quadratics are only resolved when the discriminant is a perfect square
    (in the catalog the terminal quadratic is always a multiple of
    (tau - u)^2); otherwise the root is irrational and not representable.
    """
    if q.degree <= 0:
        return None
    if q.degree == 1:
        root = -q.coefficient(0) / q.coefficient(1)
        return root if root > lo else None
    a, b, c = q.coefficient(2), q.coefficient(1), q.coefficient(0)
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    sq = _rational_sqrt(disc)
    if sq is None:
        return None
    roots = sorted({(-b - sq) / (2 * a), (-b + sq) / (2 * a)})
    for r in roots:
        if r > lo:
            return r
    return None


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    num, den = x.as_integer_ratio()
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int) -> Optional[int]:
    r = math.isqrt(n)
    return r if r * r == n else None


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
