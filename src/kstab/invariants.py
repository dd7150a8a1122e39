"""K-stability functionals computed from exact ray decompositions.

All quantities are normalized integrals of the piecewise-quadratic volume
profile (or of the nested-flag integrand built from the positive/negative
parts), evaluated exactly over [0, tau].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .arith import Poly, RationalLike, rat
from .surface import QuotientSingularity
from .zariski import RayDecomposition, _pair_poly


class FlagSupportError(ValueError):
    """The flag curve sits inside its own negative support."""


def s_invariant(rd: RayDecomposition) -> Fraction:
    """Normalized expected vanishing order: (1/A^2) * integral of vol."""
    a2 = rd.config.pairing(rd.ample, rd.ample)
    return rd.volume.integrate(0, rd.tau) / a2


def beta(rd: RayDecomposition, a_value: RationalLike) -> Fraction:
    """Log discrepancy minus the S-invariant of the same ray."""
    return rat(a_value) - s_invariant(rd)


def different_log_discrepancy(point: Optional[QuotientSingularity]) -> Fraction:
    """Adjunction-corrected log discrepancy of a point on a curve.

    1 at smooth points; 1/m at a quotient point of order m (the different
    carries coefficient (m-1)/m there).
    """
    if point is None or point.is_smooth():
        return Fraction(1)
    return Fraction(1, point.order)


def az_s_w(
    rd: RayDecomposition,
    y: int | str,
    point_multiplicities: Mapping[str, RationalLike] | None = None,
) -> Fraction:
    """Nested-flag S-invariant of a point on the flag curve Y.

    The ray must decompose A - uY.  The integrand is
    deg(u) * ord(u) + deg(u)^2 / 2, where deg(u) = P(u).Y and ord(u) sums the
    negative-part coefficients of the support curves weighted by their local
    multiplicity against Y at the point.  The result is normalized by 2/A^2.
    """
    config = rd.config
    y_index = config.index_of(y) if isinstance(y, str) else y
    mults = {
        config.index_of(name): rat(m)
        for name, m in (point_multiplicities or {}).items()
    }

    a2 = config.pairing(rd.ample, rd.ample)
    total = Fraction(0)
    for iv in rd.intervals:
        if y_index in iv.support:
            raise FlagSupportError(
                f"flag curve {config.basis[y_index]} lies in its own negative support"
            )
        deg = _pair_poly(config, iv.positive_part, y_index)
        ord_term = Poly()
        for idx, coeff in zip(iv.support, iv.negative_coeffs):
            m = mults.get(idx, Fraction(0))
            if m != 0:
                ord_term = ord_term + Poly.constant(m) * coeff
        h = deg * ord_term + Poly.constant(Fraction(1, 2)) * deg * deg
        total += h.integrate(iv.left, iv.right)
    return 2 * total / a2


@dataclass(frozen=True)
class DeltaBoundReport:
    """Local stability-threshold lower bound min(1/S(Y), A_Y(p)/S_W)."""

    point_label: str
    one_over_s_y: Fraction
    a_over_s_w: Fraction

    @property
    def delta_lower(self) -> Fraction:
        return min(self.one_over_s_y, self.a_over_s_w)

    def to_json_dict(self) -> dict:
        return {
            "point": self.point_label,
            "one_over_s_y": str(self.one_over_s_y),
            "a_over_s_w": str(self.a_over_s_w),
            "delta_lower": str(self.delta_lower),
        }


def delta_lower_bound(
    s_y: RationalLike,
    a_y_p: RationalLike,
    s_w: RationalLike,
    point_label: str = "",
) -> DeltaBoundReport:
    s_y, a_y_p, s_w = rat(s_y), rat(a_y_p), rat(s_w)
    if s_y <= 0 or a_y_p <= 0 or s_w <= 0:
        raise ValueError("delta bound inputs must be positive")
    return DeltaBoundReport(point_label, 1 / s_y, a_y_p / s_w)


def k_basis_bound(rd: RayDecomposition) -> Fraction:
    """Supremal fixed-curve coefficient in an asymptotic basis-type class.

    Equals the normalized volume integral of the decomposed ray; callers pick
    the reference class as the ray's ample class.
    """
    return s_invariant(rd)


def proportional_bound(mu: RationalLike) -> Fraction:
    """Coefficient bound 1/(3*mu) for a curve proportional to the reference class."""
    mu = rat(mu)
    if mu <= 0:
        raise ValueError("proportionality factor must be positive")
    return 1 / (3 * mu)
