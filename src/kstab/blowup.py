"""Weighted blow-up transform on curve configurations.

Extracting the exceptional curve of a weighted blow-up with weights (a, b)
over a 1/n-quotient point changes the intersection numbers by an explicit
rational correction, applied as an integer update of the stored Gram rows
(d, G); the pullback map embeds the downstairs lattice isometrically into
the upstairs one, orthogonal to the new exceptional curve.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .arith import Frozen, RationalLike, coprime, over_common_denominator, rat, ratio
from .surface import ClassVector, CurveConfig, QuotientSingularity


class BlowupSpecError(ValueError):
    """Malformed blow-up data: bad weights, missing orders, unknown center."""


def exceptional_self_intersection(n: int, a: int, b: int) -> Fraction:
    """Self-intersection of the exceptional curve: -n/(a*b)."""
    _validate_weights(n, a, b)
    return Fraction(-n, a * b)


def log_discrepancy_of_e(n: int, a: int, b: int) -> Fraction:
    """Log discrepancy of the exceptional curve: (a+b)/n."""
    _validate_weights(n, a, b)
    return ratio(a + b, n)


class BlowupSpec(Frozen):
    """Center, blow-up weights, and each basis curve's local vanishing order.

    ``curve_orders`` maps a curve name to its weighted vanishing order w at
    the center; the strict transform is pullback(C) - (w/n) E.  Curves not
    listed are taken to miss the center (order 0).
    """

    _fields = ("center", "weights", "curve_orders", "exceptional")

    def __init__(self, center: QuotientSingularity, weights: tuple[int, int], curve_orders: tuple, exceptional="E"):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "curve_orders", curve_orders)
        object.__setattr__(self, "exceptional", exceptional)
        a, b = weights
        _validate_weights(center.order, a, b)
        for name, w in curve_orders:
            if w < 0:
                raise BlowupSpecError(f"negative vanishing order for {name}")

    @classmethod
    def make(
        cls,
        center: QuotientSingularity,
        weights: tuple[int, int],
        curve_orders: Mapping[str, RationalLike],
        exceptional: str = "E",
    ) -> "BlowupSpec":
        orders = tuple(sorted((k, rat(v)) for k, v in curve_orders.items()))
        return cls(center, tuple(weights), orders, exceptional)

    def order_of(self, curve: str) -> Fraction:
        for name, w in self.curve_orders:
            if name == curve:
                return w
        return Fraction(0)


class BlowupResult(NamedTuple):
    """Upstairs configuration plus the pullback bookkeeping."""

    downstairs: CurveConfig
    upstairs: CurveConfig
    spec: BlowupSpec
    log_discrepancy_e: Fraction

    def pullback(self, v: ClassVector) -> ClassVector:
        """pullback(v) = sum v_i (strict transform of C_i + (w_i/n) E)."""
        if len(v) != self.downstairs.size:
            raise ValueError("vector does not live on the downstairs basis")
        orders = [self.spec.order_of(name) for name in self.downstairs.basis]
        return _pullback(v, orders, self.spec.center.order)


def transform_config(config: CurveConfig, spec: BlowupSpec) -> BlowupResult:
    """Blow up the center and append the exceptional curve to the basis.

    The center must be one of the configuration's recorded singular points,
    or a smooth point (order 1) which may sit anywhere.
    """
    n = spec.center.order
    a, b = spec.weights
    if spec.exceptional in config.basis:
        raise BlowupSpecError(f"name {spec.exceptional!r} already in basis")
    for name, _ in spec.curve_orders:
        if name not in config.basis:
            raise BlowupSpecError(f"curve order given for unknown curve {name!r}")
    if n > 1:
        recorded = next(
            (rec for rec in config.singular_points if rec.point == spec.center), None
        )
        if recorded is None:
            raise BlowupSpecError(
                f"center {spec.center} is not a recorded singular point"
            )
        for name, _ in recorded.multiplicities:
            if spec.order_of(name) == 0:
                raise BlowupSpecError(
                    f"missing vanishing order for curve {name!r} through the center"
                )

    orders = [spec.order_of(name) for name in config.basis]
    # over d q, q = s^2 n a b (g = G / d, o = O / s): g_ij - o_i o_j / (n a b) is
    # G_ij q - d O_i O_j, E.C_i = o_i / (a b) is d s n O_i and E^2 = -n / (a b) is -d s^2 n^2
    den, g = config.integer_gram
    o, s = over_common_denominator(orders)
    q = s * s * n * a * b
    e_row = [den * s * n * w for w in o]
    rows = [[x * q - den * w * v for x, v in zip(row, o)] + [e] for row, w, e in zip(g, o, e_row)]
    rows.append(e_row + [-den * s * s * n * n])

    points = tuple(
        rec for rec in config.singular_points if rec.point != spec.center
    )
    upstairs = CurveConfig(
        basis=tuple(config.basis) + (spec.exceptional,),
        integer_gram=(den * q, rows),
        anticanonical=_pullback(config.anticanonical, orders, n),
        singular_points=points,
    )
    return BlowupResult(
        downstairs=config,
        upstairs=upstairs,
        spec=spec,
        log_discrepancy_e=log_discrepancy_of_e(n, a, b),
    )


def _pullback(v: ClassVector, orders: list[Fraction], n: int) -> ClassVector:
    """v followed by its E coefficient sum v_i w_i / n, w_i the vanishing orders at the center."""
    return ClassVector(list(v) + [sum((c * w for c, w in zip(v, orders)), Fraction(0)) / n])


def _validate_weights(n: int, a: int, b: int) -> None:
    if n < 1 or a < 1 or b < 1:
        raise BlowupSpecError("blow-up data must be positive integers")
    if not (coprime(a, n) and coprime(b, n)):
        raise BlowupSpecError(f"weights ({a},{b}) must be coprime to {n}")
