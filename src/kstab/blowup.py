"""Weighted blow-up transform on curve configurations.

Extracting the exceptional curve of a weighted blow-up with weights (a, b)
over a 1/n-quotient point changes the intersection numbers by an explicit
rational correction, applied as an integer update of the stored Gram rows
(d, G).  The pullback, on ints as well, embeds the downstairs lattice
isometrically into the upstairs one, orthogonal to the new exceptional curve.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Mapping

from .arith import Frozen, RationalLike, coprime, over_common_denominator, rat, ratio
from .surface import ClassVector, CurveConfig, DimensionMismatchError, QuotientSingularity


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
        super().__init__(center, weights, curve_orders, exceptional)
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


class BlowupResult(Frozen):
    """Upstairs configuration plus the pullback bookkeeping."""

    _fields = ("downstairs", "upstairs", "spec", "log_discrepancy_e")

    def pullback(self, v: ClassVector) -> ClassVector:
        """pullback(v) = sum v_i (strict transform of C_i + (w_i/n) E)."""
        if len(v) != self.downstairs.size:
            raise DimensionMismatchError(f"vector of length {len(v)} against basis of size {self.downstairs.size}")
        orders = dict(self.spec.curve_orders)
        o, s = over_common_denominator([orders.get(name, 0) for name in self.downstairs.basis])
        return _pullback(v, o, s * self.spec.center.order)


def transform_config(config: CurveConfig, spec: BlowupSpec) -> BlowupResult:
    """Blow up the center and append the exceptional curve to the basis.

    The center must be one of the configuration's recorded singular points,
    or a smooth point (order 1) which may sit anywhere.
    """
    n = spec.center.order
    a, b = spec.weights
    orders = dict(spec.curve_orders)
    if spec.exceptional in config.basis:
        raise BlowupSpecError(f"name {spec.exceptional!r} already in basis")
    for name in orders:
        if name not in config.basis:
            raise BlowupSpecError(f"curve order given for unknown curve {name!r}")
    if n > 1:
        recorded = next((rec for rec in config.singular_points if rec.point == spec.center), None)
        if recorded is None:
            raise BlowupSpecError(f"center {spec.center} is not a recorded singular point")
        for name, _ in recorded.multiplicities:
            if orders.get(name, 0) == 0:
                raise BlowupSpecError(f"missing vanishing order for curve {name!r} through the center")

    # over d q, q = s^2 n a b (g = G / d, o = O / s): g_ij - o_i o_j / (n a b) is
    # G_ij q - d O_i O_j, E.C_i = o_i / (a b) is d s n O_i and E^2 = -n / (a b) is -d s^2 n^2
    den, g = config.integer_gram
    o, s = over_common_denominator([orders.get(name, 0) for name in config.basis])
    q = s * s * n * a * b
    e_row = [den * s * n * w for w in o]
    rows = [[x * q - den * w * v for x, v in zip(row, o)] + [e] for row, w, e in zip(g, o, e_row)]
    rows.append(e_row + [-den * s * s * n * n])

    points = tuple(rec for rec in config.singular_points if rec.point != spec.center)
    upstairs = CurveConfig(
        basis=tuple(config.basis) + (spec.exceptional,),
        integer_gram=(den * q, rows),
        anticanonical=_pullback(config.anticanonical, o, s * n),
        singular_points=points,
    )
    return BlowupResult(
        downstairs=config,
        upstairs=upstairs,
        spec=spec,
        log_discrepancy_e=ratio(a + b, n),  # log_discrepancy_of_e, whose weight check BlowupSpec made
    )


def _pullback(v: ClassVector, o: list[int], sn: int) -> ClassVector:
    """v and its E coefficient sum v_i w_i / n, w = o / s the orders at the center and sn = s n, on ints."""
    a, t = over_common_denominator(v)
    return ClassVector([*v, ratio(sum(map(operator.mul, a, o)), t * sn)])


def _validate_weights(n: int, a: int, b: int) -> None:
    if n < 1 or a < 1 or b < 1:
        raise BlowupSpecError("blow-up data must be positive integers")
    if not (coprime(a, n) and coprime(b, n)):
        raise BlowupSpecError(f"weights ({a},{b}) must be coprime to {n}")
