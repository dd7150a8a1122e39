"""Weighted-hypersurface combinatorics and curve-configuration arithmetic.

A ``Quintuple`` records the four ambient weights and the degree of a
hypersurface; ``CurveConfig`` models a finite set of curve classes with an
exact rational Gram matrix, on which all divisor arithmetic runs.

Linear algebra on the Gram matrix goes through one fraction-free (Bareiss)
elimination kernel: rows are cleared of denominators and eliminated on
integers, where every division is exact by Sylvester's identity.  The same
pass decides negative definiteness from the signs of the leading principal
minors and solves linear systems, returning exact Fractions (or Polys).
Pairings run on the same footing: a configuration stores its Gram matrix
once, as int rows over one denominator (its Fractions are a view), and
``pairing`` and ``basis_pairings`` share one integer product with it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .arith import Frozen, Poly, RationalLike, _normalise, _over_lcm, _quotient_str, coprime, gcd, over_common_denominator, rat, ratio


class DimensionMismatchError(ValueError):
    """Class vector length does not match the configuration basis."""


class Quintuple(Frozen):
    """Ambient weights (a0 <= a1 <= a2 <= a3) and hypersurface degree."""

    _fields = ("weights", "degree")

    def __init__(self, weights: tuple[int, int, int, int], degree: int):
        super().__init__(weights, degree)
        if len(self.weights) != 4 or any(w <= 0 for w in self.weights):
            raise ValueError("weights must be four positive integers")
        if list(self.weights) != sorted(self.weights):
            raise ValueError("weights must be sorted ascending")
        if self.degree <= 0:
            raise ValueError("degree must be positive")

    @property
    def index(self) -> int:
        return sum(self.weights) - self.degree

    def is_well_formed(self) -> bool:
        """True iff every three of the four weights are coprime."""
        w = self.weights
        triples = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        return all(coprime(w[i], w[j], w[k]) for i, j, k in triples)

    def ambient_pairing(self, m: int, k: int) -> Fraction:
        """O(m).O(k) restricted to the hypersurface: m*k*d / (a0*a1*a2*a3)."""
        if not self.is_well_formed():
            raise ValueError(f"{self} is not well-formed")
        a0, a1, a2, a3 = self.weights
        return ratio(m * k * self.degree, a0 * a1 * a2 * a3)

    def __str__(self) -> str:
        return f"S_{self.degree} in P{self.weights}"


index_of = Quintuple.index.fget
is_well_formed = Quintuple.is_well_formed
ambient_pairing = Quintuple.ambient_pairing


class QuotientSingularity(Frozen):
    """Cyclic quotient point of type (1/order)(a, b); order 1 means smooth."""

    _fields = ("order", "local_weights", "label")

    def __init__(self, order: int, local_weights: tuple[int, int], label: str = ""):
        super().__init__(order, local_weights, label)
        a, b = self.local_weights
        if self.order < 1 or a < 1 or b < 1:
            raise ValueError("order and local weights must be positive")
        if not (coprime(a, self.order) and coprime(b, self.order)):
            raise ValueError(f"local weights ({a},{b}) must be coprime to {self.order}")
        if math.gcd(a, b) != 1:
            raise ValueError(f"local weights ({a},{b}) must be coprime")

    def is_smooth(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        name = self.label or "point"
        return f"{name}: 1/{self.order}({self.local_weights[0]},{self.local_weights[1]})"


class SingularPointRecord(Frozen):
    """A quotient point together with the incident basis curves.

    ``multiplicities`` holds (curve name, local (weighted) intersection) pairs,
    the data the catalog assigns to that curve at the point, sorted by name;
    curves absent from it do not pass through the point.
    """

    _fields = ("point", "multiplicities")

    @classmethod
    def make(cls, point: QuotientSingularity, mults: Mapping[str, RationalLike] | None = None):
        items = tuple(sorted((k, rat(v)) for k, v in (mults or {}).items()))
        return cls(point, items)

    def multiplicity(self, curve: str) -> Fraction:
        for name, m in self.multiplicities:
            if name == curve:
                return m
        return Fraction(0)


class ClassVector(Frozen):
    """Rational coefficient vector over a curve-configuration basis.

    Stored as a ``Poly`` is: a tuple of int ``numerators`` over one positive
    int ``denominator`` coprime to them, so each vector has one representation
    and ``==`` and ``hash`` compare ints.  ``+``, ``-``, scalar ``*`` and
    negation run on the ints; ``coeffs``, iteration and indexing build the
    coefficients as Fractions where they are read.  Over Q(n) (``kstab.plan``)
    the denominator is folded into the numerators, as for a Poly.
    """

    __slots__ = _fields = ("numerators", "denominator")

    def __init__(self, coeffs: Iterable[RationalLike]):
        _normalise(self, *over_common_denominator([rat(c) for c in coeffs]))

    @classmethod
    def from_integers(cls, numerators: Iterable[int], denominator: int) -> "ClassVector":
        """The vector numerators / denominator, for a nonzero denominator."""
        vector = object.__new__(cls)
        _normalise(vector, list(numerators), denominator)
        return vector

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.denominator
        return tuple(ratio(x, den) for x in self.numerators)

    def __len__(self) -> int:
        return len(self.numerators)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        return ratio(self.numerators[i], self.denominator)

    def __add__(self, other: "ClassVector | Sequence[RationalLike]") -> "ClassVector":
        other = _as_vector(other)
        if len(self) != len(other):
            raise DimensionMismatchError("vector lengths differ")
        a, b, den = _over_lcm(self, other)
        return ClassVector.from_integers(map(operator.add, a, b), den)

    def __sub__(self, other: "ClassVector | Sequence[RationalLike]") -> "ClassVector":
        return self + -_as_vector(other)

    def __rmul__(self, c: RationalLike) -> "ClassVector":
        c = rat(c)
        p = c.numerator
        return ClassVector.from_integers([p * x for x in self.numerators], c.denominator * self.denominator)

    def __neg__(self) -> "ClassVector":
        return ClassVector.from_integers([-x for x in self.numerators], self.denominator)

    def is_zero(self) -> bool:
        return not any(self.numerators)

    def __repr__(self) -> str:
        return f"ClassVector({', '.join(map(str, self.coeffs))})"


def _as_vector(x: ClassVector | Sequence[RationalLike]) -> ClassVector:
    return x if isinstance(x, ClassVector) else ClassVector(x)


class CurveConfig(Frozen):
    """Finite basis of curve classes with their exact intersection pairing.

    The Gram matrix is stored once, as ``integer_gram`` = (d, G) for G / d:
    d > 0 and int rows G, which ``__init__`` brings to lowest terms so
    that ``==`` and ``hash`` compare values.  ``gram`` is its Fraction view;
    ``to_json_dict`` renders (d, G) without building it.

    ``anticanonical`` is the reference polarization expressed in the basis;
    for configurations obtained by pulling back along a blow-up it is the
    pullback of the downstairs polarization (so its self-intersection is
    preserved and stays positive).
    """

    _fields = ("basis", "integer_gram", "anticanonical", "singular_points")

    def __init__(self, basis: tuple[str, ...], integer_gram: tuple, anticanonical: ClassVector, singular_points=()):
        k = len(basis)
        if len(set(basis)) != k or k == 0:
            raise ValueError("basis names must be nonempty and distinct")
        den, gram = integer_gram
        if den <= 0 or len(gram) != k or any(len(row) != k for row in gram):
            raise ValueError("gram matrix must be square of basis size, over a positive denominator")
        g = 1 if den == 1 else gcd(den, *(x for row in gram for x in row))
        if g != 1:
            den, gram = den // g, [[x // g for x in row] for row in gram]
        gram = tuple(map(tuple, gram))
        super().__init__(basis, (den, gram), anticanonical, singular_points)
        if gram != tuple(zip(*gram)):
            raise ValueError("gram matrix must be symmetric")
        if len(self.anticanonical) != k:
            raise DimensionMismatchError("anticanonical length does not match basis")
        a = self.anticanonical.numerators  # A = a / t: A.A has the sign of a.(G a), d > 0
        if sum(map(operator.mul, a, self._gram_times(a))) <= 0:
            raise ValueError("anticanonical class must have positive self-intersection")

    @classmethod
    def make(
        cls,
        basis: Sequence[str],
        gram: Sequence[Sequence[RationalLike]],
        anticanonical: Sequence[RationalLike],
        singular_points: Iterable[SingularPointRecord] = (),
    ) -> "CurveConfig":
        ints, den = over_common_denominator([rat(x) for row in gram for x in row])
        ints = iter(ints)
        rows = [[next(ints) for _ in row] for row in gram]
        return cls(tuple(basis), (den, rows), ClassVector(anticanonical), tuple(singular_points))

    @property
    def size(self) -> int:
        return len(self.basis)

    def index_of(self, name: str) -> int:
        try:
            return self.basis.index(name)
        except ValueError:
            raise KeyError(f"no basis curve named {name!r}") from None

    def vector(self, values: Mapping[str, RationalLike] | Sequence[RationalLike]) -> ClassVector:
        if isinstance(values, Mapping):
            unknown = set(values) - set(self.basis)
            if unknown:
                raise KeyError(f"unknown curve names {sorted(unknown)}")
            return ClassVector(rat(values.get(name, 0)) for name in self.basis)
        if len(values) != self.size:
            raise DimensionMismatchError(f"vector of length {len(values)} against basis of size {self.size}")
        return ClassVector(values)

    def basis_vector(self, name: str) -> ClassVector:
        i = self.index_of(name)
        return ClassVector.from_integers([int(j == i) for j in range(self.size)], 1)

    @cached_property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        """The Gram matrix G / d as Fractions, built the first time it is read."""
        den, gram = self.integer_gram
        return tuple(tuple(Fraction(x, den) for x in row) for row in gram)

    def pairing(self, v: ClassVector | Sequence[RationalLike], w: ClassVector | Sequence[RationalLike]) -> Fraction:
        v, w = _as_vector(v), _as_vector(w)
        if len(v) != self.size or len(w) != self.size:
            raise DimensionMismatchError(
                f"vectors of length {len(v)}, {len(w)} against basis of size {self.size}"
            )
        total = sum(map(operator.mul, v.numerators, self._gram_times(w.numerators)))
        return ratio(total, self.integer_gram[0] * v.denominator * w.denominator)

    def basis_pairings(self, coords: Sequence) -> list:
        """coords . C_j for every basis curve C_j, in basis order.

        The coordinates are all Polys, giving Polys, or all Fractions (a
        ``ClassVector``, say), giving Fractions.  A vector's int numerators, or
        the Polys' scaled to the lcm of their denominators, are multiplied by
        the integer Gram matrix, once per polynomial degree; only the results
        become Fractions or Polys.
        """
        if len(coords) != self.size:
            raise DimensionMismatchError(f"vector of length {len(coords)} against basis of size {self.size}")
        den, _ = self.integer_gram
        if not isinstance(coords, ClassVector) and not isinstance(coords[0], Poly):
            coords = ClassVector(coords)
        if isinstance(coords, ClassVector):
            scale = den * coords.denominator
            return [ratio(t, scale) for t in self._gram_times(coords.numerators)]
        scale = math.lcm(*(c.denominator for c in coords))
        columns = [[x * (scale // c.denominator) for x in c.numerators] for c in coords]
        products = [
            self._gram_times([col[d] if d < len(col) else 0 for col in columns])
            for d in range(max(map(len, columns)))
        ]
        return [Poly.from_integers([p[j] for p in products], den * scale) for j in range(self.size)]

    def _gram_times(self, x: Sequence[int]) -> list[int]:
        """G x on ints, G the (symmetric) integer Gram matrix: entry j is x . C_j times d."""
        return [sum(map(operator.mul, row, x)) for row in self.integer_gram[1]]

    def is_negative_definite(self, subset: Sequence[int]) -> bool:
        """The k-th leading principal minor of the submatrix has sign (-1)^k for every k.

        The minors are the pivots of fraction-free elimination without row
        swaps (see ``_eliminate``); this is the same test as every Gaussian
        pivot, the ratio of consecutive minors, being negative.  They are
        taken on the integer Gram matrix d * gram, which scales the k-th
        minor by d^k > 0 and so keeps its sign.
        """
        idx = list(subset)
        if any(i < 0 or i >= self.size for i in idx):
            raise IndexError(f"subset {idx} out of range for basis of size {self.size}")
        _, gram = self.integer_gram
        minors, _ = _eliminate([[gram[i][j] for j in idx] for i in idx], swap_rows=False)
        return len(minors) == len(idx) and all(
            (m < 0) == (k % 2 == 0) for k, m in enumerate(minors)
        )

    def singular_point(self, label: str) -> SingularPointRecord:
        for rec in self.singular_points:
            if rec.point.label == label:
                return rec
        raise KeyError(f"no singular point labelled {label!r}")

    # -- JSON fixture format -------------------------------------------------

    def to_json_dict(self) -> dict:
        den, gram = self.integer_gram
        a = self.anticanonical
        return {
            "basis": list(self.basis),
            "gram": [[_quotient_str(x, den) for x in row] for row in gram],
            "anticanonical": [_quotient_str(x, a.denominator) for x in a.numerators],
            "singular_points": [
                {
                    "label": rec.point.label,
                    "order": rec.point.order,
                    "weights": list(rec.point.local_weights),
                    "multiplicities": {name: str(m) for name, m in rec.multiplicities},
                }
                for rec in self.singular_points
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "CurveConfig":
        """The config that data, a ``to_json_dict`` object, describes.  It is read as
        ``kstab.catalog`` reads an ``analyze`` fixture's config: the same JSON types,
        catalog expressions, integer orders and coprime weights, and a one-line
        CatalogError that names the field where data is malformed."""
        from .catalog import load_fixture

        config, _ = load_fixture("curve configuration", {"config": data})
        return config


config_pairing = CurveConfig.pairing
is_negative_definite = CurveConfig.is_negative_definite


def solve_linear_system(matrix: Sequence[Sequence[Fraction]], rhs: Sequence) -> list:
    """Solve M x = rhs exactly; M's entries may be Fractions or ints, rhs entries Fractions, ints or Polys.

    A Poly right-hand side is split into one column per coefficient, so every
    coefficient is solved in the same elimination; the solution is a list of
    Polys if any rhs entry is a Poly, else of Fractions.  Raises ValueError on
    singular M.
    """
    polys = any(isinstance(b, Poly) for b in rhs)
    if polys:
        rhs = [b if isinstance(b, Poly) else Poly.constant(b) for b in rhs]
        width = max(len(b.numerators) for b in rhs)
        tails = [(b.numerators + (0,) * (width - len(b.numerators)), b.denominator) for b in rhs]
    else:
        tails = [((b.numerator,), b.denominator) for b in rhs]
    rows = []
    for row, (tail, tail_den) in zip(matrix, tails):
        if _INT.issuperset(map(type, row)):  # an int row is taken as it is, over the tail's denominator
            rows.append([*row, *tail] if tail_den == 1 else [x * tail_den for x in row] + list(tail))
        else:
            ints, scale = over_common_denominator(row, tail_den)
            rows.append(ints + [t * (scale // tail_den) for t in tail])
    pivots, y = _eliminate(rows, swap_rows=True)
    if y is None:
        raise ValueError("singular linear system")
    det = pivots[-1] if pivots else 1
    if polys:
        return [Poly.from_integers([col[i] for col in y], det) for i in range(len(matrix))]
    return [Fraction(v, det) for v in y[0]] if y else []


_INT = frozenset({int})


def _eliminate(rows: list[list[int]], swap_rows: bool):
    """Fraction-free (Bareiss) elimination of the integer rows [M | b...].

    M is the leading square block and each further column is a right-hand
    side b; the rows are changed in place.  Step c replaces each entry a_rj
    (r, j > c) by (p a_rj - a_rc a_cj) / p', with p the current pivot and p'
    the previous one; by Sylvester's identity the result is a minor of M, so
    the division is exact.  Without row swaps the c-th pivot is the c-th
    leading principal minor.  Back-substitution then solves for det * x,
    which is integral by Cramer's rule, det being the last pivot (1 for an
    empty M).

    With ``swap_rows`` each column pivots on its first nonzero entry at or
    below the diagonal; without it only the diagonal entry is tried.  Returns
    (pivots, y) with y[b][i] = det * (the i-th unknown for column b); a column
    of M with no usable pivot stops the elimination, returning the pivots
    found so far with y = None.  A linear system's rows are first scaled by
    the lcm of their denominators (``over_common_denominator``), a positive
    factor that changes neither the solution nor the minors' signs.
    """
    n = len(rows)
    pivots = []
    prev = 1
    for c in range(n):
        candidates = range(c, n) if swap_rows else (c,)
        pivot = next((r for r in candidates if rows[r][c]), None)
        if pivot is None:
            return pivots, None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        top = rows[c]
        p = top[c]
        pivots.append(p)
        for r in range(c + 1, n):
            row = rows[r]
            f = row[c]
            row[c + 1:] = [(p * a - f * b) // prev for a, b in zip(row[c + 1:], top[c + 1:])]
        prev = p
    y = []
    for j in range(n, len(rows[0]) if rows else n):
        col = [0] * n
        for i in reversed(range(n)):
            row = rows[i]
            acc = prev * row[j] - sum(row[t] * col[t] for t in range(i + 1, n))
            col[i] = acc // row[i]
        y.append(col)
    return pivots, y
