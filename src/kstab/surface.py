"""Weighted-hypersurface combinatorics and curve-configuration arithmetic.

A ``Quintuple`` records the four ambient weights and the degree of a
hypersurface; ``CurveConfig`` models a finite set of curve classes with an
exact rational Gram matrix, on which all divisor arithmetic runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .arith import RationalLike, rat


class DimensionMismatchError(ValueError):
    """Class vector length does not match the configuration basis."""


@dataclass(frozen=True)
class Quintuple:
    """Ambient weights (a0 <= a1 <= a2 <= a3) and hypersurface degree."""

    weights: tuple[int, int, int, int]
    degree: int

    def __post_init__(self):
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
        return all(math.gcd(w[i], math.gcd(w[j], w[k])) == 1 for i, j, k in triples)

    def ambient_pairing(self, m: int, k: int) -> Fraction:
        """O(m).O(k) restricted to the hypersurface: m*k*d / (a0*a1*a2*a3)."""
        if not self.is_well_formed():
            raise ValueError(f"{self} is not well-formed")
        a0, a1, a2, a3 = self.weights
        return Fraction(m * k * self.degree, a0 * a1 * a2 * a3)

    def __str__(self) -> str:
        return f"S_{self.degree} in P{self.weights}"


def index_of(q: Quintuple) -> int:
    return q.index


def is_well_formed(q: Quintuple) -> bool:
    return q.is_well_formed()


def ambient_pairing(q: Quintuple, m: int, k: int) -> Fraction:
    return q.ambient_pairing(m, k)


@dataclass(frozen=True)
class QuotientSingularity:
    """Cyclic quotient point of type (1/order)(a, b); order 1 means smooth."""

    order: int
    local_weights: tuple[int, int]
    label: str = ""

    def __post_init__(self):
        a, b = self.local_weights
        if self.order < 1 or a < 1 or b < 1:
            raise ValueError("order and local weights must be positive")
        if math.gcd(a, self.order) != 1 or math.gcd(b, self.order) != 1:
            raise ValueError(f"local weights ({a},{b}) must be coprime to {self.order}")
        if math.gcd(a, b) != 1:
            raise ValueError(f"local weights ({a},{b}) must be coprime")

    def is_smooth(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        name = self.label or "point"
        return f"{name}: 1/{self.order}({self.local_weights[0]},{self.local_weights[1]})"


@dataclass(frozen=True)
class SingularPointRecord:
    """A quotient point together with the incident basis curves.

    ``multiplicities`` maps curve names to the local (weighted) intersection
    data the catalog assigns to that curve at the point; curves absent from
    the map do not pass through the point.
    """

    point: QuotientSingularity
    multiplicities: tuple[tuple[str, Fraction], ...] = ()

    @classmethod
    def make(cls, point: QuotientSingularity, mults: Mapping[str, RationalLike] | None = None):
        items = tuple(sorted((k, rat(v)) for k, v in (mults or {}).items()))
        return cls(point, items)

    def multiplicity(self, curve: str) -> Fraction:
        for name, m in self.multiplicities:
            if name == curve:
                return m
        return Fraction(0)


class ClassVector:
    """Rational coefficient vector over a curve-configuration basis."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("ClassVector is immutable")

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, ClassVector):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("ClassVector", self.coeffs))

    def __add__(self, other: "ClassVector") -> "ClassVector":
        if len(self) != len(other):
            raise DimensionMismatchError("vector lengths differ")
        return ClassVector(a + b for a, b in zip(self, other))

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        if len(self) != len(other):
            raise DimensionMismatchError("vector lengths differ")
        return ClassVector(a - b for a, b in zip(self, other))

    def __rmul__(self, c: RationalLike) -> "ClassVector":
        c = rat(c)
        return ClassVector(c * a for a in self)

    def __neg__(self) -> "ClassVector":
        return ClassVector(-a for a in self)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self) -> str:
        return f"ClassVector({', '.join(map(str, self.coeffs))})"


@dataclass(frozen=True)
class CurveConfig:
    """Finite basis of curve classes with their exact intersection pairing.

    ``anticanonical`` is the reference polarization expressed in the basis;
    for configurations obtained by pulling back along a blow-up it is the
    pullback of the downstairs polarization (so its self-intersection is
    preserved and stays positive).
    """

    basis: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    anticanonical: ClassVector
    singular_points: tuple[SingularPointRecord, ...] = ()

    def __post_init__(self):
        k = len(self.basis)
        if len(set(self.basis)) != k or k == 0:
            raise ValueError("basis names must be nonempty and distinct")
        if len(self.gram) != k or any(len(row) != k for row in self.gram):
            raise ValueError("gram matrix must be square of basis size")
        for i in range(k):
            for j in range(k):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        if len(self.anticanonical) != k:
            raise DimensionMismatchError("anticanonical length does not match basis")
        if self.pairing(self.anticanonical, self.anticanonical) <= 0:
            raise ValueError("anticanonical class must have positive self-intersection")

    @classmethod
    def make(
        cls,
        basis: Sequence[str],
        gram: Sequence[Sequence[RationalLike]],
        anticanonical: Sequence[RationalLike] | Mapping[str, RationalLike],
        singular_points: Iterable[SingularPointRecord] = (),
    ) -> "CurveConfig":
        basis = tuple(basis)
        g = tuple(tuple(rat(x) for x in row) for row in gram)
        cfg_vec = (
            tuple(rat(anticanonical.get(name, 0)) for name in basis)
            if isinstance(anticanonical, Mapping)
            else tuple(rat(x) for x in anticanonical)
        )
        return cls(basis, g, ClassVector(cfg_vec), tuple(singular_points))

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
        return ClassVector(values)

    def basis_vector(self, name: str) -> ClassVector:
        i = self.index_of(name)
        return ClassVector(Fraction(int(j == i)) for j in range(self.size))

    def pairing(self, v: ClassVector | Sequence[RationalLike], w: ClassVector | Sequence[RationalLike]) -> Fraction:
        v = v if isinstance(v, ClassVector) else ClassVector(v)
        w = w if isinstance(w, ClassVector) else ClassVector(w)
        if len(v) != self.size or len(w) != self.size:
            raise DimensionMismatchError(
                f"vectors of length {len(v)}, {len(w)} against basis of size {self.size}"
            )
        total = Fraction(0)
        for i, a in enumerate(v):
            if a == 0:
                continue
            row = self.gram[i]
            for j, b in enumerate(w):
                if b != 0:
                    total += a * b * row[j]
        return total

    def is_negative_definite(self, subset: Sequence[int]) -> bool:
        """Every pivot of the principal submatrix, taken without row swaps, is negative.

        Without swaps the k-th pivot is the ratio of the k-th to the (k-1)-th
        leading principal minor, so this is the alternating-sign minor test.
        """
        idx = list(subset)
        if any(i < 0 or i >= self.size for i in idx):
            raise IndexError(f"subset {idx} out of range for basis of size {self.size}")
        sub = [[self.gram[i][j] for j in idx] for i in idx]
        pivots, _ = _eliminate(sub, [Fraction(0)] * len(idx), swap_rows=False)
        return len(pivots) == len(idx) and all(p < 0 for p in pivots)

    def singular_point(self, label: str) -> SingularPointRecord:
        for rec in self.singular_points:
            if rec.point.label == label:
                return rec
        raise KeyError(f"no singular point labelled {label!r}")

    def format_vector(self, v: ClassVector) -> str:
        parts = [f"{c}*{name}" for name, c in zip(self.basis, v) if c != 0]
        return " + ".join(parts) if parts else "0"

    # -- JSON fixture format -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "basis": list(self.basis),
            "gram": [[str(x) for x in row] for row in self.gram],
            "anticanonical": [str(c) for c in self.anticanonical],
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
        points = []
        for rec in data.get("singular_points", []):
            sing = QuotientSingularity(
                order=int(rec["order"]),
                local_weights=tuple(int(w) for w in rec["weights"]),
                label=rec.get("label", ""),
            )
            points.append(SingularPointRecord.make(sing, rec.get("multiplicities", {})))
        return cls.make(
            basis=data["basis"],
            gram=data["gram"],
            anticanonical=data["anticanonical"],
            singular_points=points,
        )


def config_pairing(c: CurveConfig, v, w) -> Fraction:
    return c.pairing(v, w)


def is_negative_definite(c: CurveConfig, subset: Sequence[int]) -> bool:
    return c.is_negative_definite(subset)


def solve_linear_system(matrix: Sequence[Sequence[Fraction]], rhs: Sequence) -> list:
    """Solve M x = rhs exactly; rhs entries may be Fractions or Polys.

    Gaussian elimination with exact pivoting; raises ValueError on singular M.
    """
    _, x = _eliminate(matrix, rhs, swap_rows=True)
    if x is None:
        raise ValueError("singular linear system")
    return x


def _eliminate(matrix: Sequence[Sequence[Fraction]], rhs: Sequence, swap_rows: bool):
    """Gauss-Jordan elimination of M x = rhs; returns (pivots, x).

    With ``swap_rows`` each column pivots on its first nonzero entry at or
    below the diagonal; without it only the diagonal entry is tried.  A column
    with no usable pivot stops the elimination: the pivots found so far are
    returned with x = None.
    """
    n = len(matrix)
    a = [list(row) for row in matrix]
    b = list(rhs)
    pivots = []
    for col in range(n):
        rows = range(col, n) if swap_rows else (col,)
        pivot = next((r for r in rows if a[r][col] != 0), None)
        if pivot is None:
            return pivots, None
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        pivots.append(a[col][col])
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        b[col] = inv * b[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                b[r] = b[r] - factor * b[col]
    return pivots, b
