"""Exact rational arithmetic: univariate polynomials and piecewise polynomials.

Rationals are ``fractions.Fraction`` throughout (arbitrary precision, always
reduced, positive denominator).  Polynomials store coefficients lowest degree
first with no trailing zeros; the zero polynomial has an empty coefficient
tuple.  All operations are pure and all values immutable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]


def rat(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction.

    Floats are refused with TypeError and a zero denominator with ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def format_rational(x: Fraction, approx_digits: int = 6) -> str:
    """Render 'p/q (~d.dddddd)' for human-readable report lines."""
    return f"{x} (~{float(x):.{approx_digits}f})"


class IntervalNotCoveredError(ValueError):
    """Requested integration range escapes the piecewise domain."""


class DomainMismatchError(ValueError):
    """Two piecewise polynomials do not cover the same total interval."""


class Poly:
    """Univariate polynomial with Fraction coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, c: RationalLike) -> "Poly":
        return cls((rat(c),))

    @classmethod
    def variable(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, x: RationalLike) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def antiderivative(self) -> "Poly":
        return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def integrate(self, a: RationalLike, b: RationalLike) -> Fraction:
        anti = self.antiderivative()
        return anti(b) - anti(a)

    def format(self, var: str = "u") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                power = var if i == 1 else f"{var}^{i}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.format()})"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.constant(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def poly_eval(p: Poly, x: RationalLike) -> Fraction:
    """Evaluate p at x exactly."""
    return p(x)


class PiecewisePoly:
    """Polynomial pieces on contiguous rational intervals.

    Pieces are (left, right, poly) with left < right and piece[i].right ==
    piece[i+1].left.  Adjacent pieces carrying the same polynomial are merged
    on construction so equal functions compare equal.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[tuple[RationalLike, RationalLike, Poly]]):
        normalized: list[tuple[Fraction, Fraction, Poly]] = []
        for left, right, poly in pieces:
            left, right = rat(left), rat(right)
            if not isinstance(poly, Poly):
                raise TypeError("piece payload must be a Poly")
            if left >= right:
                raise ValueError(f"degenerate piece [{left}, {right}]")
            if normalized:
                if normalized[-1][1] != left:
                    raise ValueError(
                        f"pieces are not contiguous at {normalized[-1][1]} vs {left}"
                    )
                if normalized[-1][2] == poly:
                    prev = normalized.pop()
                    left = prev[0]
            normalized.append((left, right, poly))
        if not normalized:
            raise ValueError("a piecewise polynomial needs at least one piece")
        object.__setattr__(self, "pieces", tuple(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("PiecewisePoly is immutable")

    @classmethod
    def single(cls, left: RationalLike, right: RationalLike, poly: Poly) -> "PiecewisePoly":
        return cls([(left, right, poly)])

    @property
    def left(self) -> Fraction:
        return self.pieces[0][0]

    @property
    def right(self) -> Fraction:
        return self.pieces[-1][1]

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple([p[0] for p in self.pieces] + [self.right])

    def __eq__(self, other) -> bool:
        if isinstance(other, PiecewisePoly):
            return self.pieces == other.pieces
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("PiecewisePoly", self.pieces))

    def piece_at(self, x: RationalLike) -> tuple[Fraction, Fraction, Poly]:
        x = rat(x)
        if x < self.left or x > self.right:
            raise IntervalNotCoveredError(f"{x} outside domain [{self.left}, {self.right}]")
        for left, right, poly in self.pieces:
            if left <= x < right:
                return left, right, poly
        return self.pieces[-1]

    def __call__(self, x: RationalLike) -> Fraction:
        return self.piece_at(x)[2](x)

    def integrate(self, a: RationalLike, b: RationalLike) -> Fraction:
        a, b = rat(a), rat(b)
        if a > b:
            return -self.integrate(b, a)
        if a < self.left or b > self.right:
            raise IntervalNotCoveredError(
                f"[{a}, {b}] not contained in [{self.left}, {self.right}]"
            )
        total = Fraction(0)
        for left, right, poly in self.pieces:
            lo, hi = max(a, left), min(b, right)
            if lo < hi:
                total += poly.integrate(lo, hi)
        return total

    def combine(self, other: "PiecewisePoly", op: str) -> "PiecewisePoly":
        if op not in ("add", "mul"):
            raise ValueError(f"unknown combine op {op!r}")
        if self.left != other.left or self.right != other.right:
            raise DomainMismatchError(
                f"domains differ: [{self.left}, {self.right}] vs [{other.left}, {other.right}]"
            )
        cuts = sorted(set(self.breakpoints) | set(other.breakpoints))
        out = []
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            p = self.piece_at(mid)[2]
            q = other.piece_at(mid)[2]
            out.append((lo, hi, p + q if op == "add" else p * q))
        return PiecewisePoly(out)

    def scaled(self, c: RationalLike) -> "PiecewisePoly":
        c = rat(c)
        return PiecewisePoly([(l, r, Poly.constant(c) * p) for l, r, p in self.pieces])

    def format(self, var: str = "u") -> str:
        return "; ".join(
            f"[{l}, {r}]: {p.format(var)}" for l, r, p in self.pieces
        )

    def __repr__(self) -> str:
        return f"PiecewisePoly({self.format()})"


def piecewise_integrate(f: PiecewisePoly, a: RationalLike, b: RationalLike) -> Fraction:
    """Exact definite integral of f over [a, b] (must lie in f's domain)."""
    return f.integrate(a, b)


def piecewise_combine(f: PiecewisePoly, g: PiecewisePoly, op: str) -> PiecewisePoly:
    """Pointwise sum or product on the common refinement of breakpoints."""
    return f.combine(g, op)
