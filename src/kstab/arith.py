"""Exact rational arithmetic: univariate polynomials and piecewise polynomials.

Rationals are ``fractions.Fraction`` throughout (arbitrary precision, always
reduced, positive denominator).  A polynomial is stored as integer numerators
over one common denominator, lowest degree first with no trailing zeros, so
its arithmetic runs on Python ints; its coefficients become Fractions only
where they are read.  All operations are pure and all values immutable.
"""

from __future__ import annotations

import math
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


class IntervalNotCoveredError(ValueError):
    """Requested integration range escapes the piecewise domain."""


class DomainMismatchError(ValueError):
    """Two piecewise polynomials do not cover the same total interval."""


class Poly:
    """Univariate polynomial with rational coefficients, lowest degree first.

    A Poly is stored as a tuple of int ``numerators`` over one positive int
    ``denominator``: coefficient i is numerators[i] / denominator.  There is
    no trailing zero numerator and gcd(denominator, *numerators) == 1, so each
    polynomial has exactly one representation (zero is () over 1) and ``==``
    compares ints.  Arithmetic runs on these ints and normalises each result
    with one gcd; the coefficients as Fractions, ``coeffs``, are built the
    first time they are read.
    """

    __slots__ = ("numerators", "denominator", "_coeffs")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        _normalise(self, [c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def from_integers(cls, numerators: Iterable[int], denominator: int) -> "Poly":
        """The polynomial (sum of numerators[i] * u^i) / denominator, for a nonzero denominator."""
        poly = object.__new__(cls)
        _normalise(poly, list(numerators), denominator)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, c: RationalLike) -> "Poly":
        c = rat(c)
        return cls.from_integers((c.numerator,), c.denominator)

    @classmethod
    def variable(cls) -> "Poly":
        return cls.from_integers((0, 1), 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, lowest degree first, no trailing zeros."""
        cs = self._coeffs
        if cs is None:
            den = self.denominator
            cs = tuple(Fraction(x, den) for x in self.numerators)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.numerators == other.numerators and self.denominator == other.denominator
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Poly", self.numerators, self.denominator))

    def __neg__(self) -> "Poly":
        return Poly.from_integers([-x for x in self.numerators], self.denominator)

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if not other.numerators:
            return self
        a, b, den = self.numerators, other.numerators, self.denominator
        if den != other.denominator:
            g = math.gcd(den, other.denominator)
            fa, fb = other.denominator // g, den // g
            a, b, den = [x * fa for x in a], [y * fb for y in b], den * fa
        if len(a) < len(b):
            a, b = b, a
        return Poly.from_integers([x + y for x, y in zip(a, b)] + list(a[len(b):]), den)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return Poly.from_integers([x * p for x in self.numerators], self.denominator * q)
        other = _as_poly(other)
        a, b = self.numerators, other.numerators
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly.from_integers(out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __call__(self, x: RationalLike) -> Fraction:
        x = rat(x)
        p, q = x.numerator, x.denominator
        # Horner on p and q: acc = sum numerators[i] * p^i * q^(degree - i), scale = q^(degree + 1)
        acc, scale = 0, 1
        for c in reversed(self.numerators):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc, self.denominator * scale // q) if acc else Fraction(0)

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.numerators) else Fraction(0)

    def derivative(self) -> "Poly":
        return Poly.from_integers([i * x for i, x in enumerate(self.numerators)][1:], self.denominator)

    def antiderivative(self) -> "Poly":
        # over lcm(1..degree+1), every term x / (i + 1) is an integer multiple of 1/scale
        scale = math.lcm(*range(1, len(self.numerators) + 1))
        return Poly.from_integers(
            [0] + [x * (scale // (i + 1)) for i, x in enumerate(self.numerators)],
            self.denominator * scale,
        )

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


def _normalise(poly: Poly, nums: list[int], den: int) -> None:
    """Set poly to nums / den without trailing zeros, over a positive denominator
    coprime to the numerators (nums is trimmed in place)."""
    while nums and not nums[-1]:
        nums.pop()
    if den < 0:
        nums, den = [-x for x in nums], -den
    g = math.gcd(den, *nums)
    if g != 1:
        nums, den = [x // g for x in nums], den // g
    object.__setattr__(poly, "numerators", tuple(nums))
    object.__setattr__(poly, "denominator", den)
    object.__setattr__(poly, "_coeffs", None)


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
