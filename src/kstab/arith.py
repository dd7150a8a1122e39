"""Exact rational arithmetic: univariate polynomials and piecewise polynomials.

Rationals are ``fractions.Fraction`` throughout (arbitrary precision, always
reduced, positive denominator).  A polynomial is stored as integer numerators
over one common denominator, lowest degree first with no trailing zeros, so
its arithmetic runs on Python ints; its coefficients become Fractions only
where they are read.  All operations are pure and all values immutable.
"""

from __future__ import annotations

import math
import operator
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
    if isinstance(x, RationalFunction):  # a number over Q(n), see kstab.plan
        return x
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# The pipeline also runs on kstab.plan's numbers over Q(n), which are exact but no ints;
# the few builtins it calls on ints only go through these helpers.


def ratio(p, q):
    """Fraction(p, q) for ints p and q, else the exact quotient p / q."""
    return Fraction(p, q) if type(p) is int and type(q) is int else p / q


def isqrt(x):
    """math.isqrt(x) for an int, else the number's own exact square root."""
    return math.isqrt(x) if type(x) is int else x.isqrt()


def gcd(*xs):
    """math.gcd of ints, for rescaling only; 1 where a number over Q(n) is among them, a unit of
    that field.  A test of coprimality goes through ``coprime``."""
    try:
        return math.gcd(*xs)
    except TypeError:
        if any(isinstance(x, RationalFunction) for x in xs):
            return 1
        raise


def coprime(*xs) -> bool:
    """Whether math.gcd(*xs) == 1.  Where a number over Q(n) is among them, its own ``coprime``
    answers, as at one n, and keeps the test as a guard of the other n."""
    for x in xs:
        if isinstance(x, RationalFunction):
            return x.coprime(xs)
    return math.gcd(*xs) == 1


def is_integer(x) -> bool:
    """Whether x's denominator is 1; a number over Q(n) answers as ``coprime`` does."""
    return x.is_integer() if isinstance(x, RationalFunction) else x.denominator == 1


def over_common_denominator(values, den: int = 1) -> tuple[list, int]:
    """(ints, s): s > 0 the lcm of den and the values' denominators, ints the values times s."""
    scale = math.lcm(den, *(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


class Frozen:
    """An immutable value with named fields: the base of every kstab value, record or number.
    Assigning or deleting an attribute raises AttributeError.  The fields give ``==`` (between
    values of one class), ``hash`` and the repr ``Name(field=value, ...)``.

    A record is no tuple, no sequence and no number: it is not indexed, unpacked or added, and
    JSON does not write it as an array.  ``__init__`` takes one value for each field of the
    class's ``_fields``, by position or by name, and raises TypeError naming the fields if one
    is missing or extra; a class that checks its values or has defaults calls it once.  A
    record keeps an instance ``__dict__``, where a ``functools.cached_property`` writes.

    A number (Poly, PiecewisePoly, RationalFunction, ClassVector) declares
    ``__slots__ = _fields`` and has no ``__dict__``.  It keeps its own constructors, arithmetic
    and repr, and builds its values with ``object.__setattr__``.  Only Poly keeps its own
    ``==``: it equals an equal int or Fraction, hashes as one where it is a constant, and
    compares coefficients over Q(n) without a guard."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # _values(value): the tuple of its fields, or with one field the field's value
        cls._values = operator.attrgetter(*cls._fields)

    def __init__(self, *values, **named):
        fields = self._fields
        if len(values) + len(named) != len(fields) or named and named.keys() != set(fields[len(values):]):
            raise TypeError(
                f"{type(self).__qualname__} takes the fields ({', '.join(fields)}), "
                f"got {len(values)} by position and ({', '.join(named)}) by name"
            )
        # one by one and in field order, not through vars(self): on CPython 3.11 a materialised
        # instance __dict__ makes each later attribute read about three times slower
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        for name in fields[len(values):]:
            object.__setattr__(self, name, named[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Min(Frozen):
    """min(first, second) where no one side is the smaller at every n, taken at each n.  It is
    no number, no tuple and no sequence: arithmetic on it raises TypeError."""

    _fields = ("first", "second")


def minimum(a, b):
    """min(a, b), which is b only where b < a.  Where a number over Q(n) is on either side, its
    own ``minimum`` answers and may keep a _Min node; a _Min on either side gives one."""
    if isinstance(a, _Min) or isinstance(b, _Min):
        return _Min(a, b)
    if isinstance(a, RationalFunction) or isinstance(b, RationalFunction):
        return (a if isinstance(a, RationalFunction) else b).minimum(a, b)
    return min(a, b)


class IntervalNotCoveredError(ValueError):
    """Requested integration range escapes the piecewise domain."""


class DomainMismatchError(ValueError):
    """Two piecewise polynomials do not cover the same total interval."""


class Poly(Frozen):
    """Univariate polynomial with rational coefficients, lowest degree first.

    A Poly is stored as a tuple of int ``numerators`` over one positive int
    ``denominator``: coefficient i is numerators[i] / denominator.  There is
    no trailing zero numerator and gcd(denominator, *numerators) == 1, so each
    polynomial has exactly one representation (zero is () over 1) and ``==``
    compares ints.  Arithmetic runs on these ints and normalises each result
    with one gcd; ``coeffs`` builds the coefficients as Fractions where they
    are read.
    """

    __slots__ = _fields = ("numerators", "denominator")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        nums, den = over_common_denominator([rat(c) for c in coeffs])
        _normalise(self, _trim(nums), den)

    @classmethod
    def from_integers(cls, numerators: Iterable[int], denominator: int) -> "Poly":
        """The polynomial (sum of numerators[i] * u^i) / denominator, for a nonzero denominator."""
        poly = object.__new__(cls)
        _normalise(poly, _trim(list(numerators)), denominator)
        return poly

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
        den = self.denominator
        return tuple(Fraction(x, den) for x in self.numerators)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other) -> bool:
        """Equal coefficients, an int or Fraction taken as a constant; a coefficient over Q(n)
        is equal only as the same function of n, a comparison that leaves no guard (kstab.plan)."""
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        x, y = self.numerators, other.numerators
        return len(x) == len(y) and self.denominator == other.denominator and all(
            _parts(c) == _parts(d) if isinstance(c, RationalFunction) or isinstance(d, RationalFunction) else c == d
            for c, d in zip(x, y)
        )

    def __hash__(self) -> int:
        # a constant hashes as the int or Fraction it equals
        return hash(self.coefficient(0)) if len(self.numerators) <= 1 else Frozen.__hash__(self)

    def __neg__(self) -> "Poly":
        return Poly.from_integers([-x for x in self.numerators], self.denominator)

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if not other.numerators:
            return self
        a, b, den = _over_lcm(self, other)
        return Poly.from_integers(_poly_add(a, b), den)

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
        return Poly.from_integers(_poly_mul(self.numerators, other.numerators), self.denominator * other.denominator)

    __rmul__ = __mul__

    def __call__(self, x: RationalLike) -> Fraction:
        x = rat(x)
        p, q = x.numerator, x.denominator
        # Horner on p and q: acc = sum numerators[i] * p^i * q^(degree - i), scale = q^(degree + 1)
        acc, scale = 0, 1
        for c in reversed(self.numerators):
            acc = acc * p + c * scale
            scale *= q
        return ratio(acc, self.denominator * scale // q) if self.numerators else Fraction(0)

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self.numerators[k], self.denominator) if k < len(self.numerators) else Fraction(0)

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
        """The text "c0 + c1*u - ...": each coefficient written from its int numerator."""
        parts, den = [], self.denominator
        for i, x in enumerate(self.numerators):
            if not x:
                continue
            mag = abs(x)
            if i == 0:
                body = _quotient_str(mag, den)
            else:
                power = var if i == 1 else f"{var}^{i}"
                body = power if mag == den else f"{_quotient_str(mag, den)}*{power}"
            sign = ("" if x > 0 else "-") if not parts else ("+ " if x > 0 else "- ")
            parts.append(sign + body)
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"Poly({self.format()})"


def _quotient_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, with one gcd and no Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _normalise(value, nums: list[int], den: int) -> None:
    """Set value's numerators and denominator (a Poly's or a ClassVector's) to nums / den
    over a positive denominator coprime to the numerators.  Where the numbers are over
    Q(n), den is a unit of that field and is folded into the numerators."""
    if type(den) is not int:
        nums, den = [ratio(x, den) for x in nums], 1
    elif den != 1:
        if den < 0:
            nums, den = [-x for x in nums], -den
        try:
            g = math.gcd(den, *nums)
        except TypeError:  # numerators over Q(n)
            nums, den, g = [ratio(x, den) for x in nums], 1, 1
        if g != 1:
            nums, den = [x // g for x in nums], den // g
    object.__setattr__(value, "numerators", tuple(nums))
    object.__setattr__(value, "denominator", den)


def _over_lcm(x, y) -> tuple[list, list, int]:
    """(a, b, den): a and b the numerators of x and y (Polys or ClassVectors) over den, the
    lcm of their denominators."""
    a, b, den = x.numerators, y.numerators, x.denominator
    if den != y.denominator:
        g = math.gcd(den, y.denominator)
        fa, fb = y.denominator // g, den // g
        a, b, den = [v * fa for v in a], [v * fb for v in b], den * fa
    return a, b, den


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.constant(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def poly_eval(p: Poly, x: RationalLike) -> Fraction:
    """Evaluate p at x exactly."""
    return p(x)


class PiecewisePoly(Frozen):
    """Polynomial pieces on contiguous rational intervals.

    Pieces are (left, right, poly) with left < right and piece[i].right ==
    piece[i+1].left.  Adjacent pieces carrying the same polynomial are merged
    on construction so equal functions compare equal.
    """

    __slots__ = _fields = ("pieces",)

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


def _parts(c) -> tuple:
    """A number's normal form (num, den) over Q(n), an int or Fraction as a constant."""
    f = c if isinstance(c, RationalFunction) else RationalFunction.constant(c)
    return f.num, f.den


def piecewise_integrate(f: PiecewisePoly, a: RationalLike, b: RationalLike) -> Fraction:
    """Exact definite integral of f over [a, b] (must lie in f's domain)."""
    return f.integrate(a, b)


def piecewise_combine(f: PiecewisePoly, g: PiecewisePoly, op: str) -> PiecewisePoly:
    """Pointwise sum or product on the common refinement of breakpoints."""
    return f.combine(g, op)


class RationalFunction(Frozen):
    """An exact rational function p(n) / q(n) of one integer parameter n.

    p and q are int coefficient tuples, lowest degree first, with no trailing
    zeros.  The constructor divides out their common factors, polynomial and
    integer, and makes q's leading coefficient positive, so each function has
    one representation and ``==`` compares ints; zero is () over (1,).  Values
    at an integer n are Fractions, one per evaluation.
    """

    __slots__ = _fields = ("num", "den")

    def __init__(self, num: Iterable[int] = (), den: Iterable[int] = (1,)):
        """num / den in normal form."""
        num, den = _trim(list(num)), _trim(list(den))
        if not den:
            raise ZeroDivisionError("rational function with a zero denominator")
        if not num:
            num, den = [], [1]
        elif len(num) > 1 and len(den) > 1:
            g = _poly_gcd(num, den)
            if len(g) > 1:
                num, den = _poly_div_exact(num, g), _poly_div_exact(den, g)
        c = math.gcd(*num, *den)
        if den[-1] < 0:
            c = -c
        if c != 1:
            num, den = [x // c for x in num], [x // c for x in den]
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    @classmethod
    def constant(cls, c: RationalLike) -> "RationalFunction":
        c = rat(c)
        return cls((c.numerator,), (c.denominator,))

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls((0, 1))

    def uses_n(self) -> bool:
        """Whether the function is not a constant."""
        return len(self.num) > 1 or len(self.den) > 1

    def __call__(self, n: int) -> Fraction:
        return Fraction(_poly_at(self.num, n), _poly_at(self.den, n))

    def sign_at(self, n: int) -> int:
        """The sign of p(n) q(n): the function's sign at n wherever it is defined."""
        s = _poly_at(self.num, n) * _poly_at(self.den, n)
        return (s > 0) - (s < 0)

    def __neg__(self) -> "RationalFunction":
        return _rational_function([-x for x in self.num], self.den)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not other.num:
            return self
        if not self.num:
            return other
        return RationalFunction(
            _poly_add(_poly_mul(self.num, other.den), _poly_mul(other.num, self.den)), _poly_mul(self.den, other.den)
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        # RationalFunction's own operators, never a subclass's (kstab.plan.Guarded records guards)
        return RationalFunction.__add__(self, RationalFunction.__neg__(other))

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if not (self.num and other.num):
            return _ZERO_FUNCTION
        return RationalFunction(_poly_mul(self.num, other.num), _poly_mul(self.den, other.den))

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(_poly_mul(self.num, other.den), _poly_mul(self.den, other.num))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num}, {self.den})"


def _rational_function(num: Iterable[int], den: tuple[int, ...]) -> RationalFunction:
    """num / den for parts that are already coprime, content-free and signed."""
    out = object.__new__(RationalFunction)
    object.__setattr__(out, "num", tuple(num))
    object.__setattr__(out, "den", den)
    return out


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_at(p: tuple[int, ...], n: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * n + c
    return acc


def _poly_add(a, b) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + list(a[len(b):])


def _poly_mul(a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _primitive(p: list[int]) -> list[int]:
    c = math.gcd(*p)
    return [x // c for x in p] if c != 1 else p


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of two nonzero int polynomials, by pseudo-remainders."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r, lead = list(a), b[-1]
        while len(r) >= len(b):
            top, shift = r[-1], len(r) - len(b)
            r = [x * lead for x in r]
            for i, y in enumerate(b):
                r[i + shift] -= top * y
            _trim(r)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _poly_div_exact(a: list[int], b: list[int]) -> list[int]:
    """a / b for an int polynomial b that divides a over the integers."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for i in reversed(range(len(q))):
        q[i] = a[i + len(b) - 1] // b[-1]
        for j, y in enumerate(b):
            a[i + j] -= q[i] * y
    return q


_ZERO_FUNCTION = RationalFunction()
