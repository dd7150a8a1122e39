"""Serve a parametric family's reports at many n from one plan over Q(n).

``planned_report`` builds a family's plan once per loaded catalog, at the
first n it is asked for, n0.  The pipeline runs at n0, and that is the report
returned; then the same code runs once more at a symbolic n.  There every
number is a ``Guarded``, a rational function of n that the pipeline computes
with as with ints and Fractions.  Each comparison it makes on one (a divisor,
definiteness, each step of a chamber walk) answers as at n0 and is kept as a
guard, a rational function whose sign must stay in a set, unless the
coefficients of p(min + m) and q(min + m), m >= 0, settle it for the whole
family.  A min() that they do not settle stays a node, to be taken at each n;
computing with one raises.  The plan keeps each item's expected and computed
values, as the symbolic run hands them to ``catalog._item``.

At a later n, ``instantiate`` has validated the family at n (its gcd and
integrality tests pass over Q(n), where each nonzero number is a unit).  If
every guard holds, the item values are taken at n and compared by ``_item``.
A failed guard, or a symbolic run that raised (a square root that is no
rational function of n, say), sends n through the pointwise pipeline, the
oracle.  Each n is checked on its own: nothing here is a proof for all n.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .arith import PiecewisePoly, Poly, RationalFunction, _poly_mul, _rational_function, _trim, over_common_denominator, ratio
from .catalog import Catalog, CheckItem, FamilyInstance, VerificationReport, _item, _Min, _node_at, _pointwise
from .catalog import _values, instantiate

RF = RationalFunction
ZERO = RF()
NEG, NIL, POS = frozenset({-1}), frozenset({0}), frozenset({1})
NONNEG, NONPOS, NONZERO = frozenset({0, 1}), frozenset({-1, 0}), frozenset({-1, 1})
SIGNS = frozenset({-1, 0, 1})


def planned_report(catalog: Catalog, instance: FamilyInstance) -> Optional[VerificationReport]:
    """The report at instance.n from the family's plan, built on first use; None where a
    guard fails or no plan could be built, and the pointwise pipeline must run instead.
    catalog.plan_counts counts the plans built and refused and the n served and sent back."""
    family_id, counts = instance.entry.family_id, catalog.plan_counts
    if family_id not in catalog.plans:
        report = _pointwise(instance)  # raises as the pointwise path does; no plan is kept then
        try:
            plan = _build(catalog, instance)
        except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError):
            plan = None  # a step the symbolic run cannot follow: the family runs pointwise
        if plan is not None and plan.report(instance) != report:  # a plan must reproduce its own n
            plan = None
        catalog.plans[family_id] = plan
        counts["plans built" if plan else "plans refused"] += 1
        return report
    plan = catalog.plans[family_id]
    report = None if plan is None else plan.report(instance)
    counts["n served" if report else "n fell back"] += 1
    return report


class _Plan(NamedTuple):
    family_id: int
    guards: tuple  # (RationalFunction, allowed signs)
    items: tuple  # a CheckItem where it is the same at every n, else a _Served

    def report(self, instance: FamilyInstance) -> Optional[VerificationReport]:
        n = instance.n
        if any(f.sign_at(n) not in signs for f, signs in self.guards):
            return None
        items = tuple(item if isinstance(item, CheckItem) else item.at(n) for item in self.items)
        return VerificationReport(self.family_id, n, items)


class _Served(NamedTuple):
    """An item whose values change with n, taken at n by value_at; computed is None where it is expected."""

    label: str
    anchor: str
    expected: object
    computed: object
    value_at: object

    def at(self, n: int) -> CheckItem:
        expected = self.value_at(self.expected, n)
        computed = expected if self.computed is None else self.value_at(self.computed, n)
        return _item(self.label, expected, computed, self.anchor)


def _profile_at(pieces: tuple, n: int) -> PiecewisePoly:
    """A volume profile's pieces (left, right, coefficients) of rational functions, at n."""
    return PiecewisePoly((left(n), right(n), Poly(c(n) for c in coeffs)) for left, right, coeffs in pieces)


# -- building ----------------------------------------------------------------------


def _build(catalog: Catalog, instance: FamilyInstance) -> _Plan:
    """The items as the pipeline computes them at a symbolic n, guarded by its decisions at instance.n."""
    run = _Run(instance.n, instance.entry.minimum_n)
    symbolic = instantiate(catalog, instance.entry.family_id, _guarded(RF.variable(), run))
    items = tuple(_served(*values) for values in _values(symbolic))
    return _Plan(instance.entry.family_id, tuple(run.guards.items()), items)


def _served(label: str, expected, computed, anchor: str):
    """A plan item from the values the symbolic run hands ``_item``: a CheckItem where neither uses n."""
    if isinstance(expected, PiecewisePoly):
        expected, computed, value_at = _pieces(expected), _pieces(computed), _profile_at
    else:
        expected, computed, value_at = _frozen(expected), _frozen(computed), _node_at
        constants = [x if isinstance(x, bool) else x(0) for x in (expected, computed) if _constant(x)]
        if len(constants) == 2:
            return _item(label, *constants, anchor)
    return _Served(label, anchor, expected, None if expected == computed else computed, value_at)


def _frozen(x):
    """A value of the symbolic run as the plan keeps it: a bool, or a RationalFunction that is no
    Guarded (holds no run), or a _Min of them."""
    if isinstance(x, (bool, _Min)):
        return x if isinstance(x, bool) else _Min(_frozen(x.first), _frozen(x.second))
    x = _lift(x)
    return _rational_function(x.num, x.den) if type(x) is Guarded else x


def _constant(x) -> bool:
    return isinstance(x, bool) or isinstance(x, RF) and not x.uses_n()


def _pieces(profile: PiecewisePoly) -> tuple:
    """A volume profile over Q(n) as frozen (left, right, coefficients) pieces."""
    return tuple(
        (_frozen(left), _frozen(right), tuple(_frozen(ratio(x, poly.denominator)) for x in poly.numerators))
        for left, right, poly in profile.pieces
    )


class _Run:
    """The decisions of one symbolic run: each answers as at n0 and is a guard unless settled for n >= lo."""

    def __init__(self, n0: int, lo: int):
        self.n0, self.lo = n0, lo
        self.guards: dict = {}  # RationalFunction -> allowed signs
        self.results: dict = {}  # (op, operands' numerators and denominators) -> op's result

    def apply(self, op, a: RF, b: RF) -> "Guarded":
        """op(a, b), computed once per run: the pipeline repeats many products and sums."""
        key = op, a.num, a.den, b.num, b.den
        x = self.results.get(key)
        if x is None:
            x = self.results[key] = _guarded(op(a, b), self)
        return x

    def test(self, x: RF, signs: frozenset) -> bool:
        """Whether x's sign at n0 is in signs; guarded to stay on the same side at every n."""
        ok = x.sign_at(self.n0) in signs
        if x.uses_n():
            signs = signs if ok else SIGNS - signs
            if not _possible_signs(x.num, x.den, self.lo) <= signs:
                key = _rational_function(x.num, x.den)
                self.guards[key] = self.guards.get(key, SIGNS) & signs
        return ok


def _lift(x) -> Optional[RF]:
    """A rational function for an int, a Fraction or a number over Q(n); None for anything else."""
    if isinstance(x, (int, Fraction)):
        return _rational_function((x.numerator,), (x.denominator,)) if x else ZERO
    return x if isinstance(x, RF) else None


def _guarded(x: RF, run: _Run) -> "Guarded":
    out = object.__new__(Guarded)
    object.__setattr__(out, "num", x.num)
    object.__setattr__(out, "den", x.den)
    object.__setattr__(out, "run", run)
    return out


def _difference(a: RF, b: RF) -> RF:
    return RF.__add__(a, RF.__neg__(b))


def _operator(op, unit=None, reflected=False):
    """op on a Guarded number and any number (on its left where reflected), passing over the
    int unit (x op unit = x)."""

    def apply(self, other):
        if type(other) is int and other == unit:
            return self
        x = _lift(other)
        return NotImplemented if x is None else self.run.apply(op, *((x, self) if reflected else (self, x)))

    return apply


def _comparison(signs: frozenset):
    """Whether the difference of a Guarded number and any number has its sign in signs."""

    def compare(self, other):
        x = _lift(other)
        return NotImplemented if x is None else self.run.test(self.run.apply(_difference, self, x), signs)

    return compare


class Guarded(RationalFunction):
    """A number over Q(n) that the pipeline's code computes with as with ints and Fractions.  Its
    ``numerator`` is itself and its ``denominator`` is 1, so code that scales values to ints runs
    with scale 1, and ``//`` is exact division in the field.  Comparisons and ``bool`` answer as
    the value does at the run's n0 and record a guard (``_Run.test``)."""

    __slots__ = ("run",)
    __hash__ = None
    denominator = 1
    numerator = property(lambda self: self)

    __add__ = __radd__ = _operator(RF.__add__, 0)
    __mul__ = __rmul__ = _operator(RF.__mul__, 1)
    __sub__, __rsub__ = _operator(_difference, 0), _operator(_difference, reflected=True)
    __truediv__, __rtruediv__ = _operator(RF.__truediv__, 1), _operator(RF.__truediv__, reflected=True)
    __floordiv__, __rfloordiv__ = __truediv__, __rtruediv__
    __lt__, __le__, __eq__, __ne__, __ge__, __gt__ = map(_comparison, (NEG, NONPOS, NIL, NONZERO, NONNEG, POS))

    def __neg__(self) -> "Guarded":
        return _guarded(RF.__neg__(self), self.run)

    def __bool__(self) -> bool:
        return self.run.test(self, NONZERO)

    def compose(self, f: RF) -> "Guarded":
        """f(self) for ``RationalFunction.__call__``, where self is the run's n: f itself."""
        return _guarded(f, self.run)

    def isqrt(self) -> "Guarded":
        """The square root over Q(n), for ``arith.isqrt``; a ValueError where there is none."""
        root = _sqrt(self)
        if root is None:
            raise ValueError(f"{self!r} has no square root over Q(n)")
        return _guarded(root, self.run)

    def minimum(self, other):
        """min(self, other), for ``arith.minimum``: the one min() takes at every n >= lo (other only
        where it is smaller) where the coefficients show it, else a _Min node."""
        x = _difference(_lift(other), self)
        signs = _possible_signs(x.num, x.den, self.run.lo)
        if -1 not in signs:
            return self
        return other if signs == NEG else _Min(self, other)


# -- arithmetic over Q(n) --------------------------------------------------------------


def _sqrt(x: RF) -> Optional[RF]:
    """A rational function whose square is x, or None if there is none."""
    p = _poly_mul(x.num, x.den)  # x = p / den^2
    if not p:
        return ZERO
    top = math.isqrt(p[-1]) if p[-1] > 0 else -1
    if len(p) % 2 == 0 or top * top != p[-1]:
        return None
    half = len(p) // 2
    root = [Fraction(0)] * half + [Fraction(top)]
    for i in reversed(range(half)):  # from the top down: 2 top root_i = p_(half + i) - the known products
        root[i] = (p[half + i] - sum(root[j] * root[half + i - j] for j in range(i + 1, half + 1))) / (2 * top)
    nums, den = over_common_denominator(root)
    return RF(nums, x.den) / RF((den,)) if _trim(_poly_mul(nums, nums)) == [c * den * den for c in p] else None


@functools.lru_cache(maxsize=4096)
def _possible_signs(p: tuple, q: tuple, lo: int) -> frozenset:
    """Signs that p(n) / q(n) may take at integers n >= lo where it is defined: a coefficient
    sign pattern of p(lo + m) and q(lo + m), m >= 0, settles some."""
    return frozenset(a * b for a in _poly_signs(p, lo) for b in _poly_signs(q, lo) if b)


def _poly_signs(p: tuple, lo: int) -> frozenset:
    if not p:
        return NIL
    shifted: list = []
    for c in reversed(p):  # Horner in m: shifted = shifted * (m + lo) + c
        step = [0] * (len(shifted) + 1)
        for i, a in enumerate(shifted):
            step[i] += a * lo
            step[i + 1] += a
        step[0] += c
        shifted = step
    if all(c >= 0 for c in shifted):
        return POS if shifted[0] > 0 else NONNEG
    if all(c <= 0 for c in shifted):
        return NEG if shifted[0] < 0 else NONPOS
    return SIGNS
