"""Serve a parametric family's reports at many n from one plan over Q(n).

``planned_report`` builds a family's plan once per loaded catalog, at the
first n it is asked for, n0.  The pipeline runs at n0, and that is the report
returned; then the same code runs once more at a symbolic n, ``instantiate``
included.  There every number is a ``Guarded``, a rational function of n that
the pipeline computes with as with ints and Fractions.  Each test it makes on
one answers as at n0 and is kept as a guard, the test and the answers it may
give at another n, unless it is settled for the whole family (every n >= min):

- a comparison (definiteness, each step of a chamber walk, a positive weight)
  or a divisor that uses n gives ``RationalFunction.sign_at`` of a rational
  function, whose sign must stay in a set; the coefficients of p(min + m) and
  q(min + m), m >= 0, settle some, and a denominator they show positive is
  divided out;
- an integrality test (``arith.is_integer``, as ``_eval_int`` makes it) or a
  coprimality test (``arith.coprime``: well-formedness, a quotient point, a
  blow-up's weights) gives an integer test that must answer as at n0; where
  the arguments are integer polynomials over one constant c (or with one
  among them), the answer depends on n mod c, and one period settles it.

A min() that the coefficients do not settle stays a node, to be taken at each
n; computing with one raises TypeError, and the family then runs pointwise.
The plan keeps each item's expected and computed values, as the symbolic run
hands them to ``catalog._item``, in one frozen form that ``_at`` takes at n.

At a later n, if every guard holds, the item values are taken at n and
compared by ``_item``; nothing else runs, ``instantiate`` included.  A failed
guard, or a symbolic run that raised (a square root that is no rational
function of n, say), sends n through the pointwise pipeline, the oracle, which
then gives the report or raises its own error.  Each n is checked on its own:
nothing here is a proof for all n.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional

from .arith import PiecewisePoly, Poly, RationalFunction, _Min, _poly_at, _poly_mul, _quotient_str, _rational_function
from .arith import Frozen, _trim, over_common_denominator
from .catalog import Catalog, CheckItem, FamilyEntry, FamilyInstance, VerificationReport, _item, _pointwise
from .catalog import _values, instantiate

RF = RationalFunction
ZERO = RF()
NEG, NIL, POS = frozenset({-1}), frozenset({0}), frozenset({1})
NONNEG, NONPOS, NONZERO = frozenset({0, 1}), frozenset({-1, 0}), frozenset({-1, 1})
SIGNS = frozenset({-1, 0, 1})


def planned_report(catalog: Catalog, entry: FamilyEntry, n: int) -> Optional[VerificationReport]:
    """The report at n (which ``check_parameter`` accepted) from the family's plan, built on
    first use; None where a guard fails or no plan could be built, and the pointwise pipeline
    must run instead.  catalog.plan_counts counts the plans built and refused and the n served
    and sent back."""
    family_id, counts = entry.family_id, catalog.plan_counts
    if family_id not in catalog.plans:
        instance = instantiate(catalog, family_id, n)
        report = _pointwise(instance)  # raises as the pointwise path does; no plan is kept then
        try:
            plan = _build(catalog, instance)
        except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError):
            plan = None  # a step the symbolic run cannot follow: the family runs pointwise
        if plan is not None and plan.report(n) != report:  # a plan must reproduce its own n
            plan = None
        catalog.plans[family_id] = plan
        counts["plans built" if plan else "plans refused"] += 1
        return report
    plan = catalog.plans[family_id]
    report = None if plan is None else plan.report(n)
    counts["n served" if report else "n fell back"] += 1
    return report


class _Plan(Frozen):
    """A family's report at every n its guards admit.  ``guards`` holds ((test, arguments),
    the answers test(arguments, n) may give at a served n); ``items`` a CheckItem where it is
    the same at every n, else a _Served."""

    _fields = ("family_id", "guards", "items")

    def report(self, n: int) -> Optional[VerificationReport]:
        if any(test(args, n) not in answers for (test, args), answers in self.guards):
            return None
        items = tuple(item if isinstance(item, CheckItem) else item.at(n) for item in self.items)
        return VerificationReport(self.family_id, n, items)


class _Served(Frozen):
    """An item whose frozen values change with n; computed is None where it is expected."""

    _fields = ("label", "anchor", "expected", "computed")

    def at(self, n: int) -> CheckItem:
        expected = _at(self.expected, n)
        computed = expected if self.computed is None else _at(self.computed, n)
        return _item(self.label, expected, computed, self.anchor)


def _at(x, n: int):
    """A frozen value at n: a bool as it is, a volume profile's pieces as a PiecewisePoly, and a
    rational function or a _Min as the text str() gives its Fraction, which _item compares and
    shows as it is: equal texts are equal numbers."""
    if isinstance(x, bool):
        return x
    if isinstance(x, (RF, _Min)):
        return _quotient_str(*_value(x, n))
    return PiecewisePoly(_piece_at(left, right, coeffs, n) for left, right, coeffs in x)


def _piece_at(left: RF, right: RF, coeffs: tuple, n: int) -> tuple:
    """A volume piece at n: its endpoints as Fractions, its polynomial from the coefficients'
    int values over the lcm of their denominators."""
    values = [_value(c, n) for c in coeffs]
    den = math.lcm(*(q for _, q in values))
    return left(n), right(n), Poly.from_integers([p * (den // q) for p, q in values], den)


def _value(x, n: int) -> tuple[int, int]:
    """A rational function's value at n as ints (p, q), q > 0, not reduced; a _Min's as min()
    takes it, the second only where it is smaller."""
    if isinstance(x, _Min):
        a, b = _value(x.first, n), _value(x.second, n)
        return b if b[0] * a[1] < a[0] * b[1] else a
    p, q = _poly_at(x.num, n), _poly_at(x.den, n)
    if not q:
        raise ZeroDivisionError(f"Fraction({p}, 0)")
    return (-p, -q) if q < 0 else (p, q)


# -- building ----------------------------------------------------------------------


def _build(catalog: Catalog, instance: FamilyInstance) -> _Plan:
    """The items as the pipeline computes them at a symbolic n, guarded by its decisions at instance.n."""
    run = _Run(instance.n, instance.entry.minimum_n)
    symbolic = instantiate(catalog, instance.entry.family_id, _guarded(RF.variable(), run))
    items = tuple(_served(*values) for values in _values(symbolic))
    return _Plan(instance.entry.family_id, tuple(run.guards.items()), items)


def _served(label: str, expected, computed, anchor: str):
    """A plan item from the values the symbolic run hands ``_item``: a CheckItem where neither uses n."""
    expected, computed = _frozen(expected), _frozen(computed)
    if all(isinstance(x, bool) or isinstance(x, RF) and not x.uses_n() for x in (expected, computed)):
        return _item(label, _at(expected, 0), _at(computed, 0), anchor)
    return _Served(label, anchor, expected, None if expected == computed else computed)


def _frozen(x):
    """A value of the symbolic run as the plan keeps it: a bool, a RationalFunction that holds no
    run, a _Min of them, or a volume profile's (left, right, coefficients) pieces of them."""
    if isinstance(x, bool):
        return x
    if isinstance(x, _Min):
        return _Min(_frozen(x.first), _frozen(x.second))
    if isinstance(x, PiecewisePoly):
        return tuple(
            (_frozen(left), _frozen(right), tuple(map(_frozen, poly.coeffs)))
            for left, right, poly in x.pieces
        )
    x = _lift(x)
    return _rational_function(x.num, x.den) if type(x) is Guarded else x


class _Run:
    """The decisions of one symbolic run: each answers as at n0 and is kept as a guard, a test and
    the answers it may give at a served n (a sign from ``test``, an integer test's answer at n0
    from ``holds``), unless it is settled for every n >= lo."""

    def __init__(self, n0: int, lo: int):
        self.n0, self.lo = n0, lo
        self.guards: dict = {}  # (test, arguments) -> the answers it may give
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
                f = _rational_function(x.num, x.den)
                if _poly_signs(x.den, self.lo) == POS:  # one guard per numerator, up to a constant factor
                    c = math.gcd(*x.num) * (1 if x.num[-1] > 0 else -1)
                    f = _rational_function([a // c for a in x.num], (1,))
                    signs = signs if c > 0 else frozenset(-s for s in signs)
                key = RF.sign_at, f
                self.guards[key] = self.guards.get(key, SIGNS) & signs
        return ok

    def holds(self, test, xs: tuple) -> bool:
        """test(arguments, n0) for ``_is_integer_at`` or ``_coprime_at``; a guard to give the same
        answer at every n, unless one period of the arguments' residues settles it for n >= lo."""
        args = tuple(map(_frozen, xs))
        answer = test(args, self.n0)
        if _possible_answers(test, args, self.lo) != {answer}:
            self.guards[test, args] = frozenset({answer})
        return answer


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


def _operator(op, unit=None, reflected=False):
    """op on a Guarded number and any number (on its left where reflected), passing over the
    int unit (x op unit = x)."""

    def apply(self, other):
        if type(other) is int and other == unit:
            return self
        x = _lift(other)
        if x is None:
            return NotImplemented
        a, b = (x, self) if reflected else (self, x)
        if op is RF.__truediv__:
            self.run.test(b, NONZERO)  # a divisor stays nonzero: where it vanishes, n runs pointwise
        return self.run.apply(op, a, b)

    return apply


def _comparison(signs: frozenset):
    """Whether the difference of a Guarded number and any number has its sign in signs."""

    def compare(self, other):
        x = _lift(other)
        return NotImplemented if x is None else self.run.test(self.run.apply(RF.__sub__, self, x), signs)

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
    __sub__, __rsub__ = _operator(RF.__sub__, 0), _operator(RF.__sub__, reflected=True)
    __truediv__, __rtruediv__ = _operator(RF.__truediv__, 1), _operator(RF.__truediv__, reflected=True)
    __floordiv__, __rfloordiv__ = __truediv__, __rtruediv__
    __lt__, __le__, __eq__, __ne__, __ge__, __gt__ = map(_comparison, (NEG, NONPOS, NIL, NONZERO, NONNEG, POS))

    def __neg__(self) -> "Guarded":
        return _guarded(RF.__neg__(self), self.run)

    def __bool__(self) -> bool:
        return self.run.test(self, NONZERO)

    def is_integer(self) -> bool:
        """Whether the value at n0 is an integer, for ``arith.is_integer``; kept as a guard."""
        return self.run.holds(_is_integer_at, (self,))

    def coprime(self, xs: tuple) -> bool:
        """Whether the gcd of xs at n0 is 1, for ``arith.coprime``; kept as a guard."""
        return self.run.holds(_coprime_at, xs)

    def isqrt(self) -> "Guarded":
        """The square root over Q(n), for ``arith.isqrt``; a ValueError where there is none."""
        root = _sqrt(self)
        if root is None:
            raise ValueError(f"{self!r} has no square root over Q(n)")
        return _guarded(root, self.run)

    def minimum(self, a, b):
        """min(a, b) for ``arith.minimum``, self one of them: the one min() takes at every n >= lo
        (b only where it is smaller) where the coefficients show it, else a _Min node."""
        x = RF.__sub__(_lift(b), _lift(a))
        signs = _possible_signs(x.num, x.den, self.run.lo)
        if -1 not in signs:
            return a
        return b if signs == NEG else _Min(a, b)


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


def _is_integer_at(args: tuple, n: int) -> bool:
    """Whether the one rational function in args is an integer at n."""
    (f,) = args
    q = _poly_at(f.den, n)
    return q != 0 and _poly_at(f.num, n) % q == 0


def _coprime_at(args: tuple, n: int) -> bool:
    """Whether the rational functions in args are integers at n whose gcd is 1."""
    return all(_is_integer_at((f,), n) for f in args) and math.gcd(*(int(f(n)) for f in args)) == 1


# the longest period of residues that _possible_answers tries in full
_PERIOD_LIMIT = 1024


def _possible_answers(test, args: tuple, lo: int) -> frozenset:
    """Answers that test(args, n) may give at integers n >= lo.  Where args are integer polynomials
    over a constant denominator c (for ``_is_integer_at``), or over 1 with a nonzero constant c
    among them (for ``_coprime_at``), the answer at n depends on n mod c only: one period settles it."""
    if test is _is_integer_at:
        period = args[0].den[0] if len(args[0].den) == 1 else 0
    elif all(f.den == (1,) for f in args):
        period = math.gcd(*(f.num[0] if f.num else 0 for f in args if not f.uses_n()))
    else:
        period = 0
    if not 0 < period <= _PERIOD_LIMIT:
        return frozenset({False, True})
    return frozenset(test(args, n) for n in range(lo, lo + period))


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
