"""Independent numeric and combinatorial oracles used across the test suite.

Everything here deliberately avoids the package's exact integration and
decomposition paths: integrals are checked by floating-point Simpson
quadrature, polynomial arithmetic by a Poly with Fraction coefficients (the
package's runs on integer numerators over one denominator), blow-up Gram
matrices by the Fraction formula (the package updates integer rows),
definiteness by numpy eigenvalues, ray decompositions by enumerating every
negative-definite subset of the basis and by the Poly-based chamber walk
(the package's walk decides on integer linear forms), linear algebra by a
Gauss-Jordan kernel on Fractions (the package eliminates fraction-free on
integers), catalog expressions by a recursive-descent parser that evaluates
as it parses (the package compiles each text once), a plan's served values
through Fractions (the package writes each number from two ints), a
volume's roots and dips and where a chamber ends by its Fraction
coefficients and the walk's former three-way rule (the package decides on
int numerators, signs first), and random configurations are built as
blow-up chains over a positive base class.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

from kstab import (
    BlowupSpec,
    CurveConfig,
    QuotientSingularity,
    transform_config,
)
from kstab.arith import PiecewisePoly, Poly, RationalFunction, RationalLike, _Min, minimum, rat
from kstab.catalog import CatalogError, ParameterError
from kstab.surface import ClassVector, solve_linear_system
from kstab.zariski import (
    InconsistentConfigError,
    RayDecomposition,
    RayInterval,
    RayNeverEffectiveError,
    _check_continuity,
    _names,
    _refuse_negative_pairing,
)


def oracle_quadratic_negative_on(q: Poly, lo: Fraction, hi: Fraction) -> bool:
    """True iff the (degree <= 2) polynomial dips below zero on [lo, hi], on Fractions."""
    if q(lo) < 0 or q(hi) < 0:
        return True
    if q.degree == 2 and q.coefficient(2) > 0:
        vertex = -q.coefficient(1) / (2 * q.coefficient(2))
        if lo < vertex < hi and q(vertex) < 0:
            return True
    return False


def oracle_positive_on(q: Poly, lo: Fraction, hi: Fraction) -> bool:
    """True iff the (degree <= 2) polynomial is >= 0 at lo and > 0 on (lo, hi], on Fractions."""
    c = [*q.coeffs, 0, 0, 0]
    vertex = [-c[1] / (2 * c[2])] if c[2] else []
    return q(lo) >= 0 and all(q(x) > 0 for x in [hi, *vertex] if lo < x <= hi)


def oracle_chamber_end(alpha, beta, vol: Poly, left: Fraction) -> tuple[Fraction, Optional[Fraction]]:
    """The walk's former three-way rule for where a chamber ends, on Fractions: (right, tau).

    right is the least root of a falling form alpha_j + u beta_j.  The chamber
    ends there where vol is positive on (left, right]; else at vol's first
    rational root, if it comes no later; else the ray is refused where vol
    dips below zero on [left, right] or no form falls, and otherwise the walk
    goes on to right (vol = 0 identically is the only volume that does).
    """
    right = min((Fraction(x, -y) for x, y in zip(alpha, beta) if y < 0), default=None)
    if right is not None and oracle_positive_on(vol, left, right):
        return right, None
    root = oracle_smallest_rational_root(vol, left)
    if root is not None and (right is None or root <= right):
        return root, root
    if right is None:
        raise RayNeverEffectiveError("volume does not reach zero at a rational parameter")
    if oracle_quadratic_negative_on(vol, left, right):
        raise RayNeverEffectiveError("volume crosses zero at an irrational parameter")
    return right, None


def oracle_smallest_rational_root(q: Poly, lo: Fraction) -> Optional[Fraction]:
    """Smallest rational root of q beyond lo, from its Fraction coefficients; None if none."""
    if q.degree <= 0:
        return None
    if q.degree == 1:
        root = -q.coefficient(0) / q.coefficient(1)
        return root if root > lo else None
    a, b, c = q.coefficient(2), q.coefficient(1), q.coefficient(0)
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    num, den = disc.as_integer_ratio()
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    sq = Fraction(rn, rd)
    for r in sorted({(-b - sq) / (2 * a), (-b + sq) / (2 * a)}):
        if r > lo:
            return r
    return None


def simpson(f, a: float, b: float, panels: int = 4096) -> float:
    """Composite Simpson quadrature; exact for cubics up to rounding."""
    if a == b:
        return 0.0
    h = (b - a) / (2 * panels)
    total = f(a) + f(b)
    for i in range(1, 2 * panels):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3


def simpson_matches(pp: PiecewisePoly, exact: Fraction, rel: float = 1e-9) -> bool:
    """Piecewise Simpson over the full domain against the exact value.

    Each piece is integrated with its own polynomial so that boundary jumps
    (legal for raw piecewise data) cannot leak a neighbouring value in.
    """
    total = 0.0
    for left, right, poly in pp.pieces:
        coeffs = [float(c) for c in poly.coeffs]

        def f(x: float, _coeffs=coeffs) -> float:
            acc = 0.0
            for c in reversed(_coeffs):
                acc = acc * x + c
            return acc

        total += simpson(f, float(left), float(right), panels=64)
    target = float(exact)
    scale = max(abs(target), 1.0)
    return abs(total - target) <= rel * scale


# -- polynomial arithmetic on Fractions -------------------------------------------


class FractionPoly:
    """Univariate polynomial with Fraction coefficients, lowest degree first.

    The package's Poly before it moved onto integer numerators over one
    common denominator, kept unchanged as the oracle for that arithmetic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        object.__setattr__(self, "coeffs", _trimmed([rat(c) for c in coeffs]))

    @classmethod
    def _exact(cls, cs: list[Fraction]) -> "FractionPoly":
        """A FractionPoly over a list that is already all Fractions, without coercing."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", _trimmed(cs))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("FractionPoly is immutable")

    @classmethod
    def constant(cls, c: RationalLike) -> "FractionPoly":
        return cls((rat(c),))

    @classmethod
    def variable(cls) -> "FractionPoly":
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
        if isinstance(other, FractionPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == FractionPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("FractionPoly", self.coeffs))

    def __neg__(self) -> "FractionPoly":
        return FractionPoly._exact([-c for c in self.coeffs])

    def __add__(self, other) -> "FractionPoly":
        a, b = self.coeffs, _as_fraction_poly(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        return FractionPoly._exact([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other) -> "FractionPoly":
        return self + (-_as_fraction_poly(other))

    def __rsub__(self, other) -> "FractionPoly":
        return _as_fraction_poly(other) - self

    def __mul__(self, other) -> "FractionPoly":
        other = _as_fraction_poly(other)
        if self.is_zero() or other.is_zero():
            return FractionPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly._exact(out)

    __rmul__ = __mul__

    def __call__(self, x: RationalLike) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def derivative(self) -> "FractionPoly":
        return FractionPoly._exact([i * c for i, c in enumerate(self.coeffs) if i > 0])

    def antiderivative(self) -> "FractionPoly":
        return FractionPoly._exact([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

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
        return f"FractionPoly({self.format()})"


def _trimmed(cs: list[Fraction]) -> tuple[Fraction, ...]:
    """cs without trailing zeros, as a tuple (cs itself is trimmed in place)."""
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _as_fraction_poly(x) -> FractionPoly:
    if isinstance(x, FractionPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return FractionPoly.constant(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def assert_negative_definite_oracle(gram, expected: bool):
    """Cross-check a definiteness verdict against numpy eigenvalues."""
    import numpy as np

    if not gram:
        assert expected is True
        return
    eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in gram]))
    assert (bool((eigs < -1e-12).all())) == expected, (gram, eigs, expected)


def oracle_solve_linear_system(matrix, rhs) -> list:
    """Solve M x = rhs by Gauss-Jordan on Fractions; ValueError if M is singular."""
    _, x = _gauss_jordan(matrix, rhs, swap_rows=True)
    if x is None:
        raise ValueError("singular linear system")
    return x


def oracle_is_negative_definite(config, subset) -> bool:
    """Every Gauss-Jordan pivot of the principal submatrix, without row swaps, is negative."""
    idx = list(subset)
    sub = [[config.gram[i][j] for j in idx] for i in idx]
    pivots, _ = _gauss_jordan(sub, [Fraction(0)] * len(idx), swap_rows=False)
    return len(pivots) == len(idx) and all(p < 0 for p in pivots)


def _gauss_jordan(matrix, rhs, swap_rows: bool):
    """Gauss-Jordan elimination of M x = rhs on Fractions; returns (pivots, x).

    With ``swap_rows`` each column pivots on its first nonzero entry at or
    below the diagonal; without it only the diagonal entry is tried.  A column
    with no usable pivot stops the elimination: the pivots found so far are
    returned with x = None.  rhs entries may be Fractions, ints or Polys.
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
        inv = 1 / Fraction(a[col][col])
        a[col] = [x * inv for x in a[col]]
        b[col] = inv * b[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                b[r] = b[r] - factor * b[col]
    return pivots, b


def oracle_blow_up_gram(config, spec) -> list[list[Fraction]]:
    """The upstairs Gram matrix of a weighted blow-up, entry by entry on Fractions.

    With n the center's order, (a, b) the weights and o_i the vanishing
    orders: strict transforms pair as g_ij - o_i o_j / (n a b), each meets
    the exceptional curve E in o_i / (a b), and E^2 = -n / (a b).
    """
    n, (a, b) = spec.center.order, spec.weights
    orders = [spec.order_of(name) for name in config.basis]
    rows = [
        [g - o * w / (n * a * b) for g, w in zip(row, orders)] + [o / (a * b)]
        for row, o in zip(config.gram, orders)
    ]
    rows.append([o / (a * b) for o in orders] + [Fraction(-n, a * b)])
    return rows


def oracle_served_at(x, n: int):
    """A plan's frozen value at n through Fractions, the reference for ``kstab.plan._at``, which
    writes a number's text from ints: a rational function's Fraction, a _Min taken with min(),
    a bool as it is, or a volume profile's pieces as a PiecewisePoly."""
    if isinstance(x, RationalFunction):
        return x(n)
    if isinstance(x, _Min):
        return minimum(oracle_served_at(x.first, n), oracle_served_at(x.second, n))
    if isinstance(x, bool):
        return x
    return PiecewisePoly((left(n), right(n), Poly(c(n) for c in coeffs)) for left, right, coeffs in x)


def oracle_eval_expr(expr, n: Optional[int] = None) -> Fraction:
    """Evaluate a catalog expression by recursive descent, parsing it every call."""
    if isinstance(expr, (int, Fraction)):
        return rat(expr)
    return _ExprParser(str(expr), n).parse()


class _ExprParser:
    def __init__(self, text: str, n: Optional[int]):
        self.text = text
        self.pos = 0
        self.n = n

    def parse(self) -> Fraction:
        value = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise CatalogError(f"trailing input in expression {self.text!r}")
        return value

    def _expr(self) -> Fraction:
        value = self._term()
        while True:
            op = self._peek()
            if op and op in "+-":
                self.pos += 1
                rhs = self._term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def _term(self) -> Fraction:
        value = self._factor()
        while True:
            op = self._peek()
            if op and op in "*/":
                self.pos += 1
                rhs = self._factor()
                if op == "/":
                    if rhs == 0:
                        raise CatalogError(f"division by zero in {self.text!r}")
                    value = value / rhs
                else:
                    value = value * rhs
            else:
                return value

    def _factor(self) -> Fraction:
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            return -self._factor()
        if ch == "(":
            self.pos += 1
            value = self._expr()
            if self._peek() != ")":
                raise CatalogError(f"unbalanced parentheses in {self.text!r}")
            self.pos += 1
            return value
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return Fraction(int(self.text[start : self.pos]))
        if self.text.startswith("min(", self.pos):
            self.pos += 4
            first = self._expr()
            if self._peek() != ",":
                raise CatalogError(f"min() needs two arguments in {self.text!r}")
            self.pos += 1
            second = self._expr()
            if self._peek() != ")":
                raise CatalogError(f"unbalanced min() in {self.text!r}")
            self.pos += 1
            return min(first, second)
        if ch == "n":
            self.pos += 1
            if self.n is None:
                raise ParameterError(f"expression {self.text!r} needs the parameter n")
            return Fraction(self.n)
        raise CatalogError(f"cannot parse expression {self.text!r} at position {self.pos}")

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1


def decompose_ray_by_subsets(config, ample, ray) -> RayDecomposition:
    """Ray decomposition by exhaustive enumeration, for cross-checking the walk.

    Every negative-definite subset of the basis is solved with coefficients
    linear in u and cut down to the u-interval where its negative part is
    effective and its positive part nef.  The ray is stitched from u = 0 at
    every endpoint of every subset's interval, and all subsets valid inside a
    stretch must give the same positive part.  Costs 2^k subsets; inputs are
    validated by ``decompose_ray`` and not re-checked here.
    """
    candidates = _subset_solutions(config, ample, ray)
    if not any(_contains(s[3], Fraction(0)) for s in candidates):
        raise InconsistentConfigError("no valid decomposition at u = 0")
    cuts = sorted(
        {Fraction(0)}
        | {s[3][0] for s in candidates if s[3]}
        | {s[3][1] for s in candidates if s[3] and s[3][1] is not None}
    )
    cuts = [c for c in cuts if c >= 0]

    intervals, vol_pieces, tau, pos = [], [], None, 0
    while tau is None:
        left = cuts[pos]
        right = cuts[pos + 1] if pos + 1 < len(cuts) else None
        probe = (left + right) / 2 if right is not None else left + 1
        live = [s for s in candidates if _contains(s[3], probe)]
        if not live:
            tau = left
            break
        subset, coeffs, p_polys, _ = min(live, key=lambda s: (len(s[0]), s[0]))
        for other in live:
            if any(p(probe) != q(probe) for p, q in zip(other[2], p_polys)):
                raise InconsistentConfigError(f"supports disagree at u = {probe}")
        vol = sum(
            (config.gram[i][j] * p * q
             for i, p in enumerate(p_polys) for j, q in enumerate(p_polys)),
            Poly(),
        )
        root = oracle_smallest_rational_root(vol, left)
        if right is None:
            if root is None:
                raise RayNeverEffectiveError(
                    "volume does not reach zero at a rational parameter"
                )
            right = tau = root
        elif root is not None and root <= right:
            right = tau = root
        elif oracle_quadratic_negative_on(vol, left, right):
            raise RayNeverEffectiveError("volume crosses zero at an irrational parameter")
        if left < right:
            intervals.append(RayInterval(left, right, subset, coeffs, p_polys))
            vol_pieces.append((left, right, vol))
        pos += 1
        if pos >= len(cuts) and tau is None:
            raise InconsistentConfigError("ray stitching ran past all breakpoints")

    if not intervals:
        raise InconsistentConfigError("empty decomposition range")
    volume = PiecewisePoly(vol_pieces)
    if volume(tau) != 0:
        raise InconsistentConfigError(f"volume at tau = {tau} is {volume(tau)}, expected 0")
    rd = RayDecomposition(
        config=config,
        ample=ample,
        ray=ray,
        intervals=tuple(intervals),
        nef_threshold=intervals[0].right if intervals[0].support == () else Fraction(0),
        tau=tau,
        volume=volume,
    )
    _check_continuity(rd)
    return rd


def oracle_decompose_ray(config: CurveConfig, ample: ClassVector, ray: ClassVector) -> RayDecomposition:
    """The Poly-based chamber walk, kept verbatim as the oracle of ``decompose_ray``.

    Decompose ample - u*ray for u in [0, tau], exactly.

    ``ample`` must be nef on the basis and big (positive self-intersection);
    ``ray`` is the class being subtracted (usually a single basis curve).
    A chamber that fails its certificate raises InconsistentConfigError.
    """
    if config.pairing(ample, ample) <= 0:
        raise ValueError("ample class must have positive self-intersection")
    ample_dot = config.basis_pairings(ample)
    for name, q in zip(config.basis, ample_dot):
        if q < 0:
            raise ValueError(f"ample class is not nef: negative against {name}")
    if ray.is_zero():
        raise ValueError("ray class must be nonzero")

    u = Poly.variable()
    d_polys = [Poly.constant(a) - u * Poly.constant(e) for a, e in zip(ample, ray)]
    den, gram = config.integer_gram
    # d (A - uE).C_i: the right-hand side over the integer Gram rows
    rhs = [Poly([den * a, -den * e]) for a, e in zip(ample_dot, config.basis_pairings(ray))]
    support: list[int] = []
    intervals: list[RayInterval] = []
    vol_pieces: list[tuple[Fraction, Fraction, Poly]] = []
    left, tau = Fraction(0), None
    while tau is None:
        # grow the support until P(u).C >= 0 just to the right of `left`
        while True:
            m = [[gram[i][j] for j in support] for i in support]
            coeffs = solve_linear_system(m, [rhs[i] for i in support])
            p_polys = list(d_polys)
            for idx, c in zip(support, coeffs):
                p_polys[idx] = p_polys[idx] - c
            p_dot = config.basis_pairings(p_polys)
            entering = [
                j for j, q in enumerate(p_dot)
                if j not in support and (q(left), q.coefficient(1)) < (0, 0)
            ]
            if not entering:
                break
            support = sorted(support + entering)
            if not config.is_negative_definite(support):
                raise InconsistentConfigError(
                    f"support {_names(config, support)} at u = {left} is not negative definite"
                )
            _refuse_negative_pairing(config, entering, f" at u = {left}")
        # P.C = 0 on the support identically: then P.N = 0, vol = P.P, and only outside curves have slopes
        if any(p_dot[i] for i in support):
            raise InconsistentConfigError(
                f"P(u) is not orthogonal to support {_names(config, support)} from u = {left}"
            )
        right = min(
            (-q.coefficient(0) / q.coefficient(1) for q in p_dot if q.coefficient(1) < 0),
            default=None,
        )
        vol = sum((p * q for p, q in zip(p_polys, p_dot)), Poly())
        root = oracle_smallest_rational_root(vol, left)
        if root is not None and (right is None or root <= right):
            right = tau = root
        elif right is None:
            raise RayNeverEffectiveError("volume does not reach zero at a rational parameter")
        elif oracle_quadratic_negative_on(vol, left, right):
            raise RayNeverEffectiveError("volume crosses zero at an irrational parameter")
        # N's coefficients and P.C are linear in u: >= 0 at both ends is >= 0 throughout
        if any(q(left) < 0 or q(right) < 0 for q in (*coeffs, *p_dot)):
            raise InconsistentConfigError(
                f"support {_names(config, support)} is not a Zariski chamber on [{left}, {right}]"
            )
        intervals.append(RayInterval(left, right, tuple(support), tuple(coeffs), tuple(p_polys)))
        vol_pieces.append((left, right, vol))
        left = right

    rd = RayDecomposition(
        config=config,
        ample=ample,
        ray=ray,
        intervals=tuple(intervals),
        nef_threshold=intervals[0].right if not intervals[0].support else Fraction(0),
        tau=tau,
        volume=PiecewisePoly(vol_pieces),
    )
    _check_continuity(rd)
    return rd


def _subset_solutions(config, ample, ray):
    """(subset, coefficients, positive part, validity interval) per ND subset."""
    k = config.size
    u = Poly.variable()
    d_polys = [Poly.constant(a) - u * Poly.constant(e) for a, e in zip(ample, ray)]
    d_dot = config.basis_pairings(d_polys)
    solutions = []
    for size in range(k + 1):
        for subset in combinations(range(k), size):
            if not oracle_is_negative_definite(config, subset):
                continue
            m = [[config.gram[i][j] for j in subset] for i in subset]
            coeffs = oracle_solve_linear_system(m, [d_dot[j] for j in subset])
            p_polys = list(d_polys)
            for idx, c in zip(subset, coeffs):
                p_polys[idx] = p_polys[idx] - c
            constraints = list(coeffs) + config.basis_pairings(p_polys)
            solutions.append(
                (subset, tuple(coeffs), tuple(p_polys), _linear_feasible_interval(constraints))
            )
    return solutions


def _linear_feasible_interval(constraints):
    """Intersection of {u >= 0} with {c(u) >= 0} for linear polynomials c."""
    lo, hi = Fraction(0), None
    for c in constraints:
        a0, a1 = c.coefficient(0), c.coefficient(1)
        if a1 == 0:
            if a0 < 0:
                return None
        elif a1 > 0:
            lo = max(lo, -a0 / a1)
        else:
            bound = -a0 / a1
            hi = bound if hi is None else min(hi, bound)
    if hi is not None and lo > hi:
        return None
    return (lo, hi)


def _contains(interval, x: Fraction) -> bool:
    if interval is None:
        return False
    lo, hi = interval
    return lo <= x and (hi is None or x <= hi)


def random_chain_config(rng: random.Random, stages: int | None = None):
    """Random blow-up chain over a positive base curve.

    Returns (config, ample, ray_name): the chain guarantees the ample class
    is the isometric pullback of a nef and big downstairs class, and that
    every strict transform of the base curve is negative enough to enter the
    support, so the ray terminates at a rational threshold.
    """
    base_square = Fraction(rng.choice([1, 2, 3, 8]), rng.choice([1, 2, 3, 5, 7]))
    multiple = rng.choice([1, 2, 3])
    order = rng.choice([1, 2, 3, 5, 7])
    config = CurveConfig.make(
        basis=["C"],
        gram=[[base_square]],
        anticanonical=[multiple],
        singular_points=(
            []
            if order == 1
            else [_record("p0", order, _coprime_pair(rng, order), {"C": 1})]
        ),
    )
    stages = stages if stages is not None else rng.choice([1, 1, 2])
    ray_name = "C"
    for stage in range(stages):
        if order == 1 or stage > 0:
            center = QuotientSingularity(1, (1, 1), label=f"s{stage}")
            weights = (1, 1)
        else:
            center = config.singular_points[0].point
            weights = _coprime_pair(rng, order)
        # exactly one existing curve passes through each center: blowing up a
        # shared point of two curves with large orders would drive their
        # cross-pairing negative, which no pair of distinct curves can do
        if stage == 0 and center.order > 1:
            through = config.singular_points[0].multiplicities[0][0]
        else:
            through = rng.choice(list(config.basis))
        square = config.pairing(config.basis_vector(through), config.basis_vector(through))
        # push the strict transform negative: w^2/(n*a*b) > C^2
        w = 1
        while Fraction(w * w, center.order * weights[0] * weights[1]) <= max(square, 0):
            w += 1
        orders = {through: w + rng.choice([0, 1])}
        exceptional = f"E{stage + 1}"
        spec = BlowupSpec.make(center, weights, orders, exceptional=exceptional)
        result = transform_config(config, spec)
        config = result.upstairs
        ray_name = exceptional
    return config, config.anticanonical, ray_name


def _coprime_pair(rng: random.Random, order: int):
    import math

    while True:
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        if math.gcd(a, order) == 1 and math.gcd(b, order) == 1 and math.gcd(a, b) == 1:
            return (a, b)


def _record(label, order, weights, mults):
    from kstab import SingularPointRecord

    return SingularPointRecord.make(
        QuotientSingularity(order, weights, label=label), mults
    )
