"""Serve a parametric family's reports at many n from one plan over Q(n).

Along a family every Gram entry, polarization and invariant is a rational
function of n, and along a fixed chamber structure only the numbers change.
``planned_report`` builds a family's plan once per loaded catalog, at the
first n it is asked for: the pipeline runs at that n (the report it returns),
and the same path is recomputed with ``RationalFunction`` arithmetic into
every item's value.  Each decision the pipeline took at that n is recorded as
a guard, a rational function whose sign must stay in a set: the divisors of
the checks' expressions and the min() branches whose value is computed with,
definiteness, and in each ray's walk the curves that enter the support, the
root that ends each chamber, the root that is tau and the chamber
certificate.  A guard whose sign on every n >= the family's minimum follows
from its coefficients (all of one sign after the shift n = min + m) is
dropped.  A min() whose value is only reported stays a node, taken at each n.

At a later n, ``instantiate`` has already validated the family's structures
at n with the pipeline's own messages.  If every guard holds, each item is
one evaluation of a rational function, formatted once where expected and
computed are the same function.  A guard that fails, or a family whose plan
could not be built, sends that n through the pointwise pipeline, the oracle.
Nothing here proves a value for all n at once: each n is checked on its own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .arith import PiecewisePoly, Poly, RationalFunction, _poly_at, _poly_mul, _trim
from .catalog import (
    _FLAG_SCALARS,
    _RAY_SCALARS,
    Catalog,
    CheckItem,
    FamilyInstance,
    VerificationReport,
    _compile,
    _fold,
    _item,
    _Min,
    _node_at,
    _pointwise,
)
from .zariski import _smallest_rational_root_at_least

RF = RationalFunction
ZERO, ONE, HALF = RF(), RF((1,)), RF((1,), (2,))
NEG, NIL, POS = frozenset({-1}), frozenset({0}), frozenset({1})
NONNEG, NONPOS, NONZERO = frozenset({0, 1}), frozenset({-1, 0}), frozenset({-1, 1})
SIGNS = frozenset({-1, 0, 1})

class Unsupported(Exception):
    """The path at the first n has a step the plan does not follow over Q(n)."""


def planned_report(catalog: Catalog, instance: FamilyInstance) -> Optional[VerificationReport]:
    """The report at instance.n from the family's plan, built on first use; None where a
    guard fails or no plan could be built, and the pointwise pipeline must run instead.
    catalog.plan_counts counts the plans built and refused and the n served and sent back."""
    family_id, counts = instance.entry.family_id, catalog.plan_counts
    if family_id not in catalog.plans:
        report = _pointwise(instance)  # raises as the pointwise path does; no plan is kept then
        try:
            plan = _Builder(instance).plan()
        except Unsupported:
            plan = None
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
    guards: tuple  # (numerator, denominator or None where it is positive throughout, allowed signs)
    items: tuple  # a CheckItem where it is the same at every n, else a _Served

    def report(self, instance: FamilyInstance) -> Optional[VerificationReport]:
        n = instance.n
        for num, den, signs in self.guards:
            s = _poly_at(num, n) if den is None else _poly_at(num, n) * _poly_at(den, n)
            if (s > 0) - (s < 0) not in signs:
                return None
        items = tuple(item if isinstance(item, CheckItem) else item.at(n) for item in self.items)
        return VerificationReport(self.family_id, n, items)


class _Served(NamedTuple):
    """An item whose values change with n: value_at(x, n) takes expected and computed at n,
    and computed is None where it is expected itself."""

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


def _value_item(label: str, anchor: str, expected, computed):
    if _constant(expected) and _constant(computed):
        return _item(label, expected(0), computed(0), anchor)
    return _Served(label, anchor, expected, None if expected == computed else computed, _node_at)


def _constant(node) -> bool:
    return isinstance(node, RF) and not node.uses_n()


# -- building ----------------------------------------------------------------------


class _Stage(NamedTuple):
    """A config over Q(n): its basis, Gram rows and anticanonical class."""

    basis: tuple
    gram: list
    anticanonical: list


class _Chamber(NamedTuple):
    """One chamber of a walk: u in [left, right], the support's N coefficients c0 + u c1,
    and P(u).C_j = alpha_j + u beta_j for every basis curve."""

    left: RF
    right: RF
    support: tuple
    coeffs: list
    alpha: list
    beta: list


class _Ray(NamedTuple):
    chambers: list
    pieces: list  # (left, right, (v0, v1, v2)) for vol = v0 + v1 u + v2 u^2 on each chamber
    nef_threshold: RF
    tau: RF
    integral: RF
    ample_square: RF
    s: RF  # integral / ample_square


class _Builder:
    """Recomputes the checks of a family over Q(n), recording each decision taken at n0 as a guard."""

    def __init__(self, instance: FamilyInstance):
        self.entry = instance.entry
        self.n0, self.lo = instance.n, instance.entry.minimum_n
        self.guards: dict = {}  # rational function -> the signs it may take
        self.rays: dict = {}
        self.stages: dict = {}
        self.log_discrepancies: dict = {}

    # -- decisions --------------------------------------------------------------------

    def test(self, x: RF, signs: frozenset) -> bool:
        """Whether x's sign at n0 is in signs; guarded to stay on the same side at every n."""
        ok = x.sign_at(self.n0) in signs
        if x.uses_n():
            signs = signs if ok else SIGNS - signs
            if not _possible_signs(x, self.lo) <= signs:
                self.guards[x] = self.guards.get(x, SIGNS) & signs
        return ok

    def require(self, x: RF, signs: frozenset) -> None:
        """A test the pipeline passed at n0 (it raises otherwise)."""
        if not self.test(x, signs):
            raise Unsupported("a test the pipeline passed fails over Q(n)")

    def expr(self, expr) -> RF:
        """A catalog expression as one rational function: its divisors are guarded, and so is
        the branch each min() takes at n0 where the prover cannot settle it."""
        return self._node(self.reported(expr))

    def _node(self, node) -> RF:
        if isinstance(node, RF):
            return node
        if isinstance(node, _Min):  # min(a, b) is b only where b < a
            first, second = self._node(node.first), self._node(node.second)
            return second if self.test(second - first, NEG) else first
        value = self._node(node.first)
        for op, x in node.rest:
            value = op(value, self._node(x))
        return value

    def reported(self, expr):
        """A catalog expression that is only reported, as a node: its divisors are guarded,
        and a min() the prover cannot settle stays a node, taken at each n without a guard."""
        if isinstance(expr, int):
            return RF.constant(expr)
        compiled = _compile(str(expr))
        for divisor in compiled.divisors:
            self.require(self._node(divisor), NONZERO)
        return self._settled(compiled.value)

    def _settled(self, node):
        if isinstance(node, RF):
            return node
        if isinstance(node, _Min):
            return self.minimum(self._settled(node.first), self._settled(node.second))
        return _fold(self._settled(node.first), [(op, self._settled(x)) for op, x in node.rest])

    def minimum(self, first, second):
        """min(first, second) as a node: one of them where the prover shows which one
        Python's min() takes at every n >= lo (second only where it is smaller), else a _Min."""
        if first == second:
            return first
        if isinstance(first, RF) and isinstance(second, RF):
            signs = _possible_signs(second - first, self.lo)
            if -1 not in signs:
                return first
            if signs == NEG:
                return second
        return _Min(first, second)

    def int_expr(self, expr) -> RF:
        value = self.expr(expr)
        if value.den != (1,):
            raise Unsupported("an integer field that may not be an integer")
        return value

    # -- the family -------------------------------------------------------------------

    def plan(self) -> _Plan:
        data = self.entry.data
        try:
            weights = [self.expr(w) for w in data["weights"]]
            self.degree, self.weight_product = self.expr(data["degree"]), _product(weights)
            self._build_stages(data)
            # instantiate has checked at n that the quintuple is well-formed
            items = [
                _value_item("quintuple index", "index-2 catalog invariant", RF.constant(2), _sum(weights) - self.degree),
                _item("quintuple well-formed", True, True, "well-formedness catalog invariant"),
            ]
            for check in data.get("checks", []):
                build = getattr(self, f"_{check['kind']}", None)
                if build is None:
                    raise Unsupported(f"no plan for check kind {check['kind']!r}")
                items.extend(build(check))
        except (ValueError, KeyError, ZeroDivisionError) as exc:  # a step this module does not follow
            raise Unsupported(str(exc)) from exc
        guards = []
        for x, signs in self.guards.items():
            den = None if _possible_signs(RF(x.den), self.lo) == POS else x.den
            guards.append((x.num, den, signs))
        return _Plan(self.entry.family_id, tuple(guards), tuple(items))

    def _build_stages(self, data) -> None:
        """Each config and blow-up upstairs over Q(n), as ``_build_structures`` builds them at n."""
        for name, cfg in data.get("configs", {}).items():
            gram = [[self.expr(x) for x in row] for row in cfg["gram"]]
            self.stages[name] = _Stage(tuple(cfg["basis"]), gram, [self.expr(x) for x in cfg["anticanonical"]])
        for spec in data.get("blowups", []):
            base, order = self.stages[spec["base"]], self.int_expr(spec["center"]["order"])
            ab = RF.constant(spec["weights"][0] * spec["weights"][1])
            orders = spec.get("curve_orders", {})
            o = [self.expr(orders.get(name, 0)) for name in base.basis]
            # g_ij - o_i o_j / (order a b), E.C_i = o_i / (a b), E^2 = -order / (a b)
            e_row = [w / ab for w in o]
            gram = [
                [x - oi * oj / (order * ab) for x, oj in zip(row, o)] + [e]
                for row, oi, e in zip(base.gram, o, e_row)
            ]
            gram.append(e_row + [-order / ab])
            anticanonical = base.anticanonical + [_sum(c * w for c, w in zip(base.anticanonical, o)) / order]
            exceptional = spec.get("exceptional", "E")
            self.stages[f"blowup:{spec['name']}"] = _Stage(base.basis + (exceptional,), gram, anticanonical)
            self.log_discrepancies[spec["name"]] = RF.constant(sum(spec["weights"])) / order

    def _stage(self, check) -> _Stage:
        if check["config"] not in self.stages:
            raise Unsupported(f"no config {check['config']!r}")
        return self.stages[check["config"]]

    def _class(self, stage: _Stage, coords) -> list:
        values = {name: self.expr(x) for name, x in coords.items()}
        if set(values) - set(stage.basis):
            raise Unsupported("unknown curve names")
        return [values.get(name, ZERO) for name in stage.basis]

    def _one(self, check, computed: RF) -> list:
        return [_value_item(check["name"], check.get("anchor", ""), self.reported(check["expect"]), computed)]

    # -- the check kinds, as ``_CHECK_KINDS`` reads them ------------------------------

    def _ambient(self, check) -> list:
        m, k = self.int_expr(check["m"]), self.int_expr(check["k"])
        return self._one(check, m * k * self.degree / self.weight_product)

    def _pairing(self, check) -> list:
        stage = self._stage(check)
        return self._one(check, _pair(stage.gram, self._class(stage, check["v"]), self._class(stage, check["w"])))

    def _negdef(self, check) -> list:
        stage = self._stage(check)
        computed = self._negative_definite(stage.gram, [stage.basis.index(c) for c in check["subset"]])
        return [_item(check["name"], check["expect"], computed, check.get("anchor", ""))]

    def _log_discrepancy(self, check) -> list:
        return self._one(check, self.log_discrepancies[check["blowup"]])

    def _proportional(self, check) -> list:
        mu = self.expr(check["mu"])
        self.require(mu, POS)
        return self._one(check, ONE / (RF.constant(3) * mu))

    def _identity(self, check) -> list:
        stage, expect, anchor = self._stage(check), check["expect"], check.get("anchor", "")
        pair_with = self._class(stage, check["pair_with"])
        items = []
        for key in sorted(expect, key="const".__ne__):  # the constant term first
            coords = check["base"] if key == "const" else check["params"][key]
            label = "constant term" if key == "const" else f"coefficient of {key}"
            computed = _pair(stage.gram, self._class(stage, coords), pair_with)
            items.append(_value_item(f"{check['name']}: {label}", anchor, self.reported(expect[key]), computed))
        return items

    def _ray(self, check) -> list:
        name, expect, anchor = check["name"], check["expect"], check.get("anchor", "")
        items = []
        for key in _RAY_SCALARS:
            if key in expect:
                ray = self._get_ray(check)
                if key == "beta":
                    computed = self.expr(check["a_value"]) - ray.s
                else:  # the basis bound is S itself
                    computed = getattr(ray, "s" if key == "k_bound" else key)
                items.append(_value_item(f"{name}: {key}", anchor, self.reported(expect[key]), computed))
        if "volume" in expect:
            expected = []
            for p in expect["volume"]:
                left, right = self.expr(p["left"]), self.expr(p["right"])
                self.require(right - left, POS)
                if expected:
                    self.require(left - expected[-1][1], NIL)
                expected.append((left, right, tuple(self.expr(c) for c in p["coeffs"])))
            computed = [(left, right, tuple(v)) for left, right, v in self._get_ray(check).pieces]
            expected, computed = _merged(expected), _merged(computed)
            computed = None if expected == computed else computed
            items.append(_Served(f"{name}: volume profile", anchor, expected, computed, _profile_at))
        return items

    def _flag(self, check) -> list:
        name, expect, anchor = check["name"], check["expect"], check.get("anchor", "")
        s_w = []
        items = []
        for key in _FLAG_SCALARS:
            if key not in expect:
                continue
            ray = self._get_ray(check)
            if not s_w:
                stage = self._stage(check)
                mults = {stage.basis.index(k): self.expr(v) for k, v in check.get("mults", {}).items()}
                s_w.append(self._s_w(ray, stage.basis.index(check["curve"]), mults))
            computed = s_w[0]
            if key == "delta":  # min(1 / S, A / S_W), each positive
                a_value = self.expr(check["a_value"])
                for x in (ray.s, a_value, s_w[0]):
                    self.require(x, POS)
                computed = self.minimum(ONE / ray.s, a_value / s_w[0])
            items.append(_value_item(f"{name}: {key}", anchor, self.reported(expect[key]), computed))
        return items

    # -- rays -------------------------------------------------------------------------

    def _get_ray(self, check) -> _Ray:
        curve, ample = check.get("ray") or check.get("curve"), check.get("ample")
        key = (check["config"], curve, None if ample is None else tuple(sorted(ample.items())))
        if key not in self.rays:
            stage = self._stage(check)
            a = stage.anticanonical if ample is None else self._class(stage, ample)
            self.rays[key] = self._walk(stage, a, stage.basis.index(curve))
        return self.rays[key]

    def _walk(self, stage: _Stage, a: list, e: int) -> _Ray:
        """``decompose_ray`` of a - uC_e over Q(n), each of its decisions guarded."""
        g, k = stage.gram, len(stage.gram)
        ample_square = _pair(g, a, a)
        self.require(ample_square, POS)
        rhs0, rhs1 = _times(g, a), [-row[e] for row in g]  # (A - uE).C_i = rhs0_i + u rhs1_i
        for q in rhs0:
            self.require(q, NONNEG)
        support: list = []
        chambers, pieces, left, tau = [], [], ZERO, None
        while tau is None:
            while True:
                c0, c1 = _solve([[g[i][j] for j in support] for i in support], [rhs0[i] for i in support],
                                [rhs1[i] for i in support])
                p0, p1 = list(a), [-ONE if j == e else ZERO for j in range(k)]
                for i, x0, x1 in zip(support, c0, c1):
                    p0[i], p1[i] = p0[i] - x0, p1[i] - x1
                alpha, beta = _times(g, p0), _times(g, p1)
                entering = [j for j in range(k) if j not in support and self._falls(alpha[j], beta[j], left)]
                if not entering:
                    break
                support = sorted(support + entering)
                if not self._negative_definite(g, support):
                    raise Unsupported("a support that is not negative definite")
                for i in entering:
                    for j in range(k):
                        if j != i:
                            self.require(g[i][j], NONNEG)
            for i in support:
                self.require(alpha[i], NIL)
                self.require(beta[i], NIL)
            right = None
            for x, y in zip(alpha, beta):  # the first root of a falling P.C_j
                if self.test(y, NEG):
                    root = -x / y
                    if right is None or self.test(root - right, NEG):
                        right = root
            vol = (
                _sum(x * y for x, y in zip(p0, alpha)),
                _sum(x * y + z * w for x, y, z, w in zip(p0, beta, p1, alpha)),
                _sum(x * y for x, y in zip(p1, beta)),
            )
            root = self._end(vol, left, right)
            if root is not None:
                right = tau = root
            for x, y in [*zip(c0, c1), *zip(alpha, beta)]:  # the chamber certificate
                self.require(x + left * y, NONNEG)
                self.require(x + right * y, NONNEG)
            chambers.append(_Chamber(left, right, tuple(support), list(zip(c0, c1)), alpha, beta))
            pieces.append((left, right, vol))
            left = right
        for (_, r, v), (_, _, w) in zip(pieces, pieces[1:]):  # continuity, and vol(0) = A^2
            self.require(_at(v, r) - _at(w, r), NIL)
        self.require(pieces[0][2][0] - ample_square, NIL)
        nef_threshold = chambers[0].right if not chambers[0].support else ZERO
        integral = _sum(_integral(v, left, right) for left, right, v in pieces)
        return _Ray(chambers, pieces, nef_threshold, tau, integral, ample_square, integral / ample_square)

    def _falls(self, x: RF, y: RF, left: RF) -> bool:
        """Whether x + u y is negative just right of left: negative there, or zero with y < 0."""
        value = x + left * y
        if self.test(value, NEG):
            return True
        return not self.test(value, POS) and self.test(y, NEG)

    def _end(self, vol: tuple, left: RF, right: Optional[RF]) -> Optional[RF]:
        """tau if the walk ends in this chamber, else None with vol > 0 on (left, right] guarded,
        which rules out both a rational root there and a crossing at an irrational one."""
        n0 = self.n0
        r0 = _smallest_rational_root_at_least(Poly(c(n0) for c in vol), left(n0))
        if r0 is not None and (right is None or r0 <= right(n0)):
            root = self._smallest_root(vol, left)
            if root is None or root(n0) != r0:
                raise Unsupported("the volume's root is no rational function of n")
            if right is not None:
                self.require(root - right, NONPOS)
            return root
        if right is None:
            raise Unsupported("the volume does not reach zero")
        self.require(_at(vol, left), NONNEG)
        self.require(_at(vol, right), POS)
        if self.test(vol[2], POS):  # convex: its minimum is at the vertex
            vertex = -vol[1] / (RF.constant(2) * vol[2])
            if self.test(vertex - left, POS) and self.test(vertex - right, NEG):
                self.require(_at(vol, vertex), POS)
        return None

    def _smallest_root(self, vol: tuple, left: RF) -> Optional[RF]:
        """``_smallest_rational_root_at_least(vol, left)`` over Q(n)."""
        v0, v1, v2 = vol
        if self.test(v2, NIL):
            if self.test(v1, NIL):
                return None
            roots = [-v0 / v1]
        else:
            root = _sqrt(v1 * v1 - RF.constant(4) * v2 * v0)
            if root is None:
                raise Unsupported("the volume's discriminant is no square over Q(n)")
            two_v2 = RF.constant(2) * v2
            roots = [(-v1 - root) / two_v2, (-v1 + root) / two_v2] if root.num else [-v1 / two_v2]
            if len(roots) == 2 and not self.test(roots[1] - roots[0], POS):
                roots.reverse()
        for root in roots:
            if self.test(root - left, POS):
                return root
        return None

    def _negative_definite(self, g: list, idx: list) -> bool:
        """``is_negative_definite``: every pivot of elimination without swaps is negative."""
        rows = [[g[i][j] for j in idx] for i in idx]
        for c, top in enumerate(rows):
            if not self.test(top[c], NEG):
                return False
            for r in range(c + 1, len(rows)):
                f = rows[r][c] / top[c]
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
        return True

    def _s_w(self, ray: _Ray, y: int, mults: dict) -> RF:
        """``az_s_w`` over Q(n): 2 / A^2 times the integral of deg ord + deg^2 / 2."""
        total = ZERO
        for ch in ray.chambers:
            if y in ch.support:
                raise Unsupported("the flag curve lies in its own negative support")
            d0, d1 = ch.alpha[y], ch.beta[y]
            o0 = _sum(mults[i] * c0 for i, (c0, _) in zip(ch.support, ch.coeffs) if i in mults)
            o1 = _sum(mults[i] * c1 for i, (_, c1) in zip(ch.support, ch.coeffs) if i in mults)
            h = (d0 * o0 + HALF * d0 * d0, d0 * o1 + d1 * o0 + d0 * d1, d1 * o1 + HALF * d1 * d1)
            total = total + _integral(h, ch.left, ch.right)
        return RF.constant(2) * total / ray.ample_square


# -- arithmetic over Q(n) --------------------------------------------------------------


def _sum(terms) -> RF:
    total = ZERO
    for t in terms:
        total = total + t
    return total


def _product(terms) -> RF:
    total = ONE
    for t in terms:
        total = total * t
    return total


def _times(g: list, v: list) -> list:
    return [_sum(x * y for x, y in zip(row, v)) for row in g]


def _pair(g: list, v: list, w: list) -> RF:
    return _sum(x * y for x, y in zip(v, _times(g, w)))


def _at(vol: tuple, u: RF) -> RF:
    return vol[0] + u * (vol[1] + u * vol[2])


def _integral(coeffs: tuple, left: RF, right: RF) -> RF:
    """The integral of sum coeffs[i] u^i over [left, right]."""
    total, lp, rp = ZERO, left, right
    for i, c in enumerate(coeffs):
        total = total + c * (rp - lp) / RF.constant(i + 1)
        lp, rp = lp * left, rp * right
    return total


def _solve(m: list, *columns: list) -> list:
    """m x = b for each column b, by elimination without swaps (m is negative definite)."""
    k = len(m)
    rows = [list(row) + [b[i] for b in columns] for i, row in enumerate(m)]
    for c in range(k):
        top = rows[c]
        for r in range(c + 1, k):
            f = rows[r][c] / top[c]
            if f.num:
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
    out = [[ZERO] * k for _ in columns]
    for i in reversed(range(k)):
        for b, x in enumerate(out):
            acc = rows[i][k + b] - _sum(rows[i][t] * x[t] for t in range(i + 1, k))
            x[i] = acc / rows[i][i]
    return out


def _sqrt(x: RF) -> Optional[RF]:
    """A rational function whose square is x, or None if there is none."""
    root = _poly_sqrt(_poly_mul(x.num, x.den))  # p / q = p q / q^2
    return None if root is None else root / RF(x.den)


def _poly_sqrt(p: list[int]) -> Optional[RF]:
    """A polynomial over Q whose square is the int polynomial p, or None."""
    if not p:
        return ZERO
    if len(p) % 2 == 0 or p[-1] < 0:
        return None
    half = len(p) // 2
    top = math.isqrt(p[-1])
    if top * top != p[-1]:
        return None
    # the coefficients from the top down: 2 t_top t_i = p_(top + i) - sum of the known products
    root = [Fraction(0)] * (half + 1)
    root[half] = Fraction(top)
    for i in reversed(range(half)):
        known = sum((root[j] * root[half + i - j] for j in range(i + 1, half + 1) if half + i - j <= half), Fraction(0))
        root[i] = (p[half + i] - known) / (2 * top)
    den = math.lcm(*(c.denominator for c in root))
    nums = [int(c * den) for c in root]
    if _trim(_poly_mul(nums, nums)) != [x * den * den for x in p]:
        return None
    return RF(nums, (den,))


def _merged(pieces: list) -> tuple:
    """Pieces with trailing zero coefficients dropped and equal neighbours joined, as
    ``PiecewisePoly`` joins them at every n."""
    out: list = []
    for left, right, coeffs in pieces:
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == ZERO:
            coeffs.pop()
        if out and out[-1][2] == tuple(coeffs):
            left = out.pop()[0]
        out.append((left, right, tuple(coeffs)))
    return tuple(out)


def _possible_signs(x: RF, lo: int) -> frozenset:
    """Signs that x may take at integers n >= lo where it is defined: a coefficient sign
    pattern of p(lo + m) and q(lo + m), m >= 0, settles some."""
    return frozenset(a * b for a in _poly_signs(x.num, lo) for b in _poly_signs(x.den, lo) if b)


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

