"""Machine-readable catalog of the ten index-2 families and its verifier.

The catalog ships as a versioned JSON document embedded in the package
(overridable via the KSTAB_CATALOG environment variable or an explicit
path).  Every rational quantity in the file is an expression string over the
family parameter n (plain 'p/q' for the fixed families), evaluated exactly.
``verify`` recomputes every expected invariant from the stored curve
configurations through the decomposition pipeline and compares bit-exactly.
"""

from __future__ import annotations

import functools
import json
import operator
import os
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional

from .arith import Frozen, PiecewisePoly, Poly, _Min, is_integer, minimum, rat
from .blowup import BlowupResult, BlowupSpec, transform_config
from .invariants import az_s_w, beta, delta_lower_bound, k_basis_bound, proportional_bound, s_invariant
from .surface import (
    ClassVector,
    CurveConfig,
    QuotientSingularity,
    Quintuple,
    SingularPointRecord,
)
from .zariski import RayDecomposition, decompose_ray


class CatalogError(ValueError):
    """Malformed catalog data or invalid family/parameter selection."""


class ParameterError(CatalogError):
    """Family parameter missing, superfluous, or out of range."""


# -- rational expressions over the family parameter ---------------------------


def eval_expr(expr, n: Optional[int] = None) -> Fraction:
    """Evaluate an exact rational expression: integers, n, + - * / ( ), min().

    Each text is parsed once per process into a tree whose parts without n are
    folded to Fractions, and the tree is evaluated at rat(n) with n's own
    arithmetic: Fractions at an integer n, numbers over Q(n) at kstab.plan's
    symbolic n, where each divisor that uses n records its own guard.  What is
    wrong with a text whatever n is raises one CatalogError when the text is
    parsed, the same at every n: a syntax error, a constant zero divisor, a
    digit run that int() refuses, and nesting deeper than the interpreter
    allows.  Only parentheses, unary minus and min() nest: each run of + and -
    (or of * and /) is evaluated in a loop, so evaluating nests no deeper than
    parsing.  Only a missing n and a divisor that is zero at this n are raised
    when evaluating.
    """
    if isinstance(expr, (int, Fraction)) and not isinstance(expr, bool):
        return rat(expr)
    text = str(expr)
    try:
        tree = _compile(text)
        if isinstance(tree, Fraction):
            return tree
        if n is None:
            raise ParameterError(f"expression {text!r} needs the parameter n")
        return _at(tree, rat(n))
    except RecursionError:
        raise CatalogError(f"expression {text!r} is nested too deeply") from None
    except ZeroDivisionError:
        raise CatalogError(f"division by zero in {text!r}") from None


@functools.lru_cache(maxsize=1024)
def _compile(text: str):
    """Parse text to its tree: a Fraction, _N, a _Chain or a _Min."""
    return _Parser(text).parse()


_N = "n"  # the parameter, in a parse tree


class _Chain(NamedTuple):
    """first op1 x1 op2 x2 ..., a run of + and - (or of * and /) evaluated left to
    right in one loop; first is its longest prefix without n, folded, and rest holds
    the (op, node) pairs after it."""

    first: object
    rest: tuple


def _at(node, n):
    """A parse tree's value at n."""
    if isinstance(node, Fraction):
        return node
    if node is _N:
        return n
    if isinstance(node, _Min):
        return minimum(_at(node.first, n), _at(node.second, n))
    value = _at(node.first, n)
    for op, x in node.rest:
        value = op(value, _at(x, n))
    return value


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Parser:
    """Recursive descent over one expression, building its parse tree."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self):
        node = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise CatalogError(f"trailing input in expression {self.text!r}")
        return node

    def _expr(self):
        return self._chain(self._term, "+-")

    def _term(self):
        return self._chain(self._factor, "*/")

    def _chain(self, operand, ops: str):
        """Operands joined by the operators in ops, in one _Chain, so that a long sum or
        product nests no deeper than one of its operands; a prefix without n is folded."""
        node, rest = operand(), []
        while (op := self._peek()) and op in ops:
            self.pos += 1
            rhs = operand()
            if op == "/" and isinstance(rhs, Fraction) and not rhs:  # zero whatever n is
                raise CatalogError(f"division by zero in {self.text!r}")
            if not rest and isinstance(node, Fraction) and isinstance(rhs, Fraction):
                node = _OPS[op](node, rhs)
            else:
                rest.append((_OPS[op], rhs))
        return _Chain(node, tuple(rest)) if rest else node

    def _factor(self):
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            node = self._factor()
            return -node if isinstance(node, Fraction) else _Chain(Fraction(0), ((operator.sub, node),))
        if ch == "(":
            self.pos += 1
            node = self._expr()
            if self._peek() != ")":
                raise CatalogError(f"unbalanced parentheses in {self.text!r}")
            self.pos += 1
            return node
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            try:
                return Fraction(int(self.text[start : self.pos]))
            except ValueError as exc:  # a superscript, or more digits than int() reads
                raise CatalogError(f"cannot parse expression {self.text!r} at position {start}: {exc}") from None
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
            if isinstance(first, Fraction) and isinstance(second, Fraction):
                return min(first, second)
            return _Min(first, second)
        if ch == "n":
            self.pos += 1
            return _N
        raise CatalogError(f"cannot parse expression {self.text!r} at position {self.pos}")

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1


def _eval_int(expr, n: Optional[int]) -> int:
    value = eval_expr(expr, n)
    if not is_integer(value):
        raise CatalogError(f"expression {expr!r} is not an integer at n={n}")
    return value.numerator


# -- catalog loading -----------------------------------------------------------


class FamilyEntry(NamedTuple):
    """One catalog row: raw (un-instantiated) family data."""

    family_id: int
    data: Mapping

    @property
    def parameter(self) -> Optional[Mapping]:
        return self.data.get("parameter")

    @property
    def parametric(self) -> bool:
        return self.parameter is not None

    @property
    def minimum_n(self) -> Optional[int]:
        return int(self.parameter["min"]) if self.parametric else None

    @property
    def ke_verdict(self) -> str:
        return self.data["ke"]

    @property
    def notes(self) -> list[str]:
        return list(self.data.get("notes", []))

    @property
    def delta_lower(self) -> Optional[str]:
        return self.data.get("delta_lower")

    @property
    def weights_display(self) -> str:
        return "(" + ", ".join(str(w) for w in self.data["weights"]) + ")"

    @property
    def degree_display(self) -> str:
        return str(self.data["degree"])


class Catalog(Frozen):
    _fields = ("version", "families", "non_ke_quintuples", "source")

    def __init__(
        self, version: int, families: tuple[FamilyEntry, ...], non_ke_quintuples: tuple[Mapping, ...], source: str
    ):
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "families", families)
        object.__setattr__(self, "non_ke_quintuples", non_ke_quintuples)
        object.__setattr__(self, "source", source)
        # family id -> the plan that serves its n (None where none could be built), and what
        # the plans did, neither compared nor in the repr: see kstab.plan
        object.__setattr__(self, "plans", {})
        object.__setattr__(self, "plan_counts", Counter())

    def family(self, family_id: int) -> FamilyEntry:
        for entry in self.families:
            if entry.family_id == family_id:
                return entry
        raise CatalogError(f"no family with id {family_id}")

    @property
    def family_ids(self) -> list[int]:
        return [e.family_id for e in self.families]


def read_json(where: str, file) -> object:
    """The JSON document in file, a Path or a package resource; a CatalogError naming where
    if it cannot be read or is not UTF-8 JSON."""
    try:
        return json.loads(file.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CatalogError(f"{where} cannot be read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{where} is not valid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # a huge integer or deep nesting too
        raise CatalogError(f"{where} is not valid JSON: {exc}") from exc


def load_catalog(path: Optional[str | Path] = None) -> Catalog:
    """Load the catalog from path, $KSTAB_CATALOG, or the embedded copy."""
    if path is None:
        path = os.environ.get("KSTAB_CATALOG") or None
    source = "embedded" if path is None else str(path)
    file = resources.files("kstab").joinpath("data/catalog.json") if path is None else Path(path)
    doc = read_json(f"catalog at {source}", file)
    malformed = f"catalog at {source} is malformed: "
    _check(f"{malformed}the document", doc, _OBJECT)
    _walk(malformed, doc, _DOCUMENT)
    families, rows = doc["families"], doc.get("non_ke_quintuples", [])
    catalog = Catalog(doc["version"], tuple(FamilyEntry(f["id"], f) for f in families), tuple(rows), source)
    for row in rows:
        _check(f"{malformed}each non_ke_quintuples row", row, _NON_KE_ROW)
    for entry in catalog.families:
        where, data = f"{malformed}family {entry.family_id}", entry.data
        if catalog.family(entry.family_id) is not entry:
            raise CatalogError(f"{where} id must be unique")
        _walk(f"{where} ", data, _FAMILY)
        stages = _walk_structures(where, data.get("configs", {}), data.get("blowups", []))
        for check in data.get("checks", []):
            at = f"{where} check {check.get('name')!r}: "
            _walk(at, check, _CHECK_FIELDS)
            _walk(at, check, _CHECK_KINDS[check["kind"]].fields, stages)
    return catalog


_ABSENT = object()  # the value of a field that an object leaves out


def _check(where: str, value, shape: tuple, obj=None, names=None) -> None:
    """Raise CatalogError "<where> must be <what>" unless value fits shape, a
    ``(fits, what, required)`` whose fits(value, obj, names) sees the object
    that holds value and the names it may refer to.  _ABSENT fits no shape."""
    fits, what, _ = shape
    if value is _ABSENT or not fits(value, obj, names):
        raise CatalogError(f"{where} must be {what}")


def _walk(where: str, obj: Mapping, table: Mapping, names=None) -> None:
    """_check each field of table that obj has, or must have: where its shape's
    required is True, or is a key of obj's expect (the key of the item that
    reads the field).  where ends with what joins it to a field name."""
    expect = obj.get("expect")
    keys = expect if isinstance(expect, dict) else ()
    for field, shape in table.items():
        if field in obj or shape[2] is True or shape[2] in keys:
            _check(where + field, obj.get(field, _ABSENT), shape, obj, names)


def _walk_structures(where: str, configs: Mapping, blowups: list) -> set:
    """_walk a family's (or a fixture's) configs, blow-ups and their points, where a
    blow-up's base names a config or an earlier blow-up; the stage names a check
    may use.  Expressions are only type-checked here; they compile on first use."""
    for name, cfg in configs.items():
        at = f"{where}: config {name!r}"
        _walk(f"{at} ", cfg, _CONFIG)
        for point in cfg.get("singular_points", []):
            _walk(f"{at} singular point ", point, _SINGULAR_POINT)
    stages = set(configs)
    for spec in blowups:
        at = f"{where}: blow-up {spec.get('name')!r}"
        _walk(f"{at} ", spec, _BLOWUP, stages)
        _walk(f"{at} center ", spec["center"], _POINT)
        stages.add(f"blowup:{spec['name']}")
    return stages


# -- instantiation -------------------------------------------------------------


class FamilyInstance(NamedTuple):
    """A family with every parametric expression evaluated at a concrete n.
    ``stages`` maps each config a check may name (``blowup:<name>`` is a blow-up's upstairs)."""

    entry: FamilyEntry
    n: Optional[int]
    quintuple: Quintuple
    stages: Mapping[str, CurveConfig]
    blowups: Mapping[str, BlowupResult]

    def config(self, ref: str) -> CurveConfig:
        if ref not in self.stages:
            raise CatalogError(f"family {self.entry.family_id} has no config {ref!r}")
        return self.stages[ref]


def check_parameter(entry: FamilyEntry, n: Optional[int]) -> None:
    """Raise ParameterError unless n suits the family: at least its minimum
    for a parametric family, None for a fixed one."""
    family_id = entry.family_id
    if entry.parametric:
        if n is None:
            raise ParameterError(f"family {family_id} needs the parameter n")
        if n < entry.minimum_n:
            raise ParameterError(
                f"family {family_id} needs n >= {entry.minimum_n}, got {n}"
            )
    elif n is not None:
        raise ParameterError(f"family {family_id} takes no parameter")


def instantiate(catalog: Catalog, family_id: int, n: Optional[int] = None) -> FamilyInstance:
    entry = catalog.family(family_id)
    check_parameter(entry, n)

    weights = tuple(_located(f"family {family_id} weights", _eval_int, w, n) for w in entry.data["weights"])
    degree = _located(f"family {family_id} degree", _eval_int, entry.data["degree"], n)
    try:
        quintuple = Quintuple(weights, degree)
    except ValueError as exc:  # no four positive ascending weights, or no positive degree, at this n
        raise CatalogError(f"family {family_id}: {exc}") from exc
    if quintuple.index != 2:
        raise CatalogError(f"family {family_id}: index {quintuple.index} != 2")
    if not quintuple.is_well_formed():
        raise CatalogError(f"family {family_id}: quintuple not well-formed")

    stages, blowups = _build_structures(f"family {family_id}", entry.data, n)
    return FamilyInstance(entry, n, quintuple, stages, blowups)


def _located(at: str, evaluate, expr, n: Optional[int] = None):
    """evaluate(expr, n), with at (where expr is) before the message of its
    CatalogError, which keeps its type."""
    try:
        return evaluate(expr, n)
    except CatalogError as exc:
        raise type(exc)(f"{at}: {exc}") from exc


def _build_structures(where: str, data: Mapping, n: Optional[int]) -> tuple[dict, dict]:
    """The stages (each config, and each blow-up's upstairs as ``blowup:<name>``) and blow-ups
    of data that ``_walk_structures`` accepted, evaluated at n.  An expression error names
    where and its field; data that is no valid configuration or blow-up is a CatalogError."""
    stages: dict[str, CurveConfig] = {}
    blowups: dict[str, BlowupResult] = {}
    try:
        for name, cfg in data.get("configs", {}).items():
            stages[name] = _build_config(f"{where}: config {name!r}", cfg, n)
        for spec in data.get("blowups", []):
            at = f"{where}: blow-up {spec['name']!r}"
            orders = spec.get("curve_orders", {})
            bspec = BlowupSpec.make(
                center=_build_point(f"{at} center", spec["center"], n),
                weights=tuple(spec["weights"]),
                curve_orders={k: _located(f"{at} curve_orders", eval_expr, v, n) for k, v in orders.items()},
                exceptional=spec.get("exceptional", "E"),
            )
            blowups[spec["name"]] = transform_config(stages[spec["base"]], bspec)
            stages[f"blowup:{spec['name']}"] = blowups[spec["name"]].upstairs
    except CatalogError:
        raise
    except ValueError as exc:
        raise CatalogError(f"{where}: {exc}") from exc
    return stages, blowups


def load_fixture(where: str, doc) -> tuple[CurveConfig, list[BlowupResult]]:
    """The config of an ``analyze`` fixture and its blow-ups, read as a
    one-family document at n = None where blow-up i, named i, is based on
    blow-up i - 1 and the first on the config.  Its ray and point are checked
    against the basis of the last stage.  where names the fixture in errors."""
    _check(where, doc, _OBJECT)
    _walk(f"{where}: ", doc, _FIXTURE)
    blowups = [
        dict(spec, name=str(i), base=f"blowup:{i - 1}" if i else "config") for i, spec in enumerate(doc.get("blowups", []))
    ]
    data = {"configs": {"config": doc["config"]}, "blowups": blowups}
    _walk_structures(where, data["configs"], blowups)
    stages, results = _build_structures(where, data, None)
    basis = stages[f"blowup:{len(blowups) - 1}" if blowups else "config"].basis
    ray, point = doc.get("ray"), doc.get("point")
    if ray is not None:
        if ray.get("curve") not in basis:
            raise CatalogError(f"{where}: ray.curve {ray.get('curve')!r} must be a basis curve")
        _walk(f"{where}: ray.", ray, _RAY, basis)
    if point is not None:
        _walk(f"{where}: point.", point, _FIXTURE_POINT, basis)
    return stages["config"], list(results.values())


def _build_point(at: str, data: Mapping, n: Optional[int]) -> QuotientSingularity:
    return QuotientSingularity(
        order=_located(f"{at} order", _eval_int, data["order"], n),
        local_weights=tuple(data["weights"]),
        label=data.get("label", ""),
    )


def _build_config(at: str, data: Mapping, n: Optional[int]) -> CurveConfig:
    points = []
    for rec in data.get("singular_points", []):
        point = _build_point(f"{at} singular point", rec, n)
        at_mults = f"{at} singular point multiplicities"
        mults = {k: _located(at_mults, eval_expr, v, n) for k, v in rec.get("multiplicities", {}).items()}
        points.append(SingularPointRecord.make(point, mults))
    return CurveConfig.make(
        basis=data["basis"],
        gram=[[_located(f"{at} gram", eval_expr, x, n) for x in row] for row in data["gram"]],
        anticanonical=[_located(f"{at} anticanonical", eval_expr, x, n) for x in data["anticanonical"]],
        singular_points=points,
    )


# -- verification --------------------------------------------------------------


class CheckItem(NamedTuple):
    name: str
    expected: str
    computed: str
    match: bool
    anchor: str

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "match": self.match,
            "anchor": self.anchor,
        }
        approx = _approx(self.expected)
        if approx is not None:
            out["expected_approx"] = approx
        if self.computed != self.expected:
            approx = _approx(self.computed)
        if approx is not None:
            out["computed_approx"] = approx
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "CheckItem":
        """The item a ``to_json_dict`` object describes; a CatalogError where a field is
        missing or has another JSON type."""
        _check("check item", data, _OBJECT)
        _walk("check item ", data, _CHECK_ITEM)
        return cls(data["name"], data["expected"], data["computed"], data["match"], data["anchor"])


def _approx(text: str) -> Optional[str]:
    """Six decimals of a 'p/q' or 'p' text (as str(Fraction) writes them), else None;
    None too for a value beyond float range.

    Integer true division is correctly rounded, as float(Fraction) is.
    """
    p, _, q = text.partition("/")
    try:
        return f"{int(p) / int(q or 1):.6f}"
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


class VerificationReport(NamedTuple):
    family_id: int
    n: Optional[int]
    items: tuple[CheckItem, ...]

    @property
    def overall(self) -> bool:
        return all(item.match for item in self.items)

    @property
    def mismatches(self) -> list[CheckItem]:
        return [item for item in self.items if not item.match]

    def to_json_dict(self, item_json: Callable = CheckItem.to_json_dict) -> dict:
        """The report as JSON values, each item as item_json(item) gives it."""
        return {
            "family": self.family_id,
            "n": self.n,
            "overall": self.overall,
            "items": [item_json(item) for item in self.items],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "VerificationReport":
        """The report a ``to_json_dict`` object describes; a CatalogError where a field is
        missing or has another JSON type."""
        _check("verification report", data, _OBJECT)
        _walk("verification report ", data, _REPORT)
        return cls(data["family"], data["n"], tuple(CheckItem.from_json_dict(i) for i in data["items"]))


def expected_invariants(
    catalog: Catalog, family_id: int, n: Optional[int] = None
) -> list[tuple[str, Fraction]]:
    """The checks' expression-valued expectations at n, in report order; nothing is computed."""
    instance = instantiate(catalog, family_id, n)
    return [
        (label, expected)
        for check in instance.entry.data.get("checks", [])
        for label, expected, _ in _CHECK_KINDS[check["kind"]].items(instance, check, {})
        if isinstance(expected, Fraction)
    ]


def verify(catalog: Catalog, family_id: int, n: Optional[int] = None) -> VerificationReport:
    """Recompute every expected invariant through the pipeline and compare.

    A parametric family's reports come from one plan over Q(n) per loaded
    catalog (``kstab.plan``) wherever its guards hold at n;
    such an n runs no ``instantiate``.  Everywhere else, and for the fixed
    families, ``verify_pointwise`` runs the pipeline at n.  Both give the
    same report, or raise the same error.
    """
    entry = catalog.family(family_id)
    if entry.parametric:
        from .plan import planned_report

        check_parameter(entry, n)
        report = planned_report(catalog, entry, n)
        if report is not None:
            return report
    return verify_pointwise(catalog, family_id, n)


def verify_pointwise(catalog: Catalog, family_id: int, n: Optional[int] = None) -> VerificationReport:
    """``verify`` with every check run through the pipeline at n: the plan's oracle."""
    return _pointwise(instantiate(catalog, family_id, n))


def _pointwise(instance: FamilyInstance) -> VerificationReport:
    items = tuple(_item(*values) for values in _values(instance))
    return VerificationReport(instance.entry.family_id, instance.n, items)


def _values(instance: FamilyInstance):
    """(label, expected, computed, anchor) for each item of the report, in report order:
    what ``_item`` compares.  ``kstab.plan`` runs this at a symbolic n."""
    quintuple = instance.quintuple
    yield "quintuple index", 2, quintuple.index, "index-2 catalog invariant"
    yield "quintuple well-formed", True, quintuple.is_well_formed(), "well-formedness catalog invariant"
    rays: dict[tuple, RayDecomposition] = {}
    for check in instance.entry.data.get("checks", []):
        anchor = check.get("anchor", "")
        try:
            for label, expected, compute in _CHECK_KINDS[check["kind"]].items(instance, check, rays):
                yield label, expected, compute(), anchor
        except (ValueError, KeyError) as exc:  # name the check that failed to run
            reason = exc.args[0] if isinstance(exc, KeyError) else exc  # a KeyError's str() quotes its text
            raise CatalogError(
                f"family {instance.entry.family_id} check {check.get('name')!r} failed to run: {reason}"
            ) from exc


# how an item prints, by the type of its stored expectation; a number prints as str
_SHOW = {bool: lambda value: str(value).lower(), PiecewisePoly: PiecewisePoly.format}


def _item(label: str, expected, computed, anchor: str) -> CheckItem:
    """The item comparing expected with computed, each formatted once (once in all when equal)."""
    show = _SHOW.get(type(expected), str)
    text = show(expected)
    if expected == computed:
        return CheckItem(label, text, text, True, anchor)
    return CheckItem(label, text, show(computed), False, anchor)


def ample_class(
    config: CurveConfig, ample: Optional[Mapping], n: Optional[int] = None, at: str = "ample"
) -> ClassVector:
    """The class a ray starts from, for catalog checks and ``analyze``: ample, an object of
    expressions at n that at names in errors, or the reference class when ample is None."""
    if ample is None:
        return config.anticanonical
    return config.vector({k: _located(at, eval_expr, v, n) for k, v in ample.items()})


def _get_ray(instance: FamilyInstance, check: Mapping, rays: dict, curve: str) -> RayDecomposition:
    """The check's ray towards curve, decomposed once per (config, curve, ample) in rays."""
    ample = check.get("ample")
    key = (check["config"], curve, None if ample is None else tuple(sorted(ample.items())))
    if key not in rays:
        config = instance.config(check["config"])
        rays[key] = decompose_ray(config, ample_class(config, ample, instance.n), config.basis_vector(curve))
    return rays[key]


def _class(instance: FamilyInstance, check: Mapping, coords: Mapping):
    """coords, an object of expressions, as a class on the check's config."""
    return instance.config(check["config"]).vector({k: eval_expr(x, instance.n) for k, x in coords.items()})


def _one_item(compute, expected=lambda check, n: eval_expr(check["expect"], n)):
    """Items of a check that reports one item under its own name; compute(instance, check) recomputes it."""
    return lambda instance, check, rays: [
        (check["name"], expected(check, instance.n), functools.partial(compute, instance, check))
    ]


def _ambient(instance: FamilyInstance, check: Mapping) -> Fraction:
    n = instance.n
    return instance.quintuple.ambient_pairing(_eval_int(check["m"], n), _eval_int(check["k"], n))


def _pairing(instance: FamilyInstance, check: Mapping) -> Fraction:
    config = instance.config(check["config"])
    return config.pairing(_class(instance, check, check["v"]), _class(instance, check, check["w"]))


def _negdef(instance: FamilyInstance, check: Mapping) -> bool:
    config = instance.config(check["config"])
    return config.is_negative_definite([config.index_of(c) for c in check["subset"]])


# a ray check's scalar items, in report order: key -> computation from the ray
_RAY_SCALARS = {
    "nef_threshold": lambda ray, check, n: ray().nef_threshold,
    "tau": lambda ray, check, n: ray().tau,
    "s": lambda ray, check, n: s_invariant(ray()),
    "beta": lambda ray, check, n: beta(ray(), eval_expr(check["a_value"], n)),
    "k_bound": lambda ray, check, n: k_basis_bound(ray()),
    "integral": lambda ray, check, n: ray().volume_integral,
}


def _once(compute):
    """A thunk that calls compute the first time and returns that value every time."""
    value = []
    return lambda: value[0] if value else value.append(compute()) or value[0]


def _ray_items(instance, check, rays):
    n, name, expect = instance.n, check["name"], check["expect"]
    ray = _once(functools.partial(_get_ray, instance, check, rays, check["ray"]))
    for key, scalar in _RAY_SCALARS.items():
        if key in expect:
            yield f"{name}: {key}", eval_expr(expect[key], n), functools.partial(scalar, ray, check, n)
    if "volume" in expect:
        profile = PiecewisePoly(
            (eval_expr(p["left"], n), eval_expr(p["right"], n), Poly(eval_expr(c, n) for c in p["coeffs"]))
            for p in expect["volume"]
        )
        yield f"{name}: volume profile", profile, lambda: ray().volume


# a flag check's items, in report order
_FLAG_SCALARS = ("s_w", "delta")


def _flag_items(instance, check, rays):
    n, name, expect = instance.n, check["name"], check["expect"]
    ray = _once(functools.partial(_get_ray, instance, check, rays, check["curve"]))

    @_once
    def s_w():
        mults = {k: eval_expr(v, n) for k, v in check.get("mults", {}).items()}
        return az_s_w(ray(), check["curve"], mults)

    def delta():
        s = s_invariant(ray())
        return delta_lower_bound(s, eval_expr(check["a_value"], n), s_w(), check.get("point", "")).delta_lower

    for key, compute in zip(_FLAG_SCALARS, (s_w, delta)):
        if key in expect:
            yield f"{name}: {key}", eval_expr(expect[key], n), compute


def _identity_items(instance, check, rays):
    name, expect = check["name"], check["expect"]
    pair_with = _once(lambda: _class(instance, check, check["pair_with"]))

    def coefficient(key):  # load_catalog checked that each key is const or names a params entry
        coords = check["base"] if key == "const" else check["params"][key]
        return instance.config(check["config"]).pairing(_class(instance, check, coords), pair_with())

    for key in sorted(expect, key="const".__ne__):  # the constant term first
        label = "constant term" if key == "const" else f"coefficient of {key}"
        yield f"{name}: {label}", eval_expr(expect[key], instance.n), functools.partial(coefficient, key)


class _Kind(NamedTuple):
    """How a check kind is read.  ``items(instance, check, rays)`` gives
    ``(label, expected, compute)`` for each item the check reports, in report
    order: ``expected`` is the stored expectation, evaluated (a Fraction, a
    bool or a volume profile), and ``compute()`` recomputes it.  Work that
    several items share (a ray, a flag's s_w, an identity's pair_with) runs
    once per check."""

    fields: dict  # the table of the fields its checks read, walked by _walk
    items: Callable


# -- the JSON that kstab reads -------------------------------------------------------
#
# A table gives each field of an object its shape, (fits(value, obj, names), what the value must
# be, required): fits sees the object that holds the value and the names the value may refer to;
# required is True, False where the object may leave the field out, or the expect key whose item
# reads the field.  ``_walk`` checks an object against its table.


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_expr(x) -> bool:
    """A catalog expression: text or an integer (a JSON true or false is neither)."""
    return isinstance(x, str) or _is_int(x)


def _is_exprs(x) -> bool:
    return isinstance(x, list) and all(map(_is_expr, x))


def _is_class(x, keys=None) -> bool:
    """An object of expressions, each keyed by one of keys where keys is given."""
    return isinstance(x, dict) and all(_is_expr(v) and (keys is None or k in keys) for k, v in x.items())


def _is_ray_expect(x) -> bool:
    """A ray expect: expressions keyed by ray scalar names, and optionally a
    volume profile, a list of pieces with expression ends and coefficients."""
    pieces = x.get("volume", []) if isinstance(x, dict) else None
    return isinstance(pieces, list) and _is_class({k: v for k, v in x.items() if k != "volume"}, _RAY_SCALARS) and all(
        isinstance(p, dict) and _is_exprs([p.get("left"), p.get("right")]) and _is_exprs(p.get("coeffs")) for p in pieces
    )


def _optional(shape: tuple, unless=False) -> tuple:
    """shape for a field an object may leave out, unless its expect has the key unless."""
    return shape[:2] + (unless,)


_OBJECT = (lambda x, *_: isinstance(x, dict), "an object", True)
_OBJECTS = (lambda x, *_: isinstance(x, list) and all(isinstance(e, dict) for e in x), "a list of objects", True)
_LIST = (lambda x, *_: isinstance(x, list), "a list", True)
_STRING = (lambda x, *_: isinstance(x, str), "a string", True)
_BOOLEAN = (lambda x, *_: isinstance(x, bool), "true or false", True)
_INTEGER = (lambda x, *_: _is_int(x), "an integer", True)
_INTEGER_PAIR = (lambda x, *_: isinstance(x, list) and len(x) == 2 and all(map(_is_int, x)), "two integers", True)
_EXPRESSION = (lambda x, *_: _is_expr(x), "an expression", True)
_EXPRESSIONS = (lambda x, *_: _is_exprs(x), "a list of expressions", True)
_GRAM = (lambda x, *_: isinstance(x, list) and all(map(_is_exprs, x)), "a list of rows of expressions", True)
_CLASS = (lambda x, *_: _is_class(x), "an object of expressions", True)
_CURVES = (lambda x, *_: isinstance(x, list) and all(isinstance(c, str) for c in x), "a list of curve names", True)
# a class of an analyze fixture, whose names are the basis of its last stage
_OVER_BASIS = (lambda x, obj, basis: _is_class(x, basis), "an object of expressions over basis curves", False)

_DOCUMENT = {
    "version": _INTEGER,
    "families": (
        lambda x, *_: isinstance(x, list) and all(isinstance(f, dict) and _is_int(f.get("id")) for f in x),
        "a list of objects with integer ids", True,
    ),
    "non_ke_quintuples": _optional(_LIST),
}
_NON_KE_ROW = (  # one shape for the whole row
    lambda x, *_: isinstance(x, dict) and isinstance(x.get("constraints", ""), str)
    and all(isinstance(x.get(f), str) for f in ("weights_display", "degree_display", "ke")),
    "an object with string weights_display, degree_display and ke", True,
)
_FAMILY = {
    "weights": _EXPRESSIONS,
    "degree": _EXPRESSION,
    "ke": _STRING,
    "parameter": (
        lambda x, *_: x is None or isinstance(x, dict) and _is_int(x.get("min")), "an object with an integer min", False
    ),
    "configs": (
        lambda x, *_: isinstance(x, dict) and all(isinstance(c, dict) for c in x.values()), "an object of objects", False
    ),
    "blowups": _optional(_OBJECTS),
    "checks": _optional(_OBJECTS),
}
_CONFIG = {"basis": _CURVES, "gram": _GRAM, "anticanonical": _EXPRESSIONS, "singular_points": _optional(_OBJECTS)}
_POINT = {"order": _EXPRESSION, "weights": _INTEGER_PAIR, "label": _optional(_STRING)}
_SINGULAR_POINT = {**_POINT, "multiplicities": _optional(_CLASS)}
_BLOWUP = {
    "name": _STRING,
    "base": (lambda x, spec, stages: isinstance(x, str) and x in stages, "a config or an earlier 'blowup:<name>'", True),
    "center": _OBJECT,
    "weights": _INTEGER_PAIR,
    "curve_orders": _optional(_CLASS),
    "exceptional": _optional(_STRING),
}
_FIXTURE = {
    "config": _OBJECT,
    "blowups": _optional(_OBJECTS),
    "ray": (lambda x, *_: x is None or isinstance(x, dict), "an object", False),
    "point": (lambda x, *_: x is None or isinstance(x, dict), "an object", False),
    "log_discrepancy": (lambda x, *_: x is None or _is_expr(x), "an expression", False),
}
_RAY = {"ample": _OVER_BASIS}  # and a curve of the basis
_FIXTURE_POINT = {"multiplicities": _OVER_BASIS, "a_value": _EXPRESSION, "label": _optional(_STRING)}
_REPORT = {"family": _INTEGER, "n": (lambda x, *_: x is None or _is_int(x), "an integer or null", True), "items": _LIST}
_CHECK_ITEM = {"name": _STRING, "expected": _STRING, "computed": _STRING, "anchor": _STRING, "match": _BOOLEAN}

# the shapes of check fields that name a stage of the family (see FamilyInstance), or a blow-up
_STAGE = (
    lambda x, check, stages: isinstance(x, str) and x in stages,
    "a string naming a config or a blow-up as 'blowup:<name>'", True,
)
_BLOWUP_NAME = (lambda x, check, stages: isinstance(x, str) and f"blowup:{x}" in stages, "a string naming a blow-up", True)
_PARAMS = (lambda x, *_: isinstance(x, dict) and all(map(_is_class, x.values())), "an object of classes", True)
_RAY_EXPECT = (
    lambda x, *_: _is_ray_expect(x),
    f"an object of expressions keyed by {', '.join(_RAY_SCALARS)}, with an optional volume (a list of pieces)",
    True,
)
_FLAG_EXPECT = (
    lambda x, *_: _is_class(x, _FLAG_SCALARS), f"an object of expressions keyed by {', '.join(_FLAG_SCALARS)}", True
)
_IDENTITY_EXPECT = (
    lambda x, check, _: _is_class(x, {"const", *check.get("params", {})}),
    "an object of expressions keyed by const and the names in params",
    True,
)

_CHECK_KINDS = {
    "ambient": _Kind({"m": _EXPRESSION, "k": _EXPRESSION, "expect": _EXPRESSION}, _one_item(_ambient)),
    "pairing": _Kind({"config": _STAGE, "v": _CLASS, "w": _CLASS, "expect": _EXPRESSION}, _one_item(_pairing)),
    "negdef": _Kind({"config": _STAGE, "subset": _CURVES, "expect": _BOOLEAN}, _one_item(
        _negdef, expected=lambda check, n: check["expect"]
    )),
    "log_discrepancy": _Kind({"blowup": _BLOWUP_NAME, "expect": _EXPRESSION}, _one_item(
        lambda instance, check: instance.blowups[check["blowup"]].log_discrepancy_e
    )),
    "proportional": _Kind({"mu": _EXPRESSION, "expect": _EXPRESSION}, _one_item(
        lambda instance, check: proportional_bound(eval_expr(check["mu"], instance.n))
    )),
    "ray": _Kind({
        "config": _STAGE, "ray": _STRING, "ample": _optional(_CLASS), "expect": _RAY_EXPECT,
        "a_value": _optional(_EXPRESSION, unless="beta"),
    }, _ray_items),
    "flag": _Kind({
        "config": _STAGE, "curve": _STRING, "ample": _optional(_CLASS), "mults": _optional(_CLASS),
        "point": _optional(_STRING), "expect": _FLAG_EXPECT, "a_value": _optional(_EXPRESSION, unless="delta"),
    }, _flag_items),
    "identity": _Kind({
        "config": _STAGE, "base": _CLASS, "pair_with": _CLASS, "params": _optional(_PARAMS), "expect": _IDENTITY_EXPECT,
    }, _identity_items),
}
_CHECK_FIELDS = {  # the fields of every kind
    "kind": (lambda x, *_: isinstance(x, str) and x in _CHECK_KINDS, f"one of {', '.join(_CHECK_KINDS)}", True),
    "name": _STRING,
    "anchor": _optional(_STRING),
}


def default_n_values(entry: FamilyEntry) -> list[Optional[int]]:
    """Parameter sweep used when the caller does not pin n: the minimum and the next ten."""
    if not entry.parametric:
        return [None]
    return list(range(entry.minimum_n, entry.minimum_n + 11))
