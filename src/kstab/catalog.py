"""Machine-readable catalog of the ten index-2 families and its verifier.

The catalog ships as a versioned JSON document embedded in the package
(overridable via the KSTAB_CATALOG environment variable or an explicit
path).  Every rational quantity in the file is an expression string over the
family parameter n (plain 'p/q' for the fixed families), evaluated exactly.
``verify`` recomputes every expected invariant from the stored curve
configurations through the decomposition pipeline and compares bit-exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional

from .arith import PiecewisePoly, Poly, rat
from .blowup import BlowupResult, BlowupSpec, transform_config
from .invariants import az_s_w, beta, delta_lower_bound, k_basis_bound, proportional_bound, s_invariant
from .surface import (
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
    """Evaluate an exact rational expression: integers, n, + - * / ( ), min()."""
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


def _eval_int(expr, n: Optional[int]) -> int:
    value = eval_expr(expr, n)
    if value.denominator != 1:
        raise CatalogError(f"expression {expr!r} is not an integer at n={n}")
    return int(value)


# -- catalog loading -----------------------------------------------------------


@dataclass(frozen=True)
class FamilyEntry:
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
        return "(" + ", ".join(self.data["weights"]) + ")"

    @property
    def degree_display(self) -> str:
        return self.data["degree"]


@dataclass(frozen=True)
class Catalog:
    version: int
    families: tuple[FamilyEntry, ...]
    non_ke_quintuples: tuple[Mapping, ...]
    source: str

    def family(self, family_id: int) -> FamilyEntry:
        for entry in self.families:
            if entry.family_id == family_id:
                return entry
        raise CatalogError(f"no family with id {family_id}")

    @property
    def family_ids(self) -> list[int]:
        return [e.family_id for e in self.families]


def load_catalog(path: Optional[str | Path] = None) -> Catalog:
    """Load the catalog from path, $KSTAB_CATALOG, or the embedded copy."""
    if path is None:
        path = os.environ.get("KSTAB_CATALOG") or None
    if path is not None:
        raw = Path(path).read_text()
        source = str(path)
    else:
        raw = resources.files("kstab").joinpath("data/catalog.json").read_text()
        source = "embedded"
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog at {source} is not valid JSON: {exc}") from exc
    try:
        return Catalog(
            version=int(doc["version"]),
            families=tuple(FamilyEntry(int(f["id"]), f) for f in doc["families"]),
            non_ke_quintuples=tuple(doc.get("non_ke_quintuples", [])),
            source=source,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(
            f"catalog at {source} is malformed: {type(exc).__name__}: {exc}"
        ) from exc


# -- instantiation -------------------------------------------------------------


@dataclass(frozen=True)
class FamilyInstance:
    """A family with every parametric expression evaluated at a concrete n."""

    entry: FamilyEntry
    n: Optional[int]
    quintuple: Quintuple
    configs: Mapping[str, CurveConfig]
    blowups: Mapping[str, BlowupResult]

    def config(self, ref: str) -> CurveConfig:
        if ref.startswith("blowup:"):
            return self.blowups[ref.split(":", 1)[1]].upstairs
        if ref not in self.configs:
            raise CatalogError(f"family {self.entry.family_id} has no config {ref!r}")
        return self.configs[ref]


def instantiate(catalog: Catalog, family_id: int, n: Optional[int] = None) -> FamilyInstance:
    entry = catalog.family(family_id)
    if entry.parametric:
        if n is None:
            raise ParameterError(f"family {family_id} needs the parameter n")
        if n < entry.minimum_n:
            raise ParameterError(
                f"family {family_id} needs n >= {entry.minimum_n}, got {n}"
            )
    elif n is not None:
        raise ParameterError(f"family {family_id} takes no parameter")

    weights = tuple(_eval_int(w, n) for w in entry.data["weights"])
    degree = _eval_int(entry.data["degree"], n)
    quintuple = Quintuple(weights, degree)
    if quintuple.index != 2:
        raise CatalogError(f"family {family_id}: index {quintuple.index} != 2")
    if not quintuple.is_well_formed():
        raise CatalogError(f"family {family_id}: quintuple not well-formed")

    configs = {
        name: _build_config(cfg, n)
        for name, cfg in entry.data.get("configs", {}).items()
    }
    blowups: dict[str, BlowupResult] = {}
    for spec in entry.data.get("blowups", []):
        base_ref = spec["base"]
        if base_ref.startswith("blowup:"):
            base = blowups[base_ref.split(":", 1)[1]].upstairs
        else:
            base = configs[base_ref]
        center = _build_point(spec["center"], n)
        bspec = BlowupSpec.make(
            center=center,
            weights=tuple(int(w) for w in spec["weights"]),
            curve_orders={k: eval_expr(v, n) for k, v in spec["curve_orders"].items()},
            exceptional=spec.get("exceptional", "E"),
        )
        blowups[spec["name"]] = transform_config(base, bspec)
    return FamilyInstance(entry, n, quintuple, configs, blowups)


def _build_point(data: Mapping, n: Optional[int]) -> QuotientSingularity:
    return QuotientSingularity(
        order=_eval_int(data["order"], n),
        local_weights=tuple(int(w) for w in data["weights"]),
        label=data.get("label", ""),
    )


def _build_config(data: Mapping, n: Optional[int]) -> CurveConfig:
    points = []
    for rec in data.get("singular_points", []):
        point = _build_point(rec, n)
        mults = {k: eval_expr(v, n) for k, v in rec.get("multiplicities", {}).items()}
        points.append(SingularPointRecord.make(point, mults))
    return CurveConfig.make(
        basis=data["basis"],
        gram=[[eval_expr(x, n) for x in row] for row in data["gram"]],
        anticanonical=[eval_expr(x, n) for x in data["anticanonical"]],
        singular_points=points,
    )


# -- verification --------------------------------------------------------------


@dataclass(frozen=True)
class CheckItem:
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
        approx = _approx(self.computed)
        if approx is not None:
            out["computed_approx"] = approx
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "CheckItem":
        return cls(
            name=data["name"],
            expected=data["expected"],
            computed=data["computed"],
            match=bool(data["match"]),
            anchor=data["anchor"],
        )


def _approx(text: str) -> Optional[str]:
    try:
        return f"{float(Fraction(text)):.6f}"
    except (ValueError, ZeroDivisionError):
        return None


@dataclass(frozen=True)
class VerificationReport:
    family_id: int
    n: Optional[int]
    items: tuple[CheckItem, ...]

    @property
    def overall(self) -> bool:
        return all(item.match for item in self.items)

    @property
    def mismatches(self) -> list[CheckItem]:
        return [item for item in self.items if not item.match]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family_id,
            "n": self.n,
            "overall": self.overall,
            "items": [item.to_json_dict() for item in self.items],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "VerificationReport":
        return cls(
            family_id=int(data["family"]),
            n=data["n"] if data["n"] is None else int(data["n"]),
            items=tuple(CheckItem.from_json_dict(i) for i in data["items"]),
        )


def expected_invariants(
    catalog: Catalog, family_id: int, n: Optional[int] = None
) -> list[tuple[str, Fraction]]:
    """Closed-form expected values evaluated exactly at n (scalars only)."""
    entry = catalog.family(family_id)
    instantiate(catalog, family_id, n)  # validates the parameter
    out: list[tuple[str, Fraction]] = []
    for check in entry.data.get("checks", []):
        for name, expr in _scalar_expectations(check):
            out.append((name, eval_expr(expr, n)))
    return out


def _scalar_expectations(check: Mapping):
    kind = check["kind"]
    name = check["name"]
    if kind in ("pairing", "ambient", "log_discrepancy", "proportional"):
        yield name, check["expect"]
    elif kind == "ray":
        for key in ("nef_threshold", "tau", "s", "beta", "k_bound", "integral"):
            if key in check["expect"]:
                yield f"{name}: {key}", check["expect"][key]
    elif kind == "flag":
        for key in ("s_w", "delta"):
            if key in check["expect"]:
                yield f"{name}: {key}", check["expect"][key]
    elif kind == "identity":
        for key, expr in check["expect"].items():
            label = "constant term" if key == "const" else f"coefficient of {key}"
            yield f"{name}: {label}", expr


def verify(catalog: Catalog, family_id: int, n: Optional[int] = None) -> VerificationReport:
    """Recompute every expected invariant through the pipeline and compare."""
    instance = instantiate(catalog, family_id, n)
    entry = instance.entry
    items: list[CheckItem] = [
        CheckItem(
            name="quintuple index",
            expected="2",
            computed=str(instance.quintuple.index),
            match=instance.quintuple.index == 2,
            anchor="index-2 catalog invariant",
        ),
        CheckItem(
            name="quintuple well-formed",
            expected="true",
            computed=str(instance.quintuple.is_well_formed()).lower(),
            match=instance.quintuple.is_well_formed(),
            anchor="well-formedness catalog invariant",
        ),
    ]
    rays: dict[tuple, RayDecomposition] = {}
    for check in entry.data.get("checks", []):
        try:
            items.extend(_run_check(instance, check, rays))
        except (ValueError, KeyError) as exc:  # name the check that failed to run
            raise CatalogError(
                f"family {family_id} check {check.get('name')!r} failed to run: {exc}"
            ) from exc
    return VerificationReport(family_id, instance.n, tuple(items))


def _get_ray(instance: FamilyInstance, check: Mapping, rays: dict) -> RayDecomposition:
    config_ref = check["config"]
    curve = check.get("ray") or check.get("curve")
    ample_key = tuple(sorted(check.get("ample", {}).items()))
    key = (config_ref, curve, ample_key)
    if key not in rays:
        config = instance.config(config_ref)
        if check.get("ample"):
            ample = config.vector(
                {k: eval_expr(v, instance.n) for k, v in check["ample"].items()}
            )
        else:
            ample = config.anticanonical
        rays[key] = decompose_ray(config, ample, config.basis_vector(curve))
    return rays[key]


def _run_check(instance: FamilyInstance, check: Mapping, rays: dict):
    kind = check["kind"]
    name = check["name"]
    anchor = check.get("anchor", "")
    n = instance.n

    def item(label: str, expected: Fraction, computed: Fraction) -> CheckItem:
        return CheckItem(label, str(expected), str(computed), expected == computed, anchor)

    if kind == "ambient":
        expected = eval_expr(check["expect"], n)
        computed = instance.quintuple.ambient_pairing(
            _eval_int(check["m"], n), _eval_int(check["k"], n)
        )
        return [item(name, expected, computed)]

    if kind == "pairing":
        config = instance.config(check["config"])
        v = config.vector({k: eval_expr(x, n) for k, x in check["v"].items()})
        w = config.vector({k: eval_expr(x, n) for k, x in check["w"].items()})
        expected = eval_expr(check["expect"], n)
        return [item(name, expected, config.pairing(v, w))]

    if kind == "negdef":
        config = instance.config(check["config"])
        subset = [config.index_of(c) for c in check["subset"]]
        computed = config.is_negative_definite(subset)
        expected = bool(check["expect"])
        return [
            CheckItem(name, str(expected).lower(), str(computed).lower(), expected == computed, anchor)
        ]

    if kind == "log_discrepancy":
        result = instance.blowups[check["blowup"]]
        expected = eval_expr(check["expect"], n)
        return [item(name, expected, result.log_discrepancy_e)]

    if kind == "proportional":
        expected = eval_expr(check["expect"], n)
        computed = proportional_bound(eval_expr(check["mu"], n))
        return [item(name, expected, computed)]

    if kind == "ray":
        rd = _get_ray(instance, check, rays)
        expect = check["expect"]
        out = []
        if "nef_threshold" in expect:
            out.append(item(f"{name}: nef_threshold", eval_expr(expect["nef_threshold"], n), rd.nef_threshold))
        if "tau" in expect:
            out.append(item(f"{name}: tau", eval_expr(expect["tau"], n), rd.tau))
        if "s" in expect:
            out.append(item(f"{name}: s", eval_expr(expect["s"], n), s_invariant(rd)))
        if "beta" in expect:
            a_value = eval_expr(check["a_value"], n)
            out.append(item(f"{name}: beta", eval_expr(expect["beta"], n), beta(rd, a_value)))
        if "k_bound" in expect:
            out.append(item(f"{name}: k_bound", eval_expr(expect["k_bound"], n), k_basis_bound(rd)))
        if "integral" in expect:
            computed = rd.volume.integrate(0, rd.tau)
            out.append(item(f"{name}: integral", eval_expr(expect["integral"], n), computed))
        if "volume" in expect:
            expected_profile = PiecewisePoly(
                [
                    (
                        eval_expr(piece["left"], n),
                        eval_expr(piece["right"], n),
                        Poly(eval_expr(c, n) for c in piece["coeffs"]),
                    )
                    for piece in expect["volume"]
                ]
            )
            out.append(
                CheckItem(
                    f"{name}: volume profile",
                    expected_profile.format(),
                    rd.volume.format(),
                    expected_profile == rd.volume,
                    anchor,
                )
            )
        return out

    if kind == "flag":
        rd = _get_ray(instance, check, rays)
        mults = {k: eval_expr(v, n) for k, v in check.get("mults", {}).items()}
        s_w = az_s_w(rd, check["curve"], mults)
        out = []
        expect = check["expect"]
        if "s_w" in expect:
            out.append(item(f"{name}: s_w", eval_expr(expect["s_w"], n), s_w))
        if "delta" in expect:
            report = delta_lower_bound(
                s_invariant(rd), eval_expr(check["a_value"], n), s_w, check.get("point", "")
            )
            out.append(item(f"{name}: delta", eval_expr(expect["delta"], n), report.delta_lower))
        return out

    if kind == "identity":
        config = instance.config(check["config"])
        base = config.vector({k: eval_expr(x, n) for k, x in check["base"].items()})
        pair_with = config.vector({k: eval_expr(x, n) for k, x in check["pair_with"].items()})
        out = []
        expect = dict(check["expect"])
        if "const" in expect:
            out.append(
                item(
                    f"{name}: constant term",
                    eval_expr(expect.pop("const"), n),
                    config.pairing(base, pair_with),
                )
            )
        for param, expr in expect.items():
            vec = config.vector(
                {k: eval_expr(x, n) for k, x in check["params"][param].items()}
            )
            out.append(
                item(
                    f"{name}: coefficient of {param}",
                    eval_expr(expr, n),
                    config.pairing(vec, pair_with),
                )
            )
        return out

    raise CatalogError(f"unknown check kind {kind!r}")


def default_n_values(entry: FamilyEntry, span: int = 10) -> list[Optional[int]]:
    """Parameter sweep used when the caller does not pin n."""
    if not entry.parametric:
        return [None]
    lo = entry.minimum_n
    return list(range(lo, lo + span + 1))
