"""Per-layer tracing of the kstab package from outside it.

``Tracer.install`` wraps the package's public functions at every binding: a
name imported with ``from .zariski import decompose_ray`` lives on in
``kstab.cli`` and ``kstab.catalog`` as well, and ``Poly.__rmul__`` is the same
function as ``Poly.__mul__``, so patching only the defining attribute would
miss most calls.  Each wrapped call records a span (id, parent id, name,
start, end); a few hot arithmetic methods only bump a counter.  Spans stay in
memory until ``summary`` folds them into per-layer metrics, with each span's
self time taken as its duration minus the part its child spans cover.

A target the package no longer defines is skipped, and every metric that
depends on it reports ``None``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import sys
import time
import traceback
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

K_REPORTED = tuple(range(4, 11))

# (layer name, module, attribute or Class.method)
SPAN_TARGETS = (
    ("catalog.load", "kstab.catalog", "load_catalog"),
    ("catalog.verify", "kstab.catalog", "verify"),
    ("catalog.instantiate", "kstab.catalog", "instantiate"),
    ("catalog.eval_expr", "kstab.catalog", "eval_expr"),
    ("blowup.transform_config", "kstab.blowup", "transform_config"),
    ("zariski.decompose_ray", "kstab.zariski", "decompose_ray"),
    ("surface.solve", "kstab.surface", "solve_linear_system"),
    ("surface.negdef", "kstab.surface", "CurveConfig.is_negative_definite"),
)
COUNT_TARGETS = (
    ("arith.poly_mul", "kstab.arith", "Poly.__mul__"),
    ("arith.integrate", "kstab.arith", "PiecewisePoly.integrate"),
)
# every public function defined in this module is one "invariants" layer
INVARIANTS_MODULE = "kstab.invariants"


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    status: str = "ok"          # "ok" or the raised exception's class name
    k: Optional[int] = None     # basis size, decompose_ray only
    pieces: int = 0             # intervals returned, decompose_ray only


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def invoke_cli(args: list[str]) -> tuple[Optional[int], str, str]:
    """Run ``kstab <args>`` in this process; return (exit code, stdout, stderr).

    An exception that escapes the command (a traceback) gives exit code None
    with the traceback as stderr.
    """
    from kstab.cli import main

    out, err = io.StringIO(), io.StringIO()
    code: Optional[int]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="kstab")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            code = None
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        import kstab.cli  # noqa: F401  (loads every package module)

        for layer, module, target in SPAN_TARGETS:
            self._patch_all(layer, module, target, self._span_wrapper)
        for layer, module, target in COUNT_TARGETS:
            self._patch_all(layer, module, target, self._count_wrapper)
        invariants = sys.modules[INVARIANTS_MODULE]
        for name, fn in sorted(vars(invariants).items()):
            if callable(fn) and not isinstance(fn, type) and not name.startswith("_") \
                    and getattr(fn, "__module__", None) == INVARIANTS_MODULE:
                self._patch_all(f"invariants.{name}", INVARIANTS_MODULE, name, self._span_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_all(self, layer: str, module: str, target: str, make: Callable) -> None:
        owner = sys.modules.get(module)
        cls_name, _, attr = target.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
        else:
            original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.add(layer)
            return
        wrapper = make(layer, original)
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "kstab" or name.startswith("kstab."))]
        namespaces += [v for m in list(namespaces) for v in vars(m).values()
                       if isinstance(v, type) and v.__module__.startswith("kstab")]
        seen = set()
        for ns in namespaces:
            if id(ns) in seen:
                continue
            seen.add(id(ns))
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, name, value))
                    setattr(ns, name, wrapper)

    def _count_wrapper(self, layer: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, layer: str, fn: Callable) -> Callable:
        if layer == "zariski.decompose_ray":
            @functools.wraps(fn)
            def ray_wrapper(config, *args, **kwargs):
                with self.span(layer, k=config.size) as record:
                    result = fn(config, *args, **kwargs)
                    record["pieces"] = len(result.intervals)
                    return result

            return ray_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, layer: str, k: Optional[int] = None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        record = {"status": "ok", "pieces": 0}
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["status"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, layer, start, end,
                                   record["status"], k, record["pieces"]))

    def run_cli(self, args: list[str]) -> tuple[Optional[int], str, str]:
        """``invoke_cli`` inside a ``cli.main`` span."""
        with self.span("cli.main"):
            return invoke_cli(args)

    # -- folding spans into metrics --------------------------------------------

    def summary(self) -> dict[str, Optional[float]]:
        """Raw per-layer sums; ``merge`` adds them up and ``finish`` derives ratios."""
        spans = self.spans
        by_id = {s.id: s for s in spans}
        own = self_times(spans)

        def ancestors(s: Span):
            while s.parent is not None:
                s = by_id[s.parent]
                yield s

        total = defaultdict(float)
        calls = defaultdict(int)
        self_total = defaultdict(float)
        for s in spans:
            total[s.name] += s.end - s.start
            calls[s.name] += 1
            self_total[s.name] += own[s.id]

        out: dict[str, Optional[float]] = {
            "cli.self_s": self_total["cli.main"],
            "catalog.load_s": total["catalog.load"],
            "catalog.eval_expr.calls": calls["catalog.eval_expr"],
            "catalog.eval_expr_s": total["catalog.eval_expr"],
            "catalog.instantiate_s": total["catalog.instantiate"],
            "catalog.verify.self_s": self_total["catalog.verify"],
            "blowup.transform_config.calls": calls["blowup.transform_config"],
            "blowup.transform_config_s": total["blowup.transform_config"],
            "zariski.decompose_ray.calls": calls["zariski.decompose_ray"],
            "zariski.decompose_ray_s": total["zariski.decompose_ray"],
            "surface.linear_solves": calls["surface.solve"],
            "surface.solve_s": total["surface.solve"],
            "surface.negdef_tests": calls["surface.negdef"],
            "surface.negdef_s": total["surface.negdef"],
            "arith.poly_mul.calls": self.counts["arith.poly_mul"],
            "arith.integrate.calls": self.counts["arith.integrate"],
        }
        for k in K_REPORTED:
            out[f"zariski.decompose_ray_s.k{k}"] = 0.0
        refused = errors = pieces = subsets = 0
        for s in spans:
            if s.name == "zariski.decompose_ray":
                if s.k in K_REPORTED:
                    out[f"zariski.decompose_ray_s.k{s.k}"] += s.end - s.start
                if s.status == "RayNeverEffectiveError":
                    refused += 1
                elif s.status != "ok":
                    errors += 1
                else:
                    pieces += s.pieces
            elif s.name == "surface.negdef":
                ray = next((a for a in ancestors(s) if a.name == "zariski.decompose_ray"), None)
                if ray is not None and ray.status == "ok":
                    subsets += 1
        out["zariski.refused"] = refused
        out["zariski.errors"] = errors
        out["zariski.pieces_used"] = pieces
        out["zariski.subsets_tested"] = subsets

        invariant_calls, invariant_s = 0, 0.0
        for s in spans:
            if s.name.startswith("invariants."):
                invariant_calls += 1
                if not any(a.name.startswith("invariants.") for a in ancestors(s)):
                    invariant_s += s.end - s.start
        out["invariants.calls"] = invariant_calls
        out["invariants_s"] = invariant_s

        for metric, layer in METRIC_LAYER.items():
            if layer in self.missing:
                out[metric] = None
        return out


# the layer each metric measures; the metric is None when that layer is missing
METRIC_LAYER = {
    "catalog.load_s": "catalog.load",
    "catalog.eval_expr.calls": "catalog.eval_expr",
    "catalog.eval_expr_s": "catalog.eval_expr",
    "catalog.instantiate_s": "catalog.instantiate",
    "catalog.verify.self_s": "catalog.verify",
    "blowup.transform_config.calls": "blowup.transform_config",
    "blowup.transform_config_s": "blowup.transform_config",
    "zariski.decompose_ray.calls": "zariski.decompose_ray",
    "zariski.decompose_ray_s": "zariski.decompose_ray",
    **{f"zariski.decompose_ray_s.k{k}": "zariski.decompose_ray" for k in K_REPORTED},
    "zariski.refused": "zariski.decompose_ray",
    "zariski.errors": "zariski.decompose_ray",
    "zariski.pieces_used": "zariski.decompose_ray",
    "zariski.subsets_tested": "surface.negdef",
    "surface.linear_solves": "surface.solve",
    "surface.solve_s": "surface.solve",
    "surface.negdef_tests": "surface.negdef",
    "surface.negdef_s": "surface.negdef",
    "arith.poly_mul.calls": "arith.poly_mul",
    "arith.integrate.calls": "arith.integrate",
}


def merge(parts: list[dict]) -> dict[str, Optional[float]]:
    """Add up raw summaries; a metric that is None in any part stays None."""
    out: dict[str, Optional[float]] = {}
    for part in parts:
        for name, value in part.items():
            if name in out and out[name] is None:
                continue
            if value is None:
                out[name] = None
            elif name == "arith.max_bits":
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    return out


def finish(raw: dict[str, Optional[float]]) -> dict[str, Optional[float]]:
    """Derive the useful-to-attempted ratio and drop its raw parts."""
    out = dict(raw)
    pieces, subsets = out.pop("zariski.pieces_used", None), out.get("zariski.subsets_tested")
    out["zariski.pieces_per_subset"] = (
        None if pieces is None or subsets is None else (pieces / subsets if subsets else 0.0)
    )
    return out
