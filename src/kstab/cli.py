"""Command-line front end: verify the catalog, analyze ad-hoc fixtures, export.

Exit codes: 0 when every comparison matches, 1 when any expected invariant
mismatches (the failing invariant is named on stderr), 2 on bad arguments or
malformed input.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path
from typing import Optional

import click

from .catalog import (
    Catalog,
    CatalogError,
    ParameterError,
    VerificationReport,
    _approx,
    _located,
    _is_expr,
    _is_expr_map,
    _require,
    ample_class,
    check_parameter,
    default_n_values,
    eval_expr,
    load_catalog,
    load_fixture,
    verify,
)
from .invariants import az_s_w, beta, delta_lower_bound, k_basis_bound, s_invariant
from .zariski import decompose_ray


class _BadInput(click.ClickException):
    """Malformed catalog or fixture: a one-line message and exit code 2."""

    exit_code = 2


@click.group()
def main():
    """Exact K-stability invariants for index-2 del Pezzo hypersurfaces."""


def _parse_n_values(text: Optional[str]) -> Optional[list[int]]:
    if text is None:
        return None
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise click.UsageError(f"--n expects an integer or a..b range, got {text!r}")


def _emit(text: str, output: Optional[str]):
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise _BadInput(f"cannot write {output}: {exc.strerror or exc}")
    else:
        click.echo(text, nl=False)


def _render_reports(reports: list[VerificationReport], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"reports": [r.to_json_dict() for r in reports]}, indent=1) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["family", "n", "invariant", "expected", "computed", "match"])
        for r in reports:
            for item in r.items:
                writer.writerow(
                    [r.family_id, "" if r.n is None else r.n, item.name,
                     item.expected, item.computed, "yes" if item.match else "no"]
                )
        return buf.getvalue()
    lines = []
    for r in reports:
        tag = f"family {r.family_id}" + ("" if r.n is None else f", n = {r.n}")
        lines.append(f"== {tag} ==")
        width = max((len(item.name) for item in r.items), default=0)
        for item in r.items:
            status = "ok " if item.match else "FAIL"
            lines.append(
                f"  [{status}] {item.name.ljust(width)}  "
                f"expected {_pretty(item.expected)}  computed {_pretty(item.computed)}"
            )
        lines.append(f"  overall: {'PASS' if r.overall else 'FAIL'}")
    lines.append("")
    return "\n".join(lines)


def _pretty(value: str) -> str:
    """'p/q (~d.dddddd)' for a rational text, else the text as it is."""
    approx = _approx(value)
    return value if approx is None else f"{value} (~{approx})"


@main.command(name="verify")
@click.option("--family", type=int, default=None, help="Family id 1..10.")
@click.option("--all", "all_families", is_flag=True, help="Verify every family.")
@click.option("--n", "n_text", default=None, help="Parameter value or range a..b.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@click.option("--output", default=None, type=click.Path(dir_okay=False))
@click.option("--catalog", "catalog_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="Catalog file (defaults to $KSTAB_CATALOG or the embedded copy).")
def cmd_verify(family, all_families, n_text, fmt, output, catalog_path):
    """Recompute every catalog invariant and compare bit-exactly."""
    if (family is None) == (not all_families):
        raise click.UsageError("choose exactly one of --family <id> or --all")
    catalog = _load(catalog_path)
    ids = catalog.family_ids if all_families else [family]
    n_values = _parse_n_values(n_text)

    reports: list[VerificationReport] = []
    for fid in sorted(ids):
        try:
            entry = catalog.family(fid)
        except CatalogError as exc:
            raise click.UsageError(str(exc))
        values = n_values if n_values is not None else default_n_values(entry)
        if all_families and n_values is not None:
            values = [v for v in n_values if entry.parametric and v >= entry.minimum_n] or default_n_values(entry)
        for n in values:
            try:
                check_parameter(entry, n)
            except ParameterError as exc:
                raise click.UsageError(str(exc))
            try:
                reports.append(verify(catalog, fid, n))
            except CatalogError as exc:  # a ParameterError here is catalog data that needs n
                raise _BadInput(str(exc))
    _emit(_render_reports(reports, fmt), output)
    bad = [(r, item) for r in reports for item in r.mismatches]
    for r, item in bad:
        tag = f"family {r.family_id}" + ("" if r.n is None else f", n = {r.n}")
        click.echo(f"MISMATCH [{tag}] {item.name}: expected {item.expected}, computed {item.computed}", err=True)
    sys.exit(1 if bad else 0)


@main.command(name="table")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@click.option("--output", default=None, type=click.Path(dir_okay=False))
@click.option("--catalog", "catalog_path", default=None, type=click.Path(exists=True, dir_okay=False))
def cmd_table(fmt, output, catalog_path):
    """Render the ten-family classification table."""
    catalog = _load(catalog_path)
    rows = []
    for entry in catalog.families:
        rows.append({
            "family": entry.family_id,
            "weights": entry.weights_display,
            "degree": entry.degree_display.replace("*", ""),
            "ke": entry.ke_verdict,
            "bound": entry.data.get("bound_display", ""),
        })
    extra = [
        {
            "weights": q["weights_display"],
            "degree": q["degree_display"],
            "ke": q["ke"],
            "constraints": q.get("constraints", ""),
        }
        for q in catalog.non_ke_quintuples
    ]
    if fmt == "json":
        _emit(json.dumps({"families": rows, "non_ke_quintuples": extra}, indent=1) + "\n", output)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["family", "weights", "degree", "ke", "bound"])
        for row in rows:
            writer.writerow([row["family"], row["weights"], row["degree"], row["ke"], row["bound"]])
        _emit(buf.getvalue(), output)
    else:
        lines = [f"{r['weights']} | {r['degree']} | {r['ke']} | {r['bound']}" for r in rows]
        lines.append("")
        lines.append("without a Kaehler-Einstein metric (no computations stored):")
        lines.extend(
            f"{q['weights']} | {q['degree']} | {q['ke']}"
            + (f"  ({q['constraints']})" if q["constraints"] else "")
            for q in extra
        )
        _emit("\n".join(lines) + "\n", output)
    sys.exit(0)


@main.command(name="export")
@click.option("--output", default=None, type=click.Path(dir_okay=False))
@click.option("--catalog", "catalog_path", default=None, type=click.Path(exists=True, dir_okay=False))
def cmd_export(output, catalog_path):
    """Write the active catalog JSON (embedded by default) to a file or stdout."""
    catalog = _load(catalog_path)
    doc = {
        "version": catalog.version,
        "families": [dict(e.data) for e in catalog.families],
        "non_ke_quintuples": [dict(q) for q in catalog.non_ke_quintuples],
    }
    _emit(json.dumps(doc, indent=1) + "\n", output)
    sys.exit(0)


@main.command(name="analyze")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--output", default=None, type=click.Path(dir_okay=False))
def cmd_analyze(input_path, fmt, output):
    """Decompose a ray from a JSON fixture and report its invariants."""
    try:
        doc = json.loads(Path(input_path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise _BadInput(f"{input_path}: not valid UTF-8: {exc}")
    except (ValueError, RecursionError) as exc:  # a huge integer or deep nesting too
        raise _BadInput(f"{input_path}: not valid JSON: {exc}")
    try:
        result = _analyze(input_path, doc)
    except CatalogError as exc:
        raise _BadInput(str(exc))
    except (ValueError, KeyError) as exc:
        click.echo(f"analysis failed: {exc}", err=True)
        sys.exit(1)
    _emit(json.dumps(result, indent=1) + "\n" if fmt == "json" else _render_analysis(result), output)
    sys.exit(0)


def _analyze(where: str, doc) -> dict:
    """Read a fixture (a CatalogError if it is malformed), then decompose its ray."""
    base, blowups = load_fixture(where, doc)
    config = blowups[-1].upstairs if blowups else base
    results: dict = {"config": base.to_json_dict(), "blowups": [
        {"exceptional": b.spec.exceptional, "log_discrepancy": str(b.log_discrepancy_e),
         "upstairs": b.upstairs.to_json_dict()}
        for b in blowups
    ]}
    ray, point, log_discrepancy = doc.get("ray"), doc.get("point"), doc.get("log_discrepancy")
    _require(ray is None or isinstance(ray, dict), f"{where}: ray", "an object")
    _require(point is None or isinstance(point, dict), f"{where}: point", "an object")
    if not ray:
        return results
    curve = ray.get("curve")
    mults = point.get("multiplicities", {}) if point else {}
    _require(curve in config.basis, f"{where}: ray.curve {curve!r}", "a basis curve")
    for field, vec in (("ray.ample", ray.get("ample", {})), ("point.multiplicities", mults)):
        _require(
            _is_expr_map(vec) and set(vec) <= set(config.basis),
            f"{where}: {field}", "an object of expressions over basis curves",
        )
    _require(log_discrepancy is None or _is_expr(log_discrepancy), f"{where}: log_discrepancy", "an expression")
    if point:
        _require(_is_expr(point.get("a_value")), f"{where}: point.a_value", "an expression")
        _require(isinstance(point.get("label", ""), str), f"{where}: point.label", "a string")
        a_value = _located(f"{where}: point.a_value", eval_expr, point["a_value"])
        mults = {k: _located(f"{where}: point.multiplicities", eval_expr, v) for k, v in mults.items()}
    if log_discrepancy is not None:
        log_discrepancy = _located(f"{where}: log_discrepancy", eval_expr, log_discrepancy)
    ample = ample_class(config, ray.get("ample"), None, f"{where}: ray.ample")
    rd = decompose_ray(config, ample, config.basis_vector(curve))
    ray_out = rd.to_json_dict()
    ray_out["s"] = str(s_invariant(rd))
    ray_out["k_bound"] = str(k_basis_bound(rd))
    ray_out["volume_display"] = rd.volume.format()
    if log_discrepancy is not None:
        ray_out["beta"] = str(beta(rd, log_discrepancy))
    if point:
        s_w = az_s_w(rd, curve, mults)
        report = delta_lower_bound(s_invariant(rd), a_value, s_w, point.get("label", ""))
        ray_out["s_w"] = str(s_w)
        ray_out["delta_lower"] = report.to_json_dict()
    results["ray"] = ray_out
    return results


def _render_analysis(result: dict) -> str:
    lines = ["config basis: " + ", ".join(result["config"]["basis"])]
    for blow in result["blowups"]:
        lines.append(
            f"blow-up {blow['exceptional']}: log discrepancy {_pretty(blow['log_discrepancy'])}"
        )
    ray = result.get("ray")
    if ray:
        lines.append(f"nef threshold: {_pretty(ray['nef_threshold'])}")
        lines.append(f"tau: {_pretty(ray['tau'])}")
        lines.append(f"volume: {ray['volume_display']}")
        for iv in ray["intervals"]:
            support = ", ".join(iv["support"]) or "none"
            lines.append(f"  [{iv['left']}, {iv['right']}] negative support: {support}")
        lines.append(f"s-invariant: {_pretty(ray['s'])}")
        lines.append(f"coefficient bound: {_pretty(ray['k_bound'])}")
        if "beta" in ray:
            lines.append(f"beta: {_pretty(ray['beta'])}")
        if "s_w" in ray:
            lines.append(f"flag s-invariant: {_pretty(ray['s_w'])}")
            lines.append(f"delta lower bound: {_pretty(ray['delta_lower']['delta_lower'])}")
    return "\n".join(lines) + "\n"


def _load(catalog_path) -> Catalog:
    try:
        return load_catalog(catalog_path)
    except (CatalogError, OSError) as exc:
        raise _BadInput(str(exc))


if __name__ == "__main__":
    main()
