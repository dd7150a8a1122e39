"""Command-line front end: verify the catalog, analyze ad-hoc fixtures, export.

Exit codes: 0 when every comparison matches, 1 when any expected invariant
mismatches (the failing invariant is named on stderr), 2 on bad arguments,
malformed input, or an input, output or stdout that cannot be read or written.

The command line is read against one option table, built at import and needing
nothing beyond the standard library: a bad argument exits 2 with the command's
usage line and one ``Error: <message>`` line on stderr.
"""

from __future__ import annotations

import codecs
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Optional

from .catalog import (
    Catalog,
    CatalogError,
    ParameterError,
    VerificationReport,
    _approx,
    _located,
    ample_class,
    check_parameter,
    default_n_values,
    eval_expr,
    load_catalog,
    load_fixture,
    read_json,
    verify,
)
from .invariants import az_s_w, beta, delta_lower_bound, k_basis_bound, s_invariant
from .zariski import decompose_ray


# each character that str.splitlines splits on, as its escape: an error message echoes names
# from the input, and stays one line
_LINE_BREAKS = {ord(c): ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


class _BadInput(Exception):
    """Malformed catalog or fixture: a one-line message and exit code 2."""

    def __init__(self, message: str):
        super().__init__(message.translate(_LINE_BREAKS))


class _UsageError(_BadInput):
    """A bad argument: the command's usage, then the one-line message; exit code 2."""


# the command line: command name -> (function, options, required options), each option
# "--name" -> (dest, kind, help) with kind "flag", "int", "text", "path" or a tuple of
# choices, the first of them the default; filled in once, by @_command
_COMMANDS: dict[str, tuple] = {}
_METAVARS = {"int": " INTEGER", "text": " TEXT", "path": " PATH", "flag": ""}
_FORMATS = ("text", "json", "csv")
_OUTPUT = ("output", "path", "Write to this file (as UTF-8) instead of stdout.")
_CATALOG = ("catalog_path", "path", "Catalog file (defaults to $KSTAB_CATALOG or the embedded copy).")


def _command(options: dict, required: tuple = ()):
    """Register cmd_<name> as the command <name>, read with these options."""
    def register(function):
        _COMMANDS[function.__name__[len("cmd_"):]] = (function, options, required)
        return function
    return register


def main(args: Optional[list[str]] = None, prog_name: str = "kstab") -> None:
    """Run one kstab command (``args`` defaults to ``sys.argv[1:]``) and exit with its code."""
    args = sys.argv[1:] if args is None else list(args)
    command = args[0] if args and args[0] in _COMMANDS else None
    try:
        code = _run(args, prog_name)
    except _UsageError as exc:
        usage = f"{prog_name} {command or '<command>'}"
        again = f"{prog_name} {command}" if command else prog_name
        _write(sys.stderr, f"Usage: {usage} [OPTIONS]\nTry '{again} --help' for help.\n\nError: {exc}\n")
        code = 2
    except _BadInput as exc:
        _write(sys.stderr, f"Error: {exc}\n")
        code = 2
    except BrokenPipeError:  # a reader closed stdout early: exit 1 and print nothing
        code = 1
    except KeyboardInterrupt:
        _write(sys.stderr, "\nAborted!\n")
        code = 1
    sys.exit(code)


main.main = main  # bench/tracer.py calls main.main(args=..., prog_name="kstab")


def _run(args: list[str], prog_name: str) -> int:
    if not args:
        raise _UsageError("Missing command.")
    if args[0] == "--help":
        _write(sys.stdout, _help(prog_name, None))
        return 0
    if args[0] not in _COMMANDS:
        raise _UsageError(f"No such {'option' if args[0].startswith('-') else 'command'} {args[0]!r}.")
    function, options, required = _COMMANDS[args[0]]
    values = _parse(args[1:], options, required)
    if values is None:
        _write(sys.stdout, _help(prog_name, args[0]))
        return 0
    return function(**values)


def _parse(args: list[str], options: dict, required: tuple) -> Optional[dict]:
    """The values of a command's options (None for --help).  An option's value is the next
    argument whatever it looks like (--n -5..3), or follows "=" (--n=-5..3); an option is
    never abbreviated, and a repeated one keeps its last value."""
    given: dict[str, str] = {}
    extra: list[str] = []
    wants_help = False
    tokens = iter(args)
    for token in tokens:
        if not token.startswith("-"):
            extra.append(token)
        elif token == "--help":
            wants_help = True
        else:
            name, has_value, value = token.partition("=")
            if name not in options:
                raise _UsageError(f"No such option {name!r}.")
            if options[name][1] == "flag":
                if has_value:
                    raise _UsageError(f"Option {name!r} does not take a value.")
                value = ""
            elif not has_value:
                value = next(tokens, None)
                if value is None:
                    raise _UsageError(f"Option {name!r} requires an argument.")
            given[name] = value
    if wants_help:
        return None
    if extra:
        raise _UsageError(f"Got unexpected extra argument{'s' if len(extra) > 1 else ''} ({' '.join(extra)})")
    values = {}
    for name, (dest, kind, _) in options.items():
        value = given.get(name)
        if kind == "flag":
            value = value is not None
        elif value is None:
            if name in required:
                raise _UsageError(f"Missing option {name!r}.")
            value = kind[0] if isinstance(kind, tuple) else None
        elif kind == "int":
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"Invalid value for {name!r}: {value!r} is not a valid integer.")
        elif isinstance(kind, tuple) and value not in kind:
            choices = ", ".join(map(repr, kind))
            raise _UsageError(f"Invalid value for {name!r}: {value!r} is not one of {choices}.")
        values[dest] = value
    return values


def _help(prog_name: str, command: Optional[str]) -> str:
    if command is None:
        rows = [(name, function.__doc__.splitlines()[0]) for name, (function, _, _) in _COMMANDS.items()]
        return (f"Usage: {prog_name} <command> [OPTIONS]\n\n  Exact K-stability invariants for index-2 del Pezzo hypersurfaces.\n\n"
                f"Commands:\n{_columns(rows)}\nRun '{prog_name} <command> --help' for its options.\n")
    function, options, required = _COMMANDS[command]
    rows = [(name + (f" [{'|'.join(kind)}]" if isinstance(kind, tuple) else _METAVARS[kind]),
             help + ("  [required]" if name in required else ""))
            for name, (_, kind, help) in options.items()]
    rows.append(("--help", "Show this message and exit."))
    return (f"Usage: {prog_name} {command} [OPTIONS]\n\n  {function.__doc__.splitlines()[0]}\n\n"
            f"Options:\n{_columns(rows)}")


def _columns(rows: list[tuple[str, str]]) -> str:
    width = max(len(left) for left, _ in rows)
    return "".join(f"  {left.ljust(width)}  {right}".rstrip() + "\n" for left, right in rows)


def _write(stream, text: str) -> None:
    """Write text to stdout or stderr and flush it.  A stream whose encoding is ASCII (an
    LC_ALL=C locale) gets UTF-8 bytes, as --output does, rather than refusing a non-ASCII name."""
    buffer = getattr(stream, "buffer", None)
    if buffer is not None and codecs.lookup(stream.encoding or "ascii").name == "ascii":
        stream.flush()
        buffer.write(text.encode("utf-8", "replace"))
        buffer.flush()
    else:
        stream.write(text)
        stream.flush()


def _parse_n_values(text: Optional[str]) -> Optional[range]:
    """The n of --n as a range, read lazily whatever its size; None without --n."""
    if text is None:
        return None
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return range(lo, hi + 1)
        return range(int(text), int(text) + 1)
    except ValueError:
        raise _UsageError(f"--n expects an integer or a..b range, got {text!r}")


def _emit(text: str, output: Optional[str]):
    try:
        if output:
            Path(output).write_text(text, encoding="utf-8")
        else:
            _write(sys.stdout, text)
    except OSError as exc:
        if not output:  # a failed flush keeps its bytes: the null device takes them at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise  # a closed pipe: main exits 1 and prints nothing
        raise _BadInput(f"cannot write {output or 'stdout'}: {exc.strerror or exc}")


def _json(doc) -> str:
    """json.dumps(doc, indent=1) and a newline.  An indent sends the json module to its
    pure-Python encoder; this writes the same text with its C string escaper instead."""
    out: list[str] = []
    _write_json(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(x, out: list, newline: str) -> None:
    """Append x as json.dumps(x, indent=1) writes it at the depth that newline indents; every
    object key is a string."""
    if isinstance(x, str):
        out.append(x if type(x) is _Written else _quote(x))
    elif x is None or x is True or x is False:
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif (type(x) is list or type(x) is tuple) and x:
        inner = newline + " "
        separator = "[" + inner
        for v in x:
            out.append(separator)
            _write_json(v, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(x, dict) and x:
        inner = newline + " "
        separator = "{" + inner
        for key, v in x.items():
            out.append(separator + _quote(key) + ": ")
            if type(v) is str:  # most values: no call for them
                out.append(_quote(v))
            else:
                _write_json(v, out, inner)
            separator = "," + inner
        out.append(newline + "}")
    else:  # an empty list or object, a float, or what json.dumps refuses with its own TypeError
        out.append(json.dumps(x))


class _Written(str):
    """JSON text that _write_json has already written, at the depth where it goes."""


def _render_reports(reports: list[VerificationReport], fmt: str) -> str:
    if fmt == "json":
        written: dict[int, _Written] = {}  # id(item) -> its text; a plan hands back one item at many n

        def item_json(item) -> _Written:
            text = written.get(id(item))
            if text is None:
                out: list[str] = []
                _write_json(item.to_json_dict(), out, "\n    ")  # {"reports": [{"items": [here
                text = written[id(item)] = _Written("".join(out))
            return text

        return _json({"reports": [r.to_json_dict(item_json) for r in reports]})
    if fmt == "csv":
        import csv

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
        names = [item.name.translate(_LINE_BREAKS) for item in r.items]
        width = max(map(len, names), default=0)
        for name, item in zip(names, r.items):
            status = "ok " if item.match else "FAIL"
            lines.append(
                f"  [{status}] {name.ljust(width)}  "
                f"expected {_pretty(item.expected)}  computed {_pretty(item.computed)}"
            )
        lines.append(f"  overall: {'PASS' if r.overall else 'FAIL'}")
    lines.append("")
    return "\n".join(lines)


def _pretty(value: str) -> str:
    """'p/q (~d.dddddd)' for a rational text, else the text as it is."""
    approx = _approx(value)
    return value if approx is None else f"{value} (~{approx})"


@_command({
    "--family": ("family", "int", "Family id 1..10."),
    "--all": ("all_families", "flag", "Verify every family."),
    "--n": ("n_text", "text", "Parameter value or range a..b."),
    "--format": ("fmt", _FORMATS, "Report format (default text)."),
    "--output": _OUTPUT,
    "--catalog": _CATALOG,
})
def cmd_verify(family, all_families, n_text, fmt, output, catalog_path):
    """Recompute every catalog invariant and compare bit-exactly."""
    if (family is None) == (not all_families):
        raise _UsageError("choose exactly one of --family <id> or --all")
    catalog = _load(catalog_path)
    ids = catalog.family_ids if all_families else [family]
    n_values = _parse_n_values(n_text)

    reports: list[VerificationReport] = []
    for fid in sorted(ids):
        try:
            entry = catalog.family(fid)
        except CatalogError as exc:
            raise _UsageError(str(exc))
        values = n_values if n_values is not None and not all_families else default_n_values(entry)
        if all_families and n_values is not None and entry.parametric:  # the range from the family's minimum on
            values = range(max(n_values.start, entry.minimum_n), n_values.stop) or values
        for n in values:
            try:
                check_parameter(entry, n)
            except ParameterError as exc:
                raise _UsageError(str(exc))
            try:
                reports.append(verify(catalog, fid, n))
            except CatalogError as exc:  # a ParameterError here is catalog data that needs n
                raise _BadInput(str(exc))
    _emit(_render_reports(reports, fmt), output)
    bad = [(r, item) for r in reports for item in r.mismatches]
    for r, item in bad:
        tag = f"family {r.family_id}" + ("" if r.n is None else f", n = {r.n}")
        name = item.name.translate(_LINE_BREAKS)
        _write(sys.stderr, f"MISMATCH [{tag}] {name}: expected {item.expected}, computed {item.computed}\n")
    return 1 if bad else 0


@_command({"--format": ("fmt", _FORMATS, "Table format (default text)."), "--output": _OUTPUT, "--catalog": _CATALOG})
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
        _emit(_json({"families": rows, "non_ke_quintuples": extra}), output)
    elif fmt == "csv":
        import csv

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
    return 0


@_command({"--output": _OUTPUT, "--catalog": _CATALOG})
def cmd_export(output, catalog_path):
    """Write the active catalog JSON (embedded by default) to a file or stdout."""
    catalog = _load(catalog_path)
    doc = {
        "version": catalog.version,
        "families": [dict(e.data) for e in catalog.families],
        "non_ke_quintuples": [dict(q) for q in catalog.non_ke_quintuples],
    }
    _emit(_json(doc), output)
    return 0


@_command({
    "--input": ("input_path", "path", "Fixture file (JSON)."),
    "--format": ("fmt", ("text", "json"), "Report format (default text)."),
    "--output": _OUTPUT,
}, required=("--input",))
def cmd_analyze(input_path, fmt, output):
    """Decompose a ray from a JSON fixture and report its invariants."""
    try:
        result = _analyze(input_path, read_json(input_path, Path(input_path)))
    except CatalogError as exc:
        raise _BadInput(str(exc))
    except (ValueError, KeyError) as exc:
        _write(sys.stderr, f"analysis failed: {str(exc).translate(_LINE_BREAKS)}\n")
        return 1
    _emit(_json(result) if fmt == "json" else _render_analysis(result), output)
    return 0


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
    if ray is None:
        return results
    curve, mults = ray["curve"], {}
    if point is not None:
        a_value = _located(f"{where}: point.a_value", eval_expr, point["a_value"])
        mults = {k: _located(f"{where}: point.multiplicities", eval_expr, v)
                 for k, v in point.get("multiplicities", {}).items()}
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
    if point is not None:
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
    except CatalogError as exc:
        raise _BadInput(str(exc))


if __name__ == "__main__":
    main()
