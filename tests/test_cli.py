"""Command-line interface contract: verify, table, analyze, export."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import kstab.cli
from kstab.catalog import CheckItem, VerificationReport
from kstab.cli import _LINE_BREAKS, _json, _render_reports
from tests._cli_runner import invoke
from tests._oracles import bench_chain_fixture, random_chain_config


def test_verify_single_fixed_family():
    result = invoke(["verify", "--family", "10"])
    assert result.exit_code == 0
    assert "41/78" in result.output
    assert "overall: PASS" in result.output


def test_verify_parameter_out_of_range_is_a_usage_error():
    result = invoke(["verify", "--family", "1", "--n", "1"])
    assert result.exit_code == 2
    assert "n >= 2" in result.output
    assert result.stderr.startswith("Usage: ")
    # so is n for a fixed family; an n inside a fixed family's catalog data
    # is a malformed catalog instead (see the malformed-input cases)
    result = invoke(["verify", "--family", "3", "--n", "2"])
    assert result.exit_code == 2
    assert result.stderr.startswith("Usage: ")


def test_verify_needs_exactly_one_target():
    assert invoke(["verify"]).exit_code == 2
    assert invoke(["verify", "--family", "3", "--all"]).exit_code == 2
    assert invoke(["verify", "--family", "11"]).exit_code == 2
    assert invoke(["verify", "--family", "3", "--n", "x..y"]).exit_code == 2
    assert invoke(["verify", "--family", "3", "--n", "2"]).exit_code == 2  # fixed family


def test_verify_all_with_range_exits_zero():
    result = invoke(["verify", "--all", "--n", "0..10"])
    assert result.exit_code == 0
    sections = [line for line in result.output.splitlines() if line.startswith("== family")]
    assert len({s.split(",")[0] for s in sections}) == 10


def test_verify_json_reports_round_trip():
    result = invoke(["verify", "--all", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    for raw in doc["reports"]:
        report = VerificationReport.from_json_dict(raw)
        assert report.to_json_dict() == raw


def test_verify_csv_has_exact_cells():
    result = invoke(["verify", "--family", "10", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "family,n,invariant,expected,computed,match"
    assert any(",41/78,41/78,yes" in line for line in lines)
    assert not any("0.52" in line for line in lines)  # no decimals in csv cells


def test_verify_output_file(tmp_path):
    out = tmp_path / "report.json"
    result = invoke(["verify", "--family", "8", "--format", "json", "--output", str(out)])
    assert result.exit_code == 0
    assert json.loads(out.read_text())["reports"][0]["overall"] is True


def _process_env(**env):
    """os.environ with env added, and the kstab under test first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(Path(kstab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}


def _kstab_process(args, stdout=subprocess.PIPE, **env):
    """kstab in a process of its own, with env added to the environment; stderr is captured."""
    return subprocess.run([sys.executable, "-m", "kstab.cli", *args], stdout=stdout, stderr=subprocess.PIPE,
                          encoding="utf-8", env=_process_env(**env))


STDOUT_CASES = [["verify", "--family", "10", "--format", "csv"], ["export"], ["verify", "--all"]]


# PYTHONUNBUFFERED "" leaves stdout buffered, so that a small output is still held when the
# interpreter flushes stdout at exit
@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that refuses every write")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("args", STDOUT_CASES)
def test_a_failed_write_to_stdout_exits_2_with_one_line(args, unbuffered):
    with open("/dev/full", "w") as full:
        process = _kstab_process(args, stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert process.returncode == 2
    assert process.stderr.splitlines() == ["Error: cannot write stdout: No space left on device"]


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("args", STDOUT_CASES)
def test_a_closed_pipe_on_stdout_exits_1_and_prints_nothing(args, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        process = _kstab_process(args, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert (process.returncode, process.stderr) == (1, "")


def test_output_file_is_utf_8_in_an_ascii_locale(tmp_path):
    def rename(doc):
        next(f for f in doc["families"] if f["id"] == 3)["checks"][0]["name"] = "caf\u00e9 check"

    out = tmp_path / "out.txt"
    args = ["verify", "--family", "3", "--catalog", _exported_catalog(tmp_path, rename), "--output", str(out)]
    process = _kstab_process(args, LC_ALL="C", PYTHONUTF8="0")
    assert (process.returncode, process.stdout, process.stderr) == (0, "", "")
    assert "  [ok ] caf\u00e9 check " in out.read_bytes().decode("utf-8")


# a check name is written as stored, escapes included, whether or not stdout is a terminal (here
# a pipe); an ASCII locale gets the UTF-8 bytes --output gets
@pytest.mark.parametrize("locale", [{}, {"LC_ALL": "C", "PYTHONUTF8": "0"}], ids=["utf-8", "ascii"])
def test_names_with_escapes_reach_a_pipe_as_stored(tmp_path, locale):
    name = "A\x1b[31mB caf\u00e9"

    def corrupt(family):
        next(c for c in family["checks"] if c["name"] == "anticanonical degree").update(name=name, expect="5")

    process = _kstab_process([*_exported_catalog_with(tmp_path, corrupt, family_id=3), "--format", "csv"], **locale)
    assert process.returncode == 1
    assert f"\n3,,{name},5,2/3,no\n" in process.stdout.replace("\r\n", "\n")
    assert process.stderr == f"MISMATCH [family 3] {name}: expected 5, computed 2/3\n"


def test_importing_the_cli_leaves_click_out():
    code = "import sys, kstab.cli; sys.exit('click' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=_process_env()).returncode == 0


def test_importing_the_cli_leaves_csv_out():
    """csv is imported by the two commands that write it, not by every process."""
    code = "import sys, kstab.cli; sys.exit('csv' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=_process_env()).returncode == 0


# -- the command line's own rules ------------------------------------------------

def test_option_rules():
    # a value option takes the next argument whatever it looks like, or the text after "="
    for args in (["--n", "-5..3"], ["--n=-5..3"]):
        result = invoke(["verify", "--family", "1", *args])
        assert result.exit_code == 2
        assert result.stderr.endswith("\nError: family 1 needs n >= 2, got -5\n")
    assert invoke(["verify", "--family=10"]).stdout == invoke(["verify", "--family", "10"]).stdout
    # no option is abbreviated, and --input is required
    assert invoke(["verify", "--fam", "10"]).stderr.endswith("\nError: No such option '--fam'.\n")
    assert invoke(["analyze"]).stderr.endswith("\nError: Missing option '--input'.\n")


USAGE_ERRORS = {
    (): "Missing command.",
    ("bogus",): "No such command 'bogus'.",
    ("--all",): "No such option '--all'.",
    ("verify", "--bogus"): "No such option '--bogus'.",
    ("verify", "--family", "x"): "Invalid value for '--family': 'x' is not a valid integer.",
    ("verify", "--all", "--format", "xml"): "Invalid value for '--format': 'xml' is not one of 'text', 'json', 'csv'.",
    ("verify", "--all", "--n"): "Option '--n' requires an argument.",
    ("verify", "--all=yes"): "Option '--all' does not take a value.",
    ("verify", "--all", "3", "4"): "Got unexpected extra arguments (3 4)",
    ("verify", "--all", "3"): "Got unexpected extra argument (3)",
    ("analyze", "--format", "json"): "Missing option '--input'.",
    ("export", "--format", "json"): "No such option '--format'.",
    ("verify",): "choose exactly one of --family <id> or --all",
    ("verify", "--family", "11"): "no family with id 11",
    ("verify", "--family", "3", "--n", "x..y"): "--n expects an integer or a..b range, got 'x..y'",
    ("verify", "--family", "3", "--n", "2"): "family 3 takes no parameter",
    ("verify", "--family", "1", "--n", "1"): "family 1 needs n >= 2, got 1",
    ("table", "--format", "x\ny"): "Invalid value for '--format': 'x\\ny' is not one of 'text', 'json', 'csv'.",
}


@pytest.mark.parametrize("args, message", USAGE_ERRORS.items(), ids=[" ".join(args) for args in USAGE_ERRORS])
def test_a_bad_argument_prints_usage_and_one_error_line(args, message):
    result = invoke(list(args))
    command = args[0] if args and args[0] in ("verify", "table", "export", "analyze") else "<command>"
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith(f"Usage: kstab {command} [OPTIONS]\n")
    assert result.stderr.endswith(f"\n\nError: {message}\n")
    assert sum(line.startswith("Error:") for line in result.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", [[], ["verify"], ["table"], ["export"], ["analyze"]], ids=" ".join)
def test_help_exits_0(command):
    result = invoke([*command, "--help"])
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout.startswith(f"Usage: kstab {command[0] if command else '<command>'} [OPTIONS]\n")


def test_ctrl_c_prints_aborted_and_exits_1(monkeypatch):
    def interrupt(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(kstab.cli, "load_catalog", interrupt)
    result = invoke(["verify", "--all"])
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")


def test_table_text_rows():
    result = invoke(["table"])
    assert result.exit_code == 0
    assert "(1, 6, 10, 15) | 30 | yes" in result.output
    assert "(1, 1, n, n) | 2n | yes" in result.output


def test_table_csv_has_ten_data_rows():
    result = invoke(["table", "--format", "csv"])
    rows = result.output.strip().splitlines()
    assert rows[0].startswith("family,")
    assert len(rows) == 11


def test_table_json_parses():
    result = invoke(["table", "--format", "json"])
    doc = json.loads(result.output)
    assert len(doc["families"]) == 10
    assert len(doc["non_ke_quintuples"]) == 5


def test_integer_weights_and_degree_are_expressions(tmp_path):
    def corrupt(family):
        family.update(weights=[1, 3, 4, 6], degree=12)

    args = _exported_catalog_with(tmp_path, corrupt, family_id=3)
    assert invoke(args).exit_code == 0
    result = invoke(["table", *args[-2:]])
    assert result.exit_code == 0
    assert "(1, 3, 4, 6) | 12 | yes" in result.output


def test_export_then_verify_against_export(tmp_path):
    out = tmp_path / "catalog.json"
    assert invoke(["export", "--output", str(out)]).exit_code == 0
    result = invoke(["verify", "--all", "--catalog", str(out)])
    assert result.exit_code == 0


def test_corrupting_an_expected_value_names_it(tmp_path):
    out = tmp_path / "catalog.json"
    invoke(["export", "--output", str(out)])
    doc = json.loads(out.read_text())
    for family in doc["families"]:
        if family["id"] == 4:
            for check in family["checks"]:
                if check["name"] == "exceptional ray":
                    check["expect"]["tau"] = "13/7"
    out.write_text(json.dumps(doc))
    result = invoke(["verify", "--family", "4", "--catalog", str(out)])
    assert result.exit_code == 1
    assert "exceptional ray: tau" in result.output


def test_an_n_that_a_plan_serves_raises_as_when_it_runs_alone(tmp_path):
    # with O(n/2).O(2), n/2 is an integer at even n only: n = 3 after n = 2, served by
    # the plan that n = 2 built, raises the error that n = 3 alone raises
    def half(family):
        next(c for c in family["checks"] if c["kind"] == "ambient")["m"] = "n/2"

    args = _exported_catalog_with(tmp_path, half)
    alone, swept = invoke(args), invoke([*args[:-4], "--n", "2..3", *args[-2:]])
    assert alone.exit_code == swept.exit_code == 2
    assert alone.stderr == swept.stderr
    assert "expression 'n/2' is not an integer at n=3" in alone.stderr


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_the_json_writer_writes_what_json_dumps_writes(doc):
    assert _json(doc) == json.dumps(doc, indent=1) + "\n"


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}, "b": [], "c": [{}]}, [[[]]], "", "\u00e9\u2028\U0001f600\x00\"\\/",
    {"\u00e9": "caf\u00e9"}, [True, 1, False, 0, None, 1.0, float("nan"), float("-inf"), 10**40],
    (1, (2, ())),
])
def test_the_json_writer_on_empty_containers_non_ascii_text_and_bool_against_int(doc):
    assert _json(doc) == json.dumps(doc, indent=1) + "\n"


@pytest.mark.parametrize("doc", [{"a": {1, 2}}, [object()]])
def test_the_json_writer_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError) as refused:
        json.dumps(doc, indent=1)
    with pytest.raises(TypeError, match=re.escape(str(refused.value))):
        _json(doc)


def test_a_json_report_writes_each_item_as_json_dumps_does():
    """_render_reports writes each distinct item once and reuses its text: the document is
    json.dumps's wherever an item recurs, is equal to another, or has its own approximations."""
    item = CheckItem("volume", "1/3", "1/3", True, "Thm 1")
    twin = CheckItem(*[str(field) for field in (item.name, item.expected, item.computed)], True, "Thm 1")
    assert twin == item and twin is not item
    mismatch = CheckItem("volume", "1/3", "2/7", False, "Thm 1")
    huge = "1" + "0" * 400
    beyond = CheckItem("degree", huge, "3", False, "")
    cases = [
        [VerificationReport(1, 2, (item, item)), VerificationReport(1, 3, (item,)), VerificationReport(3, None, ())],
        [VerificationReport(2, 0, (item, twin)), VerificationReport(2, 1, (twin,))],
        [VerificationReport(2, 0, (item, mismatch)), VerificationReport(2, 1, (mismatch, item))],
        [VerificationReport(3, None, (beyond, item, beyond))],
    ]
    for reports in cases:
        text = _render_reports(reports, "json")
        assert text == json.dumps({"reports": [r.to_json_dict() for r in reports]}, indent=1) + "\n"
    items = json.loads(_render_reports(cases[2], "json"))["reports"][0]["items"]
    approximations = [(i["expected_approx"], i["computed_approx"]) for i in items]
    assert approximations == [("0.333333", "0.333333"), ("0.333333", "0.285714")]
    first = json.loads(_render_reports(cases[3], "json"))["reports"][0]["items"][0]
    assert "expected_approx" not in first and first["computed_approx"] == "3.000000"


@pytest.mark.parametrize("args", [
    ["verify", "--all", "--format", "json"],
    ["verify", "--family", "2", "--n", "1000000..1000040", "--format", "json"],
    ["table", "--format", "json"],
    ["export"],
    ["analyze", "--input", "readme", "--format", "json"],
], ids=" ".join)
def test_every_json_document_of_the_cli_is_written_as_json_dumps_writes_it(tmp_path, args):
    if "readme" in args:
        fixture = tmp_path / "readme.json"
        fixture.write_text(json.dumps(README_FIXTURE))
        args = [str(fixture) if a == "readme" else a for a in args]
    result = invoke(args)
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert result.output == _json(doc) == json.dumps(doc, indent=1) + "\n"


def test_env_var_overrides_catalog(tmp_path):
    out = tmp_path / "catalog.json"
    invoke(["export", "--output", str(out)])
    doc = json.loads(out.read_text())
    doc["families"] = [f for f in doc["families"] if f["id"] == 6]
    out.write_text(json.dumps(doc))
    result = invoke(["verify", "--all"], env={"KSTAB_CATALOG": str(out)})
    assert result.exit_code == 0
    assert "family 6" in result.output
    assert "family 7" not in result.output


FAMILY3_FIXTURE = {
    "config": {
        "basis": ["L", "R"],
        "gram": [["-2/3", "2"], ["2", "-2/3"]],
        "anticanonical": ["1/2", "1/2"],
    },
    "ray": {"curve": "L"},
}


def test_analyze_reducible_section_fixture(tmp_path):
    path = tmp_path / "lr.json"
    path.write_text(json.dumps(FAMILY3_FIXTURE))
    result = invoke(["analyze", "--input", str(path)])
    assert result.exit_code == 0
    assert "2/3 - 4/3*u - 2/3*u^2" in result.output
    assert "4/3 - 16/3*u + 16/3*u^2" in result.output
    assert "negative support: R" in result.output


def test_analyze_single_curve_fixture(tmp_path):
    fixture = {
        "config": {"basis": ["C"], "gram": [["1/2"]], "anticanonical": ["2"]},
        "ray": {"curve": "C"},
        "log_discrepancy": "1",
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(fixture))
    result = invoke(["analyze", "--input", str(path)])
    assert result.exit_code == 0
    assert "tau: 2 (~2.000000)" in result.output
    assert "s-invariant: 2/3" in result.output
    assert "beta: 1/3" in result.output


# entering curves that pair negatively with another basis curve
NEGATIVELY_PAIRED_FIXTURES = {
    "C0 and C1": {
        "config": {
            "basis": ["C0", "C1", "C2"],
            "gram": [["-1", "-1/4", "3/4"], ["-1/4", "-1/3", "2"], ["3/4", "2", "3"]],
            "anticanonical": ["0", "3/2", "1/2"],
        },
        "ray": {"curve": "C2"},
    },
    "C1 and C2": {
        "config": {
            "basis": ["C0", "C1", "C2", "C3"],
            "gram": [["-1/2", "5", "0", "1"], ["5", "1", "-2", "6"], ["0", "-2", "-1/4", "3/2"], ["1", "6", "3/2", "3/2"]],
            "anticanonical": ["1", "0", "4", "2"],
        },
        "ray": {"curve": "C3"},
    },
}


@pytest.mark.parametrize("curves", NEGATIVELY_PAIRED_FIXTURES)
def test_analyze_refuses_negatively_paired_curves(tmp_path, curves):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(NEGATIVELY_PAIRED_FIXTURES[curves]))
    result = invoke(["analyze", "--input", str(path)])
    assert result.exit_code == 1
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("analysis failed: ") and "pairs negatively" in result.stderr
    assert all(name in result.stderr for name in curves.split(" and "))


def test_error_lines_escape_every_line_break(tmp_path):
    breaks = {chr(i) for i in range(sys.maxunicode + 1) if len(f"a{chr(i)}b".splitlines()) > 1}
    assert set(map(chr, _LINE_BREAKS)) == breaks
    fixture = json.loads(json.dumps(NEGATIVELY_PAIRED_FIXTURES["C0 and C1"]))
    fixture["config"]["basis"][0] = "C\u20280"
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture))
    result = invoke(["analyze", "--input", str(path)])
    assert result.exit_code == 1
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("analysis failed: ") and "C\\u20280" in result.stderr


# the example fixture in the README's analyze section
README_FIXTURE = json.loads(
    re.search(r"```json\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(), re.S).group(1)
)


def test_analyze_with_blowup_and_point(tmp_path):
    path = tmp_path / "blow.json"
    path.write_text(json.dumps(README_FIXTURE))
    result = invoke(["analyze", "--input", str(path), "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["ray"]["tau"] == "20/13"
    assert doc["ray"]["k_bound"] == "41/78"
    assert doc["blowups"][0]["log_discrepancy"] == "7/13"


def test_fixture_rationals_are_catalog_expressions(tmp_path):
    doc = json.loads(json.dumps(README_FIXTURE))
    doc["config"]["gram"] = [["1/(4*13)"]]
    doc["blowups"][0]["curve_orders"] = {"C_x": "min(10, 2*6)"}
    expressions, plain = tmp_path / "expr.json", tmp_path / "plain.json"
    expressions.write_text(json.dumps(doc))
    plain.write_text(json.dumps(README_FIXTURE))
    result = invoke(["analyze", "--input", str(expressions), "--format", "json"])
    assert result.exit_code == 0
    assert result.stdout == invoke(["analyze", "--input", str(plain), "--format", "json"]).stdout


def test_blowup_without_curve_orders_misses_every_curve(tmp_path):
    fixture = {
        "config": {"basis": ["C"], "gram": [["1/2"]], "anticanonical": ["2"]},
        "blowups": [{"center": {"order": 1, "weights": [1, 1]}, "weights": [1, 1]}],
    }
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(fixture))
    result = invoke(["analyze", "--input", str(path), "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["blowups"][0]["upstairs"]["gram"] == [["1/2", "0"], ["0", "-1"]]


def _chain_fixture(seed: int, k: int) -> dict:
    """An analyze fixture for the seeded chain of k curves from random_chain_config:
    its ray, and a flag point with multiplicity 1 on the base curve."""
    config, _, ray_name = random_chain_config(random.Random(seed), stages=k - 1)
    point = {"a_value": "1", "label": "q", "multiplicities": {"C": "1"}}
    return {"config": config.to_json_dict(), "ray": {"curve": ray_name}, "point": point}


# the analyze fixtures a pinned command names
PINNED_FIXTURES = {
    "README_FIXTURE": README_FIXTURE,
    **{f"CHAIN_{seed}_{k}": _chain_fixture(seed, k) for seed, k in ((0, 4), (2, 6), (1, 8), (4, 10))},
    "BENCH_CHAIN_2_24": bench_chain_fixture(2, 24),  # 23 blow-ups
}

# sha256 of the output bytes, pinned so that a refactor that changes any byte fails
PINNED_OUTPUT_SHA256 = {
    ("verify", "--all", "--format", "json"): "2fbd0f8b77ce68c376c1fe24ed03b6e35defb506a180f7481751b67717c9895f",
    ("verify", "--all", "--format", "csv"): "aaeb7363068dde51d376010cf9b1285fdc319a58c6f479d0812c6675e01e90c8",
    ("verify", "--all", "--format", "text"): "4a55a7017b80400c045de283aa712509b761c19806808bd1d824ad923e968916",
    # parametric sweeps, served from one plan per family where its guards hold
    ("verify", "--family", "1", "--n", "2..60", "--format", "json"):
        "fa6b1ac7f74584573fedd14af4680ccac3763445282768cf08d22ff819984439",
    ("verify", "--family", "1", "--n", "2..60", "--format", "csv"):
        "2eef71d1097592e1fdadb188088d916718516faa29c7e6b99354562aa25ca258",
    ("verify", "--family", "1", "--n", "2..60", "--format", "text"):
        "96c5da6d353ff534ec1fc36e2de0eb80858a701663759441bd8cfc18bc9af36f",
    ("verify", "--family", "2", "--n", "0..60", "--format", "json"):
        "9bc8142a624a3b741ea76d14722582aa0f87aa3369dd38c60e363d2dc77bfa62",
    ("verify", "--family", "2", "--n", "0..60", "--format", "csv"):
        "9a11bd4e71821307c6bb47f5d702e0012ea4b65d0ddff657e55f8e23ad12f95f",
    ("verify", "--family", "2", "--n", "0..60", "--format", "text"):
        "392b3df82379cb0266d16e5ecf4d2ea02513858a4d9dd031c6fe07ec5dae67f3",
    ("verify", "--family", "1", "--n", "5000000..5000040", "--format", "json"):
        "afb9c2907fb24010b8b8294b65e264c2993ce9990614fdc770cdb0e2c46bb124",
    ("verify", "--family", "1", "--n", "5000000..5000040", "--format", "csv"):
        "d7e5aa8097ece2ee47f85722ad89e3fe6f5e13777815021a6d1bba0162630366",
    ("verify", "--family", "1", "--n", "5000000..5000040", "--format", "text"):
        "6b8665f14455f352cea7f524ad358013a370809c0b114dac50c14f0f964803c0",
    ("verify", "--family", "2", "--n", "5000000..5000040", "--format", "json"):
        "ec9f420f1e27fc1da5a2545b0f1d41bc4889ab9f7ac69986f4d017c37b708c57",
    ("verify", "--family", "2", "--n", "5000000..5000040", "--format", "csv"):
        "6264bebe9a4dafa8bcb83d9087a25e1dcbfa2e7db376df3e2bfb9b31305a621d",
    ("verify", "--family", "2", "--n", "5000000..5000040", "--format", "text"):
        "e9857098a66a22297bf067f8a452c737071bf3d7668f2f4c5f4fa84cc957a26f",
    ("analyze", "--input", "README_FIXTURE", "--format", "json"):
        "cddbb74ea829cb6dffb5a1b70ddb5e9dc004c62ab8b08b017b459e15fe086d1e",
    ("analyze", "--input", "CHAIN_0_4", "--format", "json"):
        "fded5ea21e22b9c847ad6c65da713fd4b6cbb2aa5a97353590b99b52b5e68b42",
    ("analyze", "--input", "CHAIN_2_6", "--format", "json"):
        "fb43404052aec87a3ee185e6f4ecc277b152b5da9887aae90823886ccaaa9607",
    ("analyze", "--input", "CHAIN_1_8", "--format", "json"):
        "86b7a8455bd34e6ec8f5c8b257fd5bfc2ead0d7427e786fb99ee14a4c853eb6a",
    ("analyze", "--input", "CHAIN_4_10", "--format", "json"):
        "705414cbbe029fc150f4a4126750687511e98d047b140ba89a566ab8d7d2d3e0",
    ("analyze", "--input", "BENCH_CHAIN_2_24", "--format", "json"):
        "27cc28a14792a3e2a54f2fe5cfa996a1cf5d9d2ed6f445a9db19813ff3251414",
    ("analyze", "--input", "README_FIXTURE", "--format", "text"):
        "c83735a2b944fc33cf55e3ccbd8efefa546718c5abf2dec24de1ea446a69c4d9",
    ("analyze", "--input", "CHAIN_1_8", "--format", "text"):
        "e4f9a733bb383689be3f0ec0c7bc69d63c95b7ccdcfbe41ee5bc75100b22988c",
}


@pytest.mark.parametrize(
    "args, digest", PINNED_OUTPUT_SHA256.items(), ids=[" ".join(args) for args in PINNED_OUTPUT_SHA256]
)
def test_output_bytes_are_pinned(tmp_path, args, digest):
    fixture = tmp_path / "fixture.json"
    for arg in args:
        if arg in PINNED_FIXTURES:
            fixture.write_text(json.dumps(PINNED_FIXTURES[arg]))
    result = invoke([str(fixture) if arg in PINNED_FIXTURES else arg for arg in args])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


def test_empty_ample_is_the_zero_class_on_both_paths(tmp_path):
    # an absent ample means the reference class; a given one, even {}, is used as given
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(dict(README_FIXTURE, ray={"curve": "E", "ample": {}})))
    result = invoke(["analyze", "--input", str(fixture)])
    assert result.exit_code == 1
    assert result.stderr == "analysis failed: ample class must have positive self-intersection\n"

    def corrupt(family):
        next(c for c in family["checks"] if c["kind"] == "ray")["ample"] = {}

    result = invoke(_exported_catalog_with(tmp_path, corrupt))
    assert result.exit_code == 2
    assert result.stderr.endswith("failed to run: ample class must have positive self-intersection\n")


def test_analyze_flag_point_reports_delta(tmp_path):
    fixture = {
        "config": {"basis": ["C_x"], "gram": [["1/4"]], "anticanonical": ["2"]},
        "ray": {"curve": "C_x"},
        "point": {"a_value": "1/2", "label": "Q"},
    }
    path = tmp_path / "point.json"
    path.write_text(json.dumps(fixture))
    result = invoke(["analyze", "--input", str(path), "--format", "json"])
    doc = json.loads(result.output)
    assert doc["ray"]["s"] == "2/3"
    assert doc["ray"]["s_w"] == "1/6"  # (2/A^2) * int (2-u)^2/32 du with A^2 = 1
    assert doc["ray"]["delta_lower"]["delta_lower"] == "3/2"


def test_analyze_schema_errors(tmp_path):
    empty_basis = tmp_path / "bad.json"
    empty_basis.write_text(json.dumps({
        "config": {"basis": [], "gram": [], "anticanonical": []}
    }))
    result = invoke(["analyze", "--input", str(empty_basis)])
    assert result.exit_code == 2
    assert "basis" in result.output

    not_json = tmp_path / "notjson.json"
    not_json.write_text("{nope")
    assert invoke(["analyze", "--input", str(not_json)]).exit_code == 2

    missing_ray_curve = tmp_path / "noray.json"
    missing_ray_curve.write_text(json.dumps({
        "config": {"basis": ["C"], "gram": [["1"]], "anticanonical": ["1"]},
        "ray": {"curve": "Z"},
    }))
    result = invoke(["analyze", "--input", str(missing_ray_curve)])
    assert result.exit_code == 2
    assert "ray.curve" in result.output

    assert invoke(["analyze", "--input", str(tmp_path / "absent.json")]).exit_code == 2


def _catalog_without_families(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"version": 1}))
    return ["verify", "--all", "--catalog", str(path)]


def _fixture_with_float_ample(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(dict(FAMILY3_FIXTURE, ray={"curve": "L", "ample": {"L": 1.5}})))
    return ["analyze", "--input", str(path)]


def _fixture_with_zero_denominator(tmp_path):
    doc = json.loads(json.dumps(FAMILY3_FIXTURE))
    doc["config"]["gram"][0][1] = doc["config"]["gram"][1][0] = "1/0"
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    return ["analyze", "--input", str(path)]


def _fixture_with_list_ray(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(dict(FAMILY3_FIXTURE, ray=["curve"])))
    return ["analyze", "--input", str(path)]


def _fixture_with_string_basis(tmp_path):
    doc = json.loads(json.dumps(FAMILY3_FIXTURE))
    doc["config"]["basis"] = "LR"
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    return ["analyze", "--input", str(path)]


def _readme_fixture_with(tmp_path, corrupt):
    """analyze the README's example fixture with one field corrupted."""
    doc = json.loads(json.dumps(README_FIXTURE))
    corrupt(doc)
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    return ["analyze", "--input", str(path)]


def _fixture_with_int_blowups(tmp_path):
    return _readme_fixture_with(tmp_path, lambda doc: doc.update(blowups=5))


def _fixture_with_list_curve_orders(tmp_path):
    return _readme_fixture_with(tmp_path, lambda doc: doc["blowups"][0].update(curve_orders=[]))


def _fixture_with_list_exceptional(tmp_path):
    return _readme_fixture_with(tmp_path, lambda doc: doc["blowups"][0].update(exceptional=[]))


def _fixture_with_string_multiplicities(tmp_path):
    return _readme_fixture_with(
        tmp_path, lambda doc: doc["config"]["singular_points"][0].update(multiplicities="x")
    )


def _fixture_with_multiplicity_off_the_basis(tmp_path):
    def corrupt(doc):
        doc["config"]["singular_points"][0].update(multiplicities={"Nope": "10"})
        doc.update(blowups=[], ray={"curve": "C_x"})

    return _readme_fixture_with(tmp_path, corrupt)


def _fixture_with_decimal_text(tmp_path):
    return _readme_fixture_with(tmp_path, lambda doc: doc["config"].update(gram=[["0.5"]]))


def _fixture_with_unknown_curve_order(tmp_path):
    return _readme_fixture_with(tmp_path, lambda doc: doc["blowups"][0].update(curve_orders={"Z": "1"}))


def _fixture_with_anticanonical(tmp_path, gram, anticanonical):
    doc = json.loads(json.dumps(FAMILY3_FIXTURE))
    doc["config"].update(gram=gram, anticanonical=anticanonical)
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    return ["analyze", "--input", str(path)]


def _fixture_with_zero_square_anticanonical(tmp_path):
    return _fixture_with_anticanonical(tmp_path, [["0", "1"], ["1", "-1"]], ["1/2", "0"])


def _fixture_with_negative_square_anticanonical(tmp_path):
    return _fixture_with_anticanonical(tmp_path, FAMILY3_FIXTURE["config"]["gram"], ["1/2", "-1/3"])


def _fixture_with_float_blowup_weight(tmp_path):
    return _readme_fixture_with(tmp_path, lambda doc: doc["blowups"][0].update(weights=[1.5, 5]))


def _exported_catalog(tmp_path, corrupt):
    """The path of an exported catalog after corrupt(doc) has changed it."""
    path = tmp_path / "catalog.json"
    invoke(["export", "--output", str(path)])
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def _exported_catalog_with(tmp_path, corrupt, family_id=1):
    """verify one family (family 1 at n = 3) against an exported catalog with
    that family corrupted."""
    path = _exported_catalog(tmp_path, lambda doc: corrupt(next(f for f in doc["families"] if f["id"] == family_id)))
    n = ["--n", "3"] if family_id == 1 else []
    return ["verify", "--family", str(family_id), *n, "--catalog", path]


def _catalog_with_list_pairing_vector(tmp_path):
    def corrupt(family):
        check = next(c for c in family["checks"] if c["kind"] == "pairing")
        check["v"] = list(check["v"])

    return _exported_catalog_with(tmp_path, corrupt)


def _catalog_with_string_check(tmp_path):
    def corrupt(family):
        family["checks"][0] = "pairing"

    return _exported_catalog_with(tmp_path, corrupt)


def _catalog_with_string_config_basis(tmp_path):
    def corrupt(family):
        family["configs"]["lr"]["basis"] = "LR"

    return _exported_catalog_with(tmp_path, corrupt, family_id=3)


def _catalog_with_string_blowups(tmp_path):
    def corrupt(family):
        family["blowups"] = "x"

    return _exported_catalog_with(tmp_path, corrupt, family_id=3)


def _catalog_with_check_field(kind, field, value, family_id=1, label=None):
    """Arguments for a catalog whose first check of kind in family family_id has field set to value."""

    def make_args(tmp_path):
        def corrupt(family):
            next(c for c in family["checks"] if c["kind"] == kind)[field] = value

        return _exported_catalog_with(tmp_path, corrupt, family_id)

    make_args.__name__ = f"_catalog_with_{kind}_{field}_{label or type(value).__name__}"
    return make_args


def _catalog_without_check_field(kind, field, family_id=3):
    """Arguments for a catalog whose first check of kind in family family_id has no field."""

    def make_args(tmp_path):
        def corrupt(family):
            del next(c for c in family["checks"] if c["kind"] == kind)[field]

        return _exported_catalog_with(tmp_path, corrupt, family_id)

    make_args.__name__ = f"_catalog_with_{kind}_without_{field}"
    return make_args


def _catalog_with_top_level_field(field, value, label):
    """Arguments for verify --all against an exported catalog whose top-level field is value."""

    def make_args(tmp_path):
        return ["verify", "--all", "--catalog", _exported_catalog(tmp_path, lambda doc: doc.update({field: value}))]

    make_args.__name__ = f"_catalog_with_{label}"
    return make_args


def _catalog_with_zero_denominator_in_config(tmp_path):
    def corrupt(family):
        family["configs"]["lr"]["gram"][0][1] = family["configs"]["lr"]["gram"][1][0] = "1/0"

    return _exported_catalog_with(tmp_path, corrupt, family_id=3)


def _catalog_with_multiplicity_off_the_basis(tmp_path):
    def corrupt(family):
        family["configs"]["cx"]["singular_points"][0].update(multiplicities={"Nope": "1"})

    return _exported_catalog_with(tmp_path, corrupt, family_id=2)


def _catalog_with_n_in_fixed_family_config(tmp_path):
    def corrupt(family):
        family["configs"]["lr"]["gram"][0][0] = "n"

    return _exported_catalog_with(tmp_path, corrupt, family_id=3)


def _catalog_with_n_in_fixed_family_weights(tmp_path):
    def corrupt(family):
        family["weights"][0] = "n"

    return _exported_catalog_with(tmp_path, corrupt, family_id=3)


def _catalog_with_zero_denominator_in_blowup(tmp_path):
    def corrupt(family):
        family["blowups"][0]["curve_orders"] = {curve: "1/0" for curve in family["blowups"][0]["curve_orders"]}

    return _exported_catalog_with(tmp_path, corrupt)


def _catalog_with_repeated_family_id(tmp_path):
    def corrupt(doc):
        second = json.loads(json.dumps(next(f for f in doc["families"] if f["id"] == 3)))
        second["checks"][0]["expect"] = "12345"
        doc["families"].append(second)

    return ["verify", "--all", "--catalog", _exported_catalog(tmp_path, corrupt)]


def _catalog_with_float_family_id(tmp_path):
    return _exported_catalog_with(tmp_path, lambda family: family.update(id=3.9), family_id=3)


def _catalog_with_boolean_version(tmp_path):
    return ["verify", "--all", "--catalog", _exported_catalog(tmp_path, lambda doc: doc.update(version=True))]


def _catalog_without_ke(tmp_path):
    return ["table", "--catalog", _exported_catalog(tmp_path, lambda doc: doc["families"][2].pop("ke"))]


def _catalog_with_text_parameter_min(tmp_path):
    return _exported_catalog_with(tmp_path, lambda family: family["parameter"].update(min="two"))


def _catalog_with_text_parameter(tmp_path):
    return _exported_catalog_with(tmp_path, lambda family: family.update(parameter="n"))


def _catalog_with_non_ke_row_without_ke(tmp_path):
    return ["table", "--catalog", _exported_catalog(tmp_path, lambda doc: doc["non_ke_quintuples"][0].pop("ke"))]


def _catalog_with_text_non_ke_row(tmp_path):
    def corrupt(doc):
        doc["non_ke_quintuples"][0] = "(1, 6, 9, 13)"

    return ["table", "--catalog", _exported_catalog(tmp_path, corrupt)]


def _catalog_in_latin_1(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_bytes('{"version": 1, "families": [], "note": "Kähler"}'.encode("latin-1"))
    return ["verify", "--all", "--catalog", str(path)]


def _fixture_in_latin_1(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_bytes(json.dumps(dict(FAMILY3_FIXTURE, note="Kähler"), ensure_ascii=False).encode("latin-1"))
    return ["analyze", "--input", str(path)]


def _fixture_with_empty_ray(tmp_path):
    return _readme_fixture_with(tmp_path, lambda doc: doc.update(ray={}))


def _fixture_with_empty_point(tmp_path):
    return _readme_fixture_with(tmp_path, lambda doc: doc.update(point={}))


def _fixture_with_point_and_no_ray(tmp_path):
    point = {"a_value": "1/0", "multiplicities": {}}
    return _readme_fixture_with(tmp_path, lambda doc: (doc.pop("ray"), doc.update(point=point)))


def _fixture_with_log_discrepancy_and_no_ray(tmp_path):
    return _readme_fixture_with(tmp_path, lambda doc: (doc.pop("ray"), doc.update(log_discrepancy="1/0")))


def _fixture_with_deeply_nested_gram(tmp_path):
    deep = "(" * 3000 + "1/52" + ")" * 3000
    return _readme_fixture_with(tmp_path, lambda doc: doc["config"].update(gram=[[deep]]))


def _catalog_with_deeply_nested_unary_minus(tmp_path):
    def corrupt(family):
        family["configs"]["pencil"]["gram"][0][0] = "-" * 5000 + "n"

    return _exported_catalog_with(tmp_path, corrupt)


def _fixture_with_line_break_in_label(tmp_path):
    return _readme_fixture_with(tmp_path, lambda doc: doc["blowups"][0]["center"].update(label="p\nz"))


def _fixture_with_superscript_ample(tmp_path):
    return _readme_fixture_with(tmp_path, lambda doc: doc.update(ray={"curve": "E", "ample": {"E": "1\u00b2"}}))


def _fixture_with_4301_digit_log_discrepancy(tmp_path):
    return _readme_fixture_with(tmp_path, lambda doc: doc.update(log_discrepancy="1" * 4301))


def _catalog_with_5000_digit_integer(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text('{"version": ' + "1" * 5000 + ', "families": []}')
    return ["verify", "--all", "--catalog", str(path)]


def _fixture_with_100000_nested_arrays(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text("[" * 100000 + "]" * 100000)
    return ["analyze", "--input", str(path)]


def _verify_output_in_a_missing_directory(tmp_path):
    return ["verify", "--family", "3", "--output", str(tmp_path / "missing" / "out.txt")]


def _analyze_output_in_a_missing_directory(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(FAMILY3_FIXTURE))
    return ["analyze", "--input", str(path), "--output", str(tmp_path / "missing" / "out.txt")]


def _verify_output_to_a_directory(tmp_path):
    return ["verify", "--family", "3", "--output", str(tmp_path)]


def _export_output_to_a_directory(tmp_path):
    return ["export", "--output", str(tmp_path)]


def _analyze_input_that_is_a_directory(tmp_path):
    return ["analyze", "--input", str(tmp_path)]


def _catalog_that_is_a_directory(tmp_path):
    return ["verify", "--all", "--catalog", str(tmp_path)]


def _catalog_that_is_missing(tmp_path):
    return ["table", "--catalog", str(tmp_path / "missing.json")]


# what the one error line must say, where a case's message names a location
NAMED_IN_ERROR = {
    "_fixture_with_zero_denominator": "fixture.json: config 'config' gram: division by zero in '1/0'",
    "_catalog_with_zero_denominator_in_config": "family 3: config 'lr' gram: division by zero in '1/0'",
    "_catalog_with_zero_denominator_in_blowup": "family 1: blow-up 'node' curve_orders: division by zero in '1/0'",
    "_catalog_with_negdef_expect_str": "expect must be true or false",
    "_catalog_with_ray_expect_misspelt": "expect must be an object of expressions keyed by nef_threshold,",
    "_catalog_with_ray_expect_unknown": "expect must be an object of expressions keyed by nef_threshold,",
    "_catalog_with_flag_expect_misspelt": "expect must be an object of expressions keyed by s_w, delta",
    "_catalog_with_flag_expect_volume": "expect must be an object of expressions keyed by s_w, delta",
    "_catalog_with_identity_expect_x": "expect must be an object of expressions keyed by const and the names in params",
    "_fixture_with_multiplicity_off_the_basis": (
        "fixture.json: config 'config' singular point multiplicities must be an object of expressions over basis curves"
    ),
    "_catalog_with_multiplicity_off_the_basis": (
        "family 2: config 'cx' singular point multiplicities must be an object of expressions over basis curves"
    ),
    "_catalog_with_n_in_fixed_family_config": "family 3: config 'lr' gram: expression 'n' needs the parameter n",
    "_catalog_with_n_in_fixed_family_weights": "family 3 weights: expression 'n' needs the parameter n",
    "_catalog_with_repeated_family_id": "family 3 id must be unique",
    "_catalog_with_float_family_id": "catalog.json is malformed: families must be a list of objects with integer ids",
    "_catalog_without_families": "catalog.json is malformed: families must be a list of objects with integer ids",
    "_catalog_with_object_families": "catalog.json is malformed: families must be a list of objects with integer ids",
    "_catalog_with_text_families": "catalog.json is malformed: families must be a list of objects with integer ids",
    "_catalog_with_text_version": "catalog.json is malformed: version must be an integer",
    "_catalog_with_text_non_ke_quintuples": "catalog.json is malformed: non_ke_quintuples must be a list",
    "_catalog_with_ambient_without_m": "check 'anticanonical degree': m must be an expression",
    "_catalog_with_ambient_m_bool": "check 'anticanonical degree': m must be an expression",
    "_catalog_with_pairing_without_v": ": v must be an object of expressions",
    "_catalog_with_negdef_without_subset": ": subset must be a list of curve names",
    "_catalog_with_log_discrepancy_without_blowup": ": blowup must be a string",
    "_catalog_with_log_discrepancy_blowup_unknown": (
        "family 3 check 'first blow-up log discrepancy': blowup must be a string naming a blow-up"
    ),
    "_catalog_with_pairing_config_unknown": (
        "family 1 check 'pencil anticanonical degree': config must be a string naming a config or a blow-up"
    ),
    "_catalog_with_ray_ray_unknown": "family 3 check 'component ray' failed to run: no basis curve named 'nope'\n",
    "_catalog_with_negdef_subset_unknown": "failed to run: no basis curve named 'nope'\n",
    "_catalog_with_proportional_without_mu": ": mu must be an expression",
    "_catalog_with_ray_without_ray": ": ray must be a string",
    "_catalog_with_ray_without_a_value": ": a_value must be an expression",
    "_catalog_with_flag_without_curve": ": curve must be a string",
    "_catalog_with_flag_without_a_value": ": a_value must be an expression",
    "_catalog_with_identity_without_pair_with": ": pair_with must be an object of expressions",
    "_fixture_with_empty_ray": "fixture.json: ray.curve None must be a basis curve",
    "_fixture_with_empty_point": "fixture.json: point.a_value must be an expression",
    "_fixture_with_point_and_no_ray": "fixture.json: point needs a ray\n",
    "_fixture_with_log_discrepancy_and_no_ray": "fixture.json: log_discrepancy needs a ray\n",
    "_catalog_with_boolean_version": "version must be an integer",
    "_catalog_without_ke": "family 3 ke must be a string",
    "_catalog_with_text_parameter_min": "family 1 parameter must be an object with an integer min",
    "_catalog_with_text_parameter": "family 1 parameter must be an object with an integer min",
    "_catalog_with_non_ke_row_without_ke": "each non_ke_quintuples row must be an object with string",
    "_catalog_with_text_non_ke_row": "each non_ke_quintuples row must be an object with string",
    "_catalog_in_latin_1": "catalog.json is not valid UTF-8",
    "_fixture_in_latin_1": "fixture.json is not valid UTF-8",
    "_fixture_with_deeply_nested_gram": "fixture.json: config 'config' gram: expression '((((",
    "_catalog_with_deeply_nested_unary_minus": "family 1: config 'pencil' gram: expression '----",
    "_fixture_with_line_break_in_label": "fixture.json: center p\\nz: 1/13(2,5) is not a recorded singular point",
    "_fixture_with_zero_square_anticanonical": "fixture.json: anticanonical class must have positive self-intersection",
    "_fixture_with_negative_square_anticanonical": "fixture.json: anticanonical class must have positive self-intersection",
    "_fixture_with_superscript_ample": "ray.ample: cannot parse expression '1\u00b2' at position 0",
    "_fixture_with_4301_digit_log_discrepancy": "log_discrepancy: cannot parse expression '1111",
    "_catalog_with_5000_digit_integer": "catalog.json is not valid JSON: Exceeds the limit (4300 digits)",
    "_fixture_with_100000_nested_arrays": "fixture.json is not valid JSON: maximum recursion depth exceeded",
    "_verify_output_in_a_missing_directory": "out.txt: No such file or directory",
    "_analyze_output_in_a_missing_directory": "out.txt: No such file or directory",
    # a directory is refused by the reader or the writer, with the OS's reason
    "_verify_output_to_a_directory": "Error: cannot write ",
    "_export_output_to_a_directory": "Error: cannot write ",
    "_analyze_input_that_is_a_directory": " cannot be read: ",
    "_catalog_that_is_a_directory": " cannot be read: ",
    "_catalog_that_is_missing": "missing.json cannot be read: No such file or directory",
}


@pytest.mark.parametrize(
    "make_args",
    [
        _catalog_without_families,
        _catalog_with_list_pairing_vector,
        _catalog_with_string_check,
        _catalog_with_string_config_basis,
        _catalog_with_string_blowups,
        _fixture_with_float_ample,
        _fixture_with_zero_denominator,
        _fixture_with_list_ray,
        _fixture_with_string_basis,
        _fixture_with_int_blowups,
        _fixture_with_list_curve_orders,
        _fixture_with_list_exceptional,
        _fixture_with_string_multiplicities,
        _fixture_with_multiplicity_off_the_basis,
        _fixture_with_float_blowup_weight,
        _fixture_with_decimal_text,
        _fixture_with_unknown_curve_order,
        _fixture_with_zero_square_anticanonical,
        _fixture_with_negative_square_anticanonical,
        _catalog_with_check_field("pairing", "kind", ["pairing"]),
        _catalog_with_check_field("pairing", "name", 3),
        _catalog_with_check_field("pairing", "config", 3),
        _catalog_with_check_field("ray", "ray", ["C"]),
        _catalog_with_check_field("negdef", "subset", 5),
        _catalog_with_check_field("negdef", "expect", "false"),
        _catalog_with_check_field("ambient", "expect", True),
        _catalog_with_check_field("pairing", "expect", ["1"]),
        _catalog_with_check_field("log_discrepancy", "expect", {"x": "1"}),
        _catalog_with_check_field("proportional", "expect", 1.5, family_id=3),
        _catalog_with_check_field("ray", "expect", {"tua": "1"}, label="misspelt"),
        _catalog_with_check_field("ray", "expect", {"x": 1}, label="unknown"),
        _catalog_with_check_field("flag", "expect", {"s_W": "1"}, family_id=2, label="misspelt"),
        _catalog_with_check_field("flag", "expect", {"s_w": "1", "volume": []}, family_id=2, label="volume"),
        _catalog_with_check_field("identity", "expect", {"const": "0", "x": "1"}, family_id=3, label="x"),
        _catalog_without_check_field("ambient", "m"),
        _catalog_with_check_field("ambient", "m", True, family_id=3),
        _catalog_without_check_field("pairing", "v"),
        _catalog_without_check_field("negdef", "subset"),
        _catalog_without_check_field("log_discrepancy", "blowup"),
        _catalog_without_check_field("proportional", "mu"),
        _catalog_without_check_field("ray", "ray"),
        _catalog_without_check_field("ray", "a_value", family_id=1),
        _catalog_without_check_field("flag", "curve", family_id=2),
        _catalog_without_check_field("flag", "a_value", family_id=2),
        _catalog_without_check_field("identity", "pair_with"),
        _catalog_with_check_field("log_discrepancy", "blowup", "nope", family_id=3, label="unknown"),
        _catalog_with_check_field("pairing", "config", "nope", label="unknown"),
        _catalog_with_check_field("ray", "ray", "nope", family_id=3, label="unknown"),
        _catalog_with_check_field("negdef", "subset", ["nope"], label="unknown"),
        _catalog_with_top_level_field("families", {}, "object_families"),
        _catalog_with_top_level_field("families", "", "text_families"),
        _catalog_with_top_level_field("version", "x", "text_version"),
        _catalog_with_top_level_field("non_ke_quintuples", "", "text_non_ke_quintuples"),
        _catalog_with_zero_denominator_in_config,
        _catalog_with_zero_denominator_in_blowup,
        _catalog_with_multiplicity_off_the_basis,
        _catalog_with_n_in_fixed_family_config,
        _catalog_with_n_in_fixed_family_weights,
        _catalog_with_repeated_family_id,
        _catalog_with_float_family_id,
        _catalog_with_boolean_version,
        _catalog_without_ke,
        _catalog_with_text_parameter_min,
        _catalog_with_text_parameter,
        _catalog_with_non_ke_row_without_ke,
        _catalog_with_text_non_ke_row,
        _catalog_in_latin_1,
        _fixture_in_latin_1,
        _verify_output_in_a_missing_directory,
        _analyze_output_in_a_missing_directory,
        _verify_output_to_a_directory,
        _export_output_to_a_directory,
        _analyze_input_that_is_a_directory,
        _catalog_that_is_a_directory,
        _catalog_that_is_missing,
        _fixture_with_deeply_nested_gram,
        _catalog_with_deeply_nested_unary_minus,
        _fixture_with_line_break_in_label,
        _fixture_with_empty_ray,
        _fixture_with_empty_point,
        _fixture_with_point_and_no_ray,
        _fixture_with_log_discrepancy_and_no_ray,
        _fixture_with_superscript_ample,
        _fixture_with_4301_digit_log_discrepancy,
        _catalog_with_5000_digit_integer,
        _fixture_with_100000_nested_arrays,
    ],
    ids=lambda make_args: make_args.__name__,
)
def test_malformed_input_exits_2_with_one_line(tmp_path, make_args):
    result = invoke(make_args(tmp_path))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error: ")
    assert NAMED_IN_ERROR.get(make_args.__name__, "") in result.stderr


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_expectation_beyond_float_range_is_one_mismatch(tmp_path, fmt):
    huge = "1" + "0" * 400

    def corrupt(family):
        next(c for c in family["checks"] if c["kind"] == "ambient")["expect"] = huge

    result = invoke([*_exported_catalog_with(tmp_path, corrupt, family_id=3), "--format", fmt])
    assert result.exit_code == 1
    assert huge in result.stdout
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"MISMATCH [family 3] anticanonical degree: expected {huge}, computed ")


def test_a_check_name_with_a_line_break_stays_on_one_line(tmp_path):
    def corrupt(family):
        next(c for c in family["checks"] if c["name"] == "anticanonical degree").update(
            name="anticanonical\ndegree", expect="5"
        )

    result = invoke([*_exported_catalog_with(tmp_path, corrupt, family_id=3), "--format", "text"])
    assert result.exit_code == 1
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("MISMATCH [family 3] anticanonical\\ndegree: expected 5, computed ")
    row = next(line for line in result.stdout.splitlines() if "[FAIL]" in line)
    assert row.startswith("  [FAIL] anticanonical\\ndegree  ")


# -- fuzzing an exported catalog and a fixture ---------------------------------

EXPORTED = json.loads(invoke(["export"]).stdout)


def _field_paths(value, path):
    """path and the path of every value nested inside value."""
    yield path
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _field_paths(inner, path + (key,))
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield from _field_paths(inner, path + (i,))


FIELDS = [
    (index, path)
    for index, family in enumerate(EXPORTED["families"])
    for key in ("configs", "blowups", "checks")
    if key in family
    for path in _field_paths(family[key], (key,))
]

_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 6),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(["1", "n", "-1", "0", "1/0", "2/3", "(", "L", "C_x", "E", "blowup:py"]),
        st.text(max_size=6),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


# about as many examples per field as before checks were fuzzed too
@settings(max_examples=525, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(FIELDS), _json_values)
def test_fuzzed_configs_and_blowups_never_give_a_traceback(tmp_path, field, value):
    index, path = field
    doc = json.loads(json.dumps(EXPORTED))
    family = doc["families"][index]
    target = family
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    catalog = tmp_path / "fuzzed.json"
    catalog.write_text(json.dumps(doc))
    n = ["--n", str(family["parameter"]["min"])] if "parameter" in family else []
    result = invoke(["verify", "--family", str(family["id"]), *n, "--catalog", str(catalog)])
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.stderr


# the README fixture with every optional field present (it exits 0)
FULL_FIXTURE = dict(
    README_FIXTURE,
    ray={"curve": "E", "ample": {"C_x": "2", "E": "20/13"}},
    log_discrepancy="7/13",
    point={"a_value": "1/2", "label": "q", "multiplicities": {"C_x": "1"}},
)
FIXTURE_FIELDS = list(_field_paths(FULL_FIXTURE, ()))[1:]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(FIXTURE_FIELDS), _json_values)
@example(path=("blowups", 0, "center", "label"), value="\x1e")  # a line break to str.splitlines
def test_fuzzed_fixture_never_gives_a_traceback(tmp_path, path, value):
    doc = json.loads(json.dumps(FULL_FIXTURE))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    fixture = tmp_path / "fuzzed.json"
    fixture.write_text(json.dumps(doc))
    result = invoke(["analyze", "--input", str(fixture)])
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.stderr
    if result.exit_code:
        prefix = "Error: " if result.exit_code == 2 else "analysis failed: "
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(prefix)
