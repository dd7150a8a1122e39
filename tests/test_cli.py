"""Command-line interface contract: verify, table, analyze, export."""

import json

import pytest
from click.testing import CliRunner

from kstab.catalog import VerificationReport
from kstab.cli import main

runner = CliRunner()


def invoke(args, env=None):
    return runner.invoke(main, args, env=env, catch_exceptions=False)


def test_verify_single_fixed_family():
    result = invoke(["verify", "--family", "10"])
    assert result.exit_code == 0
    assert "41/78" in result.output
    assert "overall: PASS" in result.output


def test_verify_parameter_out_of_range_is_a_usage_error():
    result = invoke(["verify", "--family", "1", "--n", "1"])
    assert result.exit_code == 2
    assert "n >= 2" in result.output


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
    result = invoke(["verify", "--family", "5", "--format", "json"])
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


def test_env_var_overrides_catalog(tmp_path):
    out = tmp_path / "catalog.json"
    invoke(["export", "--output", str(out)])
    doc = json.loads(out.read_text())
    doc["families"] = [f for f in doc["families"] if f["id"] == 6]
    out.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", "--all"], env={"KSTAB_CATALOG": str(out)})
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


def test_analyze_with_blowup_and_point(tmp_path):
    fixture = {
        "config": {
            "basis": ["C_x"],
            "gram": [["1/52"]],
            "anticanonical": ["2"],
            "singular_points": [
                {"label": "p_z", "order": 13, "weights": [2, 5],
                 "multiplicities": {"C_x": "10"}}
            ],
        },
        "blowups": [
            {"center": {"label": "p_z", "order": 13, "weights": [2, 5]},
             "weights": [2, 5], "curve_orders": {"C_x": "10"}, "exceptional": "E"}
        ],
        "ray": {"curve": "E"},
    }
    path = tmp_path / "blow.json"
    path.write_text(json.dumps(fixture))
    result = invoke(["analyze", "--input", str(path), "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["ray"]["tau"] == "20/13"
    assert doc["ray"]["k_bound"] == "41/78"
    assert doc["blowups"][0]["log_discrepancy"] == "7/13"


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


@pytest.mark.parametrize(
    "make_args",
    [_catalog_without_families, _fixture_with_float_ample, _fixture_with_zero_denominator],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, make_args):
    result = invoke(make_args(tmp_path))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error: ")
