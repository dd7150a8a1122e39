"""Tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import chains  # noqa: E402
import gates  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402


def test_same_seed_gives_byte_identical_fixtures():
    argv = [sys.executable, str(BENCH / "chains.py"), "--seed", "5"]
    first = subprocess.run(argv, capture_output=True, check=True).stdout
    second = subprocess.run(argv, capture_output=True, check=True).stdout
    assert first == second
    lines = [json.loads(line) for line in first.splitlines()]
    assert [line["k"] for line in lines] == list(chains.K_VALUES)
    assert len({json.dumps(line["fixture"]) for line in lines}) == len(lines)
    other = subprocess.run(argv[:-1] + ["6"], capture_output=True, check=True).stdout
    assert other != first


def test_fixture_basis_size_is_k():
    for k in chains.K_VALUES:
        chain = chains.chain_fixture(3, k)
        assert len(chain["gram"]) == k == len(chain["fixture"]["blowups"]) + 1
        assert chain["fixture"]["ray"] == {"curve": f"E{k - 1}"}


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "b", 2.0, 5.0),      # overlaps a
        Span(3, 0, "c", 8.0, 12.0),     # runs past its parent: clipped
        Span(4, 1, "d", 1.5, 2.0),
    ]
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(1.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_summary_folds_spans_into_layers():
    t = tracer.Tracer()
    t.spans = [
        Span(0, None, "cli.main", 0.0, 10.0),
        Span(1, 0, "zariski.decompose_ray", 1.0, 7.0, k=4, pieces=2),
        Span(2, 1, "surface.negdef", 1.0, 2.0),
        Span(3, 1, "surface.negdef", 2.0, 3.0),
        Span(4, 1, "surface.negdef", 3.0, 4.0),
        Span(5, 1, "surface.negdef", 4.0, 5.0),
        Span(6, 0, "invariants.beta", 7.0, 9.0),
        Span(7, 6, "invariants.s_invariant", 7.5, 8.5),
        Span(8, 0, "zariski.decompose_ray", 9.0, 9.5, status="RayNeverEffectiveError", k=5),
    ]
    out = tracer.finish(t.summary())
    assert out["cli.self_s"] == pytest.approx(10.0 - 6.0 - 2.0 - 0.5)
    assert out["zariski.decompose_ray_s"] == pytest.approx(6.5)
    assert out["zariski.decompose_ray_s.k4"] == pytest.approx(6.0)
    assert out["zariski.decompose_ray_s.k5"] == pytest.approx(0.5)
    assert out["zariski.pieces_per_subset"] == pytest.approx(2 / 4)
    assert (out["zariski.refused"], out["zariski.errors"]) == (1, 0)
    assert out["invariants.calls"] == 2
    assert out["invariants_s"] == pytest.approx(2.0)


def test_wrappers_reach_every_binding_and_come_off():
    import kstab.catalog
    import kstab.cli
    import kstab.zariski
    from kstab.arith import Poly

    originals = (kstab.zariski.decompose_ray, kstab.zariski.solve_linear_system, Poly.__rmul__)
    t = tracer.Tracer()
    t.install()
    try:
        assert kstab.cli.decompose_ray is kstab.catalog.decompose_ray is kstab.zariski.decompose_ray
        assert kstab.cli.decompose_ray is not originals[0]
        assert kstab.zariski.solve_linear_system is not originals[1]
        assert Poly.__rmul__ is Poly.__mul__ is not originals[2]
        code, out, _ = t.run_cli(["verify", "--family", "4", "--format", "json"])
        assert code == 0 and out
    finally:
        t.uninstall()
    assert (kstab.cli.decompose_ray, kstab.zariski.solve_linear_system, Poly.__rmul__) == originals
    summary = t.summary()
    assert summary["zariski.decompose_ray.calls"] > 0
    assert summary["surface.linear_solves"] > 0
    assert summary["arith.poly_mul.calls"] > 0


def test_vanished_name_reports_null():
    import kstab.cli  # noqa: F401

    t = tracer.Tracer()
    t._patch_all("surface.solve", "kstab.surface", "no_such_function", t._span_wrapper)
    t._patch_all("arith.poly_mul", "kstab.arith", "Poly.no_such_method", t._count_wrapper)
    summary = t.summary()
    assert summary["surface.linear_solves"] is None
    assert summary["arith.poly_mul.calls"] is None
    merged = tracer.finish(tracer.merge([summary, {"surface.linear_solves": 3}]))
    assert merged["surface.linear_solves"] is None


def _ok_chain():
    for seed in range(50):
        chain = chains.chain_fixture(seed, 4)
        code, out, err = _analyze(chain)
        if gates.classify_analyze(code, out, err) == "ok":
            return chain, out
    raise AssertionError("no rational-threshold chain among 50 seeds")


def _analyze(chain):
    work = BENCH.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    path = work / "test-chain.json"
    path.write_text(json.dumps(chain["fixture"]))
    return tracer.invoke_cli(["analyze", "--input", str(path), "--format", "json"])


def test_ray_gate_accepts_output_and_rejects_tampering():
    chain, out = _ok_chain()
    gates.check_ray(out, chain)

    doc = json.loads(out)
    coeffs = doc["ray"]["volume"][-1]["coeffs"]
    coeffs[0] = str(gates.Fraction(coeffs[0]) + 1)
    with pytest.raises(gates.WrongAnswer):
        gates.check_ray(json.dumps(doc), chain)

    doc = json.loads(out)
    doc["ray"]["s"] = str(gates.Fraction(doc["ray"]["s"]) * gates.Fraction(1000001, 1000000))
    with pytest.raises(gates.WrongAnswer, match="Simpson"):
        gates.check_ray(json.dumps(doc), chain)

    doc = json.loads(out)
    doc["ray"]["intervals"][0]["positive_part"].popitem()
    with pytest.raises(gates.WrongAnswer, match="KeyError"):
        gates.check_ray(json.dumps(doc), chain)


def test_refusal_needs_the_irrational_threshold_message():
    for message in gates.REFUSALS:
        assert gates.classify_analyze(1, "", message + "\n") == "refused"
    assert gates.classify_analyze(1, "", "analysis failed: something else\n") == "error"
    assert gates.classify_analyze(2, "", gates.REFUSALS[0]) == "error"
    assert gates.classify_analyze(None, "", "Traceback ...") == "error"


def test_verify_gate_rejects_tampering():
    code, out, err = tracer.invoke_cli(["verify", "--family", "8", "--format", "json"])
    expected, items = [(8, None)], {8: 7}
    assert gates.check_verify(code, out, err, expected, items) == 7

    doc = json.loads(out)
    doc["reports"][0]["items"][3]["computed"] = "1/3"
    with pytest.raises(gates.WrongAnswer):
        gates.check_verify(code, json.dumps(doc), err, expected, items)
    with pytest.raises(gates.WrongAnswer):
        gates.check_verify(code, out, err, expected, {8: 8})
    with pytest.raises(gates.WrongAnswer):
        gates.check_verify(1, out, err, expected, items)


def test_max_bits_reads_numerators_and_denominators():
    assert gates.max_bits(json.dumps({"a": ["3/1024", "-7"], "b": {"c": "label"}})) == 11


def test_later_output_must_repeat_the_first():
    import run

    op = run.Op(["verify", "--all"], lambda code, out, err: run.Tally(attempted=len(out)))
    first: dict = {}
    assert run.gate_once(op, (0, "abc", ""), first).attempted == 3
    assert run.gate_once(op, (0, "abc", ""), first).attempted == 3
    with pytest.raises(gates.WrongAnswer, match="differs from its first run"):
        run.gate_once(op, (0, "abd", ""), first)


def test_reference_task_checks_its_result_both_ways():
    import run
    import reference

    assert reference.work() == reference.CHECKSUM
    assert run.reference_once(in_process=True) > 0
    assert run.reference_once(in_process=False) > 0
