"""The kstab benchmark: end-to-end runs through the ``kstab`` command, or a traced run.

    python3 bench/run.py --workload catalog-verify --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it uses the package under ``src/``
and writes only to ``.bench_work/`` at the checkout root.  Load is a closed
loop with one client: the next operation starts when the previous one ends,
and at most one child process runs at a time.  Whole rounds run until
``--seconds`` have passed.

Each workload is a fixed list of operations (``family-sweep`` draws its list
from ``--seed``); a run repeats that list, one *round* at a time.  With
``--trace 0`` it times the rounds untraced and prints the end-to-end metrics.
On a shared machine, other tenants slow every process by up to about 2x in
phases of seconds to minutes, so every timed operation runs between runs of
the reference task of ``reference.py``, and a time is reported as the median
of its ratios to the reference, in seconds of a machine on which the
reference takes ``REFERENCE_S``.  With ``--trace 1`` it repeats the round untraced and traced
in turn, and prints the per-layer metrics of one traced round (times are
medians over the repetitions; counts must repeat exactly) and the tracing
overhead.  Every operation's first output passes the gates in ``gates.py``
outside the timed region, and every later run must repeat its exit code and
stdout; a wrong answer aborts the run.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path[:0] = [str(BENCH), str(SRC)]
import chains  # noqa: E402
import gates  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 60
MIN_REPEATS = 2  # rounds, or traced repetitions, in even the shortest run
TAIL_PERCENTILE = 80

# the shipped catalog: check items per report of each family, and verify --all's
# reports (families 1 and 2 at n = min .. min + 10, the others unparametrised)
ITEMS_PER_REPORT = {1: 20, 2: 29, 3: 26, 4: 20, 5: 33, 6: 9, 7: 18, 8: 7, 9: 20, 10: 20}
MIN_N = {1: 2, 2: 0}
VERIFY_ALL = (
    [(1, n) for n in range(2, 13)] + [(2, n) for n in range(0, 11)]
    + [(f, None) for f in range(3, 11)]
)
# each sweep verifies n = a .. a + SWEEP_SPAN; short sweeps give a run more rounds
SWEEP_SPAN = 40
# chain-analyze runs one fixed corpus of seeded chains, whatever --seed is:
# with chains drawn per --seed, the round time alone spread by about 0.1 of its
# median from seed to seed, before any noise of the machine
CHAIN_CORPUS_SEED = 1

# wall time of the reference task on an idle core of the machine the bounds were
# set on (a 2-vCPU Intel Xeon VM): as a fresh interpreter, and as a function call
REFERENCE_S = {False: 0.10, True: 0.054}
# reference runs on each side of an operation take about this share of its
# wall time (at least one run); runs older than REFERENCE_STALE_S are not reused
REFERENCE_SHARE = 0.12
REFERENCE_STALE_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "catalog.load_s": "s", "catalog.eval_expr.calls": "count", "catalog.eval_expr_s": "s",
    "catalog.instantiate_s": "s", "catalog.verify.self_s": "s",
    "blowup.transform_config.calls": "count", "blowup.transform_config_s": "s",
    "zariski.decompose_ray.calls": "count", "zariski.decompose_ray_s": "s",
    **{f"zariski.decompose_ray_s.k{k}": "s" for k in range(4, 11)},
    "zariski.subsets_tested": "count", "zariski.pieces_per_subset": "ratio",
    "zariski.refused": "count", "zariski.errors": "count",
    "surface.linear_solves": "count", "surface.solve_s": "s",
    "surface.negdef_tests": "count", "surface.negdef_s": "s",
    "invariants.calls": "count", "invariants_s": "s",
    "arith.poly_mul.calls": "count", "arith.integrate.calls": "count", "arith.max_bits": "bits",
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
}

# machine-independent counts: identical on every traced repetition of a round
EXACT_UNITS = ("count", "bytes", "bits")


@dataclass
class Tally:
    """Outcome of one operation, or the sum over a run."""

    attempted: int = 0   # check items for verify, rays for analyze
    units: int = 0       # reports for verify, rays for analyze
    failed: int = 0
    refused: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.units += other.units
        self.failed += other.failed
        self.refused += other.refused


@dataclass
class Op:
    """One ``kstab`` invocation and the gate for its output."""

    args: list[str]
    gate: Callable[[Optional[int], str, str], Tally]


@dataclass
class Workload:
    name: str
    unit: str
    in_process: bool
    ops: list[Op]   # one round


# -- workloads -------------------------------------------------------------------


def catalog_verify(seed: int) -> Workload:
    # the seed has no effect: the input is the shipped catalog itself
    def gate(code, out, err):
        items = gates.check_verify(code, out, err, VERIFY_ALL, ITEMS_PER_REPORT)
        return Tally(attempted=items, units=len(VERIFY_ALL))

    return Workload("catalog-verify", "report", False,
                    [Op(["verify", "--all", "--format", "json"], gate)])


def family_sweep(seed: int) -> Workload:
    def sweep(family: int, lo: int) -> Op:
        expected = [(family, n) for n in range(lo, lo + SWEEP_SPAN + 1)]

        def gate(code, out, err):
            items = gates.check_verify(code, out, err, expected, ITEMS_PER_REPORT)
            return Tally(attempted=items, units=len(expected))

        return Op(["verify", "--family", str(family), "--n", f"{lo}..{lo + SWEEP_SPAN}",
                   "--format", "json"], gate)

    rng = random.Random(f"kstab-sweep/{seed}")
    ops = []
    for family in (1, 2):
        ops.append(sweep(family, MIN_N[family] + rng.randrange(100)))
        ops.append(sweep(family, rng.randrange(10**6, 10**7)))
    return Workload("family-sweep", "report", False, ops)


def chain_analyze(seed: int, manifest: list) -> Workload:
    # the seed has no effect: the input is the corpus of CHAIN_CORPUS_SEED
    def ray(chain: dict) -> Op:
        path = WORK / f"chain-k{chain['k']}.json"
        path.write_text(json.dumps(chain["fixture"], sort_keys=True, indent=1) + "\n")

        def gate(code, out, err):
            label = gates.classify_analyze(code, out, err)
            if label == "ok":
                gates.check_ray(out, chain)
            manifest.append({"k": chain["k"], "outcome": label,
                             "stderr": err.strip()[-200:] if label == "error" else ""})
            return Tally(attempted=1, units=1, failed=int(label == "error"),
                         refused=int(label == "refused"))

        return Op(["analyze", "--input", str(path), "--format", "json"], gate)

    return Workload("chain-analyze", "ray", True,
                    [ray(chain) for chain in chains.fixtures(CHAIN_CORPUS_SEED)])


# -- running one operation --------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("KSTAB_CATALOG", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> tuple[float, Optional[int], str, str]:
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def run_op(wl: Workload, op: Op) -> tuple[float, Optional[int], str, str]:
    if wl.in_process:
        start = time.perf_counter()
        code, out, err = tracer.invoke_cli(op.args)
        return time.perf_counter() - start, code, out, err
    return run_child([sys.executable, "-m", "kstab.cli", *op.args])


def run_op_traced(wl: Workload, op: Op) -> tuple[float, Optional[int], str, str, dict]:
    if wl.in_process:
        t = tracer.Tracer()
        t.install()
        try:
            start = time.perf_counter()
            code, out, err = t.run_cli(op.args)
            wall = time.perf_counter() - start
        finally:
            t.uninstall()
        summary = t.summary()
        summary["cli.import_s"] = 0.0
        return wall, code, out, err, summary
    trace_file = WORK / "trace.json"
    trace_file.unlink(missing_ok=True)
    wall, code, out, err = run_child(
        [sys.executable, str(BENCH / "traced_kstab.py"), str(trace_file), *op.args])
    if not trace_file.is_file():
        raise gates.WrongAnswer(f"traced kstab exited {code} without a trace: {err.strip()[-300:]}")
    return wall, code, out, err, json.loads(trace_file.read_text())


def setup_once() -> float:
    """Wall time of a fresh interpreter that imports the CLI and loads the catalog."""
    wall, code, _, err = run_child(
        [sys.executable, "-c",
         "import kstab.cli; from kstab.catalog import load_catalog; load_catalog()"])
    if code != 0:
        raise gates.WrongAnswer(f"set-up interpreter exited {code}: {err.strip()[-300:]}")
    return wall


def reference_once(in_process: bool) -> float:
    """Wall time of the reference task, as a function call or as a fresh interpreter."""
    if in_process:
        start = time.perf_counter()
        checksum = reference.work()
        wall = time.perf_counter() - start
    else:
        wall, code, out, err = run_child([sys.executable, str(BENCH / "reference.py")])
        checksum = int(out) if code == 0 else f"exit {code}: {err.strip()[-300:]}"
    if checksum != reference.CHECKSUM:
        raise gates.WrongAnswer(f"reference task gave {checksum}, not {reference.CHECKSUM}")
    return wall


# -- the two kinds of run ---------------------------------------------------------


def within(start: float, seconds: float, done: int) -> bool:
    """Whether one more repetition, as long as the average so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def run_round(wl: Workload, tally: Tally, first: dict, traced: bool = False) -> tuple:
    """Run every operation once; return the wall time of each (and the traces)."""
    walls, traces = [], []
    for op in wl.ops:
        w, code, out, err, summary = run_op_traced(wl, op) if traced else (*run_op(wl, op), None)
        tally.add(gate_once(op, (code, out, err), first))
        walls.append(w)
        if summary is not None:
            summary["cli.output_bytes"] = len(out.encode())
            summary["arith.max_bits"] = gates.max_bits(out) if code == 0 else 0
            traces.append(summary)
    return walls, traces


def gate_once(op: Op, result: tuple, first: dict) -> Tally:
    """Gate an operation's first output; every later one must repeat its exit code and stdout.

    stderr is left out of the comparison: a traceback names the tracer's frames.
    """
    if id(op) not in first:
        first[id(op)] = (result[:2], op.gate(*result))
    elif first[id(op)][0] != result[:2]:
        raise gates.WrongAnswer(f"kstab {' '.join(op.args)}: output differs from its first run")
    return first[id(op)][1]


class Reference:
    """Runs of the reference task on both sides of each timed operation.

    An operation's time is its wall time over the mean wall time of the
    reference runs right before and right after it.  The runs after one
    operation are the runs before the next, unless the next needs more of
    them or they are older than ``REFERENCE_STALE_S``.
    """

    def __init__(self, in_process: bool):
        self.in_process = in_process
        self.recent: list[float] = []   # wall times of the runs since the last operation
        self.at = 0.0                   # when the last of them ended

    def top_up(self, runs: int) -> float:
        if time.perf_counter() - self.at > REFERENCE_STALE_S:
            self.recent = []
        while len(self.recent) < runs:
            self.recent.append(reference_once(self.in_process))
        self.at = time.perf_counter()
        return statistics.fmean(self.recent)

    def ratio(self, call: Callable[[], tuple], runs: int) -> tuple[float, float, tuple]:
        """Run ``call``; return its wall time, that over the reference's, and its result."""
        before = self.top_up(runs)
        wall, *result = call()
        self.recent = []
        after = self.top_up(runs)
        return wall, wall / ((before + after) / 2), tuple(result)


def timed_run(wl: Workload, seconds: float, tally: Tally) -> dict:
    # set-up samples are spread over the run; the first interpreters only warm
    # the bytecode cache.  Each operation gets about REFERENCE_SHARE of its own
    # wall time in reference runs on each side, judged from its first run.
    setup_once()
    reference_once(False)
    ref = {False: Reference(False), True: Reference(True)}
    setup, rounds, ratios, runs, first = [], [], [], {}, {}
    start = time.perf_counter()
    while len(rounds) < MIN_REPEATS or within(start, seconds, len(rounds)):
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(ref[False].ratio(lambda: (setup_once(),), 1)[1])
        walls, row = [], []
        for i, op in enumerate(wl.ops):
            wall, ratio, result = ref[wl.in_process].ratio(lambda: run_op(wl, op), runs.get(i, 1))
            tally.add(gate_once(op, result, first))
            runs.setdefault(i, max(1, round(REFERENCE_SHARE * wall / ref[wl.in_process].top_up(1))))
            walls.append(wall)
            row.append(ratio)
        rounds.append(sum(walls))
        ratios.append(row)
    while len(setup) < SETUP_REPEATS:
        setup.append(ref[False].ratio(lambda: (setup_once(),), 1)[1])

    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    per_op = [statistics.median(col) * REFERENCE_S[wl.in_process] for col in zip(*ratios)]
    round_s = sum(per_op)
    metrics = {
        "setup_s": statistics.median(setup) * REFERENCE_S[False],
        "round_s": round_s,
        "throughput_per_s": tally.units / len(rounds) / round_s,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    tail = statistics.quantiles(rounds, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    print(f"samples: {len(rounds)} rounds of {len(wl.ops)} operations; set-up: {len(setup)} "
          f"interpreters; unscaled round wall time p50 {statistics.median(rounds):.4g} s, "
          f"p{TAIL_PERCENTILE} {tail:.4g} s ({sum(t > tail for t in rounds)} beyond); "
          f"reference runs per operation and side: {[runs[i] for i in range(len(wl.ops))]}")
    print("scaled time per operation: " + ", ".join(f"{t:.4g} s" for t in per_op))
    return metrics


def traced_run(wl: Workload, seconds: float, tally: Tally) -> dict:
    plain, traced, rounds, first = [], [], [], {}
    start = time.perf_counter()
    while len(traced) < MIN_REPEATS or within(start, seconds, len(traced)):
        plain.append(sum(run_round(wl, tally, first)[0]))
        walls, parts = run_round(wl, tally, first, traced=True)
        traced.append(sum(walls))
        rounds.append(tracer.merge(parts))

    metrics = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if PER_LAYER_UNITS.get(name) in EXACT_UNITS:
            if len(set(values)) > 1:
                raise gates.WrongAnswer(f"{name} differs between identical traced rounds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = None if None in values else statistics.median(values)
    metrics = tracer.finish(metrics)
    base = statistics.median(plain)
    metrics["trace.overhead_s"] = statistics.median(traced) - base
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / base
    print(f"samples: {len(traced)} traced and {len(plain)} untraced rounds "
          f"of {len(wl.ops)} operations")
    return {name: metrics.get(name) for name in PER_LAYER_UNITS}


# -- entry point -----------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="kstab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["catalog-verify", "family-sweep", "chain-analyze"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kstab" / "cli.py").is_file():
        print(f"no kstab package under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    manifest: list = []
    wl = {"catalog-verify": catalog_verify, "family-sweep": family_sweep,
          "chain-analyze": lambda s: chain_analyze(s, manifest)}[args.workload](args.seed)
    print(f"kstab benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} (closed loop, 1 client, "
          f"{'in-process' if wl.in_process else 'one cold process per operation'})")

    if wl.in_process:
        import kstab.cli  # noqa: F401  (so that no timed call pays the import)

    tally = Tally()
    try:
        if args.trace:
            metrics = traced_run(wl, args.seconds, tally)
            units = PER_LAYER_UNITS
        else:
            metrics = timed_run(wl, args.seconds, tally)
            units = END_TO_END_UNITS
    except gates.WrongAnswer as exc:
        print(f"WRONG ANSWER, run aborted: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                          "failed": tally.failed, "metrics": {}}))
        return 1

    if manifest:
        (WORK / "chain-analyze.json").write_text(json.dumps(manifest, indent=1))
        print("  outcome per k: " + ", ".join(f"k={m['k']} {m['outcome']}" for m in manifest))
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>12} {units[name]}")
    fail_ratio = (tally.failed + tally.refused) / max(tally.attempted, 1)
    print(f"  fail_ratio {fail_ratio:.6g} = (failed {tally.failed} + refused {tally.refused})"
          f" / attempted {tally.attempted}; units done: {tally.units} {wl.unit}s")

    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
