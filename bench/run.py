"""agreesim benchmark: one workload, one seed, one measurement window.

Run from the root of a source checkout:

    python3 bench/run.py --workload mobile_n100 --seed 1 --seconds 30 --trace 0

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

The benchmark writes the workload's scenario (and grid) files from the
seed, then drives the agreesim CLI in this process, one command at a
time: a closed loop with a single caller, since agreesim is a batch tool.
An operation is ``run`` followed by ``check --mode io:3`` on the written
trace, or one ``sweep``. Operations repeat until ``--seconds`` have
passed (at least four of them, the first one untimed), and every one is
checked for correct output. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported at a reference machine speed. On a shared machine the
same operation's wall-clock time drifts by a quarter or more within
minutes, so each operation's time is scaled by REFERENCE_S over the median
time of a fixed pure-Python kernel (``reference_kernel``) run just before
and just after it. The raw wall-clock median and the speed factor go to
standard error. Set-up times (``setup_s``, ``scenarios.load_s``) are scaled
the same way by a reference set-up child instead (see ``setup_samples``).

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` reports the per-layer metrics (see tracing.py). Its first
two operations carry counting wrappers, which derive every counter from
the calls' arguments and results and read no clock; the first of them
also warms up. Then untraced operations alternate with timed ones, in
which each layer's public functions record spans, at least twice each.
It reports self times, counts and the tracing overhead (timed minus
untraced operation time), checks that every operation's outputs are
byte-identical to the first one's and that every counter repeats exactly,
and writes the spans to ``.bench_work/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1
MIN_OPS = 4
MIN_TRACED_OPS = 2
COUNTING_OPS = 2
SETUP_SAMPLES = 15
KERNEL_SAMPLES_PER_OP = 4
# Median reference_kernel() time on a 2-core x86-64 machine, Python 3.11.7.
REFERENCE_S = 0.1
# Reference set-up child time at which set-up times are reported; its
# median on the same machine ranged 0.12-0.14 s.
REFERENCE_SETUP_S = 0.13
CHECK_MODE = "io:3"
# Expected outcome digests at DEFAULT_SEED (see checks.py).
PINNED = json.loads((BENCH_DIR / "pinned.json").read_text())
RUN_SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]

# Fresh interpreter: import agreesim, then load and validate the workload's
# files the way the CLI does. Prints import and load seconds.
SETUP_CHILD = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import agreesim.cli
from agreesim.scenarios import load_scenario
t1 = time.perf_counter()
load_scenario(sys.argv[2])
if len(sys.argv) > 3:
    import json
    grid = json.loads(open(sys.argv[3]).read())
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        sys.exit("bad grid")
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""

# Fresh interpreter doing set-up work that uses no agreesim code: import a
# fixed set of stdlib modules and build dataclasses, as agreesim's modules
# do. Run right after each set-up child, it gives the machine's current
# speed at set-up work. Prints its seconds.
REFERENCE_SETUP_CHILD = r"""
import time
t0 = time.perf_counter()
import argparse, ast, decimal, email.message, fractions, http.client, inspect, logging
import statistics, tarfile, typing, xml.dom.minidom, zipfile
from dataclasses import dataclass, field
for k in range(40):
    fields = {"a": int, "b": float, "c": str, "d": list}
    dataclass(frozen=True)(type(f"C{k}", (), {"__annotations__": fields, "d": field(default_factory=list)}))
print(time.perf_counter() - t0)
"""

# Spans whose self time is reported; each becomes "<name>.s".
SELF_TIMED = (
    "cli.main",
    "harness.sweep",
    "harness.simulate",
    "harness.build_report",
    "harness.write_series_csv",
    "dynamics.move_step",
    "dynamics.build_round_graph",
    "dynamics.out_neighbors",
    "dynamics.deliver",
    "dynamics.joint_neighbor_set",
    "dynamics.retained_values",
    "adversary.byzantine_outbox",
    "protocol.step_round",
    "trace.trace_to_lines",
    "trace.write_trace",
    "trace.read_trace",
    "analysis.check_safety",
    "analysis.check_condition",
    "analysis.check_validity",
    "analysis.check_legality",
    "analysis.check_convergence",
    "analysis.check_phase_progress",
    "analysis.spread_series",
    "analysis.condition_report",
)
# Spans whose call count is reported as "<name>.calls".
CALL_COUNTED = (
    "dynamics.out_neighbors",
    "dynamics.joint_neighbor_set",
    "dynamics.retained_values",
    "protocol.step_round",
    "analysis.check_condition",
)
COUNTERS = (
    "dynamics.edges",
    "dynamics.msgs_attempted",
    "dynamics.msgs_delivered",
    "dynamics.deliveries_scanned",
    "adversary.msgs",
    "protocol.log_entries",
    "protocol.resets",
    "trace.values_at.calls",
    "harness.substream.calls",
)
PARENTS_CHECKED = {"harness.simulate", "harness.build_report", "cli.main"}
TRACE_FIELDS = ("delivered", "logs", "edges", "positions")


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python computation that uses no agreesim code.

    It does the kind of work the simulator does (disk graph over float
    positions, set and dict building, sorting, JSON round trip), so a
    shared machine that slows the program slows it alike. Timed between
    operations, it gives the machine's current speed.
    """
    start = time.perf_counter()
    rng = random.Random(20121)
    pts = [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)) for _ in range(360)]
    edges = set()
    for a, (ax, ay) in enumerate(pts):
        for b in range(a + 1, len(pts)):
            bx, by = pts[b]
            if math.hypot(ax - bx, ay - by) <= 3.0:
                edges.add((a, b))
                edges.add((b, a))
    inbox: dict[int, list] = {}
    for sender, receiver in sorted(edges):
        inbox.setdefault(receiver, []).append([sender, rng.random()])
    back = json.loads(json.dumps({str(r): m for r, m in inbox.items()}, sort_keys=True))
    math.fsum(math.fsum(sorted(v for _, v in m)[1:-1]) for m in back.values())
    return time.perf_counter() - start


@dataclass
class Op:
    """One operation's timings, outputs and verdict."""

    directory: Path
    sim_s: float = 0.0
    op_s: float = 0.0
    sha256: dict[str, str] = field(default_factory=dict)
    digest: str | None = None
    speed: float = 1.0  # REFERENCE_S over the kernel time around this operation
    attempted: int = 1
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, cli, root: Path, workload: str, seed: int, work: Path):
        self.cli = cli
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = workloads.write_inputs(workload, seed, work / "inputs")
        self.expected = PINNED.get(workload) if seed == DEFAULT_SEED else None
        self.main = cli.main
        self.ops_run = 0

    # -- set-up ------------------------------------------------------------

    def setup_samples(self) -> list[tuple[float, float]]:
        """(import_s, load_s) from fresh interpreters, at the reference speed.

        Each set-up child is followed by a reference set-up child, and the
        pair's ratio sets the sample. reference_kernel() does not serve
        here: set-up is module loading, which a busy machine slows unlike
        pure-Python loops, and scaling by the kernel widened set-up's spread
        across runs. The first pair only warms caches and is not counted.
        """
        cmd = [sys.executable, "-c", SETUP_CHILD, str(self.root / "src"),
               str(self.inputs["scenario.json"])]
        if "grid.json" in self.inputs:
            cmd.append(str(self.inputs["grid.json"]))
        reference = [sys.executable, "-c", REFERENCE_SETUP_CHILD]
        samples = []
        for _ in range(SETUP_SAMPLES + 1):
            imp, load = map(float, _child_output(cmd, self.root).split())
            speed = REFERENCE_SETUP_S / float(_child_output(reference, self.root))
            samples.append((imp * speed, load * speed))
        return samples[1:]

    # -- one operation -----------------------------------------------------

    def run_op(self) -> Op:
        self.ops_run += 1
        op = Op(directory=self.work / f"op{self.ops_run}")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if self.workload == workloads.SWEEP_WORKLOAD:
                    self._sweep(op)
                else:
                    self._run_check(op)
        except Exception:
            op.problems.append(traceback.format_exc())
        if op.problems and not op.failed:
            op.failed = op.attempted
        return op

    def _run_check(self, op: Op) -> None:
        out, report = op.directory / "out", op.directory / "check.json"
        t0 = time.perf_counter()
        rc_run = self.main(["run", "--scenario", str(self.inputs["scenario.json"]), "--out", str(out)])
        t1 = time.perf_counter()
        if rc_run != 0:
            op.problems.append(f"run exited {rc_run}")
            return
        rc_check = self.main(["check", "--trace", str(out / "trace.jsonl"), "--mode", CHECK_MODE,
                              "--out", str(report)])
        t2 = time.perf_counter()
        if rc_check != 0:
            op.problems.append(f"check exited {rc_check}")
            return
        op.sim_s, op.op_s = t1 - t0, t2 - t0
        files = [out / "trace.jsonl", out / "report.json", out / "series.csv", report]
        self._record_files(op, files)
        op.digest, problems = checks.check_run(out, report, self.expected)
        op.problems += problems

    def _sweep(self, op: Op) -> None:
        out = op.directory / "out"
        op.attempted = workloads.SWEEP_RUNS
        t0 = time.perf_counter()
        rc = self.main(["sweep", "--scenario", str(self.inputs["scenario.json"]),
                        "--grid", str(self.inputs["grid.json"]),
                        "--seeds", str(workloads.SWEEP_SEEDS), "--out", str(out)])
        t1 = time.perf_counter()
        if rc != 0:
            op.problems.append(f"sweep exited {rc}")
            return
        op.sim_s = op.op_s = t1 - t0
        self._record_files(op, [out / "sweep.csv"])
        op.digest, op.attempted, op.failed, problems = checks.check_sweep(
            out / "sweep.csv", workloads.SWEEP_SEEDS, self.expected
        )
        op.problems += problems

    @staticmethod
    def _record_files(op: Op, files: list[Path]) -> None:
        for path in files:
            op.sha256[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()

    # -- loops ---------------------------------------------------------------

    def repeat(self, seconds: float, min_ops: int, before_op=None, after_op=None) -> list[Op]:
        """Closed loop: the next operation starts when the previous one ends.

        ``before_op(i)`` and ``after_op(i, op)`` run around operation i,
        outside its timing and the kernel runs.
        """
        ops: list[Op] = []
        started = time.perf_counter()
        before = [reference_kernel() for _ in range(KERNEL_SAMPLES_PER_OP)]
        while len(ops) < min_ops or (
            time.perf_counter() - started + statistics.median(o.op_s for o in ops) / 2 < seconds
        ):
            if before_op is not None:
                before_op(len(ops))
            op = self.run_op()
            if after_op is not None:
                after_op(len(ops), op)
            after = [reference_kernel() for _ in range(KERNEL_SAMPLES_PER_OP)]
            op.speed = REFERENCE_S / statistics.median(before + after)
            before = after
            ops.append(op)
            self.settle(ops, op)
        return ops

    def settle(self, ops: list[Op], op: Op) -> None:
        """Cross-check an operation against the first, then drop its files."""
        first = ops[0]
        if op is not first and not op.problems and op.digest != first.digest:
            op.problems.append("outcome differs from the first operation of this run")
            op.failed = op.attempted
        for problem in op.problems:
            print(f"{self.workload} op{self.ops_run}: {problem}", file=sys.stderr)
        shutil.rmtree(op.directory, ignore_errors=True)


def _child_output(cmd: list[str], cwd: Path) -> str:
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=cwd)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return done.stdout


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[Op]]:
    setup = bench.setup_samples()
    ops = bench.repeat(seconds, MIN_OPS)
    # The first operation warms the heap and caches; it is checked but not timed.
    good = [o for o in ops[1:] if not o.problems] or ops
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(f"{bench.workload} seed {bench.seed}: wall-clock median op_s "
          f"{_median(o.op_s for o in good):.4f}, machine speed factor "
          f"{_median(o.speed for o in good):.4f}", file=sys.stderr)
    metrics = {
        "setup_s": (_median(imp + load for imp, load in setup), "s"),
        "op_s": (_median(o.op_s * o.speed for o in good), "s"),
        "sim_s": (_median(o.sim_s * o.speed for o in good), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, ops


def trace_field_bytes(trace_path: Path) -> dict[str, int]:
    """Bytes of trace.jsonl taken by each bulky per-round field, and the rest."""
    sizes = dict.fromkeys(TRACE_FIELDS, 0)
    total = 0
    with open(trace_path) as fh:
        for line in fh:
            total += len(line.encode())
            record = json.loads(line)
            if record.get("type") != "round":
                continue
            for name in TRACE_FIELDS:
                sizes[name] += len(json.dumps({name: record[name]}, sort_keys=True,
                                              separators=(",", ":"))) - 2
    sizes["other"] = total - sum(sizes.values())
    return sizes


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list[Op]]:
    setup = bench.setup_samples()
    field_bytes = dict.fromkeys(TRACE_FIELDS + ("other",), 0)
    recorder = tracing.Recorder()
    traced_main = recorder.timed("cli.main", bench.cli.main)
    op_counts: list[Counter] = []
    untraced: list[Op] = []
    traced: list[Op] = []
    reference_sha256: dict[str, str] = {}

    # The first COUNTING_OPS operations carry the counting wrappers and no
    # spans; operation 0 also warms up, and its outputs are the reference.
    # After them, untraced and timed operations alternate, so each timed
    # one has an untraced neighbour to measure the tracing overhead by.
    def kind(i: int) -> str:
        if i < COUNTING_OPS:
            return "counting"
        return "untraced" if (i - COUNTING_OPS) % 2 == 0 else "timed"

    def before_op(i: int) -> None:
        if kind(i) == "counting":
            recorder.install(timing=False)
        elif kind(i) == "timed":
            recorder.install(timing=True)
            bench.main = traced_main

    def after_op(i: int, op: Op) -> None:
        recorder.uninstall()
        bench.main = bench.cli.main
        if kind(i) == "counting":
            op_counts.append(recorder.take_counts())
        elif kind(i) == "timed":
            recorder.op += 1
            traced.append(op)
        else:
            untraced.append(op)
        if i == 0:
            reference_sha256.update(op.sha256)
            trace_path = op.directory / "out" / "trace.jsonl"
            if trace_path.exists():
                field_bytes.update(trace_field_bytes(trace_path))
        elif not op.problems and op.sha256 != reference_sha256:
            op.problems.append("outputs differ from the first operation's by sha256")
            op.failed = op.attempted

    try:
        ops = bench.repeat(seconds, COUNTING_OPS + 2 * MIN_TRACED_OPS, before_op, after_op)
    finally:
        recorder.uninstall()
        bench.main = bench.cli.main

    spans = recorder.finished_spans()
    selfs = tracing.self_times(spans)
    problems = tracing.subtree_self_exceeds(spans, selfs, PARENTS_CHECKED)

    # Times are scaled to the reference speed, like the end-to-end ones.
    self_by_op: list[Counter] = [Counter() for _ in traced]
    calls_by_op: list[Counter] = [Counter() for _ in traced]
    for span, self_s in zip(spans, selfs):
        self_by_op[span.op][span.name] += self_s * traced[span.op].speed
        calls_by_op[span.op][span.name + ".calls"] += 1
    for label, per_op in (("counting", op_counts), ("timed", calls_by_op)):
        if any(c != per_op[0] for c in per_op[1:]):
            problems.append(f"a deterministic counter differs between {label} operations")
    counts = op_counts[0] + calls_by_op[0]

    metrics: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMED:
        metrics[name + ".s"] = (_median(c[name] for c in self_by_op), "s")
    for name in CALL_COUNTED:
        metrics[name + ".calls"] = (counts[name + ".calls"], "count")
    for name in COUNTERS:
        metrics[name] = (counts[name], "count")
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    metrics["dynamics.delivery_ratio"] = (
        ratio(counts["dynamics.msgs_delivered"], counts["dynamics.msgs_attempted"]), "ratio")
    metrics["protocol.computed_ratio"] = (
        ratio(counts["protocol.computed"], counts["protocol.step_round.calls"]), "ratio")
    metrics["harness.rounds_after_convergence_ratio"] = (
        ratio(counts["harness.rounds_after_convergence"], counts["harness.rounds"]), "ratio")
    run_ms = [(s.end - s.start) * 1e3 * traced[s.op].speed
              for s in spans if s.name == "harness.run_scenario"]
    metrics["harness.run_scenario.p50_ms"] = (_percentile(run_ms, 50), "ms")
    metrics["harness.run_scenario.p88_ms"] = (_percentile(run_ms, 88), "ms")
    for name, size in field_bytes.items():
        metrics[f"trace.bytes.{name}"] = (size, "B")
    metrics["scenarios.load_s"] = (_median(load for _imp, load in setup), "s")
    # Each pair's wall-clock difference at the pair's mean speed: scaling the
    # two operations by their own factors would add the factors' noise on a
    # whole operation's time to a difference much smaller than that.
    metrics["tracing.overhead_s"] = (_median(
        (t.op_s - u.op_s) * (t.speed + u.speed) / 2 for u, t in zip(untraced, traced)), "s")

    for problem in problems:
        print(f"{bench.workload}: {problem}", file=sys.stderr)
    if problems:
        traced[-1].problems += problems
        traced[-1].failed = traced[-1].attempted
    recorder.write_spans(bench.work.parent / f"spans-{bench.workload}.csv")
    return metrics, ops


def _load_program(root: Path):
    src = root / "src"
    if not (src / "agreesim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no agreesim source under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import agreesim.cli as module

    if Path(module.__file__).resolve().parent != (src / "agreesim").resolve():
        raise SystemExit(f"bench: imported agreesim from {module.__file__}, not {src}")
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = _load_program(root)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(cli, root, args.workload, args.seed, work)
        measure = per_layer if args.trace else end_to_end
        metrics, ops = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    digests = {o.digest for o in ops if o.digest}
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, outcome digest "
          f"{' '.join(sorted(digests))}, op_s {' '.join(f'{o.op_s:.3f}' for o in ops)}",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
