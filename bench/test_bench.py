"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder, Span, self_times, subtree_self_exceeds  # noqa: E402

from agreesim import cli  # noqa: E402
from agreesim.scenarios import load_scenario  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_valid(workload, tmp_path):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)
    paths = workloads.write_inputs(workload, 7, tmp_path)
    load_scenario(paths["scenario.json"])


def test_benchmark_json_names_every_workload():
    config = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == workloads.WORKLOADS


def test_stuck_partition_graph_does_not_depend_on_seed(tmp_path):
    from agreesim.harness import simulate

    edges = set()
    for seed in (1, 2, 3):
        doc = json.loads(workloads.generate("stuck_partition", seed)["scenario.json"])
        doc["max_rounds"] = 1
        path = tmp_path / f"s{seed}.json"
        path.write_text(json.dumps(doc))
        edges.add(len(simulate(load_scenario(path)).rounds[0].edges))
    assert edges == {6 * 5 * 4}


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert subtree_self_exceeds(spans, self_times(spans), {"root", "a"}) == []


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1, 0), Span("a", 1.0, 4.0, 0, 0), Span("b", 3.0, 6.0, 0, 0)]
    assert self_times(spans)[0] == 5.0


def test_children_longer_than_parent_are_flagged():
    spans = [Span("cli.main", 0.0, 1.0, -1, 0), Span("x", 0.0, 2.0, 0, 0)]
    assert subtree_self_exceeds(spans, [0.0, 2.0], {"cli.main"})


def _cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _short_stuck_scenario(tmp_path: Path) -> Path:
    doc = json.loads(workloads.generate("stuck_partition", 1)["scenario.json"])
    doc["max_rounds"] = 12
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    return scenario


def test_counting_wrappers_record_no_spans_and_timed_ones_no_counts(tmp_path):
    scenario = _short_stuck_scenario(tmp_path)
    original = cli.run_scenario
    recorder = Recorder()

    def run_with(timing: bool) -> None:
        recorder.install(timing=timing)
        try:
            assert _cli("run", "--scenario", str(scenario), "--out", str(tmp_path / str(timing))) == 0
        finally:
            recorder.uninstall()
        assert cli.run_scenario is original

    run_with(timing=False)
    assert recorder.finished_spans() == []
    counts = recorder.take_counts()
    assert counts["trace.values_at.calls"] > 0 and counts["dynamics.msgs_delivered"] > 0

    run_with(timing=True)
    assert not recorder.take_counts()
    names = {s.name for s in recorder.finished_spans()}
    assert {"harness.run_scenario", "protocol.step_round", "analysis.check_safety"} <= names


def test_output_check_flags_one_altered_final_value(tmp_path):
    scenario = _short_stuck_scenario(tmp_path)
    out = tmp_path / "out"
    assert _cli("run", "--scenario", str(scenario), "--out", str(out)) == 0
    first = tmp_path / "check1.json"
    assert _cli("check", "--trace", str(out / "trace.jsonl"), "--mode", "io:3", "--out", str(first)) == 0
    digest, problems = checks.check_run(out, first, None)
    assert problems == []

    trace = out / "trace.jsonl"
    lines = trace.read_text().splitlines()
    final = json.loads(lines[-1])
    values = final["values"]
    lo, hi = min(values.values()), max(values.values())
    node = next(k for k, v in sorted(values.items()) if lo < v < hi)
    values[node] = (values[node] + hi) / 2
    lines[-1] = json.dumps(final, sort_keys=True, separators=(",", ":"))
    trace.write_text("\n".join(lines) + "\n")

    second = tmp_path / "check2.json"
    assert _cli("check", "--trace", str(trace), "--mode", "io:3", "--out", str(second)) == 0
    # The program's own audit cannot see the change ...
    assert second.read_bytes() == first.read_bytes() == (out / "report.json").read_bytes()
    # ... the benchmark's outcome digest does.
    _, problems = checks.check_run(out, second, digest)
    assert problems and "digest" in problems[0]


def test_sweep_check_counts_failures(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text(
        "loss_rate,r_c,runs,failures,converged_rate,mean_converged_round,condition_rate\n"
        "0.0,1,10,0,1.0,5.0,1.0\n"
        "0.2,1,10,2,1.0,6.0,1.0\n"
    )
    _digest, attempted, failed, problems = checks.check_sweep(path, 10, None)
    assert (attempted, failed) == (20, 2)
    assert problems == ["2 sweep runs failed"]
