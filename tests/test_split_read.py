"""The split trace read: line ranges decoded in forked workers, folded in order.

``read_trace`` must give what the one-pass reader ``trace_from_lines``
gives, for any worker count, on good traces and bad: the same trace, or
the same error line from ``check``. No worker may outlive the read.
``check`` keeps no round: its report equals the whole trace's, and its
memory does not grow with the trace's length.
"""

import contextlib
import io
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import agreesim
from agreesim import trace as trace_module
from agreesim.analysis import Walk
from agreesim.cli import main
from agreesim.harness import build_report, simulate
from agreesim.scenarios import LIBRARY, ScenarioConfig, builtin_scenario
from agreesim.trace import trace_to_lines, write_trace

from reference import (
    DyingPickler, assert_no_child_left, counting_forks, load_trace, report_text, split_reads,
    trace_from_lines,
)
from test_acceptance import random_scenario
from test_harness import golden_waypoint_n40


def check_outcome(path, *options: str) -> tuple[int, str, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", "--trace", str(path), *options])
    return code, out.getvalue(), err.getvalue().splitlines()


def assert_split_reads_like_serial(path) -> None:
    with open(path, encoding="utf-8", newline="\n") as lines:
        expected = trace_from_lines(lines)
    for workers in (2, 3):
        with split_reads(workers):
            assert load_trace(path) == expected
    assert_no_child_left()


@pytest.mark.parametrize("name", sorted(LIBRARY) + ["golden_waypoint_n40"])
def test_split_read_equals_serial_read(name, tmp_path):
    config = golden_waypoint_n40() if name == "golden_waypoint_n40" else builtin_scenario(name)
    path = tmp_path / "trace.jsonl"
    write_trace(simulate(config), path)
    assert_split_reads_like_serial(path)


@settings(max_examples=25, deadline=None)
@given(i=st.integers(0, 10**6))
def test_split_read_equals_serial_read_on_random_scenarios(i, tmp_path_factory):
    path = tmp_path_factory.mktemp("random") / "trace.jsonl"
    write_trace(simulate(random_scenario(i)), path)
    assert_split_reads_like_serial(path)


def test_blank_lines_and_an_unterminated_last_line(tmp_path):
    lines = trace_to_lines(simulate(builtin_scenario("fully_connected_baseline")))
    path = tmp_path / "trace.jsonl"
    path.write_text("\n\n" + "\n \n".join(lines))
    assert_split_reads_like_serial(path)


@pytest.fixture
def baseline_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_trace(simulate(builtin_scenario("stale_log_overshoot")), path)
    return path


def test_every_extra_worker_is_a_forked_child(baseline_trace, monkeypatch):
    forks = counting_forks(monkeypatch)
    with split_reads(3):
        load_trace(baseline_trace)
    assert len(forks) == 2
    assert_no_child_left()


def test_no_fork_while_other_threads_run(baseline_trace, monkeypatch):
    def no_fork():
        raise AssertionError("forked while another thread ran")

    expected = load_trace(baseline_trace)
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        with split_reads(3):
            assert load_trace(baseline_trace) == expected
    finally:
        release.set()
        waiter.join(timeout=10)


def test_no_child_outlives_a_read_that_raises(baseline_trace):
    lines = baseline_trace.read_text().splitlines()
    lines[-2] = lines[-2][:100]  # the last round, cut short
    baseline_trace.write_text("".join(line + "\n" for line in lines))
    with split_reads(3):
        code, _out, err = check_outcome(baseline_trace)
    assert code == 2 and len(err) == 1
    assert_no_child_left()


@pytest.mark.parametrize("when", ["before_writing", "mid_stream"])
def test_a_killed_child_leaves_its_range_to_the_parent(baseline_trace, monkeypatch, when):
    expected = load_trace(baseline_trace)
    parent = os.getpid()
    if when == "before_writing":
        real = trace_module._decode_lines

        def dying_decode(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(trace_module, "_decode_lines", dying_decode)
    else:
        monkeypatch.setattr(pickle, "Pickler", DyingPickler)
    with split_reads(3):
        assert load_trace(baseline_trace) == expected
    assert_no_child_left()


@pytest.mark.parametrize("stream", ["fifo", "dev_fd"])
def test_a_stream_is_read_in_one_pass_like_the_file(baseline_trace, tmp_path, monkeypatch,
                                                    stream):
    # A stream cannot seek, so it is read in one pass where the file is split.
    # A child process writes it: no fork may happen while another thread runs.
    with split_reads(3):
        expected = check_outcome(baseline_trace, "--out", str(tmp_path / "file.json"))
    forks = counting_forks(monkeypatch)
    if stream == "fifo":
        path = tmp_path / "trace.fifo"
        os.mkfifo(path)
        writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', str(baseline_trace), str(path)])
    else:
        r, w = os.pipe()
        writer = subprocess.Popen(["cat", str(baseline_trace)], stdout=w)
        os.close(w)
        path = f"/dev/fd/{r}"
    try:
        with split_reads(3):
            outcome = check_outcome(path, "--out", str(tmp_path / "stream.json"))
    finally:
        writer.kill()  # one left blocked by a read that failed
        writer.wait(timeout=10)
        if stream == "dev_fd":
            os.close(r)
    assert outcome == expected and expected[0] == 0
    assert (tmp_path / "stream.json").read_bytes() == (tmp_path / "file.json").read_bytes()
    assert forks == []


def test_bad_utf8_after_a_malformed_record_reports_the_record(tmp_path):
    # Line 2 is cut short and line 4 starts with a byte that is not UTF-8:
    # line 2's malformed record is reported, on one CPU as on two.
    lines = [line.encode() for line in
             trace_to_lines(simulate(builtin_scenario("fully_connected_baseline")))]
    lines[1] = lines[1][:100]
    lines[3] = b"\xff" + lines[3]
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    outcomes = []
    for workers in (1, 2):
        with split_reads(workers):
            outcomes.append(check_outcome(path))
    assert outcomes[0] == outcomes[1]
    code, _out, err = outcomes[0]
    assert code == 2 and len(err) == 1
    assert err[0].startswith("trace error: line 2: malformed record")
    assert_no_child_left()


def test_a_read_stops_at_the_first_malformed_record(baseline_trace, monkeypatch):
    lines = baseline_trace.read_text().splitlines()
    lines[1] = lines[1][:100]  # round 1, cut short
    baseline_trace.write_text("".join(line + "\n" for line in lines))
    decoded = []
    real = trace_module._decode

    def counting_decode(*args):
        decoded.append(args[0])
        return real(*args)

    monkeypatch.setattr(trace_module, "_decode", counting_decode)
    with split_reads(1):
        code, _out, err = check_outcome(baseline_trace)
    assert code == 2 and err[0].startswith("trace error: line 2: malformed record")
    assert len(decoded) == 1


def stuck_partition(max_rounds: int) -> ScenarioConfig:
    """Six clusters of five nodes, out of each other's range, whose value bands never meet.

    No run of it converges, so every phase is audited, and each round
    delivers about a hundred messages.
    """
    centres = [(x, y) for y in (2.5, 7.5) for x in (2.0, 5.0, 8.0)]
    coords = {
        str(5 * k + j): [cx + 0.5 * math.cos(2 * math.pi * j / 5),
                         cy + 0.5 * math.sin(2 * math.pi * j / 5)]
        for k, (cx, cy) in enumerate(centres) for j in range(5)
    }
    return ScenarioConfig(
        name="stuck_partition", n=30, f=0, r_c=1, epsilon=0.01, max_rounds=max_rounds,
        arena=(10.0, 10.0), radius=1.5, loss_rate=0.2,
        initial_values={"mode": "explicit",
                        "values": [0.18 * (i // 5) + 0.016 * (i % 5) for i in range(30)]},
        initial_positions={"mode": "explicit", "coords": coords},
        seed=5,
    )


@pytest.mark.parametrize("name", sorted(LIBRARY) + ["golden_waypoint_n40", "stuck_partition"])
def test_split_and_one_pass_checks_report_what_the_whole_trace_gives(name, tmp_path):
    extras = {"golden_waypoint_n40": golden_waypoint_n40,
              "stuck_partition": lambda: stuck_partition(60)}
    config = extras[name]() if name in extras else builtin_scenario(name)
    path = tmp_path / "trace.jsonl"
    write_trace(simulate(config), path)
    trace = load_trace(path)
    whole = report_text(build_report(trace, Walk(trace, None))).encode()
    outcomes = []
    for workers in (1, 3):
        out = tmp_path / f"report-{workers}.json"
        with split_reads(workers):
            outcomes.append(check_outcome(path, "--out", str(out)))
        assert out.read_bytes() == whole
    assert outcomes[0] == outcomes[1]
    assert_no_child_left()


# Peak memory of ``check`` on one CPU, in a process of its own: the trace is
# read in one pass, and memory held by forked workers is not the question.
# VmHWM, not ru_maxrss: Linux carries the forking process's peak over into
# the ru_maxrss of the program it executes.
PEAK_RSS_OF_CHECK = """
import contextlib, io, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from agreesim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["check", "--trace", sys.argv[1], "--out", sys.argv[2]])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_check_memory_does_not_grow_with_the_horizon(tmp_path):
    src = str(Path(agreesim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    peaks = []
    for rounds in (200, 1000):  # 1.8 and 9 MB of trace
        path = tmp_path / f"trace-{rounds}.jsonl"
        write_trace(simulate(stuck_partition(rounds)), path)
        done = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_OF_CHECK, str(path), str(tmp_path / "report.json")],
            capture_output=True, text=True, env=env, check=True,
        )
        code, peak = map(int, done.stdout.split())  # in KiB
        assert code == 0
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0], peaks
