"""The batch trace writer: ``run`` encodes rounds in forked children as it simulates.

The file ``run`` writes must not depend on how many children encoded it,
whether any died, or whether any CPU was spare: it must hold what
``trace_to_lines`` gives in one pass. No child may outlive ``run``. Nor
may the children change the step vectors ``run --vectors`` formats in
the same pass.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import signal

import pytest
from hypothesis import given, settings, strategies as st

from agreesim import cpus
from agreesim import harness
from agreesim import trace as trace_module
from agreesim.cli import main
from agreesim.errors import ProtocolError
from agreesim.harness import simulate
from agreesim.scenarios import builtin_scenario, save_scenario
from agreesim.trace import TraceEncoder, write_trace

from reference import (
    assert_no_child_left, counting_forks, reference_trace_lines, reference_vectors, trace_bytes,
)
from test_acceptance import MOBILITY, STRATEGIES, random_scenario
from test_harness import GOLDEN_DIGESTS, golden_config, run_vectors


@contextlib.contextmanager
def encoder_cpus(count: int, monkeypatch):
    """Every complete batch forks a child on ``count`` allowed CPUs, whatever it delivered.

    Yields the list of pids forked.
    """
    monkeypatch.setattr(trace_module, "ENCODE_MIN_MESSAGES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(count)), raising=False)
    yield counting_forks(monkeypatch)


def run_cli(scenario: str, out) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--scenario", scenario, "--out", str(out)])
    return code, err.getvalue()


@pytest.mark.parametrize("cpu_count", [2, 1])
@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_run_writes_the_golden_trace(name, cpu_count, tmp_path, monkeypatch):
    config = golden_config(name)
    scenario = tmp_path / "scenario.json"
    save_scenario(config, scenario)
    with encoder_cpus(cpu_count, monkeypatch) as forks:
        code, _err = run_cli(str(scenario), tmp_path / "out")
    assert code in (0, 1)
    data = (tmp_path / "out" / "trace.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_DIGESTS[name]["trace"]
    batch = TraceEncoder(config.effective_max_rounds).batch
    assert len(forks) == (config.effective_max_rounds // batch if cpu_count > 1 else 0)
    assert_no_child_left()


@settings(max_examples=20, deadline=None)
@given(i=st.integers(0, 10**6))
def test_encoder_bytes_equal_the_reference_encoder(i, tmp_path_factory):
    config = random_scenario(i)
    path = tmp_path_factory.mktemp("encoded") / "trace.jsonl"
    with pytest.MonkeyPatch.context() as patch, encoder_cpus(2, patch):
        with TraceEncoder(config.effective_max_rounds) as encoder:
            trace = simulate(config, on_round=encoder.add)
            write_trace(trace, path, encoder)
    expected = "".join(line + "\n" for line in reference_trace_lines(trace))
    assert path.read_bytes() == expected.encode()
    assert_no_child_left()


@settings(max_examples=4, deadline=None)
@given(base=st.integers(0, 10**4))
def test_run_vectors_equal_the_replay_oracle(base, tmp_path_factory):
    # Consecutive scenarios cycle through every strategy, mobility model and loss rate.
    period = math.lcm(len(STRATEGIES), len(MOBILITY), 2)
    for i in range(base * period, (base + 1) * period):
        config = random_scenario(i)
        with pytest.MonkeyPatch.context() as patch, encoder_cpus(2, patch) as forks:
            code, _out, path = run_vectors(config, tmp_path_factory.mktemp("run"))
        assert code in (0, 1) and forks
        expected = [json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                    for rec in reference_vectors(simulate(config))]
        assert path.read_text() == "".join(expected)
    assert_no_child_left()


class DyingFile:
    """A pipe's write end that writes the first half of what it is given, then kills its process."""

    def __init__(self, fd: int):
        self.fd = fd

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        os.close(self.fd)

    def write(self, data: bytes) -> None:
        os.write(self.fd, data[: len(data) // 2])
        os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("how", ["raises", "killed_mid_stream"])
def test_a_failed_child_leaves_its_batch_to_the_parent(how, tmp_path, monkeypatch):
    config = builtin_scenario("partition_never")  # 30 rounds: batches of 8, 6 left to the parent
    expected = trace_bytes(simulate(config))
    parent = os.getpid()
    if how == "raises":
        real = trace_module._encode_rounds

        def failing_encode(records):
            if os.getpid() != parent and records[0].round == 9:
                raise RuntimeError("encoder failed")
            return real(records)

        monkeypatch.setattr(trace_module, "_encode_rounds", failing_encode)
    else:
        def dying_open(fd, mode="r", *args, **kwargs):
            return DyingFile(fd) if mode == "wb" else open(fd, mode, *args, **kwargs)

        monkeypatch.setattr(cpus, "open", dying_open, raising=False)
    path = tmp_path / "trace.jsonl"
    with encoder_cpus(2, monkeypatch) as forks:
        with TraceEncoder(config.effective_max_rounds) as encoder:
            trace = simulate(config, on_round=encoder.add)
            write_trace(trace, path, encoder)
    assert len(forks) == 3
    assert path.read_bytes() == expected
    assert_no_child_left()


def test_no_child_outlives_a_simulation_error(tmp_path, monkeypatch):
    real = harness.step_round

    def failing_step(state, inbox, r, params):
        if r == 15:  # after the first batch (rounds 1-10) went to a child
            raise ProtocolError("node step failed")
        return real(state, inbox, r, params)

    monkeypatch.setattr(harness, "step_round", failing_step)
    out = tmp_path / "out"
    with encoder_cpus(2, monkeypatch) as forks:
        code, err = run_cli("fully_connected_baseline", out)
    assert len(forks) == 1
    assert code == 1 and err == "error: node step failed\n"
    assert not out.exists()
    assert_no_child_left()


def test_no_child_outlives_an_unwritable_output(tmp_path, monkeypatch):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    with encoder_cpus(2, monkeypatch) as forks:
        code, err = run_cli("fully_connected_baseline", out)
    assert len(forks) == 4
    assert code == 2 and err.startswith("config error: cannot write")
    assert_no_child_left()
