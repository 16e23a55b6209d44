"""End-to-end runs, scenario library verdicts, replay, files, CLI."""

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import typing

import pytest
from hypothesis import example, given, settings, strategies as st

from agreesim import cli, harness, scenarios
from agreesim import trace as trace_module
from agreesim.adversary import (
    ExtremeSplit,
    FixedValue,
    RandomLegal,
    RoundView,
    ScriptedTable,
    Silent,
    Strategy,
)
from agreesim.analysis import Walk, check_convergence
from agreesim.cli import main
from agreesim.dynamics import (
    Arena,
    MobilityModel,
    RandomWaypoint,
    Scripted,
    Stationary,
    TeleportRandom,
)
from agreesim.errors import AnalysisError, ConfigError, TraceError, require_types
from agreesim.harness import (
    Engine,
    build_report,
    round_inputs,
    run_scenario,
    simulate,
    sweep,
    write_report,
    write_series_csv,
    write_sweep_csv,
)
from agreesim.scenarios import (
    LIBRARY,
    ScenarioConfig,
    builtin_scenario,
    load_scenario,
    save_scenario,
)
from agreesim.protocol import ProtocolParams
from agreesim.trace import (
    RoundRecord,
    Trace,
    read_trace,
    trace_to_lines,
    write_trace,
)
from agreesim.vectors import read_vectors, replay_vectors, write_vectors
from reference import (
    DyingPickler, assert_no_child_left, counting_forks, load_trace, phase_of, reference_simulate,
    reference_sweep, reference_trace_lines, reference_vectors, replay, report_text, split_reads,
    spread, trace_bytes, trace_from_lines, v_max, walked,
)
from test_acceptance import random_scenario


class TestRunScenario:
    def test_single_node_converges_immediately(self):
        config = ScenarioConfig(
            name="solo", n=1, f=0, r_c=1, epsilon=0.1, max_rounds=3,
            initial_values={"mode": "explicit", "values": [3.0]}, seed=1,
        )
        _trace, report = run_scenario(config)
        assert report.converged and report.converged_at == 1
        assert report.invariants_ok

    def test_invalid_config_rejected_before_simulation(self):
        config = ScenarioConfig(
            name="bad", n=2, f=0, r_c=1, epsilon=0.1,
            initial_values={"mode": "explicit", "values": [1.0]}, seed=1,
        )
        with pytest.raises(ConfigError):
            run_scenario(config)

    def test_values_recorded_at_round_start(self):
        trace = simulate(builtin_scenario("fully_connected_baseline"))
        assert trace.values_at(1) == trace.initial_values


class TestScenarioLibrary:
    def test_baseline_converges_with_shrinking_spread(self):
        trace, report = run_scenario(builtin_scenario("fully_connected_baseline"))
        assert report.converged
        spreads = [row["spread"] for row in report.phase_starts]
        until = phase_of(trace, report.converged_at) + 1
        open_spreads = spreads[:until]
        assert all(b < a for a, b in zip(open_spreads, open_spreads[1:]))
        assert report.final_spread < trace.params.epsilon

    def test_short_population_stays_stuck(self):
        trace, report = run_scenario(builtin_scenario("lemma2_3f_impossible"))
        assert not report.converged
        assert len(report.condition_per_phase) == 50
        assert all(not p.satisfied for p in report.condition_per_phase)
        assert not report.cardinality_ok

    @pytest.mark.parametrize("name", ["necessity_f_proper", "necessity_improper_mix"])
    def test_necessity_scenarios_freeze_every_value(self, name):
        trace, report = run_scenario(builtin_scenario(name))
        for r in range(1, trace.last_round + 2):
            assert trace.values_at(r) == trace.initial_values
        assert all(not p.satisfied for p in report.condition_per_phase)
        assert not report.converged

    def test_partition_converges_per_clique_only(self):
        trace, report = run_scenario(builtin_scenario("partition_never"))
        eps = trace.params.epsilon
        low, high = sorted(trace.initial_values)[:4], sorted(trace.initial_values)[4:]
        final = trace.values_at(trace.last_round + 1)
        for clique in (low, high):
            vals = [final[i] for i in clique]
            assert max(vals) - min(vals) < eps
        gap = min(final[i] for i in high) - max(final[i] for i in low)
        assert gap >= eps
        assert not report.converged
        assert all(not p.satisfied for p in report.condition_per_phase)

    def test_scripted_walk_composes_log_across_neighborhoods(self):
        trace, _report = run_scenario(builtin_scenario("fig1_scripted_path"))
        stops = [(3.0, 5.0), (3.0, 5.0), (5.0, 5.0), (7.0, 5.0)]
        assert [trace.rounds[r - 1].positions[0] for r in range(1, 5)] == stops
        assert trace.rounds[2].computed[0]
        assert set(trace.rounds[2].logs[0]) == {1, 2}

    def test_overshoot_scenario_breaches_round_envelope_only(self):
        trace, report = run_scenario(builtin_scenario("stale_log_overshoot"))
        assert v_max(trace, 4) > v_max(trace, 3)
        assert report.safety_ok and report.legality_ok and report.validity_ok
        assert not report.converged

    def test_every_library_entry_validates(self):
        for name in LIBRARY:
            builtin_scenario(name).validate()


# sha256 of a run's trace bytes, of its report JSON and of its step vectors
# (one canonical JSON line each), kept apart so that a change meant to move
# one output shows the other two did not move. A refactor of the simulator
# or the checkers must leave all three alone.
GOLDEN_DIGESTS = {
    "fig1_scripted_path": {
        "trace": "dae7acc294f58771fbcbeff17d0572ff53cd0cc94150b052e7c8d5dba7c116c6",
        "report": "01d71b61f2131f7e441c753fb8f1fc5d9078506363e5c94ab42e30a2e88a6725",
        "vectors": "365b9c16d9f5643fe503199a2fd75525829621a4f72e055f2dc6f556f7dac49f",
    },
    "fully_connected_baseline": {
        "trace": "215f80e4a69062f922d7ddafa09eb1c04e94992008b4ffb3927cbe1edfeaa500",
        "report": "2b6f678db44274caef12bd7d3ed5358e2681c044f7abc9f860a1775ae54c3687",
        "vectors": "836eae1ffa6a1ac8b1d84937d4166e7750b1fd6faf0547e19887fd44d0e9ae21",
    },
    "golden_waypoint_n40": {
        "trace": "beae259641853bc84fe7cd1f79c9534f54d921ce1e29b4c67a9b8688a862d547",
        "report": "6cf37bcc8ef269d9bf3b97624b152708727e2cfe5b63e9608a792b879fdd4530",
        "vectors": "3a37fc6f6f8a21591b86d4e915cc2810e65f5d9ef1b5457406b397b83d81b6ae",
    },
    "golden_random_streams": {
        "trace": "fa94d6f8cf79cccd2f9382053b6f3ff8bc42088eca27a329ea62c423633e2668",
        "report": "405d57f9c311293117fd99eb7837656f81d7f069b96110b86c3ec888bdfc6a66",
        "vectors": "1f1b48e0ab8e9103bb4568b76a1f7a9f64d4fce8c02e2b5750e24cfb0e2e77d7",
    },
    "lemma2_3f_impossible": {
        "trace": "fc92fe57b578f37336518ce6310948c9b1cbf7efb4df70418aa49be0aee72b63",
        "report": "9ff25644e540b8ea43a4dfc31e11735335f9fd09d11e130eecfb6cfad9d395c3",
        "vectors": "699b31df785558389c8468c4b45253b57070d275f2fbb564a523c55e189278c8",
    },
    "necessity_f_proper": {
        "trace": "9d151ce55f5f1da8f50f13ae3d46950d1c57f1bcdb5635908006a3c8840dc06b",
        "report": "2d39a37421ff1410b1a721d1024ac25fd12b55f9bcbd0d2d7c0bf0d927348ada",
        "vectors": "432b07a29a791209040e2e4fb539f1a48dcf59f6f4e5f36a04973194ca2575a8",
    },
    "necessity_improper_mix": {
        "trace": "d485d92dbc72f3df95077b41707dedb64808c15296405027882fd18c7faef8f7",
        "report": "35f2233972db54c14e80e1e4d596ccc8dfee07c22fc0dd66a32489d5f6d2ca56",
        "vectors": "a31d66378194cc8f8faebf97adf5ef8e05851a3d03b2954605cc955102644436",
    },
    "partition_never": {
        "trace": "9e63f35fb6acccd96c9ab920ce477ef078b490dc375a2727f8aca3dc9f2c1c9e",
        "report": "24ccdf6b68a0502fc75b561807708180092fc84568a6470771b5e0ea621786e8",
        "vectors": "51caa92c5f2e768855665190fd7374c9ab2064fead7ac21aa331df2b5bdc4e2c",
    },
    "stale_log_overshoot": {
        "trace": "0f3fdef8516af1d02fd1a00448b518b6544ef7faf1c18d1413521c628a773c22",
        "report": "631bc2f26e76751890797db4f85c7656c836be8ef6c18e81b0b018a9dbda416d",
        "vectors": "fbd91e5145998538b00bb9f8587850d709b91232f6a4b908d8349404ffa97ef9",
    },
}


def golden_waypoint_n40() -> ScenarioConfig:
    # Roaming nodes, lossy links and an equivocating adversary: agreement
    # comes at round 27 of 30, so both open and closed phases are covered.
    return ScenarioConfig(
        name="golden_waypoint_n40", n=40, f=4, r_c=2, epsilon=0.001, max_rounds=30,
        arena=(10.0, 10.0), radius=3.0, loss_rate=0.1,
        mobility={"model": "random-waypoint", "speed": [0.5, 2.0]},
        adversary={
            "strategy": "extreme-split", "v_hi": 2.0, "v_lo": -1.0,
            "byz_set": [3, 11, 22, 37],
        },
        seed=20120601,
    )


def golden_random_streams() -> ScenarioConfig:
    # Draws from every random stream a run has: teleports, random-legal
    # fakes from three faulty nodes, and 20% loss. Agreement comes at round
    # 13 of 24, after one phase in which the condition failed.
    return ScenarioConfig(
        name="golden_random_streams", n=13, f=3, r_c=2, epsilon=0.01, max_rounds=24,
        arena=(6.0, 6.0), radius=2.5, loss_rate=0.2,
        mobility={"model": "teleport-random"},
        adversary={"strategy": "random-legal", "range": [-1.0, 2.0], "byz_set": [2, 7, 10]},
        seed=20120602,
    )


def golden_config(name: str) -> ScenarioConfig:
    """A builtin scenario, or one of the two golden runs defined here."""
    extras = {"golden_waypoint_n40": golden_waypoint_n40,
              "golden_random_streams": golden_random_streams}
    return extras[name]() if name in extras else builtin_scenario(name)


def run_vectors(config: ScenarioConfig, tmp_path) -> tuple:
    """``agreesim run --vectors`` of ``config``: its exit code, output directory and vectors file."""
    scenario, out, vectors = tmp_path / "scenario.json", tmp_path / "out", tmp_path / "vectors.jsonl"
    save_scenario(config, scenario)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--scenario", str(scenario), "--out", str(out),
                     "--vectors", str(vectors)])
    return code, out, vectors


def run_digests(config: ScenarioConfig, tmp_path) -> dict[str, str]:
    """sha256 of the trace, report and vectors files ``agreesim run --vectors`` writes."""
    code, out, vectors = run_vectors(config, tmp_path)
    assert code in (0, 1)
    return {
        "trace": hashlib.sha256((out / "trace.jsonl").read_bytes()).hexdigest(),
        "report": hashlib.sha256((out / "report.json").read_bytes()).hexdigest(),
        "vectors": hashlib.sha256(vectors.read_bytes()).hexdigest(),
    }


# sha256 over `agreesim check`'s exit code, stdout and `--out` report bytes
# in each of CHECK_MODES, run on the trace of one builtin scenario.
CHECK_MODES = ("per-phase", "io:1", "io:3", "io:5")
CHECK_DIGESTS = {
    "fig1_scripted_path": "f3aed397d67b6bd979a19042fae1f0e0158975f4499a95c4cb790baba60cbd9c",
    "fully_connected_baseline": "94b88cc5e7ba208df113f56a0160eb5133e08df12f115905e1743919abbb1deb",
    "lemma2_3f_impossible": "0d4b0c31b3e611ff8008d14f2cae387830485e617a728b60e974a556a66ee440",
    "necessity_f_proper": "ab240e99ac179310cf9f0e2a0220dcd47926bd8b0736cab3aa95ac242b177795",
    "necessity_improper_mix": "3fa4a9ad9a91b056147cce73acad12e39853e0b281702db3d877a84e24da8fb0",
    "partition_never": "2d8bcca69cd9c2d47a124c9eaf70f0adee82beedc1448b50995d6011844952d3",
    "stale_log_overshoot": "c385876b82df7cdc84cf0bf1d8a2505df8ff7152b4e36997c3ae8a1e94c626b9",
}


def check_digest(name: str, tmp_path, capsys) -> str:
    trace_path = tmp_path / "trace.jsonl"
    write_trace(simulate(builtin_scenario(name)), trace_path)
    capsys.readouterr()
    h = hashlib.sha256()
    for mode in CHECK_MODES:
        report_path = tmp_path / f"report-{mode.replace(':', '-')}.json"
        code = main(["check", "--trace", str(trace_path), "--mode", mode,
                     "--out", str(report_path)])
        h.update(f"{mode} exit {code}\n".encode())
        h.update(capsys.readouterr().out.encode())
        h.update(report_path.read_bytes())
    return h.hexdigest()


# sha256 of the sweep.csv `write_sweep_csv` writes for one scenario over
# SWEEP_GRID x SWEEP_SEEDS: every builtin, plus golden_waypoint_n40, whose
# runs agree late with open phases before. How far a sweep run simulates
# must leave them alone.
SWEEP_GRID = {"r_c": [1, 2], "loss_rate": [0.0, 0.3]}
SWEEP_SEEDS = [1, 2, 3]
SWEEP_DIGESTS = {
    "fig1_scripted_path": "4d2f3de3191574f29b1a4efacb5d7502f93f5d788fd8f40163e2aa5c4f283bfe",
    "fully_connected_baseline": "458a6444ed905a3c473f3e1f6e378e68bc711b5e2ad41184ccadf1d552f51d49",
    "golden_waypoint_n40": "bab92f6081c73765df7ed552b33126977022b380c624e2827a8f397d7580a379",
    "lemma2_3f_impossible": "3d1bf64eb75d64e3293619f23835ca7dab40a689b598ed3adbca0810722b260e",
    "necessity_f_proper": "3d1bf64eb75d64e3293619f23835ca7dab40a689b598ed3adbca0810722b260e",
    "necessity_improper_mix": "3d1bf64eb75d64e3293619f23835ca7dab40a689b598ed3adbca0810722b260e",
    "partition_never": "3d1bf64eb75d64e3293619f23835ca7dab40a689b598ed3adbca0810722b260e",
    "stale_log_overshoot": "0031cf1dabc4d866bd3ca81d25007213382f0eafcabdd59a7abdd1cc33be86e9",
}


class TestReplay:
    @pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
    def test_sweep_csv_matches_golden_digest(self, name, tmp_path):
        config = golden_config(name)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep(config, SWEEP_GRID, SWEEP_SEEDS), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_DIGESTS[name]

    def test_sweep_digests_cover_the_library(self):
        assert set(LIBRARY) <= set(SWEEP_DIGESTS)

    @pytest.mark.parametrize("name", sorted(CHECK_DIGESTS))
    def test_check_output_matches_golden_digest(self, name, tmp_path, capsys):
        assert check_digest(name, tmp_path, capsys) == CHECK_DIGESTS[name]

    def test_check_digests_cover_the_library(self):
        assert set(CHECK_DIGESTS) == set(LIBRARY)

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_outputs_match_golden_digest(self, name, tmp_path):
        config = golden_config(name)
        assert run_digests(config, tmp_path) == GOLDEN_DIGESTS[name]

    def test_golden_digests_cover_the_library(self):
        assert set(LIBRARY) <= set(GOLDEN_DIGESTS)

    @pytest.mark.parametrize(
        "name", ["fully_connected_baseline", "necessity_improper_mix", "stale_log_overshoot"]
    )
    def test_same_seed_gives_identical_bytes(self, name):
        config = builtin_scenario(name)
        t1, r1 = run_scenario(config)
        t2, r2 = run_scenario(config)
        assert trace_bytes(t1) == trace_bytes(t2)
        assert report_text(r1) == report_text(r2)

    def test_different_seed_changes_random_runs(self):
        config = ScenarioConfig(
            name="jitter", n=6, f=1, r_c=2, epsilon=0.05, max_rounds=10,
            arena=(6.0, 6.0), radius=2.0,
            mobility={"model": "teleport-random"},
            adversary={"strategy": "silent", "byz_set": [5]},
            seed=100,
        )
        t1 = simulate(config, seed=100)
        t2 = simulate(config, seed=101)
        assert trace_bytes(t1) != trace_bytes(t2)


# Numbers whose JSON texts differ although they compare equal (0.0 and
# -0.0; 1, 1.0 and 1e16 against ints), the smallest subnormal, and the
# exponent forms float.__repr__ switches to.
TRICKY_NUMBERS = [0.0, -0.0, 1, 1.0, 5e-324, 1e16, 10**16, 1e22, -1e22, 2.5]
NUMBERS = st.one_of(st.floats(), st.integers(-(2**70), 2**70), st.sampled_from(TRICKY_NUMBERS))


@st.composite
def encodable_traces(draw):
    """Traces the encoder must write as the generic one does; they need not be consistent."""
    n = draw(st.integers(1, 14))
    ids = st.integers(0, n - 1)

    def per_node(values):
        return st.dictionaries(ids, values, max_size=n)

    messages = st.lists(st.tuples(ids, ids, NUMBERS), max_size=6)
    rounds = st.builds(
        RoundRecord,
        round=st.integers(1, 60),
        positions=per_node(st.tuples(NUMBERS, NUMBERS)),
        edges=st.lists(st.tuples(ids, ids), max_size=6),
        byz_sent=messages,
        delivered=messages,
        values_start=per_node(NUMBERS),
        local_start=per_node(st.integers(1, 60)),
        logs=per_node(per_node(st.tuples(NUMBERS, st.integers(1, 60)))),
        computed=per_node(st.booleans()),
    )
    return Trace(
        params=ProtocolParams(n=n, f=draw(st.integers(0, 4)), r_c=draw(st.integers(1, 4)),
                              epsilon=draw(st.floats(1e-9, 10.0))),
        byz_set=draw(st.sets(ids)),
        initial_values=draw(per_node(NUMBERS)),
        rounds=draw(st.lists(rounds, max_size=3)),
        final_values=draw(per_node(NUMBERS)),
        scenario_name=draw(st.text()),
        seed=draw(st.integers(0, 2**40)),
    )


# Every case the encoder must get right, in one trace: ids of two digits,
# 0.0 and -0.0 in one round, 1 and 1.0 in one trace, integer values and
# positions, empty lists and logs, positions whose ids differ per round.
COVERING_TRACE = Trace(
    params=ProtocolParams(n=13, f=1, r_c=2, epsilon=0.5),
    byz_set={12},
    initial_values={10: 1, 2: -0.0, 0: 1.0},
    rounds=[
        RoundRecord(
            round=1,
            positions={10: (1, 2.5), 2: (0.0, -0.0), 0: (1e16, 3)},
            edges=[(10, 2), (2, 10), (12, 2)],
            byz_sent=[(12, 2, 5e-324)],
            delivered=[(2, 10, -0.0), (10, 2, 1), (12, 2, 5e-324)],
            values_start={10: 1, 2: -0.0, 0: 1.0},
            local_start={10: 1, 2: 1, 0: 1},
            logs={10: {2: (-0.0, 1)}, 2: {12: (5e-324, 1), 10: (1, 1)}, 0: {}},
            computed={10: True, 2: False, 0: False},
        ),
        RoundRecord(
            round=2,
            positions={0: (0.0, 1e22), 11: (4, 4)},
            edges=[],
            byz_sent=[],
            delivered=[],
            values_start={10: 0.0, 2: 1e16, 0: 1.0},
            local_start={10: 1, 2: 2, 0: 1},
            logs={10: {}, 2: {}, 0: {}},
            computed={10: False, 2: False, 0: False},
        ),
    ],
    final_values={10: 0.0, 2: -0.0, 0: 1},
    scenario_name="grüße ✓ \"quoted\"",
    seed=7,
)


class TestFiles:
    @given(trace=encodable_traces())
    @example(trace=COVERING_TRACE)
    @example(trace=dataclasses.replace(COVERING_TRACE, rounds=[]))
    def test_round_encoder_matches_the_generic_encoder(self, trace):
        assert trace_to_lines(trace) == reference_trace_lines(trace)

    def test_trace_round_trips_losslessly(self, tmp_path):
        trace = simulate(builtin_scenario("stale_log_overshoot"))
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        loaded = load_trace(path)
        assert trace_to_lines(loaded) == trace_to_lines(trace)
        reloaded = trace_from_lines(trace_to_lines(loaded))
        assert trace_bytes(reloaded) == trace_bytes(trace)
        assert trace_from_lines(iter(trace_to_lines(trace))) == reloaded

    def test_report_round_trips_as_json(self, tmp_path):
        _trace, report = run_scenario(builtin_scenario("fully_connected_baseline"))
        write_report(report, tmp_path / "report.json")
        blob = (tmp_path / "report.json").read_text()
        assert blob == report_text(report)
        assert json.loads(blob) == dataclasses.asdict(report)

    def test_scenario_files_round_trip(self, tmp_path):
        config = builtin_scenario("necessity_f_proper")
        path = tmp_path / "scenario.json"
        save_scenario(config, path)
        loaded = load_scenario(path)
        assert loaded.to_dict() == config.to_dict()

    def test_unknown_scenario_field_rejected(self, tmp_path):
        doc = builtin_scenario("partition_never").to_dict()
        doc["surprise"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_malformed_traces_rejected(self, tmp_path):
        trace = simulate(builtin_scenario("fully_connected_baseline"))
        lines = trace_to_lines(trace)
        from agreesim.errors import TraceError

        with pytest.raises(TraceError):
            trace_from_lines(lines[1:])  # header missing
        bad_schema = json.loads(lines[0])
        bad_schema["schema"] = 99
        with pytest.raises(TraceError):
            trace_from_lines([json.dumps(bad_schema)] + lines[1:])
        with pytest.raises(TraceError):
            trace_from_lines([lines[0]] + lines[2:])  # round 1 missing

    def test_cli_outputs_are_replay_stable(self, tmp_path):
        blobs = []
        for replay in ("a", "b"):
            out = tmp_path / replay
            main(["run", "--scenario", "stale_log_overshoot", "--out", str(out)])
            blobs.append(
                (out / "trace.jsonl").read_bytes()
                + (out / "report.json").read_bytes()
                + (out / "series.csv").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_series_csv_has_row_per_round(self, tmp_path):
        trace = simulate(builtin_scenario("fully_connected_baseline"))
        path = tmp_path / "series.csv"
        write_series_csv(trace, 0.05, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == trace.last_round + 2  # header + rounds + final point
        assert lines[0].startswith("round,phase,common_start,v_min,v_max,spread")


class TestSweep:
    def test_single_cell_matches_run_scenario(self):
        config = builtin_scenario("fully_connected_baseline")
        cells = sweep(config, {"r_c": [1]}, seeds=[config.seed])
        _trace, report = run_scenario(config)
        assert len(cells) == 1
        cell = cells[0]
        assert cell.runs == 1
        assert cell.converged_rate == (1.0 if report.converged else 0.0)
        assert cell.mean_converged_round == report.converged_at

    def test_grid_over_retention_window(self, tmp_path):
        template = ScenarioConfig(
            name="sparse", n=6, f=1, r_c=1, epsilon=0.05, max_rounds=16,
            arena=(6.0, 6.0), radius=2.2,
            mobility={"model": "random-waypoint", "speed": [0.5, 1.5]},
            adversary={"strategy": "silent", "byz_set": [5]},
            seed=50,
        )
        cells = sweep(template, {"r_c": [1, 2, 4]}, seeds=[50, 51, 52])
        assert [c.assignment["r_c"] for c in cells] == [1, 2, 4]
        for cell in cells:
            assert 0.0 <= cell.converged_rate <= 1.0
            assert 0.0 <= cell.condition_rate <= 1.0
        out = tmp_path / "sweep.csv"
        write_sweep_csv(cells, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r_c,runs,failures,converged_rate,mean_converged_round,condition_rate"
        assert len(lines) == 4

    def test_rates_stable_across_seed_resamples(self):
        # Documented stochastic tolerance: with 50-seed lists the convergence
        # rate of a dense scenario may differ by at most 0.2 between samples.
        template = ScenarioConfig(
            name="dense", n=5, f=1, r_c=1, epsilon=0.05, max_rounds=12,
            arena=(6.0, 6.0), radius=3.0,
            mobility={"model": "teleport-random"},
            adversary={"strategy": "silent", "byz_set": [4]},
            seed=0,
        )
        first = sweep(template, {"r_c": [1]}, seeds=list(range(50)))[0]
        second = sweep(template, {"r_c": [1]}, seeds=list(range(100, 150)))[0]
        assert abs(first.converged_rate - second.converged_rate) <= 0.2

    def test_run_breaking_a_guarantee_counts_as_failure(self, monkeypatch):
        real = harness.run_scenario

        def unsafe(config, seed=None, **kwargs):
            trace, report = real(config, seed=seed, **kwargs)
            return trace, dataclasses.replace(report, safety_ok=False)

        monkeypatch.setattr(harness, "run_scenario", unsafe)
        seeds = [1, 2, 3]
        cell = sweep(builtin_scenario("fully_connected_baseline"), {"r_c": [1]}, seeds)[0]
        assert cell.failures == len(seeds)
        assert cell.converged_rate == 0.0
        assert cell.mean_converged_round is None

    def test_every_cell_is_checked_before_any_run(self, monkeypatch):
        # One CPU keeps every run in this process, where the spy sees it.
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
        calls = []
        real = harness.run_scenario

        def spy(config, seed=None, **kwargs):
            calls.append(seed)
            return real(config, seed=seed, **kwargs)

        monkeypatch.setattr(harness, "run_scenario", spy)
        with pytest.raises(ConfigError):
            sweep(builtin_scenario("fully_connected_baseline"), {"r_c": [1, 0]}, [1, 2])
        assert calls == []

    @pytest.mark.parametrize("grid", [{"r_c": []}, {"r_c": [1], "loss_rate": []}])
    def test_empty_value_list_rejected(self, grid):
        with pytest.raises(ConfigError, match="has no values"):
            sweep(builtin_scenario("fully_connected_baseline"), grid, [1])

    @staticmethod
    def sweep_on_one_and_two_cpus(monkeypatch, tmp_path, config, grid, seeds):
        """Each sweep's cells and sweep.csv bytes, on one CPU then two, and the pids forked."""
        forks = counting_forks(monkeypatch)
        results = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda _pid, c=cpus: c, raising=False)
            cells = sweep(config, grid, seeds)
            path = tmp_path / f"sweep-{len(cpus)}.csv"
            write_sweep_csv(cells, path)
            results.append((cells, path.read_bytes()))
        assert_no_child_left()
        return results, forks

    @pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
    def test_cells_do_not_depend_on_the_worker_count(self, name, monkeypatch, tmp_path):
        config = golden_config(name)
        results, forks = self.sweep_on_one_and_two_cpus(monkeypatch, tmp_path, config,
                                                        SWEEP_GRID, SWEEP_SEEDS)
        assert len(forks) == 1
        assert results[0] == results[1]
        assert hashlib.sha256(results[0][1]).hexdigest() == SWEEP_DIGESTS[name]

    def test_batched_runs_fold_in_order(self, monkeypatch, tmp_path):
        # Nine runs over two workers: this process takes five, the child four.
        config = builtin_scenario("stale_log_overshoot")
        results, forks = self.sweep_on_one_and_two_cpus(monkeypatch, tmp_path, config,
                                                        {"r_c": [1, 2, 3]}, [1, 2, 3])
        assert len(forks) == 1
        assert results[0] == results[1]

    def test_error_in_a_worker_propagates_and_leaves_no_worker(self, monkeypatch):
        # Worker 0, this process, runs tasks 0, 2 and 4; the child runs 1, 3 and 5.
        # Task 0 is (r_c=1, seed 1) and task 1 is (r_c=1, seed 2).
        real = harness.run_scenario
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
        for where, bad_seed in (("parent", 1), ("child", 2)):
            def broken(config, seed=None, **kwargs):
                if config.r_c == 1 and seed == bad_seed:
                    raise RuntimeError(f"raised by a run in the {where}")
                return real(config, seed=seed, **kwargs)

            monkeypatch.setattr(harness, "run_scenario", broken)
            with pytest.raises(RuntimeError, match=f"in the {where}"):
                sweep(builtin_scenario("fully_connected_baseline"), {"r_c": [1, 2]}, [1, 2, 3])
            assert_no_child_left()

    @pytest.mark.parametrize("when", ["before_writing", "mid_stream"])
    def test_a_killed_child_leaves_its_share_to_the_parent(self, monkeypatch, when):
        config = builtin_scenario("stale_log_overshoot")
        grid, seeds = {"r_c": [1, 2, 3]}, [1, 2, 3]
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
        expected = sweep(config, grid, seeds)
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
        parent = os.getpid()
        if when == "before_writing":
            real = harness.run_scenario

            def dying_run(config, seed=None, **kwargs):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(config, seed=seed, **kwargs)

            monkeypatch.setattr(harness, "run_scenario", dying_run)
        else:
            monkeypatch.setattr(pickle, "Pickler", DyingPickler)
        forks = counting_forks(monkeypatch)
        assert sweep(config, grid, seeds) == expected
        assert len(forks) == 1
        assert_no_child_left()

    def test_no_fork_while_other_threads_run(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked while another thread ran")

        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            cells = sweep(builtin_scenario("fully_connected_baseline"), {"r_c": [1, 2]}, [1, 2])
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert [c.runs for c in cells] == [2, 2]

    def test_importing_the_cli_loads_no_pool_modules(self):
        # Nor does a sweep on two CPUs, which forks and so imports pickle: its
        # child is a plain fork.
        src = os.path.dirname(os.path.dirname(harness.__file__))
        code = ("import os, sys, agreesim.cli\n"
                "pool = {'multiprocessing', 'concurrent.futures'}\n"
                "print(sorted((pool | {'pickle'}) & set(sys.modules)))\n"
                "os.sched_getaffinity = lambda _pid: {0, 1}\n"
                "from agreesim.harness import sweep\n"
                "from agreesim.scenarios import builtin_scenario\n"
                "config = builtin_scenario('fully_connected_baseline')\n"
                "cells = sweep(config, {'r_c': [1, 2]}, [1, 2])\n"
                "print(sorted(pool & set(sys.modules)), 'pickle' in sys.modules, len(cells))\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.splitlines() == ["[]", "[] True 2"]

    # The last two end in a top-level field's name under a nested key.
    # "seed" names a field, but every run takes its seed from the seed list.
    @pytest.mark.parametrize("path", ["nonsense", "adversary.seed", "mobility.n", "seed"])
    def test_bad_grid_path_rejected(self, path):
        with pytest.raises(ConfigError):
            sweep(builtin_scenario("partition_never"), {path: [1, 2]}, seeds=[1])

    @pytest.mark.parametrize("grid", [[{"r_c": [1]}], {"r_c": 1}])
    def test_grid_must_map_paths_to_value_lists(self, grid):
        with pytest.raises(ConfigError, match="grid must map parameter paths to value lists"):
            sweep(builtin_scenario("fully_connected_baseline"), grid, seeds=[1])


def assert_early_stop_matches_full_run(config: ScenarioConfig) -> int:
    """Check one early-stopped run against the full one; return its last round."""
    full = simulate(config)
    early = simulate(config, stop_at_agreement=True)
    last = early.last_round
    assert early.rounds == full.rounds[:last]
    assert early.final_values == full.values_at(last + 1)
    converged = check_convergence(walked(full))
    assert check_convergence(walked(early)) == converged
    if last < full.last_round:
        assert converged.at_round == last + 1
    seeds = [config.seed, config.seed + 1]
    grid = {"loss_rate": [0.0, 0.3]}
    assert sweep(config, grid, seeds) == reference_sweep(config, grid, seeds)
    return last


def ulp_scenario() -> ScenarioConfig:
    # The spread lies an ulp below epsilon, so the values agree at round 1.
    return ScenarioConfig(
        name="ulp", n=2, f=0, r_c=1, epsilon=0.0005, max_rounds=3, radius=1.0,
        initial_values={
            "mode": "explicit", "values": [2.5870580960129796, 2.5875580960129794],
        },
        initial_positions={"mode": "explicit", "coords": {"0": [1, 1], "1": [8, 8]}},
        seed=1,
    )


class TestSweepEarlyStop:
    @settings(max_examples=60, deadline=None)
    @given(i=st.integers(0, 10**6))
    def test_early_stop_matches_the_full_horizon(self, i):
        assert_early_stop_matches_full_run(random_scenario(i))

    def test_agreement_at_round_one_gives_zero_rounds(self):
        config = ulp_scenario()
        assert assert_early_stop_matches_full_run(config) == 0
        _trace, report = run_scenario(config, stop_at_agreement=True)
        assert report.converged_at == 1 and report.condition_per_phase == []

    def test_horizon_inside_a_phase(self):
        # Agreement at round 7 of 8 with r_c=3: the partial phase 2 is dropped.
        config = dataclasses.replace(
            builtin_scenario("fully_connected_baseline"), r_c=3, max_rounds=8,
        )
        assert assert_early_stop_matches_full_run(config) == 6

    def test_agreement_first_seen_after_the_last_round(self):
        config = dataclasses.replace(builtin_scenario("fully_connected_baseline"), max_rounds=4)
        assert check_convergence(walked(simulate(config))).at_round == 5
        assert assert_early_stop_matches_full_run(config) == 4

    def test_run_keeps_the_full_horizon(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--scenario", "fully_connected_baseline", "--out", str(out)]) == 0
        assert load_trace(out / "trace.jsonl").last_round == 40


class TestVectors:
    def test_vectors_replay_cleanly(self, tmp_path):
        config = builtin_scenario("fig1_scripted_path")
        records = reference_vectors(simulate(config))
        _code, _out, path = run_vectors(config, tmp_path)
        loaded = read_vectors(path)
        assert loaded == records
        assert replay_vectors(loaded) == []

    def test_corrupted_vector_is_detected(self):
        trace = simulate(builtin_scenario("fully_connected_baseline"))
        records = reference_vectors(trace)
        records[0]["expect"]["value"] += 1.0
        failures = replay_vectors(records)
        assert failures and failures[0][0] == 0

    @pytest.mark.parametrize("fault,expected", [
        ("huge_inbox_value", "malformed vector (ValueError: values must lie within float range)"),
        ("extra_expected_field", "expect: holds fields ['broadcast', 'computed', 'extra', "
                                 "'last_local_start', 'log', 'value'], the step outputs "
                                 "['broadcast', 'computed', 'last_local_start', 'log', 'value']"),
        ("no_state_in", "malformed vector (KeyError: 'state_in')"),
        ("own_id_in_inbox", "malformed vector (ProtocolError: node 1 received its own broadcast)"),
        ("nothing_expected", "expect: holds fields [], the step outputs "
                             "['broadcast', 'computed', 'last_local_start', 'log', 'value']"),
        ("string_id", "malformed vector (TypeError: node id '1' is not an int)"),
        ("bool_id", "malformed vector (TypeError: node id True is not an int)"),
        ("bool_sender", "malformed vector (TypeError: node id True is not an int)"),
        ("zero_padded_log_key", "malformed vector (ValueError: log key '02' is not a canonical "
                                "decimal)"),
        ("spaced_log_key", "malformed vector (ValueError: log key ' 2' is not a canonical "
                           "decimal)"),
        ("underscored_log_key", "malformed vector (ValueError: log key '0_2' is not a "
                                "canonical decimal)"),
        ("long_inbox_entry", "malformed vector (ValueError: too many values to unpack "
                             "(expected 2))"),
        ("long_log_entry", "malformed vector (ValueError: too many values to unpack "
                           "(expected 2))"),
        ("other_schema", "malformed vector (ValueError: schema 2 is not 1)"),
        # Each of these steps as its int or float twin would, so only the type rule finds it.
        ("float_round", "malformed vector (TypeError: rounds must hold integers)"),
        ("bool_round", "malformed vector (TypeError: rounds must hold integers)"),
        ("float_last_local_start", "malformed vector (TypeError: rounds must hold integers)"),
        ("float_log_round", "malformed vector (TypeError: rounds must hold integers)"),
        ("bool_value", "malformed vector (TypeError: values must hold numbers)"),
        ("bool_inbox_value", "malformed vector (TypeError: values must hold numbers)"),
        ("nan_inbox_value", "malformed vector (ValueError: values must lie within float range)"),
        # Each equals the output in Python, not in the JSON text a vector holds.
        ("int_computed", "computed: expected 1, got True"),
        ("float_expected_window_start", "last_local_start: expected 2.0, got 2"),
    ])
    def test_a_vector_that_cannot_be_checked_is_a_mismatch(self, fault, expected):
        records = reference_vectors(simulate(builtin_scenario("fully_connected_baseline")))
        record = records[1]
        assert record["state_in"]["id"] == 1 and [2, 0.0] not in record["inbox"]
        assert record["state_in"]["log"] == {} and record["inbox"][1] == [2, 2.0]
        assert record["round"] == record["state_in"]["last_local_start"] == 1
        assert record["state_in"]["value"] == 1.0 and record["inbox"][0] == [0, 0.0]
        log_key = {"zero_padded_log_key": "02", "spaced_log_key": " 2",
                   "underscored_log_key": "0_2"}.get(fault)
        if log_key is not None:  # int() reads it as 2, whose entry the inbox then overwrites
            record["state_in"]["log"] = {log_key: [2.0, 1]}
        elif fault == "string_id":
            record["state_in"]["id"] = "1"
            record["inbox"].append([1, 0.5])
        elif fault == "bool_id":
            record["state_in"]["id"] = True
        elif fault == "bool_sender":
            record["inbox"][0][0] = True
        elif fault == "long_inbox_entry":
            record["inbox"][0].append(9)
        elif fault == "long_log_entry":
            record["state_in"]["log"] = {"2": [2.0, 1, 9]}
        elif fault == "other_schema":
            record["schema"] = 2
        elif fault == "huge_inbox_value":
            record["inbox"] = [[0, 1.0], [2, 10**400]]
        elif fault == "extra_expected_field":
            record["expect"]["extra"] = 1
        elif fault == "no_state_in":
            del record["state_in"]
        elif fault == "own_id_in_inbox":
            record["inbox"].append([1, 0.5])
        elif fault == "float_round":
            record["round"] = 1.0
        elif fault == "bool_round":
            record["round"] = True
        elif fault == "float_last_local_start":
            record["state_in"]["last_local_start"] = 1.0
        elif fault == "float_log_round":
            record["state_in"]["log"] = {"2": [2.0, 1.0]}  # the inbox then overwrites the entry
        elif fault == "bool_value":
            record["state_in"]["value"] = True
        elif fault == "bool_inbox_value":
            record["inbox"][0][1] = False
        elif fault == "nan_inbox_value":  # min and max pass over a NaN that is not first
            record["inbox"][1][1] = float("nan")
        elif fault == "int_computed":
            record["expect"]["computed"] = 1
        elif fault == "float_expected_window_start":
            record["expect"]["last_local_start"] = 2.0
        else:
            record["expect"] = {}
        assert replay_vectors(records) == [(1, [expected])]

    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_the_type_rule_rejects_a_nan_wherever_it_sits(self, at):
        values = [0.0, 2, -1.5]
        values.insert(at, float("nan"))
        with pytest.raises(ValueError, match="^x must lie within float range$"):
            require_types({int, float}, "x", values)
        # Finite values whose sum overflows pass.
        require_types({int, float}, "x", [1.7e308, 1.7e308, -1.7e308, -10**308])

    def test_a_negative_zero_is_not_the_zero_expected(self):
        records = reference_vectors(simulate(builtin_scenario("fully_connected_baseline")))
        assert trace_module._dumps(records[0]["expect"]["broadcast"]) == "0.0"
        records[0]["expect"]["broadcast"] = -0.0
        assert replay_vectors(records) == [(0, ["broadcast: expected -0.0, got 0.0"])]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_read_vectors_rejects_a_constant_token(self, tmp_path, token):
        # json.dumps writes each token, and json.loads would read it back.
        records = reference_vectors(simulate(builtin_scenario("fully_connected_baseline")))
        records[1]["inbox"][1][1] = float(token)
        path = tmp_path / "vectors.jsonl"
        write_vectors(records, path)
        assert f"[2,{token}]" in path.read_text()
        with pytest.raises(ValueError, match=f"^{token} is not a finite number$"):
            read_vectors(path)

    def test_vectors_are_read_as_utf8_whatever_the_locale(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_bytes('{"note":"\u00e9"}\n'.encode())
        # With coercion and UTF-8 mode off, the C locale's encoding is ASCII.
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.path.dirname(os.path.dirname(harness.__file__))}
        code = ("import sys; from agreesim.vectors import read_vectors\n"
                "print(ascii(read_vectors(sys.argv[1])))\n")
        done = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                              text=True, env=env, check=True)
        assert done.stdout == "[{'note': '\\xe9'}]\n"

    def test_vectors_cover_every_step(self, tmp_path):
        _code, out, path = run_vectors(builtin_scenario("fully_connected_baseline"), tmp_path)
        trace = load_trace(out / "trace.jsonl")
        records = read_vectors(path)
        assert len(records) == trace.last_round * len(trace.initial_values)

    def test_run_vectors_steps_each_node_once_per_round(self, tmp_path, monkeypatch):
        # The vectors come from the run's own steps, not from a second pass.
        real, calls = harness.step_round, []
        monkeypatch.setattr(harness, "step_round", lambda *args: calls.append(args) or real(*args))
        code, out, _path = run_vectors(builtin_scenario("fully_connected_baseline"), tmp_path)
        trace = load_trace(out / "trace.jsonl")
        assert code == 0
        assert len(calls) == trace.last_round * len(trace.initial_values) == 160


def assert_replay_rebuilds(trace: Trace) -> None:
    """Replay ``trace`` with its derived fields blanked; its records and final values come back."""
    blank = {"values_start": {}, "local_start": {}, "logs": {}, "computed": {}}
    inputs = dataclasses.replace(
        trace,
        rounds=[dataclasses.replace(rec, **blank) for rec in trace.rounds],
        final_values={},
    )
    final = trace.initial_values
    rebuilt = []
    for rec, _states, _inboxes, results in replay(inputs):
        rebuilt.append(rec)
        final = {i: res.state.value for i, res in results.items()}
    assert rebuilt == trace.rounds
    assert final == trace.final_values
    assert inputs.final_values == {}  # replay leaves the trace it reads alone


class Rebuild:
    """A ``read_trace`` consumer that steps each record through an ``Engine`` as it is read.

    ``add`` steps the decoded record's round; the rebuilt record must equal
    it. ``finish`` gives the engine's values after the last round.
    """

    def __init__(self, header: Trace):
        self.engine = Engine(header)
        self.rounds = 0

    def add(self, rec: RoundRecord) -> None:
        rebuilt, _results = self.engine.step(*round_inputs(rec))
        assert rebuilt == rec
        self.rounds += 1

    def finish(self) -> dict:
        return self.engine.values()


def assert_read_rebuilds(trace: Trace, path) -> None:
    """``trace``, written and read back in one pass and split, is rebuilt round by round."""
    write_trace(trace, path)
    for workers in (1, 2):
        with split_reads(workers):
            decoded, rebuild = read_trace(path, Rebuild)
        assert rebuild.rounds == trace.last_round
        assert rebuild.finish() == decoded.final_values == trace.final_values


class NoDraws(random.Random):
    """A stream whose every method raises: what a part that never draws may be handed."""

    def __init__(self):
        pass

    def __getattribute__(self, name):
        raise AssertionError(f"drew from the stream: rng.{name}")


ARENA = Arena(6.0, 6.0)
# One factory per class: a model such as RandomWaypoint keeps state, so
# every run gets a fresh part.
MODELS = {
    Stationary: Stationary,
    RandomWaypoint: lambda: RandomWaypoint(ARENA, 0.5, 2.0),
    Scripted: lambda: Scripted(ARENA, {0: [(1.0, 1.0), (2.0, 1.0)], 2: [(5.0, 5.0)]}),
    TeleportRandom: lambda: TeleportRandom(ARENA),
}
BEHAVIORS = {
    Silent: Silent,
    FixedValue: lambda: FixedValue(0.5),
    ExtremeSplit: lambda: ExtremeSplit(2.0, -1.0),
    RandomLegal: lambda: RandomLegal(0.0, 1.0),
    ScriptedTable: lambda: ScriptedTable({"*": {0: 1.0, 2: 0.0}, 3: {1: 0.5}}),
}


def move_rounds(model, rng):
    positions = {0: (0.5, 0.5), 1: (3.0, 3.0), 2: (5.5, 1.0)}
    out = []
    for r in range(1, 6):
        positions = model.step(r, positions, rng)
        out.append(positions)
    return out


def message_rounds(behavior, rng):
    view = RoundView(round=0, phase_start_values={0: 0.1, 1: 0.9, 2: 0.5})
    out = []
    for r in range(1, 6):
        view.round = r
        out.append(behavior.messages(3, [0, 1, 2], view, rng))
    return out


class TestStreams:
    """A round seeds a stream only for the parts whose ``draws`` says they read it."""

    @pytest.mark.parametrize(
        "cls,make,run",
        [pytest.param(c, m, move_rounds, id=c.__name__) for c, m in MODELS.items()]
        + [pytest.param(c, b, message_rounds, id=c.__name__) for c, b in BEHAVIORS.items()],
    )
    def test_draws_declares_whether_a_part_reads_its_stream(self, cls, make, run):
        assert type(cls.draws) is bool
        if cls.draws:
            with pytest.raises(AssertionError, match="drew from the stream"):
                run(make(), NoDraws())
        else:
            assert run(make(), NoDraws()) == run(make(), random.Random(7))

    def test_every_model_and_behavior_is_covered(self):
        assert set(typing.get_args(MobilityModel)) == set(MODELS)
        assert set(typing.get_args(Strategy)) == set(BEHAVIORS)

    def test_a_run_that_draws_nothing_seeds_only_its_initial_streams(self, monkeypatch):
        config = builtin_scenario("fully_connected_baseline")
        config.adversary = {"strategy": "fixed-value", "value": 0.5, "byz_set": [3]}
        config.initial_values = {"mode": "uniform", "range": [0.0, 1.0]}
        seeded = []
        real = harness.substream
        monkeypatch.setattr(harness, "substream",
                            lambda seed, *parts: seeded.append(parts) or real(seed, *parts))
        trace = simulate(config)
        assert trace.last_round == 40 and trace.rounds[0].byz_sent
        assert seeded == [("init-pos",), ("init-values",)]


class TestRoundEngine:
    @pytest.mark.parametrize("stop", [False, True])
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_replay_rebuilds_every_named_run(self, name, stop):
        config = golden_config(name)
        assert_replay_rebuilds(simulate(config, stop_at_agreement=stop))

    @settings(max_examples=200, deadline=None)
    @given(i=st.integers(0, 10**6), stop=st.booleans())
    def test_replay_rebuilds_random_runs(self, i, stop):
        assert_replay_rebuilds(simulate(random_scenario(i), stop_at_agreement=stop))

    @settings(max_examples=100, deadline=None)
    @given(i=st.integers(0, 10**6))
    def test_simulate_matches_the_reference_engine(self, i):
        # Every mobility model and strategy, loss 0 and 0.3: the oracle
        # routes with reference_deliver and steps with reference_step_round.
        config = random_scenario(i)
        assert trace_bytes(simulate(config)) == trace_bytes(reference_simulate(config))

    def test_replay_of_a_zero_round_trace_keeps_the_initial_values(self):
        trace = simulate(ulp_scenario(), stop_at_agreement=True)
        assert trace.last_round == 0
        assert_replay_rebuilds(trace)

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_each_read_record_is_rebuilt_as_it_is_read(self, name, tmp_path):
        assert_read_rebuilds(simulate(golden_config(name)), tmp_path / "trace.jsonl")

    @settings(max_examples=30, deadline=None)
    @given(i=st.integers(0, 10**6), stop=st.booleans())
    def test_each_read_record_of_random_runs_is_rebuilt(self, i, stop, tmp_path_factory):
        trace = simulate(random_scenario(i), stop_at_agreement=stop)
        assert_read_rebuilds(trace, tmp_path_factory.mktemp("rebuild") / "trace.jsonl")

    @pytest.mark.parametrize("stop", [False, True])
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_a_hook_may_keep_the_states_it_is_handed(self, name, stop):
        kept = []
        trace = simulate(golden_config(name), stop_at_agreement=stop,
                         on_round=lambda _trace, states, *_step: kept.append(states))
        assert len(kept) == trace.last_round
        for states, rec in zip(kept, trace.rounds):
            assert {i: s.value for i, s in states.items()} == rec.values_start
            assert {i: s.last_local_start for i, s in states.items()} == rec.local_start

    @pytest.mark.parametrize("vectors", [False, True])
    def test_run_steps_each_correct_node_once_per_round(self, vectors, tmp_path, monkeypatch):
        real, calls = harness.step_round, []
        monkeypatch.setattr(harness, "step_round", lambda *args: calls.append(args) or real(*args))
        scenario, out = tmp_path / "scenario.json", tmp_path / "out"
        save_scenario(golden_config("golden_waypoint_n40"), scenario)
        extra = ["--vectors", str(tmp_path / "vectors.jsonl")] if vectors else []
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--scenario", str(scenario), "--out", str(out), *extra]) == 0
        trace = load_trace(out / "trace.jsonl")
        assert len(trace.initial_values) == 36  # four of the 40 nodes are faulty
        assert len(calls) == trace.last_round * len(trace.initial_values) == 30 * 36


class TestCli:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "run", "--scenario", "fully_connected_baseline", "--out", str(out),
            "--vectors", str(tmp_path / "vectors.jsonl"),
        ])
        assert code == 0
        assert (out / "trace.jsonl").exists()
        assert (out / "report.json").exists()
        assert (out / "series.csv").exists()
        assert (tmp_path / "vectors.jsonl").exists()
        assert "converged: True" in capsys.readouterr().out

    def test_run_with_values_summing_past_float_range(self, tmp_path, capsys):
        doc = builtin_scenario("fully_connected_baseline").to_dict()
        doc.update(f=0, initial_values={"mode": "explicit", "values": [1.7e308, 1.7e308, 1.0, 0.0]})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        assert main(["check", "--trace", str(out / "trace.jsonl")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("radius", [20.0, 0.5])  # every node heard, or none
    def test_a_spread_past_float_range_is_written_as_null(self, radius, tmp_path):
        doc = builtin_scenario("fully_connected_baseline").to_dict()
        doc.update(f=0, radius=radius,
                   initial_values={"mode": "explicit", "values": [1.7e308, -1.7e308, 1.0, 0.0]})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["phase_starts"][0]["spread"] is None
        assert (report["final_spread"] is None) == (radius < 1.0)
        checked = tmp_path / "check.json"
        assert main(["check", "--trace", str(out / "trace.jsonl"), "--out", str(checked)]) == 0
        assert checked.read_bytes() == (out / "report.json").read_bytes()

    def test_run_accepts_scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(builtin_scenario("partition_never"), path)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 0

    def test_check_reruns_analyzers_on_a_trace(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--scenario", "lemma2_3f_impossible", "--out", str(out)])
        capsys.readouterr()
        code = main([
            "check", "--trace", str(out / "trace.jsonl"), "--mode", "io:3",
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "does not hold" in printed
        assert json.loads((tmp_path / "report.json").read_text())["converged"] is False

    def test_check_flags_doctored_trace(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--scenario", "fully_connected_baseline", "--out", str(out)])
        trace_path = out / "trace.jsonl"
        lines = trace_path.read_text().splitlines()
        doctored = json.loads(lines[-1])
        doctored["values"]["0"] = 999.0
        lines[-1] = json.dumps(doctored, sort_keys=True, separators=(",", ":"))
        trace_path.write_text("\n".join(lines) + "\n")
        code = main(["check", "--trace", str(trace_path)])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "defect",
        [
            "truncated", "no_delivered", "no_final", "empty_values", "missing_file",
            "string_value", "string_local_start", "string_delivered_value",
            "unknown_receiver", "unknown_sender", "self_delivery", "correct_node_faulty",
            "header_n_short", "header_initial_value", "late_local_start", "zero_local_start",
            "string_computed", "nan_final", "infinity_values_start", "long_delivered",
            "long_edge", "long_log_entry", "long_position", "correct_byz_sender",
            "repeated_delivery", "repeated_pair", "repeated_byz_sent",
            "edgeless_rounds", "unlinked_byz_sent", "list_seed", "bool_seed", "float_seed",
            "dict_scenario", "two_finals", "final_before_last_round", "repeated_edge",
            "unsent_faulty_delivery", "huge_delivered_value", "huge_initial_value",
            "e400_delivered_value", "e400_final", "empty_file", "header_without_values",
            "unknown_record_type", "round_2_ids_differ", "final_ids_differ",
            "non_canonical_key", "shadowed_node_key", "header_n_long", "unlisted_node",
            "deep_nesting", "local_start_before_phase", "short_delivered", "number_edge",
            "list_log", "list_values_start",
        ],
    )
    def test_check_rejects_malformed_trace_with_usage_exit(self, tmp_path, capsys, defect):
        # Each newer case names the reason it must be rejected for.
        reasons = {"huge_delivered_value": "must lie within float range",
                   "huge_initial_value": "must lie within float range",
                   "e400_delivered_value": "must lie within float range",
                   "e400_final": "must lie within float range",
                   "empty_file": "does not start with a header",
                   "header_without_values": "header lists no initial values",
                   "unknown_record_type": "unknown trace record type 'bogus'",
                   "round_2_ids_differ": "line 3: node ids differ from the header's",
                   "final_ids_differ": "node ids differ from the header's",
                   "non_canonical_key": "node id ' 0' is not a canonical decimal",
                   "shadowed_node_key": "node id '00' is not a canonical decimal",
                   "header_n_long": "n is 1000000000, but the header lists 4 nodes",
                   "unlisted_node": "n is 5, but the header lists 4 nodes",
                   "deep_nesting": "line 3: malformed record (RecursionError",
                   "local_start_before_phase": "line 3: malformed record (ValueError: "
                                               "local_start must lie in 2..2",
                   "short_delivered": "line 2: malformed record (ValueError: not enough "
                                      "values to unpack (expected 3, got 1))",
                   "number_edge": "line 2: malformed record (TypeError: cannot unpack "
                                  "non-iterable int object)",
                   "list_log": "line 2: malformed record (AttributeError: 'list' object has "
                               "no attribute 'items')",
                   "list_values_start": "line 2: malformed record (AttributeError: 'list' "
                                        "object has no attribute 'items')"}
        trace_path = tmp_path / "trace.jsonl"
        # The baseline has no faulty nodes; node 4 of the improper mix is one.
        faulty = defect in ("repeated_byz_sent", "unlinked_byz_sent", "repeated_edge",
                            "unsent_faulty_delivery")
        name = "necessity_improper_mix" if faulty else "fully_connected_baseline"
        write_trace(simulate(builtin_scenario(name)), trace_path)
        lines = trace_path.read_text().splitlines()
        first_round = json.loads(lines[1])
        if defect == "truncated":
            lines[1] = lines[1][: len(lines[1]) // 2]
        elif defect == "no_delivered":
            del first_round["delivered"]
            lines[1] = json.dumps(first_round)
        elif defect == "no_final":
            lines.pop()
        elif defect == "empty_values":
            first_round["values_start"] = {}
            lines[1] = json.dumps(first_round)
        elif defect == "string_value":
            first_round["values_start"]["0"] = "x"
            lines[1] = json.dumps(first_round)
        elif defect == "string_local_start":
            first_round["local_start"]["0"] = "z"
            lines[1] = json.dumps(first_round)
        elif defect == "string_delivered_value":
            first_round["delivered"][0][2] = "y"
            lines[1] = json.dumps(first_round)
        elif defect in ("unknown_receiver", "unknown_sender", "self_delivery"):
            extra = {"unknown_receiver": [0, 9, 0.5], "unknown_sender": [77, 0, 0.5],
                     "self_delivery": [0, 0, 0.5]}[defect]
            first_round["delivered"].append(extra)
            lines[1] = json.dumps(first_round)
        elif defect in ("correct_node_faulty", "header_n_short", "header_initial_value",
                        "list_seed", "bool_seed", "float_seed", "dict_scenario"):
            header = json.loads(lines[0])
            bad_seeds = {"list_seed": [1, 2], "bool_seed": True, "float_seed": 1.5}
            if defect in bad_seeds:
                header["seed"] = bad_seeds[defect]
            elif defect == "dict_scenario":
                header["scenario"] = {"a": 1}
            elif defect == "correct_node_faulty":
                header["byz_set"] = [0]
            elif defect == "header_n_short":
                header["params"]["n"] = 2
            else:  # widens validity's envelope beyond round 1's values
                header["initial_values"]["0"] = -100.0
            lines[0] = json.dumps(header)
        elif defect in ("late_local_start", "zero_local_start"):
            first_round["local_start"]["0"] = 5 if defect == "late_local_start" else 0
            lines[1] = json.dumps(first_round)
        elif defect == "local_start_before_phase":
            # r_c is 1, so round 2 opens a phase: no start there lies before round 2.
            second_round = json.loads(lines[2])
            second_round["local_start"]["0"] = 1
            lines[2] = json.dumps(second_round)
        elif defect == "string_computed":
            first_round["computed"]["0"] = "yes"
            lines[1] = json.dumps(first_round)
        elif defect == "nan_final":  # json.dumps writes the NaN token
            final = json.loads(lines[-1])
            final["values"]["0"] = float("nan")
            lines[-1] = json.dumps(final)
        elif defect == "infinity_values_start":
            second_round = json.loads(lines[2])
            second_round["values_start"]["0"] = float("inf")
            lines[2] = json.dumps(second_round)
        elif defect in ("long_delivered", "long_edge", "long_log_entry", "long_position"):
            # One element too many, which a reader that truncates would drop.
            too_long = {"long_delivered": first_round["delivered"][0],
                        "long_edge": first_round["edges"][0],
                        "long_log_entry": first_round["logs"]["0"]["1"],
                        "long_position": first_round["positions"]["0"]}[defect]
            too_long.append(7)
            lines[1] = json.dumps(first_round)
        elif defect in ("short_delivered", "number_edge", "list_log", "list_values_start"):
            # One entry of a field that is not the shape its field's entries must be.
            if defect == "short_delivered":
                first_round["delivered"][1] = first_round["delivered"][1][:1]
            elif defect == "number_edge":
                first_round["edges"][1] = 7
            elif defect == "list_log":
                first_round["logs"]["1"] = list(first_round["logs"]["1"].values())
            else:
                first_round["values_start"] = list(first_round["values_start"].values())
            lines[1] = json.dumps(first_round)
        elif defect == "correct_byz_sender":  # the baseline has no faulty nodes
            first_round["byz_sent"].append([3, 0, 1.0])
            lines[1] = json.dumps(first_round)
        elif defect in ("repeated_delivery", "repeated_pair"):
            sender, receiver, value = first_round["delivered"][0]
            if defect == "repeated_pair":
                value += 0.25
            first_round["delivered"].insert(1, [sender, receiver, value])
            lines[1] = json.dumps(first_round)
        elif defect == "repeated_byz_sent":
            first_round["byz_sent"].insert(1, first_round["byz_sent"][0])
            lines[1] = json.dumps(first_round)
        elif defect == "edgeless_rounds":  # deliveries unchanged, no edge left
            for at in range(1, len(lines) - 1):
                record = json.loads(lines[at])
                record["edges"] = []
                lines[at] = json.dumps(record)
        elif defect == "unlinked_byz_sent":  # only the faulty message loses its edge
            pair = first_round["byz_sent"][0][:2]
            first_round["edges"].remove(pair)
            first_round["delivered"] = [m for m in first_round["delivered"] if m[:2] != pair]
            lines[1] = json.dumps(first_round)
        elif defect == "two_finals":  # the first breaks validity, the true one follows
            final = json.loads(lines[-1])
            final["values"]["0"] = 999.0
            lines.insert(-1, json.dumps(final))
        elif defect == "final_before_last_round":
            lines[-2], lines[-1] = lines[-1], lines[-2]
        elif defect == "deep_nesting":  # deeper than the JSON decoder recurses
            lines[2] = "[" * 100_000 + "]" * 100_000
        elif defect == "repeated_edge":
            first_round["edges"].insert(1, first_round["edges"][0])
            lines[1] = json.dumps(first_round)
        elif defect == "unsent_faulty_delivery":  # still delivered, no longer sent
            del first_round["byz_sent"][0]
            lines[1] = json.dumps(first_round)
        elif defect in ("huge_delivered_value", "e400_delivered_value"):
            # Node 0 holds the minimum, so the condition reads what it is sent.
            # JSON's 1e400 reads as inf; json.dumps cannot write it.
            to_node_0 = next(m for m in first_round["delivered"] if m[1] == 0)
            to_node_0[2] = 10**400 if defect == "huge_delivered_value" else "1e400"
            lines[1] = json.dumps(first_round).replace('"1e400"', "1e400")
        elif defect == "huge_initial_value":  # in the header and round 1 alike
            header = json.loads(lines[0])
            header["initial_values"]["0"] = first_round["values_start"]["0"] = 10**400
            lines[0], lines[1] = json.dumps(header), json.dumps(first_round)
        elif defect == "e400_final":
            final = json.loads(lines[-1])
            final["values"]["0"] = "1e400"
            lines[-1] = json.dumps(final).replace('"1e400"', "1e400")
        elif defect == "empty_file":
            lines = []
        elif defect == "header_without_values":
            header = json.loads(lines[0])
            header["initial_values"] = {}
            lines[0] = json.dumps(header)
        elif defect == "unknown_record_type":
            first_round["type"] = "bogus"
            lines[1] = json.dumps(first_round)
        elif defect == "round_2_ids_differ":
            second_round = json.loads(lines[2])
            del second_round["computed"]["0"]
            lines[2] = json.dumps(second_round)
        elif defect == "final_ids_differ":
            final = json.loads(lines[-1])
            del final["values"]["0"]
            lines[-1] = json.dumps(final)
        elif defect == "non_canonical_key":  # int() reads " 0" as node 0
            first_round["positions"] = {" 0" if k == "0" else k: v
                                        for k, v in first_round["positions"].items()}
            lines[1] = json.dumps(first_round)
        elif defect == "shadowed_node_key":  # "00" would collapse into node 0's entry
            final = json.loads(lines[-1])
            final["values"] = {"00": 999.0, **final["values"]}
            lines[-1] = json.dumps(final)
        elif defect in ("header_n_long", "unlisted_node"):
            # A header that claims more nodes than it lists; the second case
            # also places the unlisted node 4 in round 1.
            header = json.loads(lines[0])
            header["params"]["n"] = 10**9 if defect == "header_n_long" else 5
            lines[0] = json.dumps(header)
            if defect == "unlisted_node":
                first_round["positions"]["4"] = [0.5, 0.5]
                lines[1] = json.dumps(first_round)
        trace_path.write_text("".join(line + "\n" for line in lines))
        if defect == "missing_file":
            trace_path = tmp_path / "absent.jsonl"
        assert main(["check", "--trace", str(trace_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert reasons.get(defect, "") in err[0]
        for workers in (2, 3):  # decoded in forked workers, reported the same
            with split_reads(workers):
                assert main(["check", "--trace", str(trace_path)]) == 2
            assert capsys.readouterr().err.splitlines() == err

    @pytest.mark.parametrize(
        "edit,code", [("line_separator", 0), ("bad_utf8_line_11", 2), ("bad_utf8_line_1", 2),
                      ("blank_lines", 0)]
    )
    def test_check_reads_utf8_records_split_on_newline(self, tmp_path, capsys, edit, code):
        # JSON Lines ends a record at "\n" only, so a raw U+2028 inside a string
        # is no line break; a byte that is not UTF-8 makes its line a malformed
        # record, the header's included.
        trace_path = tmp_path / "trace.jsonl"
        lines = trace_to_lines(simulate(builtin_scenario("fully_connected_baseline")))
        if edit == "line_separator":
            header = json.loads(lines[0])
            header["scenario"] = "split\u2028here"
            lines[0] = json.dumps(header, ensure_ascii=False)
        # Blank lines between records hold no record, so they are skipped.
        data = (("\n \n" if edit == "blank_lines" else "\n").join(lines) + "\n").encode("utf-8")
        if edit.startswith("bad_utf8_line_"):
            bad = int(edit.rsplit("_", 1)[1])
            data = b"\n".join(b"\xff" + line if i == bad - 1 else line
                              for i, line in enumerate(data.split(b"\n")))
        trace_path.write_bytes(data)
        for workers in (1, 3):  # read in one pass, then in forked workers
            with split_reads(workers):
                assert main(["check", "--trace", str(trace_path)]) == code
            err = capsys.readouterr().err.splitlines()
            assert len(err) == (1 if code else 0)
            if code:
                assert err[0].startswith(f"trace error: line {bad}: malformed record (Unicode"
                                         "DecodeError: 'utf-8' codec can't decode byte 0xff")
        if edit == "line_separator":
            assert load_trace(trace_path).scenario_name == "split\u2028here"

    def test_check_cost_does_not_grow_with_header_n(self, tmp_path, capsys):
        # The header's n must count its listed nodes, and is compared with
        # that count before anything is sized from it, so a huge n costs
        # nothing and is rejected.
        trace_path = tmp_path / "trace.jsonl"
        write_trace(simulate(builtin_scenario("fully_connected_baseline")), trace_path)
        lines = trace_path.read_text().splitlines()
        header = json.loads(lines[0])
        header["params"]["n"] = 2**62
        lines[0] = json.dumps(header)
        trace_path.write_text("\n".join(lines) + "\n")
        assert main(["check", "--trace", str(trace_path)]) == 2
        assert "but the header lists 4 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "defect",
        ["no_value", "string_n", "short_speed", "string_value", "json_list", "all_faulty",
         "sweep_range", "sweep_no_values", "waypoint_9", "waypoint_-1", "nan_value",
         "infinite_value", "nan_range", "nan_arena", "infinite_epsilon",
         "nan_fixed_value", "infinite_extreme_split", "nan_random_low", "infinite_random_high",
         "nan_scripted_table", "zero_radius", "big_loss_rate", "big_delta", "short_values",
         "missing_position", "unknown_values_mode", "unknown_positions_mode",
         "huge_initial_value", "huge_speed", "huge_fixed_value", "float_seed", "zero_max_rounds",
         "schema_2", "unknown_mobility", "unknown_strategy", "position_outside_arena",
         "faulty_id_outside", "reversed_speed", "infinite_speed", "huge_and_infinite_speed",
         "sweep_missing_grid", "sweep_list_grid", "sweep_zero_seeds", "export_unknown",
         "waypoint_00", "position_00", "position_9", "table_round_01", "table_receiver_01",
         "table_receiver_9", "sweep_seed_grid", "non_utf8_scenario", "non_utf8_grid",
         "non_utf8_table", "deep_scenario", "numeric_table_file", "bool_epsilon", "int_name",
         "null_name", "mixed_values", "string_fixed_value", "bool_and_string_speed",
         "long_speed", "long_position", "bool_radius", "bool_loss_rate", "bool_delta",
         "misspelt_speed", "stationary_speed", "silent_value", "explicit_values_range",
         "uniform_positions_coords", "sweep_unknown_key", "table_round_0", "table_round_-1",
         "missing_epsilon"],
    )
    def test_malformed_scenario_exits_two(self, tmp_path, capsys, monkeypatch, defect):
        # Each newer case names the reason it must be rejected for.
        speed_range = "ValueError: random-waypoint speed must lie within float range"
        reasons = {"all_faulty": "every node is faulty",
                   "huge_initial_value": "ValueError: explicit values must lie within float range",
                   "huge_speed": speed_range,
                   "huge_fixed_value": "ValueError: fixed-value value must lie within float range",
                   "float_seed": "seed must be an integer",
                   "zero_max_rounds": "max_rounds must be an integer >= 1",
                   "schema_2": "unsupported scenario schema 2",
                   "unknown_mobility": "unknown mobility model 'levy'",
                   "unknown_strategy": "unknown adversary strategy 'chaos'",
                   "position_outside_arena": "outside arena",
                   "faulty_id_outside": "faulty ids [7] are not integers in 0..4",
                   "reversed_speed": "random-waypoint speed needs 0 < lo <= hi, got [2.0, 1.0]",
                   "infinite_speed": speed_range, "huge_and_infinite_speed": speed_range,
                   "sweep_missing_grid": "cannot read grid",
                   "sweep_list_grid": "grid must map parameter paths to value lists",
                   "sweep_zero_seeds": "sweep needs at least one seed",
                   "export_unknown": "unknown builtin scenario 'nope'",
                   "waypoint_00": "node id '00' is not a canonical decimal",
                   "position_00": "node id '00' is not a canonical decimal",
                   "position_9": "explicit coords for unknown nodes [9]",
                   "table_round_01": "scripted table round '01' is not a canonical decimal",
                   # A row for a round before the first is never sent.
                   "table_round_0": "scripted table round '0' must be at least 1",
                   "table_round_-1": "scripted table round '-1' must be at least 1",
                   "missing_epsilon": "config error: missing scenario field 'epsilon'",
                   "table_receiver_01": "node id '01' is not a canonical decimal",
                   "table_receiver_9": "scripted table row '1' for unknown nodes [9]",
                   "sweep_seed_grid": "grid path 'seed' cannot be swept",
                   "non_utf8_scenario": "config error: cannot read scenario",
                   "non_utf8_grid": "config error: cannot read grid",
                   "non_utf8_table": "config error: cannot read scripted table",
                   "deep_scenario": "config error: cannot read scenario",
                   "numeric_table_file": "malformed scenario (TypeError: expected str",
                   # float() and indexing accepted each of these: a bool read as
                   # 0 or 1, a numeric string as its number, a long list's first two.
                   "bool_epsilon": "TypeError: epsilon must hold numbers",
                   "int_name": "seed must be an integer and name a string",
                   "null_name": "seed must be an integer and name a string",
                   "mixed_values": "TypeError: explicit values must hold numbers",
                   "string_fixed_value": "TypeError: fixed-value value must hold numbers",
                   "bool_and_string_speed": "TypeError: random-waypoint speed must hold numbers",
                   "long_speed": "random-waypoint speed must hold 2 numbers, got 3",
                   "long_position": "explicit coords for node 0 must hold 2 numbers, got 3",
                   "bool_radius": "TypeError: radius must hold numbers",
                   "bool_loss_rate": "TypeError: loss_rate must hold numbers",
                   "bool_delta": "TypeError: delta must hold numbers",
                   # Each spec key is one its kind takes: a misspelt or stray
                   # one once ran a different network without an error.
                   "misspelt_speed": "unknown mobility keys ['sped'] for model 'random-waypoint'",
                   "stationary_speed": "unknown mobility keys ['speed'] for model 'stationary'",
                   "silent_value": "unknown adversary keys ['value'] for strategy 'silent'",
                   "explicit_values_range":
                       "unknown initial_values keys ['range'] for mode 'explicit'",
                   "uniform_positions_coords":
                       "unknown initial_positions keys ['coords'] for mode 'uniform'",
                   "sweep_unknown_key": "unknown mobility keys ['waypoints'] for model 'stationary'"}
        speeds = {"huge_speed": [10**400, 10**400], "reversed_speed": [2.0, 1.0],
                  "infinite_speed": [float("inf"), float("inf")],
                  "huge_and_infinite_speed": [1e308, float("inf")],
                  "bool_and_string_speed": [True, "2"], "long_speed": [0.5, 2.0, 99]}
        numbers = {"bool_epsilon": ("epsilon", True), "int_name": ("name", 5),
                   "null_name": ("name", None), "bool_radius": ("radius", True),
                   "bool_loss_rate": ("loss_rate", False),
                   "bool_delta": ("delta", True)}  # epsilon is 5.5, so 1 would be a delta
        doc = builtin_scenario("stale_log_overshoot").to_dict()
        if defect == "no_value":
            del doc["adversary"]["value"]
        elif defect == "string_n":
            doc["n"] = "4"
        elif defect == "short_speed":
            doc["mobility"] = {"model": "random-waypoint", "speed": [1.0]}
        elif defect == "string_value":
            doc["initial_values"]["values"][0] = "x"
        elif defect == "json_list":
            doc = [doc]
        elif defect == "all_faulty":
            doc.update(n=1, f=1, initial_values={"mode": "explicit", "values": []})
            doc["adversary"]["byz_set"] = [0]
            doc["initial_positions"] = {"mode": "uniform"}
            doc["mobility"] = {"model": "stationary"}  # the scripted one names nodes 1 and 4
        elif defect in ("sweep_range", "sweep_no_values"):
            doc["adversary"] = {"strategy": "random-legal", "range": [0.0, 1.0], "byz_set": [4]}
        elif defect.startswith("waypoint_"):  # n is 5
            doc["mobility"]["waypoints"][defect.split("_")[1]] = [[1.0, 1.0]]
        elif defect in ("nan_value", "infinite_value"):
            doc["initial_values"]["values"][0] = float("nan" if defect == "nan_value" else "inf")
        elif defect == "nan_range":
            doc["initial_values"] = {"mode": "uniform", "range": [0.0, float("nan")]}
        elif defect == "nan_arena":
            doc.update(arena=[float("nan"), 12.0], mobility={"model": "stationary"},
                       initial_positions={"mode": "uniform"})
        elif defect == "infinite_epsilon":
            doc["epsilon"] = float("inf")
        elif defect == "nan_fixed_value":
            doc["adversary"]["value"] = float("nan")
        elif defect == "infinite_extreme_split":
            doc["adversary"] = {"strategy": "extreme-split", "v_hi": float("inf"), "v_lo": 0.0,
                                "byz_set": [4]}
        elif defect in ("nan_random_low", "infinite_random_high"):
            bounds = [float("nan"), 1.0] if defect == "nan_random_low" else [0.0, float("inf")]
            doc["adversary"] = {"strategy": "random-legal", "range": bounds, "byz_set": [4]}
        elif defect == "nan_scripted_table":
            doc["adversary"] = {"strategy": "scripted", "byz_set": [4],
                                "table": {"*": {"0": 1.0}, "2": {"1": float("nan")}}}
        elif defect == "zero_radius":
            doc["radius"] = 0.0
        elif defect == "big_loss_rate":
            doc["loss_rate"] = 1.5
        elif defect == "big_delta":  # epsilon is 5.5
            doc["delta"] = 3.0
        elif defect == "short_values":
            doc["initial_values"]["values"].pop()
        elif defect == "missing_position":
            del doc["initial_positions"]["coords"]["3"]
        elif defect == "unknown_values_mode":
            doc["initial_values"]["mode"] = "gaussian"
        elif defect == "unknown_positions_mode":
            doc["initial_positions"]["mode"] = "grid"
        elif defect == "huge_initial_value":
            doc["initial_values"]["values"][0] = 10**400
        elif defect in speeds:
            doc["mobility"] = {"model": "random-waypoint", "speed": speeds[defect]}
        elif defect == "huge_fixed_value":
            doc["adversary"]["value"] = 10**400
        elif defect == "float_seed":
            doc["seed"] = 7.5
        elif defect == "zero_max_rounds":
            doc["max_rounds"] = 0
        elif defect == "schema_2":
            doc["schema"] = 2
        elif defect == "unknown_mobility":
            doc["mobility"] = {"model": "levy"}
        elif defect == "unknown_strategy":
            doc["adversary"]["strategy"] = "chaos"
        elif defect == "position_outside_arena":  # the arena is 12 x 12
            doc["initial_positions"]["coords"]["0"] = [99.0, 99.0]
        elif defect == "faulty_id_outside":  # n is 5
            doc["adversary"]["byz_set"] = [7]
        elif defect.startswith("position_"):  # beside the canonical keys 0..4
            doc["initial_positions"]["coords"][defect.split("_")[1]] = [1.0, 1.0]
        elif defect.startswith("table_"):
            # Read with int alone, "01" would shadow the "1" before it; "9" names no node.
            key = defect.split("_")[2]
            table = ({"1": {"0": 5.0}, key: {"0": 7.0}} if defect.startswith("table_round")
                     else {"1": {"0": 5.0, key: 7.0}})
            doc["adversary"] = {"strategy": "scripted", "byz_set": [4], "table": table}
        elif defect == "missing_epsilon":
            del doc["epsilon"]
        elif defect == "numeric_table_file":
            doc["adversary"] = {"strategy": "scripted", "byz_set": [4], "table_file": 5}
        elif defect in numbers:
            key, value = numbers[defect]
            doc[key] = value
        elif defect == "mixed_values":
            doc["initial_values"]["values"] = ["0", True, 2.0, "3e0"]
        elif defect == "string_fixed_value":
            doc["adversary"]["value"] = "7"
        elif defect == "long_position":
            doc["initial_positions"]["coords"]["0"] = [1.0, 2.0, 7.0]
        elif defect == "misspelt_speed":
            doc["mobility"] = {"model": "random-waypoint", "sped": [5.0, 9.0]}
        elif defect == "stationary_speed":
            doc["mobility"] = {"model": "stationary", "speed": [True, "x"]}
        elif defect == "silent_value":
            doc["adversary"]["strategy"] = "silent"  # beside its fixed-value value
        elif defect == "explicit_values_range":
            doc["initial_values"]["range"] = [0.0, 1.0]
        elif defect == "uniform_positions_coords":
            doc["initial_positions"]["mode"] = "uniform"  # beside its explicit coords
        elif defect == "non_utf8_table":  # a relative table_file is found beside the scenario
            doc["adversary"] = {"strategy": "scripted", "byz_set": [4], "table_file": "table.json"}
            (tmp_path / "table.json").write_bytes(b'{"1": {"0": 5.0}, "\xff": {}}')
        path = tmp_path / "scenario.json"
        path.write_bytes((b"\xff" if defect == "non_utf8_scenario" else b"")
                         + json.dumps(doc).encode())
        if defect == "deep_scenario":  # deeper than the JSON decoder recurses
            path.write_text("[" * 100_000 + "]" * 100_000)
        argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "out")]
        if defect.startswith("sweep_") or defect == "non_utf8_grid":
            # The template is fine; the grid or the seeds are not.
            grid = tmp_path / "grid.json"
            grid.write_bytes(json.dumps({
                "sweep_range": {"adversary.range": [[1.0, 0.0]]},  # a reversed range
                "sweep_no_values": {"adversary.range": []},
                "sweep_list_grid": [{"r_c": [1]}],
                "sweep_seed_grid": {"seed": [1, 2, 3]},  # every run's seed comes from --seeds
                "sweep_unknown_key": {"mobility": [{"model": "stationary", "waypoints": {}}]},
            }.get(defect, {"r_c": [1]})).encode() + (b"\xff" if defect == "non_utf8_grid" else b""))
            if defect == "sweep_missing_grid":
                grid = tmp_path / "absent.json"
            seeds = "0" if defect == "sweep_zero_seeds" else "2"
            argv = ["sweep", "--scenario", str(path), "--grid", str(grid), "--seeds", seeds,
                    "--out", str(tmp_path / "out")]
            # Every cell is checked before any run starts.
            monkeypatch.setattr(harness, "split_map", lambda *_: pytest.fail("a run started"))
        if defect == "export_unknown":
            argv = ["scenarios", "export", "nope"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert reasons.get(defect, "") in err[0]
        if defect.startswith("non_utf8"):
            assert "'utf-8' codec can't decode byte 0xff" in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", [*sorted(LIBRARY), "golden_waypoint_n40",
                                      "golden_random_streams", "scripted_table"])
    def test_a_number_that_is_a_bool_or_a_string_exits_two(self, tmp_path, capsys, name):
        # Scenarios are read by the trace reader's type rule: every number
        # leaf, the schema and the ids included, replaced by True and then by
        # its text, must be rejected before anything is written.
        if name == "scripted_table":
            doc = golden_random_streams().to_dict()
            doc.update(name=name, delta=0.004, adversary={
                "strategy": "scripted", "byz_set": [2],
                "table": {"*": {"0": 1.0}, "3": {"1": -1.0, "4": 2}}})
        else:
            doc = golden_config(name).to_dict()

        def leaves(node, path=()):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                if type(value) in (int, float):
                    yield path + (key,)
                elif isinstance(value, (dict, list)):
                    yield from leaves(value, path + (key,))

        paths = list(leaves(doc))
        assert len(paths) >= 10
        scenario, out = tmp_path / "scenario.json", tmp_path / "out"
        for *parents, last in paths:
            for replace in (lambda v: True, str):
                edited = json.loads(json.dumps(doc))
                target = edited
                for key in parents:
                    target = target[key]
                target[last] = replace(target[last])
                scenario.write_text(json.dumps(edited))
                assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 2, (
                    parents, last, target[last])
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith("config error: "), err
                assert not out.exists()

    @pytest.mark.parametrize("mode,reason", [("io:x", "bad io window in mode 'io:x'"),
                                             ("io:0", "io window must be >= 1"),
                                             # int() reads each of these as a window
                                             ("io:3_0", "bad io window in mode 'io:3_0'"),
                                             ("io: 3", "bad io window in mode 'io: 3'"),
                                             ("io:+3", "bad io window in mode 'io:+3'"),
                                             ("io:03", "bad io window in mode 'io:03'"),
                                             ("io:\u0663", "bad io window in mode 'io:\u0663'"),
                                             ("bogus", "mode must be 'per-phase' or 'io:<W>'")])
    def test_bad_check_mode_exits_two(self, tmp_path, capsys, mode, reason):
        trace_path = tmp_path / "trace.jsonl"
        write_trace(simulate(builtin_scenario("fully_connected_baseline")), trace_path)
        assert main(["check", "--trace", str(trace_path), "--mode", mode]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and reason in err[0]

    def test_bad_check_mode_is_rejected_before_the_trace_is_read(self, tmp_path, monkeypatch,
                                                                 capsys):
        def no_read(*_args):
            raise AssertionError("read the trace")

        monkeypatch.setattr(cli, "read_trace", no_read)
        absent = tmp_path / "absent.jsonl"
        assert main(["check", "--trace", str(absent), "--mode", "bogus"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "mode must be 'per-phase' or 'io:<W>'" in err[0]

    @pytest.mark.parametrize(
        "case", ["run_out_is_a_file", "run_vectors", "check_out", "export_out"]
    )
    def test_unwritable_output_exits_two(self, tmp_path, capsys, case):
        # Every output but the first goes into a directory that does not exist.
        existing = tmp_path / "file"
        existing.write_text("")
        missing = tmp_path / "absent" / "out.json"
        trace_path = tmp_path / "trace.jsonl"
        write_trace(simulate(builtin_scenario("fully_connected_baseline")), trace_path)
        run = ["run", "--scenario", "fully_connected_baseline"]
        argv = {
            "run_out_is_a_file": run + ["--out", str(existing)],
            "run_vectors": run + ["--out", str(tmp_path / "out"), "--vectors", str(missing)],
            "check_out": ["check", "--trace", str(trace_path), "--out", str(missing)],
            "export_out": ["scenarios", "export", "partition_never", "--out", str(missing)],
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: cannot write ")

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "ending,code",
        [("ok", 0), ("violated", 1), ("agreesim_error", 1), ("config_error", 2),
         ("trace_error", 2), ("usage_error", 2), ("exception", None)],
    )
    def test_main_restores_the_callers_gc_setting(self, monkeypatch, capsys, ending, code,
                                                  enabled):
        raised = {"agreesim_error": AnalysisError, "config_error": ConfigError,
                  "trace_error": TraceError, "exception": RuntimeError}
        collecting = []

        def command(args):
            collecting.append(gc.isenabled())
            if ending in raised:
                raise raised[ending]("raised by the command")
            return 1 if ending == "violated" else 0

        monkeypatch.setattr(cli, "_cmd_scenarios", command)
        argv = ["scenarios", "--no-such-flag"] if ending == "usage_error" else ["scenarios", "list"]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if code is None:
                with pytest.raises(RuntimeError):
                    main(argv)
            else:
                assert main(argv) == code
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert after is enabled
        assert collecting == ([] if ending == "usage_error" else [False])

    def test_sweep_leaves_no_cycles_that_grow_with_its_runs(self, tmp_path, capsys):
        # Collection is off while a command runs, so reference counting must
        # free every run: what is left for the collector is argparse's own
        # cycles, the same for 1 seed as for 10.
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"r_c": [1, 2], "loss_rate": [0.0, 0.3]}))
        found = []
        was = gc.isenabled()
        gc.disable()
        try:
            for seeds in (1, 10):
                gc.collect()
                assert main(["sweep", "--scenario", "fully_connected_baseline", "--grid",
                             str(grid), "--seeds", str(seeds), "--out", str(tmp_path / "s")]) == 0
                found.append(gc.collect())
        finally:
            if was:
                gc.enable()
        assert found[0] == found[1] < 1000

    @pytest.mark.parametrize("delta,code", [("0", 2), ("-0.01", 2), ("0.06", 2),
                                            ("0.05", 0), ("0.01", 0)])
    @pytest.mark.parametrize("rounds", ["all", "none"])
    def test_check_delta_must_lie_in_the_group_margin(self, tmp_path, capsys, delta, code, rounds):
        # epsilon is 0.1. With no rounds, only the check made as the header
        # is read can reject the delta.
        trace_path = tmp_path / "trace.jsonl"
        write_trace(simulate(builtin_scenario("fully_connected_baseline")), trace_path)
        if rounds == "none":
            lines = trace_path.read_text().splitlines()
            trace_path.write_text(lines[0] + "\n" + lines[-1] + "\n")
        assert main(["check", "--trace", str(trace_path), "--delta", delta]) == code
        assert len(capsys.readouterr().err.splitlines()) == (1 if code else 0)

    def test_bad_delta_is_rejected_before_any_round_is_read(self, tmp_path, monkeypatch,
                                                            capsys):
        # The walk needs the group margin from the first round on.
        trace_path = tmp_path / "trace.jsonl"
        write_trace(simulate(builtin_scenario("fully_connected_baseline")), trace_path)

        def no_decode(*_args):
            raise AssertionError("decoded a line after the header")

        monkeypatch.setattr(trace_module, "_decode", no_decode)
        for workers in (1, 3):
            with split_reads(workers):
                assert main(["check", "--trace", str(trace_path), "--delta", "0.06"]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "delta must lie in (0, epsilon/2]" in err[0]

    def test_scenarios_list_and_export(self, tmp_path, capsys):
        assert main(["scenarios", "list"]) == 0
        listed = capsys.readouterr().out.split()
        assert sorted(LIBRARY) == listed
        path = tmp_path / "exported.json"
        assert main(["scenarios", "export", "fig1_scripted_path", "--out", str(path)]) == 0
        assert load_scenario(path).name == "fig1_scripted_path"

    def test_sweep_command(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"r_c": [1, 2]}))
        code = main([
            "sweep", "--scenario", "fully_connected_baseline", "--grid", str(grid),
            "--seeds", "2", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 0
        assert (tmp_path / "sweep" / "sweep.csv").exists()
        assert "converged" in capsys.readouterr().out

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert main(["run", "--scenario", "no_such_thing", "--out", str(tmp_path)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
        capsys.readouterr()


def test_scripted_table_loadable_from_separate_file(tmp_path):
    table = {"1": {"0": -5.0}, "2": {"0": 5.0}}
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table))
    config = ScenarioConfig(
        name="filed", n=3, f=1, r_c=2, epsilon=1.0, max_rounds=2, radius=2.5,
        adversary={"strategy": "scripted", "table_file": "table.json", "byz_set": [2]},
        initial_values={"mode": "explicit", "values": [0.0, 10.0]},
        initial_positions={
            "mode": "explicit",
            "coords": {"0": [4.0, 5.0], "1": [6.0, 5.0], "2": [5.0, 5.0]},
        },
        seed=9,
    )
    scenario_path = tmp_path / "scenario.json"
    save_scenario(config, scenario_path)
    loaded = load_scenario(scenario_path)  # reads the table beside the scenario file
    trace = simulate(loaded)
    sent = {(r.round, m[1], m[2]) for r in trace.rounds for m in r.byz_sent}
    assert sent == {(1, 0, -5.0), (2, 0, 5.0)}


def lemma2_scripted(adversary: dict) -> dict:
    """lemma2_3f_impossible's scenario with a scripted adversary on node 2."""
    doc = builtin_scenario("lemma2_3f_impossible").to_dict()
    doc["adversary"] = {"strategy": "scripted", "byz_set": [2], **adversary}
    return doc


def test_scripted_table_file_gives_the_inline_tables_trace(tmp_path):
    table = {"*": {"0": 11.0, "1": -1.0}}
    (tmp_path / "table.json").write_text(json.dumps(table))
    path = tmp_path / "scenario.json"  # table_file resolves beside it, not in the cwd
    path.write_text(json.dumps(lemma2_scripted({"table_file": "table.json"})))
    inline = ScenarioConfig.from_dict(lemma2_scripted({"table": table}))
    assert trace_bytes(simulate(load_scenario(path))) == trace_bytes(simulate(inline))


def test_scripted_table_file_is_read_once_per_command(tmp_path, monkeypatch, capsys):
    # load_scenario holds the rows inline: validate, each sweep cell and
    # each run reuse them.
    (tmp_path / "table.json").write_text(json.dumps({"*": {"0": 11.0, "1": -1.0}}))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(lemma2_scripted({"table_file": "table.json"})))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"r_c": [1, 2, 3]}))
    reads = []
    read_json = scenarios.read_json
    monkeypatch.setattr(scenarios, "read_json",
                        lambda path, what: reads.append(what) or read_json(path, what))
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 0
    assert reads.count("scripted table") == 1
    reads.clear()
    assert main(["sweep", "--scenario", str(path), "--grid", str(grid), "--seeds", "4",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert reads.count("scripted table") == 1
    capsys.readouterr()


def test_readme_scenario_example_validates_and_runs():
    # The documented keys cannot drift from scenarios.SPEC_KEYS.
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        section = fh.read().split("## Scenario files", 1)[1]
    config = ScenarioConfig.from_dict(json.loads(section.split("```json", 1)[1].split("```")[0]))
    config.validate()
    _trace, report = run_scenario(config)
    assert report.invariants_ok


def test_missing_scripted_table_file_exits_two(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(lemma2_scripted({"table_file": "absent.json"})))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "cannot read scripted table" in err


# A valid value for each spec key in stale_log_overshoot's scenario: n = 5 in
# a 12 x 12 arena, node 4 faulty, so four correct nodes.
SPEC_SAMPLES = {"speed": [0.5, 2.0], "waypoints": {"1": [[1.5, 2.0]]}, "byz_set": [4],
                "value": 10.0, "v_hi": 11.0, "v_lo": -1.0, "range": [0.0, 1.0],
                "table": {"*": {"0": 1.0}}, "values": [2.0, 10.0, 0.0, 0.0],
                "coords": {str(i): [1.0, 1.0] for i in range(5)}}


def spec_doc(name: str, spec) -> dict:
    doc = builtin_scenario("stale_log_overshoot").to_dict()
    if name == "adversary":  # whose byz_set may be left out: uniform values fit any faulty set
        doc["initial_values"] = {"mode": "uniform"}
    doc[name] = spec
    return doc


def sample_specs():
    """Each kind of each spec in scenarios.SPEC_KEYS with every key it takes set to its sample."""
    for name, (pick, kinds) in scenarios.SPEC_KEYS.items():
        for kind, keys in kinds.items():
            yield name, pick, kind, keys, {pick: kind, **{key: SPEC_SAMPLES[key] for key in keys}}


def containers(what: str, shape, sample):
    """(what, path, kind) for each array or object a sample of ``shape`` holds, along first entries.

    ``path`` leads from the sample to it, and ``kind`` is the JSON kind it must be.
    """
    if shape == "number":
        return
    form, inner = shape if isinstance(shape, tuple) else ("list", None)
    yield what, (), "object" if form in ("node", "round") else "array"
    if inner is None:
        return
    first = 0 if form == "list" else next(iter(sample))
    label = (what if form == "list" else f"{what} row {first!r}" if form == "round"
             else f"{what} for node {first}")
    for name, path, kind in containers(label, inner, sample[first]):
        yield name, (first, *path), kind


def replaced(sample, path, value):
    """A copy of ``sample`` with the entry at ``path`` replaced by ``value``."""
    if not path:
        return value
    copy = list(sample) if isinstance(sample, list) else dict(sample)
    copy[path[0]] = replaced(sample[path[0]], path[1:], value)
    return copy


def malformed_spec_cases():
    """(id, spec name, spec, config error) for each way SPEC_KEYS says a spec can be wrong."""
    for name in scenarios.SPEC_KEYS:
        yield f"{name}-a-string", name, "x", f"{name} must be a JSON object, got str"
    for name, pick, kind, keys, spec in sample_specs():
        where = f"for {pick} {kind!r}"
        yield (f"{name}-{kind}-stray-key", name, {**spec, "stray": 1},
               f"unknown {name} keys ['stray'] {where}")
        for key, (shape, default) in keys.items():
            if default is None:
                left_out = {k: v for k, v in spec.items() if k != key}
                yield (f"{name}-{kind}-missing-{key}", name, left_out,
                       f"missing {name} key {key!r} {where}")
            yield (f"{name}-{kind}-null-{key}", name, {**spec, key: None},
                   f"null {name} key {key!r} {where}")
            # An array or an object, at any depth, that is the other one or,
            # below the key itself, null.
            for what, path, json_kind in containers(f"{kind} {key}", shape, SPEC_SAMPLES[key]):
                wrong = [{} if json_kind == "array" else []] + ([None] if path else [])
                for bad in wrong:
                    at = ".".join(map(str, (key, *path)))
                    yield (f"{name}-{kind}-{json.dumps(bad)}-at-{at}", name,
                           {**spec, key: replaced(SPEC_SAMPLES[key], path, bad)},
                           f"{what} must be a JSON {json_kind}, got {type(bad).__name__}")
            if shape in ("range", "positive range"):
                floor = "0 < " if shape == "positive range" else ""
                lo, hi = SPEC_SAMPLES[key]
                yield (f"{name}-{kind}-reversed-{key}", name, {**spec, key: [hi, lo]},
                       f"{kind} {key} needs {floor}lo <= hi, got [{float(hi)}, {float(lo)}]")
                if floor:
                    yield (f"{name}-{kind}-zero-low-{key}", name, {**spec, key: [0.0, hi]},
                           f"{kind} {key} needs {floor}lo <= hi, got [0.0, {float(hi)}]")


@pytest.mark.parametrize("name,keys,spec", [
    pytest.param(name, keys, spec, id=f"{name}-{kind}")
    for name, _pick, kind, keys, spec in sample_specs()])
def test_each_spec_kind_validates_with_its_keys_or_their_defaults(name, keys, spec):
    # The base of every generated malformed case below is itself accepted,
    # and so is each key with a default when it is left out.
    ScenarioConfig.from_dict(spec_doc(name, spec)).validate()
    for key, (_shape, default) in keys.items():
        if default is not None:
            left_out = {k: v for k, v in spec.items() if k != key}
            ScenarioConfig.from_dict(spec_doc(name, left_out)).validate()


@pytest.mark.parametrize("name,spec,reason",
                         [pytest.param(*case[1:], id=case[0]) for case in malformed_spec_cases()])
def test_malformed_spec_from_the_key_table_exits_two(tmp_path, capsys, name, spec, reason):
    # Generated from scenarios.SPEC_KEYS: a spec that is not an object, a
    # stray key, a required key left out, any key set to null, an array or
    # object at any depth that is the wrong one or null, a reversed range
    # and a speed whose low end is zero each exit 2 with one line.
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    path.write_text(json.dumps(spec_doc(name, spec)))
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {reason}"]
    assert not out.exists()


def test_reversed_ranges_share_one_message(tmp_path, capsys):
    lines = []
    for name, spec in (("mobility", {"model": "random-waypoint", "speed": [2.0, 1.0]}),
                       ("adversary", {"strategy": "random-legal", "byz_set": [4], "range": [1, 0]}),
                       ("initial_values", {"mode": "uniform", "range": [1.0, 0.0]})):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec_doc(name, spec)))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        lines += capsys.readouterr().err.splitlines()
    assert lines == ["config error: random-waypoint speed needs 0 < lo <= hi, got [2.0, 1.0]",
                     "config error: random-legal range needs lo <= hi, got [1.0, 0.0]",
                     "config error: uniform range needs lo <= hi, got [1.0, 0.0]"]


def test_empty_waypoints_and_table_are_accepted():
    # Unlike a missing or null one: nodes without waypoints stay put, and an
    # empty table sends nothing.
    doc = lemma2_scripted({"table": {}})
    doc["mobility"] = {"model": "scripted", "waypoints": {}}
    _trace, report = run_scenario(ScenarioConfig.from_dict(doc))
    assert report.invariants_ok


@pytest.mark.parametrize("readable", [False, True])
def test_table_file_beside_another_strategy_is_a_stray_key(tmp_path, monkeypatch, capsys,
                                                           readable):
    # Only a scripted adversary reads its table_file; any other strategy
    # names it as a key it does not take, and opens no file.
    if readable:
        (tmp_path / "table.json").write_text(json.dumps({"*": {"0": 1.0}}))
    doc = lemma2_scripted({"table_file": "table.json"})
    doc["adversary"]["strategy"] = "silent"
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    reads = []
    read_json = scenarios.read_json
    monkeypatch.setattr(scenarios, "read_json",
                        lambda path, what: reads.append(what) or read_json(path, what))
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: unknown adversary keys ['table_file'] for strategy 'silent'"]
    assert reads == ["scenario"]
    assert not out.exists()


def baseline_reference_replay(rounds):
    """Independent replay of the fully connected four-node baseline.

    Plain-list arithmetic over the broadcast-everything round structure,
    reusing only the index-slice reference oracle.
    """
    import math

    from reference import reference_counts, reference_reduce

    values = [0.0, 1.0, 2.0, 3.0]
    history = [list(values)]
    for _round in range(rounds):
        new_values = []
        for i, own in enumerate(values):
            heard = sorted(v for j, v in enumerate(values) if j != i)
            x, y = reference_counts(heard, own)
            if x >= 2 or y >= 2:  # f = 1
                survivors, _removed = reference_reduce(heard, 1, own)
                mean = (own + math.fsum(survivors)) / (len(survivors) + 1)
                mean = min(max(mean, min(survivors + [own])), max(survivors + [own]))
                new_values.append(mean)
            else:
                new_values.append(own)
        values = new_values
        history.append(list(values))
    return history


# Spreads produced by baseline_reference_replay, frozen as golden values.
BASELINE_GOLDEN_SPREADS = [
    3.0,
    1.0,
    0.3333333333333335,
    0.11111111111111116,
    0.03703703703703676,
]


def test_baseline_matches_independent_replay_exactly():
    trace = simulate(builtin_scenario("fully_connected_baseline"))
    expected = baseline_reference_replay(rounds=8)
    for r, snapshot in enumerate(expected, start=1):
        assert trace.values_at(r) == dict(enumerate(snapshot))
    assert [spread(trace, r) for r in range(1, 6)] == BASELINE_GOLDEN_SPREADS
    replay_spreads = [max(snap) - min(snap) for snap in expected[:5]]
    assert replay_spreads == BASELINE_GOLDEN_SPREADS


def test_cardinality_warning_surfaces_in_report():
    _trace, report = run_scenario(builtin_scenario("lemma2_3f_impossible"))
    assert not report.cardinality_ok


def test_build_report_is_rederivable_from_trace_file(tmp_path):
    config = builtin_scenario("stale_log_overshoot")
    trace, report = run_scenario(config)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    loaded = load_trace(path)
    again = build_report(loaded, Walk(loaded, config.effective_delta))
    assert report_text(again) == report_text(report)
