"""Faulty-node strategies: equivocation, targeting, topology discipline."""

import random

import pytest

from agreesim import scenarios
from agreesim.adversary import (
    ExtremeSplit,
    FixedValue,
    RandomLegal,
    RoundView,
    ScriptedTable,
    Silent,
    byzantine_outbox,
)
from agreesim.cli import main
from agreesim.dynamics import RoundGraph, deliver
from agreesim.errors import ConfigError
from agreesim.harness import simulate
from agreesim.scenarios import ScenarioConfig, builtin_scenario
from agreesim.trace import write_trace


def make_view(r=1, values=None):
    return RoundView(round=r, phase_start_values=dict(values or {}))


def star_graph(center, leaves):
    receivers = {leaf: [center] for leaf in leaves}
    receivers[center] = sorted(leaves)
    return RoundGraph(receivers=receivers)


STRATEGY_GRAPH = star_graph(9, [0, 1, 2])


class TestStrategies:
    def test_silent_sends_nothing(self):
        strat = Silent()
        out = byzantine_outbox(strat, 9, STRATEGY_GRAPH, make_view(), random.Random(0))
        assert out == []

    def test_fixed_value_reaches_every_neighbor(self):
        strat = FixedValue(42.0)
        out = byzantine_outbox(strat, 9, STRATEGY_GRAPH, make_view(), random.Random(0))
        assert sorted(out) == [(9, 0, 42.0), (9, 1, 42.0), (9, 2, 42.0)]

    def test_extreme_split_targets_by_phase_start_value(self):
        view = make_view(values={0: 10.0, 1: 0.0, 2: 5.0})
        strat = ExtremeSplit(v_hi=11.0, v_lo=-1.0)
        out = dict(
            (receiver, value)
            for _sender, receiver, value in byzantine_outbox(
                strat, 9, STRATEGY_GRAPH, view, random.Random(0)
            )
        )
        assert out[0] == 11.0
        assert out[1] == -1.0
        assert out[2] == 11.0  # midpoint ties go high

    def test_extreme_split_equivocates_within_one_round(self):
        # Different receivers get different values in the same round and the
        # delivery layer keeps both.
        view = make_view(values={0: 10.0, 1: 0.0})
        strat = ExtremeSplit(11.0, -1.0)
        out = byzantine_outbox(strat, 9, star_graph(9, [0, 1]), view, random.Random(0))
        inboxes = deliver(star_graph(9, [0, 1]), out, 0.0, random.Random(0))
        assert inboxes[0] == [(9, 0, 11.0)]
        assert inboxes[1] == [(9, 1, -1.0)]

    def test_random_legal_draws_stay_in_range_and_replay(self):
        strat = RandomLegal(0.0, 1.0)
        view = make_view()
        a = byzantine_outbox(strat, 9, STRATEGY_GRAPH, view, random.Random(5))
        b = byzantine_outbox(strat, 9, STRATEGY_GRAPH, view, random.Random(5))
        assert a == b
        assert all(0.0 <= value <= 1.0 for _s, _r, value in a)

    def test_random_legal_rejects_reversed_range(self):
        with pytest.raises(ConfigError):
            RandomLegal(1.0, 0.0)

    def test_scripted_table_with_default_row(self):
        table = ScriptedTable({1: {0: 5.0}, "*": {1: 7.0}})
        r1 = byzantine_outbox(table, 9, STRATEGY_GRAPH, make_view(r=1), random.Random(0))
        r2 = byzantine_outbox(table, 9, STRATEGY_GRAPH, make_view(r=2), random.Random(0))
        assert r1 == [(9, 0, 5.0)]
        assert r2 == [(9, 1, 7.0)]

    def test_scripted_table_skips_unreachable_receivers(self):
        table = ScriptedTable({"*": {0: 5.0, 7: 6.0}})
        out = byzantine_outbox(table, 9, STRATEGY_GRAPH, make_view(), random.Random(0))
        assert out == [(9, 0, 5.0)]


class Naming:
    """Sends the k-th node it names the value k, whether that node hears it or not."""

    draws = False

    def __init__(self, named):
        self.named = named

    def messages(self, b, receivers, view, rng):
        return [(i, float(k)) for k, i in enumerate(self.named)]


class TestOutboxDiscipline:
    def test_at_most_one_message_per_receiver(self):
        class Doubler:
            def messages(self, b, receivers, view, rng):
                return [(r, 1.0) for r in receivers] + [(r, 2.0) for r in receivers]

        strat = Doubler()
        out = byzantine_outbox(strat, 9, STRATEGY_GRAPH, make_view(), random.Random(0))
        assert len(out) == 3
        assert {receiver for _s, receiver, _v in out} == {0, 1, 2}

    def test_gate_keeps_one_message_per_named_hearer(self):
        # Node 7 does not hear the center 9; 9 names itself; 0 is named twice.
        out = byzantine_outbox(Naming([7, 9, 0, 0, 2]), 9, STRATEGY_GRAPH, make_view(), None)
        assert out == [(9, 0, 2.0), (9, 2, 4.0)]

    def test_run_with_a_forging_strategy_writes_a_trace_check_accepts(self, tmp_path,
                                                                      monkeypatch, capsys):
        # Nodes on a line, each heard by its neighbours only: faulty node 3
        # names non-hearers 0 and 1, itself, and its one hearer 2 twice.
        config = ScenarioConfig(
            name="forger", n=4, f=1, r_c=2, epsilon=0.01, max_rounds=6, arena=(6.0, 6.0),
            radius=1.6, adversary={"strategy": "silent", "byz_set": [3]},
            initial_values={"mode": "explicit", "values": [0.0, 1.0, 2.0]},
            initial_positions={"mode": "explicit", "coords": {
                "0": [0.0, 1.0], "1": [1.5, 1.0], "2": [3.0, 1.0], "3": [4.5, 1.0]}},
        )
        monkeypatch.setattr(scenarios, "build_adversary", lambda _config: Naming([0, 1, 3, 2, 2]))
        trace = simulate(config)
        assert [rec.byz_sent for rec in trace.rounds] == [[(3, 2, 3.0)]] * 6
        write_trace(trace, tmp_path / "trace.jsonl")
        assert main(["check", "--trace", str(tmp_path / "trace.jsonl")]) == 0
        assert capsys.readouterr().err == ""

    def test_budget_enforced_at_config_level(self):
        config = builtin_scenario("lemma2_3f_impossible")
        config.adversary = dict(config.adversary, byz_set=[1, 2])
        with pytest.raises(ConfigError, match="2 faulty nodes exceed the bound f=1"):
            config.validate()


class TestCardinalityInRuns:
    @pytest.mark.parametrize(
        "name",
        ["lemma2_3f_impossible", "necessity_improper_mix", "stale_log_overshoot"],
    )
    def test_correct_nodes_never_hear_more_than_f_faulty_senders(self, name):
        trace = simulate(builtin_scenario(name))
        f = trace.params.f
        heard: dict[int, set[int]] = {}
        for rec in trace.rounds:
            for sender, receiver, _value in rec.delivered:
                if sender in trace.byz_set and receiver not in trace.byz_set:
                    heard.setdefault(receiver, set()).add(sender)
        assert all(len(senders) <= f for senders in heard.values())


def test_faulty_nodes_move_with_the_same_mobility_model():
    config = ScenarioConfig(
        name="moving-byz",
        n=3,
        f=1,
        r_c=1,
        epsilon=0.1,
        max_rounds=5,
        arena=(8.0, 8.0),
        radius=2.0,
        mobility={"model": "teleport-random"},
        adversary={"strategy": "silent", "byz_set": [2]},
        initial_values={"mode": "uniform", "range": [0.0, 1.0]},
        seed=11,
    )
    trace = simulate(config)
    positions = [rec.positions[2] for rec in trace.rounds]
    assert len(set(positions)) > 1
