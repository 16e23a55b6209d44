"""Mobility models, disk graphs and their reuse while no node moves, lossy delivery, joint neighbor sets."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from agreesim import harness
from agreesim.dynamics import (
    Arena,
    RandomWaypoint,
    RoundGraph,
    Scripted,
    Stationary,
    TeleportRandom,
    build_round_graph,
    deliver,
    move_step,
)
from agreesim.analysis import joint_neighbor_set
from agreesim.errors import ConfigError, TraceError
from agreesim.harness import _delivered, simulate, substream
from agreesim.scenarios import LIBRARY, ScenarioConfig, builtin_scenario
from agreesim.trace import _encode_rounds
from reference import reference_deliver, reference_receivers, reference_simulate, trace_bytes
from test_acceptance import random_scenario

ARENA = Arena(10.0, 10.0)


class TestMobility:
    def test_stationary_is_identity(self):
        positions = {0: (1.0, 2.0), 1: (3.0, 4.0)}
        assert move_step(positions, Stationary(), random.Random(0), 1) == positions

    def test_scripted_path_replays_in_order(self):
        stops = [(3.0, 5.0), (3.0, 5.0), (5.0, 5.0), (7.0, 5.0)]
        model = Scripted(ARENA, {0: stops})
        positions = {0: (1.0, 5.0), 1: (9.0, 9.0)}
        seen = []
        for r in range(1, 6):
            positions = move_step(positions, model, random.Random(0), r)
            seen.append(positions[0])
            assert positions[1] == (9.0, 9.0)
        assert seen == stops + [stops[-1]]

    def test_scripted_rejects_waypoint_outside_arena(self):
        with pytest.raises(ConfigError):
            Scripted(ARENA, {0: [(11.0, 5.0)]})

    def test_random_waypoint_replays_with_same_seed(self):
        def trajectory():
            model = RandomWaypoint(ARENA, 0.5, 2.0)
            positions = {i: (5.0, 5.0) for i in range(4)}
            out = []
            for r in range(1, 30):
                positions = move_step(positions, model, substream(42, "move", r), r)
                out.append(dict(positions))
            return out

        first, second = trajectory(), trajectory()
        assert first == second
        for snapshot in first:
            for pos in snapshot.values():
                assert ARENA.contains(pos)

    def test_random_waypoint_actually_moves(self):
        model = RandomWaypoint(ARENA, 0.5, 2.0)
        positions = {0: (5.0, 5.0)}
        moved = move_step(positions, model, random.Random(7), 1)
        assert moved[0] != positions[0]

    def test_teleport_random_stays_in_arena_and_replays(self):
        positions = {i: (0.0, 0.0) for i in range(5)}
        a = move_step(positions, TeleportRandom(ARENA), random.Random(3), 1)
        b = move_step(positions, TeleportRandom(ARENA), random.Random(3), 1)
        assert a == b
        assert all(ARENA.contains(p) for p in a.values())


class TestRoundGraph:
    def test_within_range_gives_both_directions(self):
        g = build_round_graph({0: (0.0, 0.0), 1: (0.9, 0.0)}, 1.0)
        assert g.edges == [(0, 1), (1, 0)]

    def test_out_of_range_gives_no_edges(self):
        g = build_round_graph({0: (0.0, 0.0), 1: (1.1, 0.0)}, 1.0)
        assert g.edges == []

    def test_collinear_chain_at_exact_radius(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}
        g = build_round_graph(positions, 1.0)
        assert g.edges == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_no_self_edges(self):
        g = build_round_graph({0: (0.0, 0.0), 1: (0.0, 0.0)}, 1.0)
        assert all(a != b for a, b in g.edges)

    @given(
        # Half-unit grid points: nodes often coincide or sit exactly one
        # radius apart (e.g. a 1.5-2-2.5 triangle), in no particular id order.
        coords=st.dictionaries(
            st.integers(0, 40), st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=12
        ),
        radius=st.sampled_from([0.5, 1.0, 2.5, math.sqrt(2.0), 4.0]),
    )
    def test_out_neighbors_lists_each_senders_receivers_in_id_order(self, coords, radius):
        positions = {i: (x / 2.0, y / 2.0) for i, (x, y) in coords.items()}
        graph = build_round_graph(positions, radius)
        expected = reference_receivers(positions, radius)
        for j in range(41):  # ids without a position hear and reach no one
            assert list(graph.out_neighbors(j)) == expected.get(j, [])
        assert graph.edges == sorted((j, k) for j, ks in expected.items() for k in ks)

    def test_out_neighbors_of_a_hand_built_asymmetric_graph(self):
        graph = RoundGraph(receivers={0: [1]})
        assert graph.out_neighbors(0) == [1]
        assert graph.out_neighbors(1) == ()
        assert graph.out_neighbors(2) == ()


def full_graph(ids):
    return RoundGraph(receivers={i: [j for j in ids if j != i] for i in ids})


def assert_matches_rebuilt_graphs(config):
    """``simulate`` gives the records and bytes of a run that rebuilds every round graph.

    A forked encoder batch may start at any round, so encoding the rounds
    in two batches must give the same bytes too.
    """
    trace, expected = simulate(config), reference_simulate(config)
    assert trace.rounds == expected.rounds
    assert trace.final_values == expected.final_values
    lines = trace_bytes(trace)
    assert lines == trace_bytes(expected)
    rounds = b"".join(lines.splitlines(keepends=True)[1:-1])
    for cut in range(len(trace.rounds) + 1):
        assert _encode_rounds(trace.rounds[:cut]) + _encode_rounds(trace.rounds[cut:]) == rounds
    return trace


def scripted(config, waypoints, **changes):
    """``config`` with scripted mobility: ``waypoints`` maps node ids to lists of points."""
    mobility = {"model": "scripted",
                "waypoints": {str(i): [list(p) for p in path] for i, path in waypoints.items()}}
    return dataclasses.replace(config, mobility=mobility, **changes)


def counting_graphs(monkeypatch) -> list:
    """The round of each round graph ``simulate`` builds from then on, in order.

    The round is the one the last ``move_step`` was called for.
    """
    built, moved = [], [None]
    real_move, real_build = harness.move_step, harness.build_round_graph

    def move(positions, model, rng, r):
        moved[0] = r
        return real_move(positions, model, rng, r)

    def build(*args):
        built.append(moved[0])
        return real_build(*args)

    monkeypatch.setattr(harness, "move_step", move)
    monkeypatch.setattr(harness, "build_round_graph", build)
    return built


# Each in the 6 x 6 arena of ``random_scenario``; the first two are equal
# as numbers, yet they encode apart.
POINTS = [(-0.0, 1.0), (0.0, 1.0), (1.0, 1.0), (2.5, 1.0), (4.0, 4.0), (6.0, 6.0)]

LINE = ScenarioConfig(
    name="line", n=4, f=0, r_c=2, epsilon=0.01, max_rounds=8, arena=(6.0, 6.0), radius=1.6,
    initial_values={"mode": "explicit", "values": [0.0, 1.0, 2.0, 3.0]},
    initial_positions={"mode": "explicit",
                       "coords": {"0": [0.0, 1.0], "1": [1.5, 1.0], "2": [3.0, 1.0], "3": [4.5, 1.0]}},
)


class TestRoundGraphReuse:
    """A round in which no node moved reuses the last round graph, edge list and position map."""

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_builtin_matches_rebuilt_graphs(self, name):
        assert_matches_rebuilt_graphs(builtin_scenario(name))

    @settings(max_examples=60, deadline=None)
    @given(i=st.integers(0, 199), data=st.data())
    def test_stationary_and_scripted_runs_match_rebuilt_graphs(self, i, data):
        config = dataclasses.replace(random_scenario(i), mobility={"model": "stationary"})
        if data.draw(st.booleans(), label="scripted"):
            paths = st.lists(st.sampled_from(POINTS), max_size=config.max_rounds + 2)
            nodes = st.sampled_from(range(config.n))
            config = scripted(config, data.draw(st.dictionaries(nodes, paths), label="waypoints"))
        assert_matches_rebuilt_graphs(config)

    def test_script_that_ends_mid_run(self, monkeypatch):
        built = counting_graphs(monkeypatch)
        config = scripted(LINE, {0: [(0.0, 3.0), (1.5, 2.0), (3.0, 2.0)]})
        rounds = assert_matches_rebuilt_graphs(config).rounds
        assert built == [1, 2, 3]
        assert rounds[2].edges != rounds[1].edges
        for rec in rounds[3:]:
            assert rec.edges is rounds[2].edges and rec.positions is rounds[2].positions

    def test_one_node_moving_while_the_rest_hold(self, monkeypatch):
        built = counting_graphs(monkeypatch)
        path = [(x / 2.0, 2.0) for x in range(LINE.max_rounds)]
        rounds = assert_matches_rebuilt_graphs(scripted(LINE, {3: path})).rounds
        assert built == list(range(1, LINE.max_rounds + 1))
        assert len({id(rec.positions) for rec in rounds}) == len(rounds)
        assert all(rec.positions[1] is rounds[0].positions[1] for rec in rounds)

    def test_negative_zero_to_zero_is_a_move(self):
        config = scripted(LINE, {0: [(-0.0, 1.0), (0.0, 1.0)]}, max_rounds=3)
        trace = assert_matches_rebuilt_graphs(config)
        first, second, third = trace.rounds
        assert second.positions is not first.positions and third.positions is second.positions
        assert math.copysign(1.0, first.positions[0][0]) == -1.0
        assert math.copysign(1.0, second.positions[0][0]) == 1.0
        lines = trace_bytes(trace).decode().splitlines()
        assert '"0":[-0.0,1.0]' in lines[1]
        assert '"0":[0.0,1.0]' in lines[2] and '"0":[0.0,1.0]' in lines[3]

    def test_stationary_run_builds_one_graph_and_shares_it(self, monkeypatch):
        built = counting_graphs(monkeypatch)
        trace = simulate(dataclasses.replace(random_scenario(0), max_rounds=30))
        assert built == [1]
        assert len({id(rec.edges) for rec in trace.rounds}) == 1
        assert len({id(rec.positions) for rec in trace.rounds}) == 1
        assert [rec.round for rec in trace.rounds] == list(range(1, 31))

    def test_waypoint_run_builds_one_graph_per_round(self, monkeypatch):
        built = counting_graphs(monkeypatch)
        config = random_scenario(1)
        assert config.mobility["model"] == "random-waypoint"
        trace = simulate(config)
        assert built == [rec.round for rec in trace.rounds]
        assert len({id(rec.positions) for rec in trace.rounds}) == trace.last_round


class TestDeliver:
    def test_lossless_delivers_everything(self):
        g = full_graph([0, 1, 2])
        outbox = [(0, 1, 5.0), (0, 2, 5.0), (1, 0, 7.0)]
        inboxes = deliver(g, outbox, 0.0, random.Random(0))
        assert inboxes == {1: [(0, 1, 5.0)], 2: [(0, 2, 5.0)], 0: [(1, 0, 7.0)]}

    def test_total_loss_delivers_nothing(self):
        g = full_graph([0, 1])
        assert deliver(g, [(0, 1, 5.0)], 1.0, random.Random(0)) == {}

    def test_loss_rate_matches_long_run_fraction(self):
        g = full_graph([0, 1])
        rng = random.Random(12345)
        delivered = 0
        for _ in range(10_000):
            delivered += len(deliver(g, [(0, 1, 1.0)], 0.5, rng))
        assert abs(delivered / 10_000 - 0.5) <= 0.02


@st.composite
def delivery_rounds(draw):
    """A round graph on ids 0-5 and, in any order, one message along each of some of its edges."""
    ids = range(6)
    receivers = {
        j: sorted(draw(st.sets(st.sampled_from([k for k in ids if k != j]))))
        for j in draw(st.sets(st.sampled_from(ids)))
    }
    edges = [(j, k) for j in receivers for k in receivers[j]]
    sent = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    outbox = draw(st.permutations([(j, k, draw(st.floats(-2.0, 2.0))) for j, k in sent]))
    return RoundGraph(receivers=receivers), outbox


class TestDeliverMatchesReference:
    @given(delivery_rounds(), st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2**32))
    def test_same_inboxes_draws_and_errors(self, round_, loss_rate, seed):
        graph, outbox = round_
        expected_rng, rng = random.Random(seed), random.Random(seed)
        expected = reference_deliver(graph, outbox, loss_rate, expected_rng)
        inboxes = deliver(graph, outbox, loss_rate, rng)
        assert inboxes == expected and list(inboxes) == list(expected)
        assert rng.getstate() == expected_rng.getstate()
        assert _delivered(inboxes) == sorted(m for msgs in inboxes.values() for m in msgs)


class TestJointNeighborSet:
    def test_isolated_node_has_empty_set(self):
        trace = simulate(builtin_scenario("necessity_f_proper"))
        # Node 4 is faulty and isolated; probe a correct node's view instead:
        # every correct node hears exactly its two ring neighbors.
        assert joint_neighbor_set(trace, 0, 1) == {1, 2}

    def test_accumulates_across_rounds_without_reset(self):
        trace = simulate(builtin_scenario("fig1_scripted_path"))
        # The wanderer hears station 1 in rounds 1-2 and station 2 in round 3.
        assert joint_neighbor_set(trace, 0, 1) == {1}
        assert joint_neighbor_set(trace, 0, 2) == {1}
        assert joint_neighbor_set(trace, 0, 3) == {1, 2}

    def test_reset_after_compute_narrows_window(self):
        trace = simulate(builtin_scenario("fig1_scripted_path"))
        # Node 0 computes during round 3; at round 4 only round-4 deliveries count.
        assert trace.rounds[2].computed[0]
        assert joint_neighbor_set(trace, 0, 4) == {3}

    def test_out_of_range_round_raises(self):
        trace = simulate(builtin_scenario("fig1_scripted_path"))
        with pytest.raises(TraceError):
            joint_neighbor_set(trace, 0, trace.last_round + 1)

    def test_faulty_node_raises(self):
        trace = simulate(builtin_scenario("necessity_f_proper"))
        assert 4 in trace.byz_set
        with pytest.raises(TraceError, match="node 4 is not a correct node"):
            joint_neighbor_set(trace, 4, 1)

    @pytest.mark.parametrize(
        "name", ["fully_connected_baseline", "fig1_scripted_path", "stale_log_overshoot"]
    )
    def test_matches_log_senders_every_round(self, name):
        # The analyzer's window reconstruction must agree with the log the
        # node actually held (post-merge) at every round.
        trace = simulate(builtin_scenario(name))
        for r in range(1, trace.last_round + 1):
            record = trace.rounds[r - 1]
            for i in record.values_start:
                assert joint_neighbor_set(trace, i, r) == set(record.logs[i])
