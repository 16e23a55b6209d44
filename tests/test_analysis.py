"""Trace checkers: range guarantees, groups, condition, convergence, progress."""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from agreesim.analysis import (
    Group,
    PhaseBounds,
    Walk,
    check_condition,
    check_convergence,
    check_legality,
    check_phase_progress,
    check_safety,
    check_validity,
    classify_value,
    condition_report,
    is_proper,
    joint_neighbor_set,
    retained_values,
    spread_series,
)
from agreesim.errors import AnalysisError, ConfigError
from agreesim.harness import build_report, run_scenario, simulate, sweep
from agreesim.protocol import NodeState, ProtocolParams, step_round
from agreesim.scenarios import LIBRARY, ScenarioConfig, builtin_scenario
from agreesim.trace import RoundRecord, Trace
from reference import (
    common_starts,
    groups_converged,
    legal_reference_round,
    phase_bounds,
    phase_of,
    reference_build_report,
    report_text,
    reference_check_condition,
    reference_check_legality,
    reference_check_safety,
    reference_check_validity,
    reference_classify_value,
    reference_is_proper,
    reference_joint_neighbor_set,
    reference_retained_values,
    spread,
    trace_phases,
    v_max,
    v_min,
    validate_witness,
    walked,
)
from test_acceptance import random_scenario
from test_harness import golden_waypoint_n40


def make_round(r, values, delivered, local_start, logs=None, computed=None, byz_sent=None):
    edges = sorted({(s, t) for s, t, _ in delivered} | {(t, s) for s, t, _ in delivered})
    return RoundRecord(
        round=r,
        positions={i: (0.0, 0.0) for i in values},
        edges=edges,
        byz_sent=byz_sent or [],
        delivered=sorted(delivered),
        values_start=dict(values),
        local_start=dict(local_start),
        logs=logs or {i: {} for i in values},
        computed=computed or {i: False for i in values},
    )


class TestLegalReferenceRound:
    @pytest.mark.parametrize(
        "r,r_c,d",
        [(1, 4, 1), (6, 4, 5), (9, 4, 5), (4, 4, 1), (5, 4, 1), (2, 1, 1), (3, 1, 2)],
    )
    def test_examples(self, r, r_c, d):
        assert legal_reference_round(r, r_c) == d

    @given(r=st.integers(1, 500), r_c=st.integers(1, 8))
    def test_reference_is_the_right_phase_start(self, r, r_c):
        d = legal_reference_round(r, r_c)
        assert d >= 1
        assert (d - 1) % r_c == 0
        if r == 1:
            assert d == 1
        elif (r - 1) % r_c != 0:
            # Mid-phase rounds answer to their own phase start.
            assert d == r - (r - 1) % r_c
        else:
            # Phase-opening rounds answer to the previous phase start.
            assert d == r - r_c


class TestRangeChecks:
    def test_honest_runs_have_no_violations(self):
        for name in ("fully_connected_baseline", "lemma2_3f_impossible",
                     "stale_log_overshoot"):
            walk = walked(simulate(builtin_scenario(name)))
            assert check_validity(walk).ok
            assert check_legality(walk).ok
            assert check_safety(walk).ok

    def test_single_node_trivially_legal(self):
        config = ScenarioConfig(
            name="solo", n=1, f=0, r_c=1, epsilon=0.1, max_rounds=5,
            initial_values={"mode": "explicit", "values": [3.0]}, seed=1,
        )
        walk = walked(simulate(config))
        assert check_validity(walk).ok and check_legality(walk).ok

    def test_over_budget_fakes_defeat_the_protocol_and_are_detected(self):
        # Two fake senders against f=1: the trim cannot protect the victim,
        # and the checkers must flag the escaped value.
        params = ProtocolParams(n=4, f=1, r_c=1, epsilon=1.0)
        victim = NodeState(id=0, value=5.0)
        result = step_round(victim, [(2, 100.0), (3, 100.0)], 1, params)
        assert result.state.value == 52.5

        trace = Trace(
            params=params,
            byz_set={2, 3},
            initial_values={0: 5.0, 1: 5.0},
            rounds=[
                make_round(
                    1,
                    values={0: 5.0, 1: 5.0},
                    delivered=[(2, 0, 100.0), (3, 0, 100.0)],
                    local_start={0: 1, 1: 1},
                    logs={0: {2: (100.0, 1), 3: (100.0, 1)}, 1: {}},
                    computed={0: True, 1: False},
                    byz_sent=[(2, 0, 100.0), (3, 0, 100.0)],
                )
            ],
            final_values={0: result.state.value, 1: 5.0},
        )
        walk = walked(trace)
        validity = check_validity(walk)
        legality = check_legality(walk)
        assert not validity.ok and not legality.ok
        assert validity.violations[0].node == 0 and validity.violations[0].round == 2
        assert not check_safety(walk).ok

    def test_mid_phase_overshoot_keeps_safety(self):
        # Retained old values can push a node above the current maximum, so
        # per-round envelopes fail mid-phase while phase-start envelopes hold.
        trace = simulate(builtin_scenario("stale_log_overshoot"))
        assert v_max(trace, 4) > v_max(trace, 3)
        walk = walked(trace)
        assert check_safety(walk).ok
        assert check_legality(walk).ok

    def test_per_round_envelopes_monotone_when_window_is_one(self):
        trace = simulate(builtin_scenario("fully_connected_baseline"))
        assert trace.params.r_c == 1
        for r in range(1, trace.last_round + 1):
            assert v_max(trace, r + 1) <= v_max(trace, r)
            assert v_min(trace, r + 1) >= v_min(trace, r)


def values_trace(vectors, r_c):
    """Trace whose rounds carry only round-start values; the last vector is final."""
    n = len(vectors[0])
    return Trace(
        params=ProtocolParams(n=n, f=0, r_c=r_c, epsilon=1.0),
        byz_set=set(),
        initial_values=dict(vectors[0]),
        rounds=[
            make_round(r, vectors[r - 1], [], {i: (r - 1) // r_c * r_c + 1 for i in vectors[0]})
            for r in range(1, len(vectors))
        ],
        final_values=dict(vectors[-1]),
    )


@st.composite
def small_value_traces(draw):
    # Few distinct integer values, so ties and widening phase starts are common.
    n = draw(st.integers(1, 4))
    rounds = draw(st.integers(1, 9))
    r_c = draw(st.integers(1, 4))
    value = st.integers(0, 4).map(float)
    vectors = [{i: draw(value) for i in range(n)} for _ in range(rounds + 1)]
    return values_trace(vectors, r_c)


class TestSafetyOracle:
    @given(trace=small_value_traces())
    def test_matches_quadratic_reference(self, trace):
        got, want = check_safety(walked(trace)), reference_check_safety(trace)
        pairs = [(v.node, v.round) for v in got.violations]
        assert got.ok == want.ok
        assert set(pairs) == {(v.node, v.round) for v in want.violations}
        assert len(pairs) == len(set(pairs))

    def test_widening_phase_start_fails_against_an_earlier_start(self):
        # Round 2 opens a phase whose envelope [0, 3] contains its own
        # values, but 3 lies outside round 1's envelope [0, 2].
        trace = values_trace([{0: 0.0, 1: 2.0}, {0: 0.0, 1: 3.0}, {0: 1.0, 1: 1.0}], r_c=1)
        result = check_safety(walked(trace))
        assert not result.ok
        assert {(v.node, v.round) for v in result.violations} == {(1, 2)}


BOUNDS = PhaseBounds(phase=0, start_round=1, v_min=0.0, v_max=10.0, delta=1.0)


class TestGroups:
    @pytest.mark.parametrize(
        "value,group",
        [
            (0.0, Group.MIN),
            (0.5, Group.NIN),
            (5.0, Group.MID),
            (1.0, Group.MID),
            (9.0, Group.MID),
            (9.5, Group.NAX),
            (10.0, Group.MAX),
        ],
    )
    def test_correct_interval_membership(self, value, group):
        assert classify_value(value, BOUNDS) is group

    def test_degenerate_range_collapses_to_min(self):
        config = ScenarioConfig(
            name="flat", n=2, f=0, r_c=1, epsilon=0.5, max_rounds=2, radius=5.0,
            initial_values={"mode": "explicit", "values": [5.0, 5.0]}, seed=1,
        )
        trace = simulate(config)
        bounds = phase_bounds(trace, 0, 0.25)
        assert bounds.collapsed
        assert all(classify_value(v, bounds) is Group.MIN for v in trace.values_at(1).values())
        assert spread_series(trace, 0.25)[0]["c_min"] == 2

    def test_partition_of_correct_nodes(self):
        trace = simulate(builtin_scenario("fully_connected_baseline"))
        row = spread_series(trace, 0.05)[0]
        counts = [row[c] for c in ("c_min", "c_nin", "c_mid", "c_nax", "c_max")]
        assert counts == [1, 0, 2, 0, 1]  # values 0, 1, 2, 3

    def test_delta_out_of_range_rejected(self):
        trace = simulate(builtin_scenario("fully_connected_baseline"))
        with pytest.raises(ConfigError):
            spread_series(trace, 0.5)  # epsilon=0.1 caps delta at 0.05

    @given(
        values=st.lists(st.integers(0, 40).map(lambda i: i / 4.0), min_size=2, max_size=9),
        delta=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_tags_match_unique_interval_when_spread_is_wide(self, values, delta):
        lo, hi = min(values), max(values)
        if hi - lo < 2 * delta:
            return
        bounds = PhaseBounds(0, 1, lo, hi, delta)
        for v in values:
            memberships = []
            if v == lo:
                memberships.append(Group.MIN)
            elif v == hi:
                memberships.append(Group.MAX)
            elif lo + delta <= v <= hi - delta:
                memberships.append(Group.MID)
            elif lo < v < lo + delta:
                memberships.append(Group.NIN)
            else:
                memberships.append(Group.NAX)
            assert [classify_value(v, bounds)] == memberships


class TestProperValues:
    def test_boundary_is_inclusive(self):
        assert is_proper(1.0, Group.MIN, BOUNDS)

    def test_below_threshold_is_not_proper(self):
        assert not is_proper(0.5, Group.MIN, BOUNDS)

    def test_fake_value_can_be_proper(self):
        assert is_proper(-50.0, Group.MAX, BOUNDS)

    def test_only_extreme_observers_make_sense(self):
        with pytest.raises(AnalysisError):
            is_proper(5.0, Group.MID, BOUNDS)

    @given(
        v=st.integers(-20, 20).map(float),
        bump=st.integers(1, 10).map(float),
    )
    def test_properness_is_upward_closed_for_min_observers(self, v, bump):
        if is_proper(v, Group.MIN, BOUNDS):
            assert is_proper(v + bump, Group.MIN, BOUNDS)
        if is_proper(v, Group.MAX, BOUNDS):
            assert is_proper(v - bump, Group.MAX, BOUNDS)

    @settings(max_examples=500)
    @given(
        lo=st.floats(allow_nan=False, allow_infinity=False),
        hi=st.floats(allow_nan=False, allow_infinity=False),
        delta=st.floats(min_value=5e-324, allow_infinity=False),
        ulps=st.integers(-2, 2),
    )
    @example(lo=0.1, hi=2.0, delta=0.5, ulps=0)  # 0.1 + 0.5 rounds down to 0.6
    @example(lo=-1.7e308, hi=1.7e308, delta=1.0, ulps=0)  # fsum overflows
    @example(lo=-1.7e308, hi=1.7e308, delta=1.7e308, ulps=1)
    def test_bounds_are_exact_at_the_rounded_boundaries(self, lo, hi, delta, ulps):
        lo, hi = min(lo, hi), max(lo, hi)
        bounds = PhaseBounds(0, 1, lo, hi, delta)
        for rounded in (lo + delta, hi - delta):
            v = rounded
            for _ in range(abs(ulps)):
                v = math.nextafter(v, math.copysign(math.inf, ulps))
            if not math.isfinite(v):
                continue
            for group in (Group.MIN, Group.MAX):
                assert is_proper(v, group, bounds) == reference_is_proper(v, group, bounds)
            assert classify_value(v, bounds) is reference_classify_value(v, bounds)


class TestGroupDetector:
    # Eighths keep every difference exact; on tenths the two tests differ
    # by rounding, e.g. for 0.9 and 1.9.
    @given(values=st.lists(st.integers(0, 80).map(lambda i: i / 8.0), min_size=1, max_size=8))
    def test_matches_spread_test_at_half_epsilon(self, values):
        epsilon = 1.0
        vals = dict(enumerate(values))
        spread_says = (max(values) - min(values)) < epsilon
        assert groups_converged(vals, epsilon / 2.0) == spread_says

    @given(
        values=st.lists(st.integers(0, 100).map(lambda i: i / 10.0), min_size=1, max_size=8),
        delta=st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5]),
    )
    def test_detector_is_sound_for_any_valid_delta(self, values, delta):
        epsilon = 1.0
        vals = dict(enumerate(values))
        if groups_converged(vals, delta):
            assert max(values) - min(values) < epsilon


class TestConvergence:
    def test_equal_initials_converge_at_round_one(self):
        config = ScenarioConfig(
            name="flat", n=3, f=0, r_c=2, epsilon=0.5, max_rounds=4, radius=20.0,
            initial_values={"mode": "explicit", "values": [1.0, 1.0, 1.0]}, seed=1,
        )
        result = check_convergence(walked(simulate(config)))
        assert result.reached and result.at_round == 1

    def test_sub_epsilon_gap_counts_as_converged(self):
        config = ScenarioConfig(
            name="close", n=2, f=0, r_c=1, epsilon=1.0, max_rounds=3, radius=20.0,
            initial_values={"mode": "explicit", "values": [0.0, 0.5]}, seed=1,
        )
        result = check_convergence(walked(simulate(config)))
        assert result.reached and result.at_round == 1

    def test_mid_phase_dip_is_not_convergence(self):
        # Spread dips under epsilon at round 3 and rebounds by round 4;
        # only phase starts count, so no convergence is reported.
        trace = simulate(builtin_scenario("stale_log_overshoot"))
        eps = trace.params.epsilon
        assert spread(trace, 3) < eps
        assert spread(trace, 4) >= eps
        assert 3 not in common_starts(trace)
        assert not check_convergence(walked(trace)).reached

    def test_spread_within_an_ulp_of_epsilon_converges_in_run_and_sweep(self):
        # spread = 0.0004999999999997229 < epsilon, but rounding makes
        # hi - eps/2 < lo + eps/2 false: only the spread test decides.
        config = ScenarioConfig(
            name="ulp", n=2, f=0, r_c=1, epsilon=0.0005, max_rounds=3, radius=1.0,
            initial_values={
                "mode": "explicit", "values": [2.5870580960129796, 2.5875580960129794],
            },
            initial_positions={"mode": "explicit", "coords": {"0": [1, 1], "1": [8, 8]}},
            seed=1,
        )
        result = check_convergence(walked(simulate(config)))
        assert result.reached and result.at_round == 1
        [cell] = sweep(config, {}, [1])
        assert cell.failures == 0 and cell.converged_rate == 1.0

    def test_convergence_is_stable_once_reached(self):
        trace = simulate(builtin_scenario("fully_connected_baseline"))
        result = check_convergence(walked(trace))
        assert result.reached
        eps = trace.params.epsilon
        for r in range(result.at_round, trace.last_round + 2):
            assert spread(trace, r) < eps


def all_verdicts(trace, delta):
    return check_condition(walked(trace, delta))


class TestCondition:
    @pytest.mark.parametrize("name", sorted(LIBRARY) + ["golden_waypoint_n40"])
    def test_baseline_satisfied_every_open_phase(self, name):
        # Every builtin feeds the witness oracle; only the baseline must
        # satisfy every open phase.
        config = golden_waypoint_n40() if name == "golden_waypoint_n40" else builtin_scenario(name)
        trace = simulate(config)
        verdicts = all_verdicts(trace, config.effective_delta)
        non_vacuous = [v for v in verdicts if not v.vacuous]
        if name == "fully_connected_baseline":
            assert condition_report([v.satisfied for v in verdicts], 1)
            assert non_vacuous, "expected phases with spread still open"
            assert all(v.satisfied for v in non_vacuous)
        for verdict in non_vacuous:
            if verdict.satisfied:
                assert validate_witness(trace, verdict, config.effective_delta)

    def test_minimal_population_with_live_fault_still_satisfies(self):
        # n = 3f+1 with the faulty node actually present but silent: the
        # three correct values alone provide f+1 proper senders.
        config = ScenarioConfig(
            name="minimal", n=4, f=1, r_c=1, epsilon=0.1, max_rounds=20, radius=20.0,
            adversary={"strategy": "silent", "byz_set": [3]},
            initial_values={"mode": "explicit", "values": [0.0, 1.0, 2.0]},
            seed=13,
        )
        trace = simulate(config)
        assert condition_report([v.satisfied for v in all_verdicts(trace, 0.05)], 1)
        assert check_convergence(walked(trace)).reached

    def test_a_value_at_the_rounded_bound_is_not_proper(self):
        # Node 0 holds the minimum 0.1 and hears node 2's 2.0 and the faulty
        # node 3's 0.6, which is 0.1 + 0.5 rounded down: 0.6 - 0.1 < 0.5 over
        # the reals. The maximum holder 2 hears only node 0; node 1 hears no one.
        config = ScenarioConfig(
            name="rounded_bound", n=4, f=1, r_c=1, epsilon=1.0, max_rounds=1, radius=1.0,
            adversary={"strategy": "scripted", "table": {"*": {"0": 0.6}}, "byz_set": [3]},
            initial_values={"mode": "explicit", "values": [0.1, 1.0, 2.0]},
            initial_positions={"mode": "explicit", "coords": {
                "0": [2.0, 5.0], "1": [8.0, 8.0], "2": [1.0, 5.0], "3": [3.0, 5.0]}},
            seed=1,
        )
        assert 0.1 + 0.5 == 0.6
        trace, report = run_scenario(config)
        assert trace.rounds[0].delivered == [(0, 2, 0.1), (0, 3, 0.1), (2, 0, 2.0), (3, 0, 0.6)]
        [verdict] = report.condition_per_phase
        assert not verdict.vacuous and not verdict.satisfied

    def test_short_population_never_satisfies(self):
        trace = simulate(builtin_scenario("lemma2_3f_impossible"))
        flags = [v.satisfied for v in all_verdicts(trace, 0.5)]
        assert not any(flags)
        assert not condition_report(flags, 1)
        assert not condition_report(flags, 3)

    def test_witness_names_the_proper_senders(self):
        trace = simulate(builtin_scenario("fully_connected_baseline"))
        verdict = all_verdicts(trace, 0.05)[0]
        assert verdict.satisfied and not verdict.vacuous
        w = verdict.witness
        assert w.node == 0  # the minimum holder
        assert len(w.senders) >= trace.params.f + 1
        retained = trace.rounds[w.round - 1].logs[w.node]
        for sender in w.senders:
            assert retained[sender][0] >= v_min(trace, 1) + 0.05

    def test_vacuous_once_spread_closes(self):
        trace = simulate(builtin_scenario("fully_connected_baseline"))
        converged_at = check_convergence(walked(trace)).at_round
        k = phase_of(trace, converged_at)
        verdict = all_verdicts(trace, 0.05)[k]
        assert verdict.phase == k and verdict.satisfied and verdict.vacuous

    def test_phase_beyond_trace_rejected(self):
        # The walk gives a verdict for each phase the rounds open and none
        # beyond; the rescan oracle rejects a phase beyond the trace.
        trace = simulate(builtin_scenario("fully_connected_baseline"))
        assert [v.phase for v in all_verdicts(trace, 0.05)] == trace_phases(trace)
        with pytest.raises(AnalysisError):
            reference_check_condition(trace, 100, 0.05)


def with_moved_local_starts(trace, seed):
    """A copy of ``trace`` with about 30% of its local_start entries moved within their phase.

    A start may lie anywhere from its round's phase start through the round:
    the reader rejects an earlier one, as every run resets starts at the
    phase start.
    """
    rng = random.Random(seed)
    r_c = trace.params.r_c
    rounds = [
        dataclasses.replace(rec, local_start={
            i: rng.randint((rec.round - 1) // r_c * r_c + 1, rec.round)
            if rng.random() < 0.3 else start
            for i, start in rec.local_start.items()
        })
        for rec in trace.rounds
    ]
    return dataclasses.replace(trace, rounds=rounds)


def assert_walk_matches_rescan(trace, delta):
    """The walk gives every rescan oracle's answer: window views, range checks, report."""
    for rec in trace.rounds:
        for i in rec.local_start:
            r = rec.round
            assert joint_neighbor_set(trace, i, r) == reference_joint_neighbor_set(trace, i, r)
            assert retained_values(trace, i, r) == reference_retained_values(trace, i, r)
    walk = Walk(trace, delta)
    report = build_report(trace, walk)
    assert check_validity(walk) == reference_check_validity(trace)
    assert check_legality(walk) == reference_check_legality(trace)
    assert check_safety(walk) == reference_check_safety(trace)
    want = reference_build_report(trace, delta)
    assert report == want
    assert report_text(report) == report_text(want)


class TestWindowWalk:
    @settings(max_examples=100, deadline=None)
    @given(i=st.integers(0, 199), seed=st.integers(0, 2**32 - 1),
           quarter=st.booleans())
    def test_random_runs_match_the_rescan(self, i, seed, quarter):
        config = random_scenario(i)
        delta = config.epsilon / 4 if quarter else config.effective_delta
        trace = simulate(config)
        assert_walk_matches_rescan(trace, delta)
        assert_walk_matches_rescan(with_moved_local_starts(trace, seed), delta)

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_builtins_match_the_rescan_at_several_windows(self, name):
        for r_c in (1, 2, 3, 5):
            config = dataclasses.replace(builtin_scenario(name), r_c=r_c)
            trace = simulate(config)
            assert_walk_matches_rescan(trace, config.effective_delta)
            for seed in range(3):
                assert_walk_matches_rescan(with_moved_local_starts(trace, seed),
                                           config.effective_delta)


class TestPhaseProgress:
    def test_single_node_passes_vacuously(self):
        config = ScenarioConfig(
            name="solo", n=1, f=0, r_c=1, epsilon=0.1, max_rounds=5,
            initial_values={"mode": "explicit", "values": [3.0]}, seed=1,
        )
        report = check_phase_progress(walked(simulate(config), 0.05))
        assert report.ok and report.max_stagnant_streak == 0

    def test_baseline_makes_progress(self):
        trace = simulate(builtin_scenario("fully_connected_baseline"))
        report = check_phase_progress(walked(trace, 0.05))
        assert report.ok

    def test_stagnant_trace_is_flagged(self):
        # Synthetic trace from a (hypothetical) broken implementation: the
        # condition holds every phase yet nothing ever moves.
        params = ProtocolParams(n=2, f=0, r_c=1, epsilon=1.0)
        values = {0: 0.0, 1: 10.0}
        rounds = [
            make_round(
                r,
                values=values,
                delivered=[(1, 0, 10.0), (0, 1, 0.0)],
                local_start={0: r, 1: r},
                logs={0: {1: (10.0, r)}, 1: {0: (0.0, r)}},
            )
            for r in range(1, 4)
        ]
        trace = Trace(
            params=params,
            byz_set=set(),
            initial_values=values,
            rounds=rounds,
            final_values=dict(values),
        )
        report = check_phase_progress(walked(trace, 0.5))
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds == {"no-attrition", "stagnation"}
        assert report.max_stagnant_streak >= params.n


class TestInfinitelyOften:
    def test_no_phases_hold_vacuously(self):
        assert condition_report([], 3)

    @pytest.mark.parametrize(
        "flags,ok",
        [([False], False), ([True], True), ([False, False, True], True), ([False] * 3, False)],
    )
    def test_up_to_one_window_needs_one_satisfied_phase(self, flags, ok):
        assert condition_report(flags, 3) is ok

    def test_every_window_needs_a_satisfied_phase(self):
        flags = [True, False, False, False, True]
        assert not condition_report(flags, 3)
        assert condition_report(flags, 4)
        assert condition_report([True, False, False, True, False, False, True], 3)

    def test_no_window_needs_every_phase(self):
        # Per-phase mode is window 1: every phase must be satisfied.
        assert condition_report([], 1)
        assert condition_report([True, True], 1)
        assert not condition_report([True, False, True], 1)

    def test_rejects_empty_window(self):
        with pytest.raises(AnalysisError):
            condition_report([True], 0)


class TestCardinality:
    @pytest.mark.parametrize("n,f,ok", [(4, 1, True), (3, 1, False), (7, 2, True), (1, 0, True)])
    def test_bound(self, n, f, ok):
        assert ProtocolParams(n, f, 1, 0.1).meets_cardinality_bound is ok


def test_spread_series_covers_every_round():
    trace = simulate(builtin_scenario("fully_connected_baseline"))
    rows = spread_series(trace, 0.05)
    assert len(rows) == trace.last_round + 1
    assert rows[0]["spread"] == 3.0
    assert all(
        row["c_min"] + row["c_nin"] + row["c_mid"] + row["c_nax"] + row["c_max"]
        == len(trace.initial_values)
        for row in rows
    )
