"""Node state machine: gathering, admission, trimming, averaging, resets."""

import itertools
import math

import pytest
from hypothesis import example, given, strategies as st

from agreesim.errors import ProtocolError
from agreesim.protocol import (
    NodeState,
    ProtocolParams,
    is_common_new_start,
    step_round,
    trim,
)

from reference import (
    reference_admitted,
    reference_average,
    reference_counts,
    reference_reduce,
    reference_step_round,
)


def make_log(values, senders=None, recv_round=1):
    senders = senders if senders is not None else range(len(values))
    return {s: (v, recv_round) for s, v in zip(senders, values)}


def log_values(log):
    """The log's values in ascending order."""
    return sorted(v for v, _ in log.values())


def stepped_value(values, v_i, f):
    """The value a node holding ``v_i`` computes from a first-round inbox of ``values``."""
    inbox = [(s, v) for s, v in enumerate(values, 1)]
    result = step_round(NodeState(0, v_i), inbox, 1, ProtocolParams(16, f, 1, 0.1))
    return result.state.value


PARAMS = ProtocolParams(n=8, f=1, r_c=4, epsilon=0.1)


class TestCountRelative:
    """The side counts x (>= v_i) and y (<= v_i) that decide ``trim``'s admission and case."""

    def test_ties_count_both_sides(self):
        # Admission at f=2 needs three values on one side: each log has
        # them only if the two ties count on its side.
        assert trim([5.0, 5.0, 7.0], 5.0, 2) == [5.0]
        assert trim([3.0, 5.0, 5.0], 5.0, 2) == [5.0]

    def test_empty_log(self):
        assert trim([], 0.0, 0) is None

    def test_strict_sides(self):
        # x = 1 and y = 2: admitted at f = 1, not at f = 2.
        assert trim([1.0, 4.0, 9.0], 5.0, 1) == [4.0]
        assert trim([1.0, 4.0, 9.0], 5.0, 2) is None

    @given(
        values=st.lists(st.integers(-5, 5).map(float), max_size=8),
        v_i=st.integers(-5, 5).map(float),
    )
    def test_matches_direct_count(self, values, v_i):
        # Admission fires exactly from f = max(x, y) - 1 down.
        most = max(sum(1 for v in values if v >= v_i), sum(1 for v in values if v <= v_i))
        assert trim(sorted(values), v_i, most) is None
        if most:
            assert trim(sorted(values), v_i, most - 1) is not None


class TestAdmission:
    def test_one_side_at_threshold(self):
        assert trim([4.0, 5.0], 5.0, 1) is not None  # x = 1, y = 2

    def test_both_below(self):
        assert trim([4.0, 6.0], 5.0, 1) is None  # x = 1, y = 1

    @pytest.mark.parametrize("f", [0, 1, 2])
    def test_pigeonhole_on_small_multisets(self, f):
        # 2f+1 senders always pass; f or fewer never do, for any own value.
        grid = [0.0, 1.0, 2.0]
        for size in range(0, 2 * f + 3):
            for values in itertools.combinations_with_replacement(grid, size):
                for v_i in grid:
                    admitted = trim(list(values), v_i, f) is not None
                    if size >= 2 * f + 1:
                        assert admitted
                    if size <= f:
                        assert not admitted


class TestReduce:
    def test_case_b_removes_low_and_high_outlier(self):
        assert trim([1.0, 4.0, 9.0], 5.0, 1) == [4.0]

    def test_tie_x_equals_y_goes_to_case_b(self):
        values = [2.0, 3.0, 8.0, 9.0]
        assert reference_counts(values, 5.0) == (2, 2)
        assert trim(values, 5.0, 1) == [3.0, 8.0]

    def test_f_zero_removes_nothing(self):
        assert trim([1.0, 4.0, 9.0], 5.0, 0) == [1.0, 4.0, 9.0]

    def test_rejects_unadmitted_call(self):
        assert trim([1.0, 9.0], 5.0, 1) is None

    def test_overlapping_slices_remove_each_entry_once(self):
        # Log of f+1 entries: top-f and bottom-f slices overlap.
        assert trim([10.0, 10.0], 0.0, 1) == [10.0]
        assert trim([1.0, 2.0, 3.0], 5.0, 2) == [3.0]  # 2.0 sits in both

    @given(
        values=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0]), min_size=1, max_size=7),
        v_i=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]),
        f=st.integers(0, 4),
    )
    def test_matches_reference_and_cardinality(self, values, v_i, f):
        survivors = trim(sorted(values), v_i, f)
        assert (survivors is not None) == reference_admitted(sorted(values), v_i, f)
        if survivors is None:
            return
        expected, removed = reference_reduce(sorted(values), f, v_i)
        assert survivors == expected
        assert f <= removed <= 2 * f
        assert len(survivors) >= 1
        assert stepped_value(values, v_i, f) == reference_average(expected, v_i)

    @given(
        corr=st.lists(st.integers(-4, 4).map(float), min_size=1, max_size=5),
        byz=st.lists(st.integers(-20, 20).map(float), max_size=2),
        v_i=st.integers(-4, 4).map(float),
        f=st.integers(0, 2),
    )
    def test_survivors_bounded_by_correct_values(self, corr, byz, v_i, f):
        # With at most f fake entries, survivors stay inside the range
        # spanned by the genuine values and the node's own value.
        if len(byz) > f:
            return
        survivors = trim(sorted(corr + byz), v_i, f)
        if survivors is None:
            return
        lo = min(corr + [v_i])
        hi = max(corr + [v_i])
        for value in survivors:
            assert lo <= value <= hi

    @given(
        low=st.lists(st.integers(-9, -6).map(float), max_size=3),
        high=st.lists(st.integers(5, 9).map(float), min_size=1, max_size=4),
        f=st.integers(0, 2),
    )
    def test_enough_high_values_leave_a_high_survivor(self, low, high, f):
        # f+1 entries at or above a threshold beyond the node's own value
        # guarantee one such entry survives the trim (dually for low ones).
        if len(high) < f + 1:
            return
        survivors = trim(sorted(low + high), 0.0, f)
        assert survivors is not None
        assert any(v >= 5.0 for v in survivors)


class TestAverage:
    """The new value: the exact mean of the survivors and the node's own value."""

    def test_single_survivor(self):
        assert stepped_value([4.0], 5.0, 0) == 4.5

    def test_empty_is_identity(self):
        # No value heard: no admission, and the node keeps its value.
        result = step_round(NodeState(0, 7.0), [], 1, ProtocolParams(4, 0, 1, 0.1))
        assert not result.computed and result.state.value == 7.0

    def test_two_survivors(self):
        assert stepped_value([3.0, 8.0], 5.0, 0) == 16 / 3

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sum_beyond_float_range(self, sign):
        # Each value is finite, but their sum is not: the mean still is.
        assert stepped_value([sign * 1.7e308, 1.0, 0.0], sign * 1.7e308, 0) == sign * 8.5e307


class TestCommonNewStart:
    @pytest.mark.parametrize(
        "r,r_c,expected",
        [(1, 4, True), (5, 4, True), (6, 4, False), (1, 1, True), (2, 1, True)],
    )
    def test_examples(self, r, r_c, expected):
        assert is_common_new_start(r, r_c) is expected


class TestStepRound:
    def test_compute_path(self):
        state = NodeState(id=0, value=5.0)
        result = step_round(state, [(1, 1.0), (2, 4.0), (3, 9.0)], 1, PARAMS)
        assert result.broadcast == 5.0
        assert result.computed
        assert result.state.value == 4.5
        assert len(result.state.log) == 0
        assert result.state.last_local_start == 2

    def test_carry_path(self):
        state = NodeState(id=0, value=5.0)
        result = step_round(state, [(2, 4.0)], 3, PARAMS)
        assert not result.computed
        assert result.state.value == 5.0
        assert log_values(result.state.log) == [4.0]
        assert result.state.last_local_start == 1

    def test_periodic_reset_path(self):
        state = NodeState(id=0, value=5.0, log=make_log([4.0], senders=[2]))
        result = step_round(state, [], 4, PARAMS)
        assert not result.computed
        assert result.state.value == 5.0
        assert len(result.state.log) == 0
        assert result.state.last_local_start == 5

    def test_rejects_own_broadcast(self):
        state = NodeState(id=0, value=5.0)
        with pytest.raises(ProtocolError):
            step_round(state, [(0, 1.0)], 1, PARAMS)

    def test_non_finite_values_dropped_at_ingestion(self):
        state = NodeState(id=0, value=5.0)
        inbox = [(1, float("nan")), (2, float("inf")), (3, -math.inf)]
        result = step_round(state, inbox, 1, PARAMS)
        assert len(result.merged_log) == 0
        assert result.state.value == 5.0

    def test_most_recent_value_wins(self):
        state = NodeState(id=0, value=5.0)
        r1 = step_round(state, [(1, 3.0)], 1, PARAMS)
        r2 = step_round(r1.state, [(1, 7.0)], 2, PARAMS)
        assert r2.state.log[1] == (7.0, 2)
        assert len(r2.state.log) == 1

    @given(
        value=st.integers(-5, 5).map(float),
        inbox=st.lists(
            st.tuples(st.integers(1, 6), st.integers(-8, 8).map(float)),
            max_size=6,
            unique_by=lambda t: t[0],
        ),
        r=st.integers(1, 12),
    )
    def test_pure_and_deterministic(self, value, inbox, r):
        state = NodeState(id=0, value=value, log=make_log([2.0], senders=[7]))
        before = dict(state.log)
        a = step_round(state, inbox, r, PARAMS)
        b = step_round(state, inbox, r, PARAMS)
        assert a.state == b.state
        assert a.broadcast == b.broadcast
        assert state.value == value and state.log == before

    def test_merge_keeps_at_most_one_entry_per_sender(self):
        # One sender on each side of the node's value: admission never
        # fires and the log accumulates one live entry per sender.
        state = NodeState(id=0, value=0.0)
        for r in range(1, 4):
            state = step_round(state, [(1, float(r)), (2, -float(r))], r, PARAMS).state
        assert set(state.log) == {1, 2}
        assert state.log[1][0] == 3.0
        assert state.log[2][0] == -3.0


# Values whose order or sign the step could get wrong: signed zeros that
# compare equal, the smallest subnormal, values whose sum leaves float
# range, ints (a JSON vector carries them) that tie equal floats, and the
# non-finite payloads that ingestion drops.
FINITE = [-0.0, 0.0, 5e-324, -1.0, 1.0, 0.5, 2.0, 1e300, 1.7e308, -1.7e308]
FLOATS = st.sampled_from(FINITE) | st.floats(-1.7e308, 1.7e308)
INTS = st.sampled_from([0, 1, -1, 2]) | st.integers(-2**64, 2**64)
PAYLOADS = FLOATS | INTS | st.sampled_from([math.nan, math.inf, -math.inf])
# An integral float and the int equal to it.
BIG = 0.40309273233720366 * 2.0**60


@st.composite
def step_inputs(draw):
    senders = st.integers(0, 11)
    node = draw(senders)
    # A carried log holds finite values from earlier rounds.
    log = draw(st.dictionaries(
        senders.filter(lambda s: s != node),
        st.tuples(FLOATS | INTS, st.integers(1, 12)),
        max_size=8,
    ))
    r = draw(st.integers(1, 12))
    state = NodeState(node, draw(st.sampled_from(FINITE) | INTS), log, draw(st.integers(1, r)))
    inbox = draw(st.lists(st.tuples(senders, PAYLOADS), max_size=9))
    # f may reach the merged log's size, so the trim's two slices overlap.
    f = draw(st.integers(0, len(log) + len(inbox)))
    params = ProtocolParams(n=3 * f + 4, f=f, r_c=draw(st.integers(1, 4)), epsilon=0.1)
    return state, inbox, r, params


@given(step_inputs())
@example((NodeState(0, 0.0, {1: (-0.0, 1)}), [(2, -0.0), (3, 0.0)], 4, ProtocolParams(6, 1, 2, 0.1)))
@example((NodeState(0, -0.0, {}), [(1, 0.0), (2, math.nan), (3, -math.inf)], 3,
          ProtocolParams(6, 1, 2, 0.1)))
@example((NodeState(0, 1.0, {}), [(1, 2.0), (0, 1.0)], 1, ProtocolParams(6, 1, 2, 0.1)))
# The rounded mean of three equal values falls one ulp below them: the clamp.
@example((NodeState(0, 0.40309273233720366, {}),
          [(1, 0.40309273233720366), (2, 0.40309273233720366)], 1, ProtocolParams(4, 0, 2, 0.1)))
# Only an exact sum keeps the 1.0 between the two large values.
@example((NodeState(0, 1.0, {}), [(1, 1e300), (2, 1.0), (3, -1e300)], 1, ProtocolParams(4, 0, 2, 0.1)))
# A sum beyond float range: the mean is taken over the values divided by their count.
@example((NodeState(0, 1.7e308, {}), [(1, 1.7e308), (2, 1.0)], 1, ProtocolParams(4, 0, 2, 0.1)))
@example((NodeState(0, -1.7e308, {3: (-1.7e308, 1)}), [(1, -1.7e308), (2, 0)], 2,
          ProtocolParams(7, 1, 2, 0.1)))
# Signed zeros equal to the node's own value on both sides, the log holding
# the later sender first.
@example((NodeState(0, -0.0, {4: (0.0, 1), 2: (-0.0, 1)}), [(1, -1.0), (3, 1.0), (5, 0.0)], 2,
          ProtocolParams(7, 1, 2, 0.1)))
@example((NodeState(0, 0.0, {3: (-0.0, 1), 1: (0.0, 1)}), [(2, -0.0), (4, -0.0)], 2,
          ProtocolParams(10, 2, 2, 0.1)))
# The mean is pinned to an end where an int ties its equal float: the one
# first by sender is the end, though the log holds the float first.
@example((NodeState(0, BIG, {2: (BIG, 1)}), [(1, int(BIG))], 2, ProtocolParams(4, 0, 4, 0.1)))
def test_step_matches_reference(inputs):
    state, inbox, r, params = inputs
    before = repr(state)
    try:
        expected = reference_step_round(state, inbox, r, params)
    except ProtocolError:
        with pytest.raises(ProtocolError):
            step_round(state, inbox, r, params)
        return
    result = step_round(state, inbox, r, params)
    assert result == expected
    # repr tells -0.0 from 0.0 and shows each log's order, which == ignores.
    assert repr(result) == repr(expected)
    assert repr(state) == before


class TestParams:
    def test_cardinality_flag(self):
        assert ProtocolParams(4, 1, 1, 0.1).meets_cardinality_bound
        assert not ProtocolParams(3, 1, 1, 0.1).meets_cardinality_bound

    def test_rejects_bad_values(self):
        with pytest.raises(ProtocolError):
            ProtocolParams(0, 0, 1, 0.1)
        with pytest.raises(ProtocolError):
            ProtocolParams(1, -1, 1, 0.1)
        with pytest.raises(ProtocolError):
            ProtocolParams(1, 0, 0, 0.1)
        with pytest.raises(ProtocolError):
            ProtocolParams(1, 0, 1, 0.0)


@given(
    values=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0]), max_size=7),
    v_i=st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0]),
    f=st.integers(0, 2),
)
def test_admission_agrees_with_reference(values, v_i, f):
    admitted = trim(sorted(values), v_i, f) is not None
    assert admitted == reference_admitted(sorted(values), v_i, f)
