"""Offline trace checkers.

Everything here re-derives its answers from raw trace data (deliveries,
round-start values, retention-window markers) rather than trusting any
simulator-internal state, so a checker can audit traces produced by other
implementations too. The checks come in three families: range guarantees
that must hold in every run (validity, legality, safety), descriptive
classification of nodes into value groups per phase, and the progress
condition whose presence or absence separates converging runs from stuck
ones.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import Counter
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field

from .errors import AnalysisError, ConfigError, TraceError
from .protocol import Message, NodeId, Value, is_common_new_start
from .trace import Trace


def legal_reference_round(r: int, r_c: int) -> int:
    """Phase-start round whose extrema bound values at round r.

    Values computed mid-phase may use retained values from earlier in the
    phase, so the binding envelope is the previous phase start: rounds
    inside a phase answer to their own phase start, while a phase-opening
    round (computed during the last round of the previous phase) answers
    to the start of that previous phase. Both cases are the phase start of
    round r-1, the round during which round r's values were computed.
    """
    if r < 1:
        raise AnalysisError(f"round must be >= 1, got {r}")
    return max(1, (r - 2) // r_c * r_c + 1)


@dataclass(frozen=True)
class Violation:
    node: NodeId
    round: int
    value: Value
    lo: Value
    hi: Value


@dataclass
class RangeCheck:
    ok: bool
    violations: list[Violation] = field(default_factory=list)


def _range_check(trace: Trace, envelopes: Iterable[tuple[Value, Value]]) -> RangeCheck:
    """Test every correct value against its round's ``(lo, hi)``.

    ``envelopes`` yields one bound pair per round, round 1 first.
    """
    violations = []
    # Round-start values exist for rounds 1..T and for the post-run point T+1.
    for r, (lo, hi) in zip(range(1, trace.last_round + 2), envelopes):
        for i, v in sorted(trace.values_at(r).items()):
            if not lo <= v <= hi:
                violations.append(Violation(i, r, v, lo, hi))
    return RangeCheck(ok=not violations, violations=violations)


def check_validity(trace: Trace) -> RangeCheck:
    """Every correct value stays inside the initial correct range forever."""
    lo = min(trace.initial_values.values())
    hi = max(trace.initial_values.values())
    return _range_check(trace, itertools.repeat((lo, hi)))


def check_legality(trace: Trace) -> RangeCheck:
    """Every correct value is bounded by its reference phase-start extrema."""
    refs = (legal_reference_round(r, trace.params.r_c) for r in itertools.count(1))
    return _range_check(trace, ((trace.v_min(d), trace.v_max(d)) for d in refs))


def check_safety(trace: Trace) -> RangeCheck:
    """From each phase start on, values never leave that start's envelope.

    A value lies inside every earlier start's envelope exactly when it lies
    inside their intersection, so each round is checked once against the
    running intersection (an empty one flags every value).
    """
    def envelopes():
        lo, hi = -math.inf, math.inf
        for r in itertools.count(1):
            if is_common_new_start(r, trace.params.r_c):
                lo, hi = max(lo, trace.v_min(r)), min(hi, trace.v_max(r))
            yield lo, hi

    return _range_check(trace, envelopes())


class Group(enum.Enum):
    MIN = "Min"
    NIN = "Nin"
    MID = "Mid"
    NAX = "Nax"
    MAX = "Max"


@dataclass(frozen=True)
class PhaseBounds:
    """Value intervals frozen at a phase start.

    Correct nodes fall into: {v_min}, (v_min, v_min+delta),
    [v_min+delta, v_max-delta], (v_max-delta, v_max), {v_max}.
    """

    phase: int
    start_round: int
    v_min: Value
    v_max: Value
    delta: float

    @property
    def collapsed(self) -> bool:
        return self.v_min == self.v_max


def check_delta(delta: float | None, epsilon: float) -> float:
    """The group margin: ``delta``, or epsilon/2 when it is None.

    The paper's groups need 0 < delta <= epsilon/2; anything else is a
    configuration error.
    """
    half = epsilon / 2.0
    if delta is None:
        return half
    if not 0.0 < delta <= half:
        raise ConfigError(f"delta must lie in (0, epsilon/2] = (0, {half}], got {delta}")
    return delta


def phase_bounds(trace: Trace, k: int, delta: float) -> PhaseBounds:
    start = k * trace.params.r_c + 1
    if not 1 <= start <= trace.last_round + 1:
        raise AnalysisError(f"phase {k} starts beyond the trace")
    return PhaseBounds(
        phase=k,
        start_round=start,
        v_min=trace.v_min(start),
        v_max=trace.v_max(start),
        delta=delta,
    )


def classify_value(v: Value, bounds: PhaseBounds) -> Group:
    """Single group tag for one correct value.

    Values equal to an extremum take the extremum tag. If the near-min and
    near-max intervals overlap (only possible once the spread has dropped
    below 2*delta) the near-min tag wins.
    """
    if bounds.collapsed or v == bounds.v_min:
        return Group.MIN
    if v == bounds.v_max:
        return Group.MAX
    if bounds.v_min + bounds.delta <= v <= bounds.v_max - bounds.delta:
        return Group.MID
    if v < bounds.v_min + bounds.delta:
        return Group.NIN
    return Group.NAX


def is_proper(value: Value, observer_group: Group, bounds: PhaseBounds) -> bool:
    """Whether a value can pull an extreme-valued observer off its extreme.

    For a minimum holder anything at least delta above the phase minimum
    qualifies; for a maximum holder anything at least delta below the
    phase maximum. Origin does not matter: a fake value can qualify.
    """
    if observer_group is Group.MIN:
        return value >= bounds.v_min + bounds.delta
    if observer_group is Group.MAX:
        return value <= bounds.v_max - bounds.delta
    raise AnalysisError(f"observer must hold an extreme value, got {observer_group}")


def agreed(values: Collection[Value], epsilon: float) -> bool:
    """The agreement test: the spread ``max - min`` of ``values`` is below epsilon.

    Convergence, condition vacuity and the simulator's early stop all use
    this one test, so they cannot disagree when the spread lies within an
    ulp of epsilon.
    """
    return max(values) - min(values) < epsilon


@dataclass
class ConvergenceResult:
    reached: bool
    at_round: int | None


def check_convergence(trace: Trace) -> ConvergenceResult:
    """First phase start whose correct spread is below epsilon.

    Mid-phase dips do not count: retained old values can push the spread
    back up before the next phase start, so only phase starts are tested.
    """
    eps = trace.params.epsilon
    for r in trace.common_starts():
        if agreed(trace.values_at(r).values(), eps):
            return ConvergenceResult(reached=True, at_round=r)
    return ConvergenceResult(reached=False, at_round=None)


@dataclass(frozen=True)
class ConditionWitness:
    node: NodeId
    round: int
    senders: list[NodeId]


@dataclass
class ConditionVerdict:
    phase: int
    satisfied: bool
    vacuous: bool = False
    witness: ConditionWitness | None = None


def _windows(trace: Trace, nodes: list[NodeId], first: int, last: int):
    """Walk rounds ``first..last`` once, yielding ``(r, windows)`` after each round.

    ``windows[i]`` is ``(start, senders, retained)`` for each node i of
    ``nodes``: its retention-window start in effect at round r, the senders
    delivered to it from there through round r, and the most recent finite
    value of each. A window carries over while its start stays put and is
    rebuilt from the new start when it moves; in a well-formed trace a
    start only moves to the current round, so a rebuild reads no earlier one.
    """
    windows: dict[NodeId, tuple[int, set[NodeId], dict[NodeId, Value]]] = {}

    def deliver(into: dict, delivered: list[Message]) -> None:
        for sender, receiver, value in delivered:
            if receiver in into:
                into[receiver][1].add(sender)
                if math.isfinite(value):
                    into[receiver][2][sender] = value

    for r in range(first, last + 1):
        record = trace.record(r)
        for i in nodes:
            if i not in record.local_start:
                raise TraceError(f"node {i} is not a correct node of this trace")
            start = record.local_start[i]
            if i not in windows or windows[i][0] != start:
                windows[i] = (start, set(), {})
                for earlier in range(start, r):
                    deliver({i: windows[i]}, trace.record(earlier).delivered)
        deliver(windows, record.delivered)
        yield r, windows


def joint_neighbor_set(trace: Trace, i: NodeId, r: int) -> set[NodeId]:
    """Senders node i actually heard since its latest retention-window start.

    Only delivered messages count: an edge over which every message was
    lost communicates nothing.
    """
    [(_r, windows)] = _windows(trace, [i], r, r)
    return windows[i][1] - {i}


def retained_values(trace: Trace, i: NodeId, r: int) -> dict[NodeId, Value]:
    """Live log content of node i at round r, rebuilt from raw deliveries.

    Most recent finite value per sender, delivered in i's current retention
    window. Equals the post-merge log the node itself acted on.
    """
    [(_r, windows)] = _windows(trace, [i], r, r)
    return windows[i][2]


def check_condition(trace: Trace, k: int, delta: float) -> ConditionVerdict:
    """Quantity-and-quality test for one phase, in one walk over its rounds.

    Satisfied when some correct node holding an extreme value at the phase
    start gathers, at some round of the phase, proper values from at least
    f+1 distinct senders of its joint neighbor set. A sender's value is the
    one the holder retained (the most recent in its window). Phases that begin
    already inside the agreement band are vacuously satisfied. The witness is
    the first such holder by round, then by id.
    """
    bounds = phase_bounds(trace, k, delta)
    start = bounds.start_round
    values = trace.values_at(start)
    if agreed(values.values(), trace.params.epsilon):
        return ConditionVerdict(phase=k, satisfied=True, vacuous=True)
    extremes = [
        (i, Group.MIN if values[i] == bounds.v_min else Group.MAX)
        for i in sorted(values)
        if values[i] in (bounds.v_min, bounds.v_max)
    ]
    f = trace.params.f
    last_phase_round = min(start + trace.params.r_c - 1, trace.last_round)
    walk = _windows(trace, [i for i, _group in extremes], start, last_phase_round)
    for r_prime, windows in walk:
        for i, group in extremes:
            # A sender in i's log is in its joint neighbor set unless it is i itself.
            log = windows[i][2]
            proper = [j for j in sorted(log) if j != i and is_proper(log[j], group, bounds)]
            if len(proper) >= f + 1:
                witness = ConditionWitness(i, r_prime, proper)
                return ConditionVerdict(phase=k, satisfied=True, witness=witness)
    return ConditionVerdict(phase=k, satisfied=False)


def trace_phases(trace: Trace) -> list[int]:
    """Phases whose rounds are (at least partly) covered by the trace."""
    return [trace.phase_of(r) for r in trace.common_starts() if r <= trace.last_round]


def condition_report(flags: list[bool], window: int) -> bool:
    """Whether a run's per-phase condition verdicts ``flags`` hold overall.

    A finite-horizon proxy for "satisfied infinitely often": every
    ``window`` consecutive phases contain a satisfied one, up to ``window``
    phases need one satisfied phase, and no phases at all hold vacuously.
    With ``window=1`` every phase must be satisfied.
    """
    if window < 1:
        raise AnalysisError(f"window must be >= 1, got {window}")
    if len(flags) <= window:
        return any(flags) if flags else True
    return all(any(flags[i:i + window]) for i in range(len(flags) - window + 1))


@dataclass(frozen=True)
class ProgressViolation:
    phase: int
    kind: str
    detail: str


@dataclass
class ProgressReport:
    ok: bool
    violations: list[ProgressViolation]
    max_stagnant_streak: int


def check_phase_progress(trace: Trace, verdicts: list[ConditionVerdict]) -> ProgressReport:
    """Extremum-holder attrition across stagnant phases.

    For consecutive phase starts where the condition held, agreement was
    not yet reached, and neither extremum moved, the combined number of
    minimum and maximum holders must shrink; and no stagnant stretch may
    last n phases. ``verdicts`` holds the condition verdict of every phase.
    """
    n = trace.params.n
    starts = trace.common_starts()
    by_phase = {v.phase: v for v in verdicts}
    violations: list[ProgressViolation] = []
    streak = 0
    max_streak = 0
    for idx in range(len(starts) - 1):
        r, r_next = starts[idx], starts[idx + 1]
        k = trace.phase_of(r)
        if by_phase[k].vacuous or not by_phase[k].satisfied:
            streak = 0
            continue
        lo, hi = trace.v_min(r), trace.v_max(r)
        lo2, hi2 = trace.v_min(r_next), trace.v_max(r_next)
        if lo2 != lo or hi2 != hi:
            streak = 0
            continue
        streak += 1
        max_streak = max(max_streak, streak)
        before = _extreme_holder_count(trace, r)
        after = _extreme_holder_count(trace, r_next)
        if after >= before:
            violations.append(
                ProgressViolation(
                    phase=k,
                    kind="no-attrition",
                    detail=(
                        f"extrema unchanged over phase {k} but extreme holders "
                        f"went {before} -> {after}"
                    ),
                )
            )
        if streak >= n:
            violations.append(
                ProgressViolation(
                    phase=k,
                    kind="stagnation",
                    detail=f"extrema unchanged for {streak} phases (n={n})",
                )
            )
    return ProgressReport(
        ok=not violations,
        violations=violations,
        max_stagnant_streak=max_streak,
    )


def _extreme_holder_count(trace: Trace, r: int) -> int:
    values = trace.values_at(r)
    lo = min(values.values())
    hi = max(values.values())
    return sum(1 for v in values.values() if v == lo) + sum(
        1 for v in values.values() if v == hi
    )


def spread_series(trace: Trace, delta: float) -> list[dict]:
    """Per-round extrema, spread, and group cardinalities for plotting."""
    delta = check_delta(delta, trace.params.epsilon)
    rows = []
    r_c = trace.params.r_c
    for r in range(1, trace.last_round + 2):
        k = trace.phase_of(r)
        bounds = phase_bounds(trace, k, delta)
        counts = Counter(classify_value(v, bounds) for v in trace.values_at(r).values())
        rows.append(
            {
                "round": r,
                "phase": k,
                "common_start": is_common_new_start(r, r_c),
                "v_min": trace.v_min(r),
                "v_max": trace.v_max(r),
                "spread": trace.spread(r),
                "c_min": counts[Group.MIN],
                "c_nin": counts[Group.NIN],
                "c_mid": counts[Group.MID],
                "c_nax": counts[Group.NAX],
                "c_max": counts[Group.MAX],
            }
        )
    return rows
