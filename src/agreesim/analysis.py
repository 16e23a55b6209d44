"""Offline trace checkers.

Everything here re-derives its answers from raw trace data (deliveries,
round-start values, retention-window markers) rather than trusting any
simulator-internal state, so a checker can audit traces produced by other
implementations too. The checks come in three families: range guarantees
that must hold in every run (validity, legality, safety), descriptive
classification of nodes into value groups per phase, and the progress
condition whose presence or absence separates converging runs from stuck
ones. One in-order pass over the rounds, a ``Walk``, decides every check
of a report; each ``check_*`` function finishes one from what it kept.
"""

from __future__ import annotations

import bisect
import enum
import math
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass, field

from .errors import AnalysisError, ConfigError, TraceError
from .protocol import NodeId, Value, is_common_new_start
from .trace import RoundRecord, Trace


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


def _at_least(a: Value, b: Value, delta: float) -> bool:
    """Whether ``a - b >= delta`` holds over the reals, not after rounding a sum.

    ``fsum`` rounds the exact sum once, which keeps its sign. It raises
    OverflowError when a partial sum leaves float range; exact fractions
    decide then (imported only then, as the import adds a few ms to every
    run's set-up).
    """
    try:
        return math.fsum((a, -b, -delta)) >= 0
    except OverflowError:
        from fractions import Fraction

        return Fraction(a) - Fraction(b) >= Fraction(delta)


def classify_value(v: Value, bounds: PhaseBounds) -> Group:
    """Single group tag for one correct value.

    Values equal to an extremum take the extremum tag. If the near-min and
    near-max intervals overlap (only possible once the spread has dropped
    below 2*delta) the near-min tag wins. The interval ends are exact, as
    in ``is_proper``.
    """
    if bounds.collapsed or v == bounds.v_min:
        return Group.MIN
    if v == bounds.v_max:
        return Group.MAX
    if not _at_least(v, bounds.v_min, bounds.delta):
        return Group.NIN
    if not _at_least(bounds.v_max, v, bounds.delta):
        return Group.NAX
    return Group.MID


def is_proper(value: Value, observer_group: Group, bounds: PhaseBounds) -> bool:
    """Whether a value can pull an extreme-valued observer off its extreme.

    For a minimum holder anything at least delta above the phase minimum
    qualifies; for a maximum holder anything at least delta below the
    phase maximum. Origin does not matter: a fake value can qualify.
    "At least delta" is exact, not a test against the rounded
    ``v_min + delta`` or ``v_max - delta``, which can lie on either side of
    the real bound.
    """
    if observer_group is Group.MIN:
        return _at_least(value, bounds.v_min, bounds.delta)
    if observer_group is Group.MAX:
        return _at_least(bounds.v_max, value, bounds.delta)
    raise AnalysisError(f"observer must hold an extreme value, got {observer_group}")


def agreed(values: Collection[Value], epsilon: float) -> bool:
    """The agreement test: the spread ``max - min`` of ``values`` is below epsilon.

    Convergence, condition vacuity and the simulator's early stop all use
    this one test, so they cannot disagree when the spread lies within an
    ulp of epsilon.
    """
    return max(values) - min(values) < epsilon


def _report_spread(lo: Value, hi: Value) -> Value | None:
    """``hi - lo`` as a report holds it: None beyond float range, as JSON has no infinity."""
    spread = hi - lo
    return None if math.isinf(spread) else spread


@dataclass
class ConvergenceResult:
    reached: bool
    at_round: int | None


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


# The retention-window rule, shared by the walk and the per-node views: a
# node's window at round r holds what was delivered to it from its latest
# start through r, and retains the most recent finite value of each sender.
# Messages are (round, sender, value) triples delivered to one node, oldest
# first.

def _window(messages: list[tuple[int, NodeId, Value]], start: int) -> list:
    return messages[bisect.bisect_left(messages, (start,)):]  # (start,) sorts before (start, ...)


def _retain(retained: dict[NodeId, Value], messages) -> dict[NodeId, Value]:
    for _r, sender, value in messages:
        if math.isfinite(value):
            retained[sender] = value
    return retained


def _messages_to(trace: Trace, i: NodeId, r: int) -> list[tuple[int, NodeId, Value]]:
    """The messages of node i's window at round r, from the whole trace."""
    if not 1 <= r <= trace.last_round:
        raise TraceError(f"round {r} outside trace range 1..{trace.last_round}")
    starts = trace.rounds[r - 1].local_start
    if i not in starts:
        raise TraceError(f"node {i} is not a correct node of this trace")
    return _window([(rec.round, sender, value)
                    for rec in trace.rounds[starts[i] - 1:r]
                    for sender, receiver, value in rec.delivered if receiver == i], starts[i])


def joint_neighbor_set(trace: Trace, i: NodeId, r: int) -> set[NodeId]:
    """Senders node i actually heard since its latest retention-window start.

    Only delivered messages count: an edge over which every message was
    lost communicates nothing.
    """
    return {sender for _r, sender, _v in _messages_to(trace, i, r)} - {i}


def retained_values(trace: Trace, i: NodeId, r: int) -> dict[NodeId, Value]:
    """Live log content of node i at round r, rebuilt from raw deliveries.

    Most recent finite value per sender, delivered in i's current retention
    window. Equals the post-merge log the node itself acted on.
    """
    return _retain({}, _messages_to(trace, i, r))


class Walk:
    """Every check of a report, decided in one pass over a trace's rounds.

    ``add`` takes each round record in order, ``finish`` the final values.
    Each check needs only the values at hand and what earlier phase starts
    fixed, so the walk keeps each phase start's extrema, the running safety
    envelope, and, for the open phase only, its extreme holders' retention
    windows and the deliveries to them. A retention-window start never lies
    before its round's phase start (the trace reader rejects one that does,
    and every run resets each start at the phase start), so no window
    reaches back into an earlier phase.
    """

    def __init__(self, header: Trace, delta: float | None) -> None:
        self.params = header.params
        self.delta = check_delta(delta, header.params.epsilon)
        self.validity, self.legality, self.safety = RangeCheck(True), RangeCheck(True), RangeCheck(True)
        initial = header.initial_values.values()
        self._initial = (min(initial), max(initial))
        self._safe = (-math.inf, math.inf)  # the intersection of every phase start's envelope
        self._start = None  # (v_min, v_max, extreme holder count) of the latest phase start
        self.phase_starts: list[dict] = []
        self.converged_at: int | None = None
        self.verdicts: list[ConditionVerdict] = []
        self.progress: list[ProgressViolation] = []
        self.max_stagnant_streak = self._streak = self.last_round = 0
        self.final_spread: Value | None = None
        # Until the open phase's verdict is decided: its bounds, and each
        # extreme holder's group, deliveries, and window (start, retained
        # values, how many of its deliveries the window has taken).
        self._bounds: PhaseBounds | None = None
        self._holders: dict[NodeId, Group] = {}
        self._inbox: dict[NodeId, list] = {}
        self._windows: dict[NodeId, tuple[int, dict, int]] = {}

    def add(self, rec: RoundRecord) -> None:
        r = self.last_round = rec.round
        lo, hi = self._values(r, rec.values_start)
        if is_common_new_start(r, self.params.r_c):
            k = (r - 1) // self.params.r_c
            vacuous = agreed((lo, hi), self.params.epsilon)
            self.verdicts.append(ConditionVerdict(phase=k, satisfied=vacuous, vacuous=vacuous))
            self._bounds = PhaseBounds(phase=k, start_round=r, v_min=lo, v_max=hi, delta=self.delta)
            self._holders = {} if vacuous else {
                i: Group.MIN if v == lo else Group.MAX
                for i, v in sorted(rec.values_start.items()) if v == lo or v == hi
            }
            self._inbox, self._windows = {i: [] for i in self._holders}, {}
        if self._holders:
            self._condition(rec)

    def finish(self, final_values: dict[NodeId, Value]) -> None:
        lo, hi = self._values(self.last_round + 1, final_values)
        self.final_spread = _report_spread(lo, hi)

    def _values(self, r: int, values: dict[NodeId, Value]) -> tuple[Value, Value]:
        """Test the values at round r against each envelope; return their extrema."""
        lo, hi = min(values.values()), max(values.values())
        legal = self._start[:2] if self._start else (lo, hi)  # see check_legality
        if is_common_new_start(r, self.params.r_c):
            self._phase_start(r, values, lo, hi)
        for check, (a, b) in ((self.validity, self._initial), (self.legality, legal),
                              (self.safety, self._safe)):
            if not a <= lo <= hi <= b:
                check.ok = False
                check.violations.extend(Violation(i, r, v, a, b)
                                        for i, v in sorted(values.items()) if not a <= v <= b)
        return lo, hi

    def _phase_start(self, r: int, values: dict[NodeId, Value], lo: Value, hi: Value) -> None:
        """Safety's envelope, convergence, and progress over the phase that ends here.

        Where the condition held in that phase, agreement was not yet
        reached, and neither extremum moved, the combined number of minimum
        and maximum holders must shrink; and no stagnant stretch may last n
        phases.
        """
        holders = sum(v == lo for v in values.values()) + sum(v == hi for v in values.values())
        if self._start is not None:
            verdict, (before_lo, before_hi, before) = self.verdicts[-1], self._start
            k, n = verdict.phase, self.params.n
            if verdict.vacuous or not verdict.satisfied or (lo, hi) != (before_lo, before_hi):
                self._streak = 0
            else:
                self._streak += 1
                self.max_stagnant_streak = max(self.max_stagnant_streak, self._streak)
                if holders >= before:
                    self.progress.append(ProgressViolation(k, "no-attrition", (
                        f"extrema unchanged over phase {k} but extreme holders "
                        f"went {before} -> {holders}")))
                if self._streak >= n:
                    self.progress.append(ProgressViolation(k, "stagnation", (
                        f"extrema unchanged for {self._streak} phases (n={n})")))
        self._start = (lo, hi, holders)
        self._safe = (max(self._safe[0], lo), min(self._safe[1], hi))
        self.phase_starts.append({"round": r, "v_min": lo, "v_max": hi,
                                  "spread": _report_spread(lo, hi)})
        if self.converged_at is None and agreed((lo, hi), self.params.epsilon):
            self.converged_at = r

    def _condition(self, rec: RoundRecord) -> None:
        """The open phase's progress condition at one of its rounds: see check_condition."""
        r, inbox, windows, bounds = rec.round, self._inbox, self._windows, self._bounds
        for sender, receiver, value in rec.delivered:
            if receiver in inbox:
                inbox[receiver].append((r, sender, value))
        for i, group in self._holders.items():
            start, messages = rec.local_start[i], inbox[i]
            if i in windows and windows[i][0] == start:  # the window carries over
                _start, log, taken = windows[i]
                _retain(log, messages[taken:])
            else:  # rebuilt from its new start
                log = _retain({}, _window(messages, start))
            windows[i] = (start, log, len(messages))
            # A sender in i's log is in its joint neighbor set unless it is i itself.
            proper = [j for j in sorted(log) if j != i and is_proper(log[j], group, bounds)]
            if len(proper) > self.params.f:
                self.verdicts[-1] = ConditionVerdict(
                    phase=bounds.phase, satisfied=True, witness=ConditionWitness(i, r, proper)
                )
                self._holders = {}  # decided
                return


def check_validity(walk: Walk) -> RangeCheck:
    """Every correct value stays inside the initial correct range forever."""
    return walk.validity


def check_legality(walk: Walk) -> RangeCheck:
    """Every correct value is bounded by its reference phase-start extrema.

    Values at round r were computed during round r-1, possibly from values
    retained earlier in that phase, so they answer to the phase start of
    round r-1: rounds inside a phase to their own start, a phase-opening
    round to the previous start, and round 1 to itself.
    """
    return walk.legality


def check_safety(walk: Walk) -> RangeCheck:
    """From each phase start on, values never leave that start's envelope.

    A value lies inside every earlier start's envelope exactly when it lies
    inside their intersection, so each round is checked once against the
    running intersection (an empty one flags every value).
    """
    return walk.safety


def check_convergence(walk: Walk) -> ConvergenceResult:
    """First phase start whose correct spread is below epsilon.

    Mid-phase dips do not count: retained old values can push the spread
    back up before the next phase start, so only phase starts are tested.
    """
    return ConvergenceResult(reached=walk.converged_at is not None, at_round=walk.converged_at)


def check_condition(walk: Walk) -> list[ConditionVerdict]:
    """The quantity-and-quality verdict of each phase the trace's rounds open.

    Satisfied when some correct node holding an extreme value at the phase
    start gathers, at some round of the phase, proper values from at least
    f+1 distinct senders of its joint neighbor set. A sender's value is the
    one the holder retained (the most recent in its window). Phases that
    begin already inside the agreement band are vacuously satisfied. The
    witness is the first such holder by round, then by id.
    """
    return walk.verdicts


def check_phase_progress(walk: Walk) -> ProgressReport:
    """Extremum-holder attrition across stagnant phases."""
    return ProgressReport(ok=not walk.progress, violations=walk.progress,
                          max_stagnant_streak=walk.max_stagnant_streak)


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


def spread_series(trace: Trace, delta: float) -> list[dict]:
    """Per-round extrema, spread, and group cardinalities for plotting."""
    delta = check_delta(delta, trace.params.epsilon)
    r_c = trace.params.r_c
    rows = []
    for r in range(1, trace.last_round + 2):
        values = trace.values_at(r).values()
        lo, hi = min(values), max(values)
        start = is_common_new_start(r, r_c)
        if start:
            bounds = PhaseBounds(phase=(r - 1) // r_c, start_round=r, v_min=lo, v_max=hi,
                                 delta=delta)
        counts = Counter(classify_value(v, bounds) for v in values)
        rows.append(
            {
                "round": r,
                "phase": bounds.phase,
                "common_start": start,
                "v_min": lo,
                "v_max": hi,
                "spread": hi - lo,
                "c_min": counts[Group.MIN],
                "c_nin": counts[Group.NIN],
                "c_mid": counts[Group.MID],
                "c_nax": counts[Group.NAX],
                "c_max": counts[Group.MAX],
            }
        )
    return rows
