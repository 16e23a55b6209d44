"""Per-node state machine for iterative approximate agreement.

Each correct node repeatedly broadcasts its value, logs values heard from
neighbors (most recent per sender), and, once it has heard enough values on
one side of its own, trims the extremes and averages the survivors. The log
survives across rounds for up to ``r_c`` rounds so that a moving node can
accumulate values from neighborhoods it visits, and is cleared whenever a
new value is computed or the retention window expires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ProtocolError

NodeId = int
Value = float
# (sender, receiver, value) for one delivered or attempted message.
Message = tuple[NodeId, NodeId, Value]


@dataclass(frozen=True)
class ProtocolParams:
    """Static parameters shared by every node in a run.

    ``f`` bounds the number of faulty nodes, ``r_c`` is the log retention
    window in rounds, ``epsilon`` the agreement precision used by the
    offline checkers and the sweep's early stop (the node logic itself
    never reads it).
    """

    n: int
    f: int
    r_c: int
    epsilon: float

    def __post_init__(self) -> None:
        if not all(type(v) is int for v in (self.n, self.f, self.r_c)):
            raise ProtocolError(f"n, f, r_c must be integers: {self.n!r}, {self.f!r}, {self.r_c!r}")
        if self.n < 1:
            raise ProtocolError(f"n must be >= 1, got {self.n}")
        if self.f < 0:
            raise ProtocolError(f"f must be >= 0, got {self.f}")
        if self.r_c < 1:
            raise ProtocolError(f"r_c must be >= 1, got {self.r_c}")
        if not 0 < self.epsilon < math.inf:
            raise ProtocolError(f"epsilon must be finite and > 0, got {self.epsilon}")

    @property
    def meets_cardinality_bound(self) -> bool:
        """True when n >= 3f+1, the population needed to out-vote the fakes."""
        return self.n >= 3 * self.f + 1


# Retained values: sender -> (value, receive round), most recent per sender.
Log = dict[NodeId, tuple[Value, int]]


@dataclass
class NodeState:
    """One correct node's protocol state between rounds."""

    id: NodeId
    value: Value
    log: Log = field(default_factory=dict)
    last_local_start: int = 1


@dataclass
class StepResult:
    """Outcome of one protocol step.

    ``state`` and ``broadcast`` are the contract outputs; the remaining
    fields expose the intermediate gathering stage for tracing and audits.
    Not frozen: a frozen dataclass sets each field through
    ``object.__setattr__``, which more than doubles the cost of the one
    built per node per round.
    """

    state: NodeState
    broadcast: Value
    merged_log: Log
    computed: bool


def count_relative(log: Log, v_i: Value) -> tuple[int, int]:
    """Counts of log entries >= v_i and <= v_i; ties count on both sides."""
    values = [v for v, _ in log.values()]
    return len([v for v in values if v >= v_i]), len([v for v in values if v <= v_i])


def admission_test(x: int, y: int, f: int) -> bool:
    """True when enough values sit on one side of the node's own value."""
    return x >= f + 1 or y >= f + 1


def reduce_log(log: Log, f: int, x: int, y: int, v_i: Value) -> Log:
    """Trim extreme values before averaging.

    ``B`` is the top-f slice and ``S`` the bottom-f slice of the log sorted
    by (value, sender) (slices may overlap when the log is short; removal
    is per entry). When more values sit at or above v_i, all of B goes plus
    any of S strictly below v_i; otherwise all of S goes plus any of B
    strictly above v_i. Between f and 2f entries are removed and at least
    one survives. Survivors keep the sorted order.
    """
    if not admission_test(x, y, f):
        raise ProtocolError(
            f"reduce_log called without admission (x={x}, y={y}, f={f})"
        )
    order = sorted([(v, s) for s, (v, _) in log.items()])
    top = order[len(order) - f:] if f > 0 else []
    bottom = order[:f]
    if x > y:
        removed = {s for _, s in top}.union(s for v, s in bottom if v < v_i)
    else:
        removed = {s for _, s in bottom}.union(s for v, s in top if v > v_i)
    return {s: log[s] for _, s in order if s not in removed}


def average(log: Log, v_i: Value) -> Value:
    """Equal-weight mean of the surviving values and the node's own value.

    The exact mean always lies within the range of its inputs, but the
    rounded quotient can escape it by one ulp (e.g. (x+x+x)/3 < x), which
    would break the protocol's range invariants; the result is therefore
    pinned back into that range. A sum beyond float range, which finite
    values near the float maximum can reach, is taken over the values
    divided by their count instead: the mean itself is always in range.
    """
    values = [v for v, _ in log.values()]
    count = len(values) + 1
    try:
        mean = (v_i + math.fsum(values)) / count
    except OverflowError:  # fsum's partial sums left float range
        mean = math.inf
    values.append(v_i)
    if math.isinf(mean):
        mean = math.fsum([v / count for v in values])
    return min(max(mean, min(values)), max(values))


def is_common_new_start(r: int, r_c: int) -> bool:
    """True when round r opens a phase: every node's log is freshly empty."""
    return r >= 1 and (r - 1) % r_c == 0


def step_round(
    state: NodeState,
    inbox: list[tuple[NodeId, Value]],
    r: int,
    params: ProtocolParams,
) -> StepResult:
    """Execute one protocol round for one node.

    The broadcast carries the pre-update value. Non-finite payloads are
    dropped at ingestion so averages stay well-defined. Pure: inputs are
    never mutated, and identical inputs give bit-identical outputs.
    """
    broadcast = state.value
    merged = dict(state.log)
    for sender, value in inbox:
        if sender == state.id:
            raise ProtocolError(f"node {state.id} received its own broadcast")
        if math.isfinite(value):
            merged[sender] = (value, r)
    x, y = count_relative(merged, broadcast)
    if admission_test(x, y, params.f):
        survivors = reduce_log(merged, params.f, x, y, broadcast)
        new_state = NodeState(state.id, average(survivors, broadcast), {}, r + 1)
        computed = True
    elif r % params.r_c == 0:
        new_state = NodeState(state.id, broadcast, {}, r + 1)
        computed = False
    else:
        new_state = NodeState(state.id, broadcast, merged, state.last_local_start)
        computed = False
    return StepResult(new_state, broadcast, merged, computed)
