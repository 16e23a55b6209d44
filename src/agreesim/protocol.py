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
from bisect import bisect_left, bisect_right
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


def trim(values: list[Value], v_i: Value, f: int) -> list[Value] | None:
    """The values that survive the trim, or None without admission.

    ``values`` is the log's values in ascending order. Admission needs f+1
    of them at or above v_i (x) or at or below it (y); ties count on both
    sides, and the two bisection points give both counts. When x > y the
    top f go, plus any of the bottom f strictly below v_i; otherwise the
    bottom f go, plus any of the top f strictly above v_i. An entry in
    both slices goes once. Between f and 2f entries go, at least one
    survives, and the survivors are one slice of ``values``.
    """
    size = len(values)
    below = bisect_left(values, v_i)  # entries < v_i; x = size - below
    above = bisect_right(values, v_i)  # entries <= v_i; y = above
    if size - below <= f and above <= f:
        return None
    if size - below > above:
        return values[min(f, below):size - f]
    return values[f:max(size - f, above)]


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
    dropped at ingestion so averages stay well-defined. One sort of the
    merged log's values decides admission and the trim, and the new value
    is the exact mean of the survivors and the node's own value. Pure:
    inputs are never mutated, and identical inputs give bit-identical
    outputs.
    """
    broadcast = state.value
    merged = dict(state.log)
    for sender, value in inbox:
        if sender == state.id:
            raise ProtocolError(f"node {state.id} received its own broadcast")
        if math.isfinite(value):
            merged[sender] = (value, r)
    # Equal values that differ, -0.0 and 0.0 or an int payload and its equal
    # float, may sit in either order here. No sum shows which of them
    # survive, as fsum gives 0.0 for every zero sum; only a pinned end can.
    kept = trim(sorted([entry[0] for entry in merged.values()]), broadcast, params.f)
    if kept is not None:
        count = len(kept) + 1
        try:
            mean = (broadcast + math.fsum(kept)) / count
        except OverflowError:  # fsum's partial sums left float range
            mean = math.inf
        kept.append(broadcast)
        if math.isinf(mean):  # the sum is beyond float range, the mean never is
            mean = math.fsum([v / count for v in kept])
        if not min(kept) <= mean <= max(kept):
            # The exact mean lies in the range of its inputs, but the rounded
            # quotient can leave it by one ulp ((x+x+x)/3 < x): pin it to the
            # end it left, the first of the equal values there in the
            # (value, sender) order the trim is defined on.
            kept = trim(sorted([merged[s][0] for s in sorted(merged)]), broadcast, params.f)
            kept.append(broadcast)
            mean = min(max(mean, min(kept)), max(kept))
        new_state = NodeState(state.id, mean, {}, r + 1)
        computed = True
    elif r % params.r_c == 0:
        new_state = NodeState(state.id, broadcast, {}, r + 1)
        computed = False
    else:
        new_state = NodeState(state.id, broadcast, merged, state.last_local_start)
        computed = False
    return StepResult(new_state, broadcast, merged, computed)
