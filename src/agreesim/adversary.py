"""Pluggable faulty-node behavior.

A strategy decides, per round and per faulty node, what value (if any) to
send to each reachable neighbor. Different receivers may get different
values in the same round; the delivery layer never deduplicates across
receivers. Strategies see the round number and every correct value at the
current phase start, but not future random draws. ``byzantine_outbox`` is
the one topology gate: a faulty node's message reaches only a node that
hears it this round, at most once, so delivery routes without a check.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from .dynamics import RoundGraph
from .errors import ConfigError
from .protocol import Message, NodeId, Value


@dataclass
class RoundView:
    """Read-only snapshot a strategy may consult when choosing values."""

    round: int
    phase_start_values: dict[NodeId, Value]


class Silent:
    """Send nothing, ever."""

    draws = False

    def messages(self, b: NodeId, receivers: Sequence[NodeId], view: RoundView,
                 rng: random.Random | None) -> list[tuple[NodeId, Value]]:
        return []


class FixedValue:
    """Send the same constant to every neighbor every round."""

    draws = False

    def __init__(self, value: Value):
        self.value = value

    def messages(self, b: NodeId, receivers: Sequence[NodeId], view: RoundView,
                 rng: random.Random | None) -> list[tuple[NodeId, Value]]:
        return [(r, self.value) for r in receivers]


class ExtremeSplit:
    """Pull the extremes apart: high fakes to high nodes, low fakes to low.

    Receivers are split by their value at the current phase start relative
    to the midpoint of the correct range, so nodes holding (or near) the
    maximum hear ``v_hi`` while nodes holding (or near) the minimum hear
    ``v_lo``. Faulty receivers are skipped.
    """

    draws = False

    def __init__(self, v_hi: Value, v_lo: Value):
        self.v_hi = v_hi
        self.v_lo = v_lo

    def messages(self, b: NodeId, receivers: Sequence[NodeId], view: RoundView,
                 rng: random.Random | None) -> list[tuple[NodeId, Value]]:
        base = view.phase_start_values
        if not base:
            return []
        midpoint = (min(base.values()) + max(base.values())) / 2.0
        out = []
        for r in receivers:
            if r not in base:
                continue
            out.append((r, self.v_hi if base[r] >= midpoint else self.v_lo))
        return out


class RandomLegal:
    """Independent uniform draws from a range, one per receiver per round."""

    draws = True

    def __init__(self, lo: Value, hi: Value):
        if lo > hi:
            raise ConfigError(f"random range reversed: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def messages(self, b: NodeId, receivers: Sequence[NodeId], view: RoundView,
                 rng: random.Random) -> list[tuple[NodeId, Value]]:
        return [(r, rng.uniform(self.lo, self.hi)) for r in receivers]


class ScriptedTable:
    """Send values from an explicit {round: {receiver: value}} table.

    The key ``"*"`` provides a default row used for rounds without their
    own entry. Receivers absent from the applicable row get nothing.
    """

    draws = False

    def __init__(self, table: dict[int | str, dict[NodeId, Value]]):
        self.table = {k: dict(v) for k, v in table.items()}

    def messages(self, b: NodeId, receivers: Sequence[NodeId], view: RoundView,
                 rng: random.Random | None) -> list[tuple[NodeId, Value]]:
        row = self.table.get(view.round, self.table.get("*"))
        if row is None:
            return []
        return [(r, row[r]) for r in receivers if r in row]


# Each behavior declares ``draws``: whether ``messages`` reads its rng. A
# behavior that does not is handed None, and the run seeds no stream for it.
Strategy = Silent | FixedValue | ExtremeSplit | RandomLegal | ScriptedTable


def byzantine_outbox(
    behavior: Strategy,
    b: NodeId,
    graph: RoundGraph,
    view: RoundView,
    rng: random.Random | None,
) -> list[Message]:
    """Messages faulty node b emits this round: at most one to each node that hears b.

    The gate keeps the set of b's hearers and takes each one out as it gets
    its message, so a message to b itself, to a node out of range or a
    second one to the same receiver is dropped here.
    """
    receivers = graph.out_neighbors(b)
    hearers = set(receivers)
    out: list[Message] = []
    for receiver, value in behavior.messages(b, receivers, view, rng):
        if receiver in hearers:
            hearers.remove(receiver)
            out.append((b, receiver, float(value)))
    return out
