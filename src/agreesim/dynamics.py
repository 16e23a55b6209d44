"""Mobility, per-round communication graphs, and message delivery.

Nodes live in a bounded rectangular arena. Each round starts with a move
part, after which the directed communication graph is induced by radio
range: an edge (j, i) means i can hear j this round. Messages may be lost
independently; everything is driven by seeded random streams so runs
replay exactly. Every message handed to ``deliver`` already follows an
edge: correct nodes send along ``out_neighbors``, and
``adversary.byzantine_outbox`` is the gate for faulty ones.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ConfigError
from .protocol import Message, NodeId

Position = tuple[float, float]


@dataclass(frozen=True)
class Arena:
    width: float
    height: float

    def __post_init__(self) -> None:
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ConfigError(f"arena sides must be finite and positive, got {self}")

    def contains(self, pos: Position) -> bool:
        return 0.0 <= pos[0] <= self.width and 0.0 <= pos[1] <= self.height

    def clamp(self, pos: Position) -> Position:
        return (
            min(max(pos[0], 0.0), self.width),
            min(max(pos[1], 0.0), self.height),
        )

    def random_point(self, rng: random.Random) -> Position:
        return (rng.uniform(0.0, self.width), rng.uniform(0.0, self.height))


@dataclass(frozen=True)
class RoundGraph:
    """Who hears whom in one round: ``receivers[j]`` lists j's hearers in id order."""

    receivers: dict[NodeId, list[NodeId]]

    @property
    def edges(self) -> list[tuple[NodeId, NodeId]]:
        """Every (sender, receiver) pair, sorted."""
        return [(j, k) for j in sorted(self.receivers) for k in self.receivers[j]]

    def out_neighbors(self, j: NodeId) -> Sequence[NodeId]:
        """Nodes that hear j this round, in id order."""
        return self.receivers.get(j, ())


class Stationary:
    """Nodes never move: every round's map is the one the run started with."""

    draws = False

    def step(self, r: int, positions: dict[NodeId, Position],
             rng: random.Random | None) -> dict[NodeId, Position]:
        return positions


class RandomWaypoint:
    """Classic waypoint roaming: pick a target, walk to it, pick another."""

    draws = True

    def __init__(self, arena: Arena, speed_min: float, speed_max: float):
        if not 0 < speed_min <= speed_max:
            raise ConfigError(
                f"need 0 < speed_min <= speed_max, got {speed_min}, {speed_max}"
            )
        self.arena = arena
        self.speed_min = speed_min
        self.speed_max = speed_max
        self._targets: dict[NodeId, tuple[Position, float]] = {}

    def step(self, r: int, positions: dict[NodeId, Position],
             rng: random.Random) -> dict[NodeId, Position]:
        new_positions = {}
        for i in sorted(positions):
            pos = positions[i]
            target, speed = self._targets.get(i, (None, 0.0))
            if target is None or math.dist(pos, target) < 1e-12:
                target = self.arena.random_point(rng)
                speed = rng.uniform(self.speed_min, self.speed_max)
                self._targets[i] = (target, speed)
            dist = math.dist(pos, target)
            if dist <= speed:
                new_positions[i] = target
                self._targets[i] = (None, 0.0)
            else:
                frac = speed / dist
                new_positions[i] = self.arena.clamp(
                    (pos[0] + (target[0] - pos[0]) * frac,
                     pos[1] + (target[1] - pos[1]) * frac)
                )
        return new_positions


class Scripted:
    """Replay per-node waypoint lists; a node holds its last waypoint.

    Nodes without a script stay where they are. Waypoints are teleports:
    the node occupies waypoint[r-1] during round r.
    """

    draws = False

    def __init__(self, arena: Arena, waypoints: dict[NodeId, list[Position]]):
        for i, path in waypoints.items():
            for pos in path:
                if not arena.contains(pos):
                    raise ConfigError(
                        f"scripted waypoint {pos} for node {i} outside arena"
                    )
        self.waypoints = {i: list(path) for i, path in waypoints.items()}

    def step(self, r: int, positions: dict[NodeId, Position],
             rng: random.Random | None) -> dict[NodeId, Position]:
        new_positions = dict(positions)
        for i, path in self.waypoints.items():
            if path:
                new_positions[i] = path[min(r - 1, len(path) - 1)]
        return new_positions


class TeleportRandom:
    """Jump to a fresh uniform position every round."""

    draws = True

    def __init__(self, arena: Arena):
        self.arena = arena

    def step(self, r: int, positions: dict[NodeId, Position],
             rng: random.Random) -> dict[NodeId, Position]:
        return {i: self.arena.random_point(rng) for i in sorted(positions)}


# Each model declares ``draws``: whether ``step`` reads its rng. A model
# that does not is handed None, and the run seeds no stream for it. A model
# never changes the map it is handed; a node that stays put keeps its very
# position object (a model may hand the map back unchanged), which is how a
# run tells that no node moved and reuses the last round graph.
MobilityModel = Stationary | RandomWaypoint | Scripted | TeleportRandom


def move_step(
    positions: dict[NodeId, Position],
    model: MobilityModel,
    rng: random.Random | None,
    r: int,
) -> dict[NodeId, Position]:
    """Advance every node through the move part of round r."""
    return model.step(r, positions, rng)


def build_round_graph(positions: dict[NodeId, Position], radius: float) -> RoundGraph:
    """Disk connectivity: mutual edges between nodes within radio range.

    Row ``a`` appends to both ends of each in-range pair, so every
    receiver list comes out in id order without a sort.
    """
    ids = sorted(positions)
    receivers: dict[NodeId, list[NodeId]] = {i: [] for i in ids}
    for a, i in enumerate(ids):
        pos, row = positions[i], receivers[i]
        for j in ids[a + 1:]:
            if math.dist(pos, positions[j]) <= radius:
                row.append(j)
                receivers[j].append(i)
    return RoundGraph(receivers=receivers)


def deliver(
    graph: RoundGraph,
    outbox: list[Message],
    loss_rate: float,
    rng: random.Random | None,
) -> dict[NodeId, list[Message]]:
    """Route messages, dropping each independently with probability loss_rate.

    Every message follows an edge of ``graph``, at most one per (sender,
    receiver) pair: correct nodes send along ``out_neighbors`` and
    ``adversary.byzantine_outbox`` drops any faulty message that does not,
    so routing checks nothing. Draws happen in sorted message order so the
    loss pattern replays exactly; only a positive loss_rate draws, so
    ``rng`` may otherwise be None.
    """
    msgs = sorted(outbox)
    if loss_rate > 0.0:
        draw = rng.random
        msgs = [msg for msg in msgs if not draw() < loss_rate]
    inboxes: dict[NodeId, list[Message]] = {}
    for msg in msgs:
        inboxes.setdefault(msg[1], []).append(msg)
    return inboxes
