"""Run traces: the full per-round record a simulation emits.

A trace is line-delimited JSON: one header record, one record per round,
and one trailing record with the final values. Round records capture the
state *at the beginning* of the round (values, retention-window starts)
plus everything that happened during it (positions after the move part,
edges, messages sent by faulty nodes, deliveries, post-merge logs, and
whether each node computed a new value). Records are written in the order
they hold, and the simulator stores edges and messages sorted, so identical
runs produce byte-identical files. Every record is canonical JSON: keys
sorted, no spaces. Round lines, nearly all of a trace's bytes, come from a
dedicated encoder that gives the same bytes as ``json.dumps`` would.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import TraceError, malformed
from .protocol import Log, Message, NodeId, ProtocolParams, Value

SCHEMA_VERSION = 1
_FLOAT_MAX = sys.float_info.max


@dataclass
class RoundRecord:
    round: int
    positions: dict[NodeId, tuple[float, float]]
    edges: list[tuple[NodeId, NodeId]]
    byz_sent: list[Message]
    delivered: list[Message]
    values_start: dict[NodeId, Value]
    local_start: dict[NodeId, int]
    logs: dict[NodeId, Log]
    computed: dict[NodeId, bool]


@dataclass
class Trace:
    params: ProtocolParams
    byz_set: set[NodeId]
    initial_values: dict[NodeId, Value]
    rounds: list[RoundRecord] = field(default_factory=list)
    final_values: dict[NodeId, Value] = field(default_factory=dict)
    scenario_name: str = ""
    seed: int = 0

    @property
    def last_round(self) -> int:
        return len(self.rounds)

    def record(self, r: int) -> RoundRecord:
        if not 1 <= r <= self.last_round:
            raise TraceError(f"round {r} outside trace range 1..{self.last_round}")
        return self.rounds[r - 1]

    def values_at(self, r: int) -> dict[NodeId, Value]:
        """Correct values at the beginning of round r (r may be last+1)."""
        if r == self.last_round + 1:
            return self.final_values
        return self.record(r).values_start

    def v_min(self, r: int) -> Value:
        return min(self.values_at(r).values())

    def v_max(self, r: int) -> Value:
        return max(self.values_at(r).values())

    def spread(self, r: int) -> Value:
        values = self.values_at(r).values()
        return max(values) - min(values)

    def common_starts(self) -> list[int]:
        """Phase-opening rounds covered by the trace, including last+1."""
        r_c = self.params.r_c
        return list(range(1, self.last_round + 2, r_c))

    def phase_of(self, r: int) -> int:
        return (r - 1) // self.params.r_c


def _require(types: set, field: str, values: Iterable) -> None:
    """Raise TypeError unless every value's type is in ``types``, so never for a bool.

    A number field (``float`` in ``types``), passed as a collection, must also
    lie within float range: a larger integer breaks float arithmetic, and JSON's
    ``1e400`` reads as inf.
    """
    if not set(map(type, values)) <= types:
        raise TypeError(f"{field} must hold {'numbers' if float in types else 'integers'}")
    if float in types and values and not -_FLOAT_MAX <= min(values) <= max(values) <= _FLOAT_MAX:
        raise ValueError(f"{field} must lie within float range")


def _round_from_json(obj: dict, n: int, byz_set: set[NodeId]) -> RoundRecord:
    # Unpacking, not indexing, so a tuple of the wrong length is rejected.
    rec = RoundRecord(
        round=obj["round"],
        positions={int(k): (x, y) for k, (x, y) in obj["positions"].items()},
        edges=[(s, k) for s, k in obj["edges"]],
        byz_sent=[(s, k, v) for s, k, v in obj["byz_sent"]],
        delivered=[(s, k, v) for s, k, v in obj["delivered"]],
        values_start={int(k): v for k, v in obj["values_start"].items()},
        local_start={int(k): v for k, v in obj["local_start"].items()},
        logs={
            int(i): {int(j): (v, r) for j, (v, r) in log.items()}
            for i, log in obj["logs"].items()
        },
        computed={int(k): v for k, v in obj["computed"].items()},
    )
    chain = itertools.chain.from_iterable
    messages = rec.byz_sent + rec.delivered
    entries = [entry for log in rec.logs.values() for entry in log.values()]
    message_ids = [m[0] for m in messages] + [m[1] for m in messages]
    _require({int}, "round", [rec.round])
    _require({int}, "edges", chain(rec.edges))
    _require({int}, "message node ids", message_ids)
    _require({int}, "local_start", rec.local_start.values())
    _require({int}, "log rounds", [r for _v, r in entries])
    _require({int, float}, "values_start", rec.values_start.values())
    _require({int, float}, "message values", [m[2] for m in messages])
    _require({int, float}, "logs", [v for v, _r in entries])
    _require({int, float}, "positions", list(chain(rec.positions.values())))
    if not all(type(c) is bool for c in rec.computed.values()):
        raise TypeError("computed must hold booleans")
    node_ids = set(rec.positions).union(chain(rec.edges), message_ids, chain(rec.logs.values()))
    if not all(0 <= i < n for i in node_ids):
        raise ValueError(f"node ids must lie in 0..{n - 1}")
    if any(a == b for a, b in rec.edges) or any(m[0] == m[1] for m in messages):
        raise ValueError("an edge or a message goes from a node to itself")
    if not {m[0] for m in rec.byz_sent} <= byz_set:
        raise ValueError("byz_sent holds a message from a node outside byz_set")
    if {m for m in rec.delivered if m[0] in byz_set} - set(rec.byz_sent):
        raise ValueError("a faulty node's delivered message is not in its round's byz_sent")
    edges = set(rec.edges)
    if len(edges) < len(rec.edges):
        raise ValueError("edges lists one (sender, receiver) pair twice")
    for sent in (rec.byz_sent, rec.delivered):
        pairs = {(s, k) for s, k, _v in sent}
        if len(pairs) < len(sent):
            raise ValueError("two messages in one list share a (sender, receiver) pair")
        if not pairs <= edges:
            raise ValueError("a message's (sender, receiver) pair is not an edge of its round")
    if not all(1 <= start <= rec.round for start in rec.local_start.values()):
        raise ValueError(f"local_start must lie in 1..{rec.round}")
    return rec


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _FloatText(dict):
    """The JSON text of each float one trace holds, each formatted once.

    ``float.__repr__`` is the round encoder's main cost, and a trace writes
    each value many times: sent, delivered and kept in logs. Only floats
    are looked up here (ints and bools go to ``json.dumps``), so ``1``,
    ``1.0`` and ``True`` never share an entry; zeros are never stored,
    because ``0.0 == -0.0``.
    """

    def __missing__(self, v: float) -> str:
        text = float.__repr__(v) if math.isfinite(v) else json.dumps(v)
        if v:
            self[v] = text
        return text


def _by_id(entries: Iterable[str]) -> str:
    # The members of an object keyed by node id, each '"<id>":<text>'. A
    # quote sorts before every digit, so the entries sort in the string
    # order of their ids ("10" before "2"), the order sort_keys gives.
    return ",".join(sorted(entries))


def _messages(sent: list[Message], num: _FloatText) -> str:
    return ",".join(
        [f"[{s},{k},{num[v] if type(v) is float else json.dumps(v)}]" for s, k, v in sent]
    )


def _round_line(rec: RoundRecord, num: _FloatText) -> str:
    """``rec`` as the text ``_dumps`` gives, written directly: keys in sort_keys order.

    The line is joined once from its parts: a chain of ``+`` would copy each
    long prefix again, and the freed copies inflate the process's memory.
    """
    # Messages and log entries hold nearly every value, so they make the
    # same float test inline: a call per value would cost more than it does.
    def value(v) -> str:
        return num[v] if type(v) is float else json.dumps(v)

    logs = _by_id(
        f'"{i}":{{' + _by_id([
            f'"{j}":[{num[v] if type(v) is float else json.dumps(v)},{r}]'
            for j, (v, r) in log.items()
        ]) + "}"
        for i, log in rec.logs.items()
    )
    computed = _by_id(f'"{i}":{"true" if c else "false"}' for i, c in rec.computed.items())
    positions = _by_id(f'"{i}":[{value(x)},{value(y)}]' for i, (x, y) in rec.positions.items())
    return "".join([
        '{"byz_sent":[', _messages(rec.byz_sent, num),
        '],"computed":{', computed,
        '},"delivered":[', _messages(rec.delivered, num),
        '],"edges":[', ",".join([f"[{j},{k}]" for j, k in rec.edges]),
        '],"local_start":{', _by_id(f'"{i}":{r}' for i, r in rec.local_start.items()),
        '},"logs":{', logs,
        '},"positions":{', positions,
        f'}},"round":{rec.round},"type":"round","values_start":{{',
        _by_id(f'"{i}":{value(v)}' for i, v in rec.values_start.items()),
        "}}",
    ])


def trace_to_lines(trace: Trace) -> list[str]:
    header = {
        "type": "header",
        "schema": SCHEMA_VERSION,
        "scenario": trace.scenario_name,
        "seed": trace.seed,
        "params": {
            "n": trace.params.n,
            "f": trace.params.f,
            "r_c": trace.params.r_c,
            "epsilon": trace.params.epsilon,
        },
        "byz_set": sorted(trace.byz_set),
        "initial_values": {str(k): v for k, v in trace.initial_values.items()},
    }
    num = _FloatText()
    lines = [_dumps(header)]
    lines.extend(_round_line(rec, num) for rec in trace.rounds)
    lines.append(
        _dumps(
            {
                "type": "final",
                "values": {str(k): v for k, v in trace.final_values.items()},
            }
        )
    )
    return lines


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a finite number")


def _header_from_json(obj: dict) -> Trace:
    if obj.get("type") != "header" or obj.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"expected a schema {SCHEMA_VERSION} header, got {obj.get('type')!r} "
                         f"schema {obj.get('schema')!r}")
    p = obj["params"]
    trace = Trace(
        params=ProtocolParams(n=p["n"], f=p["f"], r_c=p["r_c"], epsilon=p["epsilon"]),
        byz_set=set(obj["byz_set"]),
        initial_values={int(k): v for k, v in obj["initial_values"].items()},
        scenario_name=obj.get("scenario", ""),
        seed=obj.get("seed", 0),
    )
    _require({int}, "byz_set", trace.byz_set)
    if type(trace.seed) is not int or type(trace.scenario_name) is not str:
        raise TypeError("seed must be an integer and scenario a string")
    _require({int, float}, "header values", [p["epsilon"], *trace.initial_values.values()])
    ids = set(trace.initial_values)
    if not ids:
        raise ValueError("header lists no initial values")
    if not all(0 <= i < trace.params.n for i in ids | trace.byz_set):
        raise ValueError(f"node ids must lie in 0..{trace.params.n - 1}")
    if ids & trace.byz_set:
        raise ValueError(f"faulty nodes {sorted(ids & trace.byz_set)} are correct too")
    return trace


def trace_from_lines(lines: Iterable[str]) -> Trace:
    """Build a trace from any iterable of lines, checking each record as it arrives."""
    trace = None
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if trace is not None and trace.final_values:
            raise TraceError(f"line {lineno}: a record follows the final record")
        with malformed(TraceError, f"line {lineno}: malformed record"):
            obj = json.loads(line, parse_constant=_reject_constant)
            if trace is None:
                trace = _header_from_json(obj)
                continue
            kind = obj.get("type")
            if kind == "round":
                rec = _round_from_json(obj, trace.params.n, trace.byz_set)
                if rec.round != trace.last_round + 1:
                    raise TraceError(f"line {lineno}: round {rec.round} is out of order")
                if rec.round == 1 and rec.values_start != trace.initial_values:
                    raise TraceError("round 1 values_start differs from the header's initial values")
                trace.rounds.append(rec)
                by_node = [rec.values_start, rec.local_start, rec.logs, rec.computed]
            elif kind == "final":
                trace.final_values = {int(k): v for k, v in obj["values"].items()}
                _require({int, float}, "final values", trace.final_values.values())
                by_node = [trace.final_values]
            else:
                raise TraceError(f"line {lineno}: unknown trace record type {kind!r}")
        if any(per_node.keys() != trace.initial_values.keys() for per_node in by_node):
            raise TraceError(f"line {lineno}: node ids differ from the header's initial values")
    if trace is None:
        raise TraceError("trace does not start with a header record")
    if not trace.final_values:  # a final record without values fails the id check
        raise TraceError("trace has no final record")
    return trace


def write_trace(trace: Trace, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(line + "\n" for line in trace_to_lines(trace))


def read_trace(path: str | Path) -> Trace:
    with open(path, encoding="utf-8", newline="\n") as lines:  # JSON Lines splits on "\n" only
        return trace_from_lines(lines)
