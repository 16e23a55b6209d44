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

``run`` encodes batches of round records in forked children while the
simulation goes on, and writes their bytes in round order: the file does
not depend on how many CPUs did the work.

Reading decodes and checks each line on its own, bytes that are not UTF-8
included, then folds the lines in order, checking what spans records, and
hands each round record on as it comes: no round list is kept. A large
file's lines are decoded in forked workers, a stream's in one pass.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import shutil
import stat
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, TypeVar

from .cpus import Children, split_map, worker_count
from .errors import MALFORMED, TraceError, decimal_key, describe, malformed, require_types
from .protocol import Log, Message, NodeId, ProtocolParams, Value

SCHEMA_VERSION = 1
T = TypeVar("T")


@dataclass
class RoundRecord:
    """One round of a run, as its trace line holds it. Read-only.

    ``simulate`` gives a round in which no node moved the ``positions``
    map and ``edges`` list of the record before, the very objects, so a
    change to one record's would show in every record that shares them.
    """

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

    def values_at(self, r: int) -> dict[NodeId, Value]:
        """Correct values at the beginning of round r (r may be last+1)."""
        if r == self.last_round + 1:
            return self.final_values
        if not 1 <= r <= self.last_round:
            raise TraceError(f"round {r} outside trace range 1..{self.last_round + 1}")
        return self.rounds[r - 1].values_start


def _node_id(keys: dict[str, NodeId], key: str) -> NodeId:
    """The node id a JSON object key names: a listed node's from ``keys``, else its decimal.

    A canonical id that is not listed is returned for the range and id-set
    checks to reject.
    """
    node = keys.get(key)
    return decimal_key(key, "node id") if node is None else node


def _by_node(keys: dict[str, NodeId], raw: dict) -> dict:
    """A JSON object keyed by node id, with its values as they are."""
    return {_node_id(keys, k): v for k, v in raw.items()}


def _pairs_by_node(keys: dict[str, NodeId], raw: dict) -> dict:
    """A JSON object keyed by node id whose values are two-element lists, as tuples."""
    # Unpacking, not indexing, so a list of the wrong length is rejected.
    return {_node_id(keys, k): (a, b) for k, (a, b) in raw.items()}


def _rows(raw: list, width: int) -> list[tuple]:
    """A JSON list of ``width``-element lists (edges, messages), as tuples."""
    if width == 2:
        return [(a, b) for a, b in raw]
    return [(a, b, c) for a, b, c in raw]


def _columns(rows: list[tuple], width: int) -> list[tuple]:
    return list(zip(*rows)) or [()] * width


def _round_from_json(obj: dict, keys: dict[str, NodeId], header: Trace) -> RoundRecord:
    rec = RoundRecord(
        round=obj["round"],
        positions=_pairs_by_node(keys, obj["positions"]),
        edges=_rows(obj["edges"], 2),
        byz_sent=_rows(obj["byz_sent"], 3),
        delivered=_rows(obj["delivered"], 3),
        values_start=_by_node(keys, obj["values_start"]),
        local_start=_by_node(keys, obj["local_start"]),
        logs={_node_id(keys, i): _pairs_by_node(keys, log) for i, log in obj["logs"].items()},
        computed=_by_node(keys, obj["computed"]),
    )
    n, byz_set = header.params.n, header.byz_set
    chain = itertools.chain.from_iterable
    edge_from, edge_to = _columns(rec.edges, 2)
    byz_from, byz_to, byz_values = _columns(rec.byz_sent, 3)
    sent_from, sent_to, sent_values = _columns(rec.delivered, 3)
    message_ids = byz_from + byz_to + sent_from + sent_to
    log_values, log_rounds = _columns(list(chain(map(dict.values, rec.logs.values()))), 2)
    require_types({int}, "round", [rec.round])
    require_types({int}, "edges", edge_from + edge_to)
    require_types({int}, "message node ids", message_ids)
    require_types({int}, "local_start", rec.local_start.values())
    require_types({int}, "log rounds", log_rounds)
    require_types({int, float}, "values_start", rec.values_start.values())
    require_types({int, float}, "message values", byz_values + sent_values)
    require_types({int, float}, "logs", log_values)
    require_types({int, float}, "positions", list(chain(rec.positions.values())))
    if not set(map(type, rec.computed.values())) <= {bool}:
        raise TypeError("computed must hold booleans")
    node_ids = set(rec.positions).union(message_ids, edge_from, edge_to, chain(rec.logs.values()))
    if node_ids and not 0 <= min(node_ids) <= max(node_ids) < n:
        raise ValueError(f"node ids must lie in 0..{n - 1}")
    if any(map(operator.eq, edge_from + byz_from + sent_from, edge_to + byz_to + sent_to)):
        raise ValueError("an edge or a message goes from a node to itself")
    if not set(byz_from) <= byz_set:
        raise ValueError("byz_sent holds a message from a node outside byz_set")
    if not set(rec.byz_sent).issuperset(
        itertools.compress(rec.delivered, map(byz_set.__contains__, sent_from))
    ):
        raise ValueError("a faulty node's delivered message is not in its round's byz_sent")
    edges = set(rec.edges)
    if len(edges) < len(rec.edges):
        raise ValueError("edges lists one (sender, receiver) pair twice")
    for senders, receivers in ((byz_from, byz_to), (sent_from, sent_to)):
        pairs = set(zip(senders, receivers))
        if len(pairs) < len(senders):
            raise ValueError("two messages in one list share a (sender, receiver) pair")
        if not pairs <= edges:
            raise ValueError("a message's (sender, receiver) pair is not an edge of its round")
    first = (rec.round - 1) // header.params.r_c * header.params.r_c + 1
    starts = rec.local_start.values()
    if starts and not first <= min(starts) <= max(starts) <= rec.round:
        raise ValueError(f"local_start must lie in {first}..{rec.round}")
    return rec


def _dumps(obj) -> str:
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


def _round_line(rec: RoundRecord, num: _FloatText, last: dict[str, tuple[object, str]]) -> str:
    """``rec`` as the text ``_dumps`` gives, written directly: keys in sort_keys order.

    ``last`` holds the text of the ``edges`` and ``positions`` of the record
    encoded before, with those objects: a record that holds the very same
    object, as one where no node moved does, reuses the text.

    The line is joined once from its parts: a chain of ``+`` would copy each
    long prefix again, and the freed copies inflate the process's memory.
    """
    # Messages and log entries hold nearly every value, so they make the
    # same float test inline: a call per value would cost more than it does.
    def value(v) -> str:
        return num[v] if type(v) is float else json.dumps(v)

    def shared(name: str, obj, encode: Callable[[], str]) -> str:
        hit = last.get(name)
        if hit is None or hit[0] is not obj:
            hit = last[name] = (obj, encode())
        return hit[1]

    logs = _by_id(
        f'"{i}":{{' + _by_id([
            f'"{j}":[{num[v] if type(v) is float else json.dumps(v)},{r}]'
            for j, (v, r) in log.items()
        ]) + "}"
        for i, log in rec.logs.items()
    )
    computed = _by_id(f'"{i}":{"true" if c else "false"}' for i, c in rec.computed.items())
    positions = shared("positions", rec.positions, lambda: _by_id(
        f'"{i}":[{value(x)},{value(y)}]' for i, (x, y) in rec.positions.items()
    ))
    edges = shared("edges", rec.edges, lambda: ",".join([f"[{j},{k}]" for j, k in rec.edges]))
    return "".join([
        '{"byz_sent":[', _messages(rec.byz_sent, num),
        '],"computed":{', computed,
        '},"delivered":[', _messages(rec.delivered, num),
        '],"edges":[', edges,
        '],"local_start":{', _by_id(f'"{i}":{r}' for i, r in rec.local_start.items()),
        '},"logs":{', logs,
        '},"positions":{', positions,
        f'}},"round":{rec.round},"type":"round","values_start":{{',
        _by_id(f'"{i}":{value(v)}' for i, v in rec.values_start.items()),
        "}}",
    ])


def trace_to_lines(trace: Trace, encoded: int = 0) -> list[str]:
    """The trace's lines: header, each round record after the first ``encoded``, final values."""
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
    num, last = _FloatText(), {}
    lines = [_dumps(header)]
    lines.extend(_round_line(rec, num, last) for rec in trace.rounds[encoded:])
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
        initial_values=_by_node({}, obj["initial_values"]),  # no node is listed yet
        scenario_name=obj.get("scenario", ""),
        seed=obj.get("seed", 0),
    )
    require_types({int}, "byz_set", trace.byz_set)
    if type(trace.seed) is not int or type(trace.scenario_name) is not str:
        raise TypeError("seed must be an integer and scenario a string")
    require_types({int, float}, "header values", [p["epsilon"], *trace.initial_values.values()])
    ids = set(trace.initial_values)
    if not ids:
        raise ValueError("header lists no initial values")
    n = trace.params.n
    listed = ids | trace.byz_set
    if not all(0 <= i < n for i in listed):
        raise ValueError(f"node ids must lie in 0..{n - 1}")
    if ids & trace.byz_set:
        raise ValueError(f"faulty nodes {sorted(ids & trace.byz_set)} are correct too")
    # Nothing is sized from n: a foreign header may claim any n.
    if len(listed) != n:
        raise ValueError(f"n is {n}, but the header lists {len(listed)} nodes")
    return trace


def _read_header(numbered: Iterator[tuple[int, bytes]]) -> tuple[Trace, int]:
    """The header record, from the first line that is not blank, and its line number."""
    for lineno, raw in numbered:
        with malformed(TraceError, f"line {lineno}: malformed record"):
            line = raw.decode()
            if line.strip():
                return _header_from_json(json.loads(line, parse_constant=_reject_constant)), lineno
    raise TraceError("trace does not start with a header record")


def _node_keys(trace: Trace) -> dict[str, NodeId]:
    """The JSON object key of each node the header lists."""
    return {str(i): i for i in trace.initial_values.keys() | trace.byz_set}


def _decode(raw: bytes, keys: dict[str, NodeId], trace: Trace):
    """One record line after the header, read from its bytes and checked on its own.

    Returns None for a blank line, a round record, the final values, or the
    text of what makes the record malformed. It depends on nothing but the
    line and the header, so lines can be decoded in any order and in any
    process; ``_fold`` checks what spans records.
    """
    try:
        line = raw.decode()
        if not line.strip():
            return None
        obj = json.loads(line, parse_constant=_reject_constant)
        kind = obj.get("type")
        if kind == "round":
            return _round_from_json(obj, keys, trace)
        if kind == "final":
            values = _by_node(keys, obj["values"])
            require_types({int, float}, "final values", values.values())
            return values
    except MALFORMED as exc:
        return f"malformed record ({describe(exc)})"
    return f"unknown trace record type {kind!r}"


def _fold(trace: Trace, lineno: int, on_round: Callable[[RoundRecord], object]):
    """What takes the decoded lines after line ``lineno``, in order, over one or more calls.

    It checks what spans records: round numbering, round 1 against the
    header, node ids, one final record. Each round record then goes to
    ``on_round``, the final values into ``trace``.
    """
    lines, rounds = itertools.count(lineno + 1), itertools.count(1)

    def fold(items: Iterable) -> None:
        for item, lineno in zip(items, lines):
            if item is None:
                continue
            if trace.final_values:
                raise TraceError(f"line {lineno}: a record follows the final record")
            if isinstance(item, str):
                raise TraceError(f"line {lineno}: {item}")
            is_round = type(item) is RoundRecord
            if is_round:
                if item.round != next(rounds):
                    raise TraceError(f"line {lineno}: round {item.round} is out of order")
                if item.round == 1 and item.values_start != trace.initial_values:
                    raise TraceError("round 1 values_start differs from the header's initial values")
                by_node = [item.values_start, item.local_start, item.logs, item.computed]
            else:
                trace.final_values = item
                by_node = [item]
            if any(per_node.keys() != trace.initial_values.keys() for per_node in by_node):
                raise TraceError(f"line {lineno}: node ids differ from the header's initial values")
            if is_round:
                on_round(item)

    return fold


def _finished(trace: Trace) -> Trace:
    if not trace.final_values:  # a final record without values fails the id check
        raise TraceError("trace has no final record")
    return trace


def _encode_rounds(records: list[RoundRecord]) -> bytes:
    """The lines of ``records`` as a trace file holds them, each ended by a newline."""
    num, last = _FloatText(), {}
    return "".join([_round_line(rec, num, last) + "\n" for rec in records]).encode()


# A run's horizon is encoded in ENCODE_BATCHES batches of rounds, each in a
# forked child. A batch waits, gathering rounds, until the rounds in it
# delivered ENCODE_MIN_MESSAGES messages. Forking cost the parent 1.1 ms
# with the stuck_partition benchmark trace in memory and 1.6 ms with the
# mobile_n100 one, and encoding costs 2-3 us per delivered message, so a
# batch saves the parent at least 4 ms. No builtin scenario delivers that
# many in its whole run, so none forks.
ENCODE_BATCHES = 4
ENCODE_MIN_MESSAGES = 2048


class TraceEncoder(Children):
    """Encodes round records in forked children while the simulation produces later ones.

    ``add`` is ``simulate``'s ``on_round`` hook: once a batch of rounds is
    complete, one child encodes it, from the records it shares with this
    process copy-on-write, and holds the bytes until ``write_trace`` reads
    them. With one allowed CPU, or other threads running, or once a fork
    fails, the rounds not yet taken are left to ``write_trace`` to encode
    here.
    """

    def __init__(self, max_rounds: int) -> None:
        super().__init__()
        self.batch = -(-max_rounds // ENCODE_BATCHES)
        self.taken = 0  # rounds 1..taken went to children
        self._messages = 0  # delivered in the rounds after taken
        self._forking = True
        self._spans: list[tuple[int, int]] = []  # rounds[a:b] of each child, in order

    def add(self, trace: Trace, *_step) -> None:
        """Take ``trace`` after its newest round; the states, inboxes and step results go unread."""
        rounds = trace.rounds
        self._messages += len(rounds[-1].delivered)
        if (not self._forking or len(rounds) - self.taken < self.batch
                or self._messages < ENCODE_MIN_MESSAGES):
            return
        span = (self.taken, len(rounds))
        self._forking = worker_count(2) > 1 and self.fork(
            span, lambda out: out.write(_encode_rounds(rounds[span[0]:span[1]]))
        )
        if self._forking:
            self._spans.append(span)
            self.taken, self._messages = span[1], 0

    def write_batches(self, trace: Trace, out: BinaryIO) -> None:
        """Each child's bytes in round order; a dead child's batch is encoded here instead."""
        def copy(stream: BinaryIO) -> bool:
            shutil.copyfileobj(stream, out)
            return True

        for span in self._spans:
            start = out.tell()
            if self.result(span, copy) is None:
                out.seek(start)
                out.truncate()
                out.write(_encode_rounds(trace.rounds[span[0]:span[1]]))


def write_trace(trace: Trace, path: str | Path, encoder: TraceEncoder | None = None) -> None:
    """Write ``trace`` to ``path``; the rounds ``encoder``'s children took come from their pipes."""
    lines = trace_to_lines(trace, encoder.taken if encoder else 0)
    with open(path, "wb") as out:
        out.write(lines[0].encode() + b"\n")
        if encoder is not None:
            encoder.write_batches(trace, out)
        for line in lines[1:]:
            out.write(line.encode() + b"\n")


# A trace file at least this large is decoded on every allowed CPU. Reading
# leading parts of the mobile_n100 benchmark trace on two Xeon CPUs, two
# workers took 1.18x the one-pass time at 0.34 MB, 0.94x at 0.71 MB, 0.90x
# at 0.88 MB and 0.76x at 1.4 MB.
SPLIT_READ_BYTES = 1 << 20


def read_trace(path: str | Path, start: Callable[[Trace], T]) -> tuple[Trace, T]:
    """Read a trace from a file or a stream; a large file is decoded in forked workers.

    ``start(header)`` is called before any round is read; its ``add`` takes
    each round record in order. The trace returned with it holds no round,
    so memory does not grow with the trace's length. JSON Lines splits on
    "\n" only, so every reader here does too.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        workers = 1
        if stat.S_ISREG(info.st_mode) and info.st_size >= SPLIT_READ_BYTES:
            # each worker decodes at least half the split size
            workers = worker_count(2 * info.st_size // max(SPLIT_READ_BYTES, 1))
        trace, lineno = _read_header(enumerate(fh, 1))
        consumer = start(trace)
        fold = _fold(trace, lineno, consumer.add)
        keys = _node_keys(trace)
        if workers == 1:  # one pass, from the stream that read the header
            fold(_decode(raw, keys, trace) for raw in fh)
        else:
            _decode_split(fh, info.st_size, workers, keys, trace, fold)
    return _finished(trace), consumer


def _decode_split(fh, size: int, workers: int, keys: dict[str, NodeId], trace: Trace,
                  fold: Callable[[Iterable], None]) -> None:
    """``fold`` the ``_decode`` of each line after the header, in ``workers`` byte ranges of the file.

    Each range's lines are folded as soon as those before them are, so one
    decoded range is held here at a time.
    """
    cuts = [fh.tell()]
    for k in range(1, workers):
        fh.seek(cuts[0] + (size - cuts[0]) * k // workers)
        fh.readline()  # each cut follows a "\n"
        cuts.append(max(fh.tell(), cuts[-1]))
    cuts.append(size)
    spans = [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
    split_map(lambda span: _decode_lines(fh.name, span, keys, trace), spans, fold)


def _decode_lines(path: str | Path, span: tuple[int, int], keys: dict[str, NodeId],
                  trace: Trace) -> list:
    """``_decode`` of each line in the byte range ``span`` of the file at ``path``.

    The range starts a line and ends one or the file. It is read one line
    at a time through a file of its own, so no process moves another's
    offset and no copy of the whole range is held. It stops after the first
    malformed line: ``_fold`` raises there at the latest, so a bad record
    early in a large file is reported at once.
    """
    start, stop = span
    decoded = []
    with open(path, "rb") as fh:
        fh.seek(start)
        for raw in fh:  # lines keep their b"\n"
            item = _decode(raw, keys, trace)
            decoded.append(item)
            start += len(raw)
            if start >= stop or isinstance(item, str):
                break
    return decoded
