"""Conformance vectors: recorded step calls for cross-implementation checks.

One JSON line per node step: the full input state, inbox, round, and
parameters, plus the expected outputs. Another implementation of the same
node logic can replay the file and diff its results field by field.
"""

from __future__ import annotations

import json
from pathlib import Path

from .protocol import Log, NodeState, ProtocolParams, StepResult, step_round
from .trace import Trace

VECTOR_SCHEMA = 1


def _log_to_json(log: Log) -> dict:
    return {str(sender): list(entry) for sender, entry in log.items()}


def _log_from_json(obj: dict) -> Log:
    return {int(sender): (pair[0], pair[1]) for sender, pair in obj.items()}


def _outputs(result: StepResult) -> dict:
    return {
        "broadcast": result.broadcast,
        "value": result.state.value,
        "log": _log_to_json(result.state.log),
        "last_local_start": result.state.last_local_start,
        "computed": result.computed,
    }


def step_vector(
    state: NodeState,
    inbox: list[tuple[int, float]],
    r: int,
    params: ProtocolParams,
    result: StepResult,
) -> dict:
    return {
        "schema": VECTOR_SCHEMA,
        "round": r,
        "params": {"n": params.n, "f": params.f, "r_c": params.r_c},
        "state_in": {
            "id": state.id,
            "value": state.value,
            "log": _log_to_json(state.log),
            "last_local_start": state.last_local_start,
        },
        "inbox": [[sender, value] for sender, value in inbox],
        "expect": _outputs(result),
    }


def vectors_from_trace(trace: Trace) -> list[dict]:
    """Recompute every correct node's steps of a trace as vectors."""
    states = {
        i: NodeState(id=i, value=v) for i, v in trace.initial_values.items()
    }
    records = []
    for rec in trace.rounds:
        inboxes: dict[int, list[tuple[int, float]]] = {}
        for sender, receiver, value in rec.delivered:
            inboxes.setdefault(receiver, []).append((sender, value))
        for i in sorted(states):
            inbox = inboxes.get(i, [])
            result = step_round(states[i], inbox, rec.round, trace.params)
            records.append(step_vector(states[i], inbox, rec.round, trace.params, result))
            states[i] = result.state
    return records


def write_vectors(records: list[dict], path: str | Path) -> None:
    lines = [json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records]
    Path(path).write_text("\n".join(lines) + "\n")


def read_vectors(path: str | Path) -> list[dict]:
    return [
        json.loads(line)
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]


def replay_vector(record: dict) -> list[str]:
    """Run one recorded step and report any field mismatches."""
    p = record["params"]
    params = ProtocolParams(n=p["n"], f=p["f"], r_c=p["r_c"], epsilon=1.0)
    s = record["state_in"]
    state = NodeState(
        id=s["id"],
        value=s["value"],
        log=_log_from_json(s["log"]),
        last_local_start=s["last_local_start"],
    )
    inbox = [(pair[0], pair[1]) for pair in record["inbox"]]
    result = step_round(state, inbox, record["round"], params)
    expect = record["expect"]
    got = _outputs(result)
    return [
        f"{key}: expected {expect[key]!r}, got {got[key]!r}"
        for key in expect
        if expect[key] != got[key]
    ]


def replay_vectors(records: list[dict]) -> list[tuple[int, list[str]]]:
    """Replay all vectors; returns (index, mismatches) for failing ones."""
    failures = []
    for idx, record in enumerate(records):
        mismatches = replay_vector(record)
        if mismatches:
            failures.append((idx, mismatches))
    return failures
