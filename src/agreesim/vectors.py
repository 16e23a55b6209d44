"""Conformance vectors: recorded step calls for cross-implementation checks.

One JSON line per node step: the full input state, inbox, round, and
parameters, plus the expected outputs. Another implementation of the same
node logic can replay the file and diff its results field by field.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import MALFORMED, describe
from .harness import replay
from .protocol import NodeState, ProtocolParams, StepResult, step_round
from .trace import Trace

VECTOR_SCHEMA = 1


def _state_to_json(state: NodeState) -> dict:
    log = {str(sender): list(entry) for sender, entry in state.log.items()}
    return {"value": state.value, "log": log, "last_local_start": state.last_local_start}


def _outputs(result: StepResult) -> dict:
    state = _state_to_json(result.state)
    return {"broadcast": result.broadcast, **state, "computed": result.computed}


def vectors_from_trace(trace: Trace) -> list[dict]:
    """Format every correct node's replayed steps of a trace as vectors."""
    p = trace.params
    return [
        {
            "schema": VECTOR_SCHEMA,
            "round": rec.round,
            "params": {"n": p.n, "f": p.f, "r_c": p.r_c},
            "state_in": {"id": i, **_state_to_json(states[i])},
            "inbox": [[sender, value] for sender, _recv, value in inboxes.get(i, [])],
            "expect": _outputs(result),
        }
        for rec, states, inboxes, results in replay(trace)
        for i, result in results.items()
    ]


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
    """Run one recorded step and report any field mismatches.

    A vector the step cannot run, or whose ``expect`` names other fields
    than the step's outputs, is one mismatch that names the fault.
    """
    try:
        p = record["params"]
        params = ProtocolParams(n=p["n"], f=p["f"], r_c=p["r_c"], epsilon=1.0)
        s = record["state_in"]
        state = NodeState(
            id=s["id"],
            value=s["value"],
            log={int(sender): (pair[0], pair[1]) for sender, pair in s["log"].items()},
            last_local_start=s["last_local_start"],
        )
        inbox = [(pair[0], pair[1]) for pair in record["inbox"]]
        got = _outputs(step_round(state, inbox, record["round"], params))
        expect = record["expect"]
        if expect.keys() != got.keys():
            return [f"expect: holds fields {sorted(expect)}, the step outputs {sorted(got)}"]
    except MALFORMED as exc:
        return [f"malformed vector ({describe(exc)})"]
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
