"""Conformance vectors: recorded step calls for cross-implementation checks.

One JSON line per node step: the full input state, inbox, round, and
parameters, plus the expected outputs. Another implementation of the same
node logic can replay the file and diff its results field by field.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

from .errors import MALFORMED, decimal_key, describe, require_types
from .protocol import NodeState, ProtocolParams, StepResult, step_round
from .trace import Trace, _dumps, _reject_constant

VECTOR_SCHEMA = 1


def _state_to_json(state: NodeState) -> dict:
    log = {str(sender): list(entry) for sender, entry in state.log.items()}
    return {"value": state.value, "log": log, "last_local_start": state.last_local_start}


def _outputs(result: StepResult) -> dict:
    state = _state_to_json(result.state)
    return {"broadcast": result.broadcast, **state, "computed": result.computed}


def step_vectors(trace: Trace, states: dict, inboxes: dict, results: dict) -> list[dict]:
    """The steps of ``trace``'s last round as vectors, from the arguments of ``simulate``'s hook."""
    p = trace.params
    return [
        {
            "schema": VECTOR_SCHEMA,
            "round": trace.last_round,
            "params": {"n": p.n, "f": p.f, "r_c": p.r_c},
            "state_in": {"id": i, **_state_to_json(states[i])},
            "inbox": [[sender, value] for sender, _recv, value in inboxes.get(i, [])],
            "expect": _outputs(result),
        }
        for i, result in results.items()
    ]


def write_vectors(records: Iterable[dict], path: str | Path) -> None:
    """Write each vector as a canonical JSON line, as it is encoded."""
    with open(path, "w", encoding="utf-8") as out:
        for rec in records:
            out.write(_dumps(rec) + "\n")


def read_vectors(path: str | Path) -> list[dict]:
    """The vectors of a file read as UTF-8 and split on "\\n", whatever the locale.

    A ``NaN`` or ``Infinity`` token raises ValueError, as it does in a trace.
    """
    with open(path, encoding="utf-8", newline="\n") as lines:
        return [json.loads(line, parse_constant=_reject_constant) for line in lines if line.strip()]


def _node_id(node) -> int:
    if type(node) is not int:  # "1" is no node, and True would pass for 1
        raise TypeError(f"node id {node!r} is not an int")
    return node


def replay_vector(record: dict) -> list[str]:
    """Run one recorded step and report any field mismatches.

    A vector the step cannot run, or that is not a schema ``VECTOR_SCHEMA``
    vector with int node ids, canonical decimal log keys, two-element inbox
    and log entries, int rounds and values that are numbers within float
    range, as a trace's must be, or whose ``expect`` names other fields
    than the step's outputs, is one mismatch that names the fault. Each
    expected field is compared with the output by its JSON text, so ``1``
    and ``true``, ``2`` and ``2.0``, ``0.0`` and ``-0.0`` differ.
    """
    try:
        if record["schema"] != VECTOR_SCHEMA:
            raise ValueError(f"schema {record['schema']!r} is not {VECTOR_SCHEMA}")
        p = record["params"]
        params = ProtocolParams(n=p["n"], f=p["f"], r_c=p["r_c"], epsilon=1.0)
        s = record["state_in"]
        state = NodeState(
            id=_node_id(s["id"]),
            value=s["value"],
            log={decimal_key(sender, "log key"): (value, received)
                 for sender, (value, received) in s["log"].items()},
            last_local_start=s["last_local_start"],
        )
        inbox = [(_node_id(sender), value) for sender, value in record["inbox"]]
        entries = list(state.log.values())
        require_types({int}, "rounds", [record["round"], state.last_local_start]
                      + [received for _value, received in entries])
        require_types({int, float}, "values", [state.value] + [value for value, _ in entries]
                      + [value for _sender, value in inbox])
        got = _outputs(step_round(state, inbox, record["round"], params))
        expect = record["expect"]
        if expect.keys() != got.keys():
            return [f"expect: holds fields {sorted(expect)}, the step outputs {sorted(got)}"]
        return [
            f"{key}: expected {expect[key]!r}, got {got[key]!r}"
            for key in expect
            if _dumps(expect[key]) != _dumps(got[key])
        ]
    except MALFORMED as exc:
        return [f"malformed vector ({describe(exc)})"]


def replay_vectors(records: list[dict]) -> list[tuple[int, list[str]]]:
    """Replay all vectors; returns (index, mismatches) for failing ones."""
    failures = []
    for idx, record in enumerate(records):
        mismatches = replay_vector(record)
        if mismatches:
            failures.append((idx, mismatches))
    return failures
