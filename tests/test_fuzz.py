"""A standing fuzzer for ``agreesim check``: mutated builtin traces never crash it.

Each example takes the trace of one builtin scenario and edits one or two
of its records the way a faulty writer would: a dict key dropped, a value
swapped for one of another type, a list entry repeated, or a number moved
beyond float range. Whatever the edit, ``check`` must end with an exit
code of the contract (0 ok, 1 violated, 2 usage) and never raise; on exit
2 it prints exactly one line to stderr. Read in forked workers, every
trace gives the same exit code and output as read in one pass.
"""

import contextlib
import functools
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from agreesim.cli import main
from agreesim.harness import simulate
from agreesim.scenarios import LIBRARY, builtin_scenario
from agreesim.trace import trace_to_lines

from reference import split_reads

# One value of each JSON type, for swaps; the huge numbers for range edits.
# "1e400" is written as a bare JSON number, which reads as inf.
OTHER_TYPES = [None, True, "x", [], {}, 1.5, -0.0, 7]
E400 = "1e400"
OUT_OF_RANGE = [10**400, -(10**400), E400]


@functools.cache
def builtin_lines(name: str) -> tuple[str, ...]:
    return tuple(trace_to_lines(simulate(builtin_scenario(name))))


def slots(value):
    """``(container, key)`` of every value nested in ``value``, at any depth."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield value, key
        if isinstance(child, (dict, list)):
            yield from slots(child)


@st.composite
def mutated_traces(draw):
    lines = list(builtin_lines(draw(st.sampled_from(sorted(LIBRARY)))))
    for _ in range(draw(st.integers(1, 2))):
        # The header and final record are drawn as often as all rounds together.
        at = draw(st.sampled_from([0, len(lines) - 1]) | st.integers(0, len(lines) - 1))
        record = json.loads(lines[at])
        every = list(slots(record))
        applicable = {
            "drop": [(c, k) for c, k in every if isinstance(c, dict)],
            "repeat": [(c, k) for c, k in every if isinstance(c[k], list) and c[k]],
            "out_of_range": [(c, k) for c, k in every if type(c[k]) in (int, float)],
        }
        kind = draw(st.sampled_from(["drop", "swap", "repeat", "out_of_range"]))
        container, key = draw(st.sampled_from(applicable.get(kind) or every))
        if kind == "drop" and applicable["drop"]:
            del container[key]
        elif kind == "repeat" and applicable["repeat"]:
            entries = container[key]
            entries.insert(0, entries[draw(st.integers(0, len(entries) - 1))])
        elif kind == "out_of_range" and applicable["out_of_range"]:
            container[key] = draw(st.sampled_from(OUT_OF_RANGE))
        else:
            others = [v for v in OTHER_TYPES if type(v) is not type(container[key])]
            container[key] = draw(st.sampled_from(others))
        lines[at] = json.dumps(record).replace(f'"{E400}"', E400)
    return lines


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.jsonl"


@settings(max_examples=300, deadline=None)
@given(lines=mutated_traces())
def test_check_never_crashes_on_a_mutated_trace(trace_path, lines):
    trace_path.write_text("".join(line + "\n" for line in lines))
    outcomes = []
    for workers in (1, 3):
        out, err = io.StringIO(), io.StringIO()
        with split_reads(workers), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "--trace", str(trace_path)])
        outcomes.append((code, out.getvalue(), err.getvalue()))
    code, _out, err = outcomes[0]
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.splitlines()) == 1, err
    assert outcomes[1] == outcomes[0]
