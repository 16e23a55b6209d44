"""A standing fuzzer for ``agreesim check``: mutated builtin traces never crash it.

Each example takes the trace of one builtin scenario and edits one or two
of its records the way a faulty writer would: a dict key dropped, a value
swapped for one of another type, a list entry repeated, or a number moved
beyond float range. Byte edits break its lines instead: a line cut short,
a byte that is not UTF-8 put into one, the header included, or two lines
joined. Whatever the edit, ``check`` must end with an exit code of the
contract (0 ok, 1 violated, 2 usage) and never raise; on exit 2 it prints
exactly one line to stderr, a trace error. Read in forked workers, every
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
# A lone high byte, a lead byte with no continuation, a stray continuation
# byte, and a UTF-16 surrogate encoded as UTF-8: none of them decodes.
NOT_UTF8 = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]


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
    return "".join(line + "\n" for line in lines).encode()


@st.composite
def byte_edited_traces(draw):
    lines = [line.encode() for line in builtin_lines(draw(st.sampled_from(sorted(LIBRARY))))]
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.sampled_from([0, len(lines) - 1]) | st.integers(0, len(lines) - 1))
        line = lines[at]
        kind = draw(st.sampled_from(["cut", "not_utf8", "join"]))
        if kind == "cut" and line:  # an earlier edit may have cut it to nothing
            lines[at] = line[:draw(st.integers(0, len(line) - 1))]
        elif kind == "not_utf8":
            cut = draw(st.integers(0, len(line)))
            lines[at] = line[:cut] + draw(st.sampled_from(NOT_UTF8)) + line[cut:]
        elif kind == "join" and len(lines) > 1:  # this line and the next, or the last two
            at = min(at, len(lines) - 2)
            lines[at:at + 2] = [lines[at] + lines[at + 1]]
    return b"".join(line + b"\n" for line in lines)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.jsonl"


@settings(max_examples=300, deadline=None)
@given(data=mutated_traces())
def test_check_never_crashes_on_a_mutated_trace(trace_path, data):
    assert_check_keeps_the_contract(trace_path, data)


@settings(max_examples=200, deadline=None)
@given(data=byte_edited_traces())
def test_check_never_crashes_on_a_byte_edited_trace(trace_path, data):
    assert_check_keeps_the_contract(trace_path, data)


def assert_check_keeps_the_contract(trace_path, data: bytes) -> None:
    trace_path.write_bytes(data)
    outcomes = []
    for workers in (1, 3):
        out, err = io.StringIO(), io.StringIO()
        with split_reads(workers), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "--trace", str(trace_path)])
        outcomes.append((code, out.getvalue(), err.getvalue()))
    code, _out, err = outcomes[0]
    assert code in (0, 1, 2)
    if code == 2:  # the file is readable: whatever is wrong is in a record
        assert len(err.splitlines()) == 1 and err.startswith("trace error: "), err
    assert outcomes[1] == outcomes[0]
