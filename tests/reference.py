"""Independent brute-force references used as test oracles.

The trim-and-average reference works on plain sorted value lists with
explicit index sets, recomputing the side counts itself, so it shares no
code path with the package's log-based implementation. The safety
reference rescans every later round once per phase start. ``trace_bytes``
gives the bytes ``write_trace`` would write, for tests that compare runs.
"""

from agreesim.analysis import RangeCheck, Violation
from agreesim.trace import trace_to_lines


def trace_bytes(trace):
    return ("\n".join(trace_to_lines(trace)) + "\n").encode()


def reference_counts(sorted_values, v_i):
    x = sum(1 for v in sorted_values if v >= v_i)
    y = sum(1 for v in sorted_values if v <= v_i)
    return x, y


def reference_admitted(sorted_values, v_i, f):
    x, y = reference_counts(sorted_values, v_i)
    return x >= f + 1 or y >= f + 1


def reference_reduce(sorted_values, f, v_i):
    """Survivor value multiset and removed count, by index enumeration."""
    size = len(sorted_values)
    top = set(range(size - f, size)) if f > 0 else set()
    bottom = set(range(f))
    x, y = reference_counts(sorted_values, v_i)
    removed = set()
    if x > y:
        removed |= top
        removed |= {i for i in bottom if sorted_values[i] < v_i}
    else:
        removed |= bottom
        removed |= {i for i in top if sorted_values[i] > v_i}
    survivors = [v for i, v in enumerate(sorted_values) if i not in removed]
    return survivors, len(removed)


def reference_average(values, v_i):
    return (v_i + sum(values)) / (len(values) + 1)


def reference_check_safety(trace):
    """From each phase start on, values never leave that start's envelope."""
    violations = []
    last = trace.last_round + 1
    for r in trace.common_starts():
        lo, hi = trace.v_min(r), trace.v_max(r)
        for rr in range(r, last + 1):
            for i, v in sorted(trace.values_at(rr).items()):
                if not lo <= v <= hi:
                    violations.append(Violation(i, rr, v, lo, hi))
    return RangeCheck(ok=not violations, violations=violations)
