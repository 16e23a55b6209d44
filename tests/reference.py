"""Independent brute-force references used as test oracles.

The trim-and-average reference works on plain sorted value lists with
explicit index sets, recomputing the side counts itself, so it shares no
code path with the package's log-based implementation. The safety
reference rescans every later round once per phase start. The group-based
convergence detector and the witness re-check decide, by a second route,
what ``check_convergence`` and ``check_condition`` decide. ``trace_bytes``
gives the bytes ``write_trace`` would write, for tests that compare runs.
"""

import math

from agreesim.analysis import (
    Group,
    RangeCheck,
    Violation,
    is_proper,
    joint_neighbor_set,
    phase_bounds,
    retained_values,
)
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


def reference_receivers(positions, radius):
    """Per node j, every other node within ``radius`` of j, in id order."""
    return {
        j: sorted(
            k for k in positions
            if k != j and math.dist(positions[j], positions[k]) <= radius
        )
        for j in positions
    }


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


def groups_converged(values, delta):
    """Group-based agreement detector for one phase-start value vector.

    Agreement has been reached exactly when the minimum and maximum
    holders coincide (all values equal) or the near-min and near-max
    intervals overlap, i.e. v_max - delta < v_min + delta. With
    delta = epsilon/2 this matches the spread test spread < epsilon in
    exact arithmetic; once rounded, the two tests can differ when the
    spread lies within one ulp of epsilon.
    """
    lo = min(values.values())
    hi = max(values.values())
    return lo == hi or hi - delta < lo + delta


def validate_witness(trace, verdict, delta):
    """Re-check a satisfied verdict's witness against raw deliveries."""
    if not verdict.satisfied or verdict.vacuous:
        return True
    w = verdict.witness
    if w is None or len(w.senders) < trace.params.f + 1:
        return False
    bounds = phase_bounds(trace, verdict.phase, delta)
    values = trace.values_at(bounds.start_round)
    if values[w.node] == bounds.v_min:
        group = Group.MIN
    elif values[w.node] == bounds.v_max:
        group = Group.MAX
    else:
        return False
    joint = joint_neighbor_set(trace, w.node, w.round)
    retained = retained_values(trace, w.node, w.round)
    for j in w.senders:
        if j not in joint or j not in retained:
            return False
        if not is_proper(retained[j], group, bounds):
            return False
    return True
