"""Independent brute-force references used as test oracles.

The trim-and-average reference works on plain sorted value lists with
explicit index sets, recomputing the side counts itself, so it shares no
code path with the package's bisecting ``trim``. The whole-trace
checkers index a ``Trace`` by round and rescan it once per check, the
oracles for the one in-order ``Walk`` that ``build_report`` finishes:
``reference_build_report`` assembles a report from them. The safety
reference rescans every later round once per phase start. The group-based
convergence detector and the witness re-check decide, by a second route,
what ``check_convergence`` and ``check_condition`` decide. The sweep
reference runs every seed to its full horizon. The window references
rescan every round of a node's retention window at each query, the
oracles for the window rule behind ``joint_neighbor_set``,
``retained_values`` and the walk's condition. ``reference_trace_lines``
encodes a trace with the generic JSON encoder, the oracle for the
dedicated round-line encoder. ``reference_deliver`` draws each message's
loss as it files it, the oracle for ``deliver``'s filter and grouping
passes. ``reference_simulate`` builds every
round's graph afresh with ``reference_receivers``, gives every record
its own ``positions`` and ``edges``, and routes and steps every round
with ``reference_deliver`` and ``reference_step_round``: the oracle for
the engine, which reuses the last round graph while no node moves.
``reference_is_proper`` and ``reference_classify_value`` test the
group bounds in exact fractions: the oracles for ``is_proper`` and
``classify_value``, which decide each bound by the sign of one ``fsum``.
``reference_step_round`` is the node step as first written, each new
state a ``dataclasses.replace`` of the old, the oracle for the lean
``step_round``, which sorts the log's values once. ``replay`` re-runs a
finished trace's correct nodes through an ``Engine`` from its
deliveries, and ``reference_vectors`` formats its steps: the oracle for
the vectors ``run --vectors`` formats from ``simulate``'s own pass.
``trace_bytes`` gives the bytes ``write_trace`` would write, for tests
that compare runs. ``load_trace`` reads a whole trace, every round kept,
and ``walked`` walks one. ``split_reads`` makes ``read_trace`` decode any file in
forked workers, with the one-pass serial reader, ``trace_from_lines``,
as its oracle. ``counting_forks``, ``DyingPickler`` and
``assert_no_child_left`` watch and break the children that
``cpus.Children`` forks.
"""

import contextlib
import dataclasses
import itertools
import json
import math
import os
import pickle
import signal
from fractions import Fraction

import pytest

from agreesim import trace as trace_module
from agreesim.adversary import RoundView, byzantine_outbox
from agreesim.analysis import (
    ConditionVerdict,
    ConditionWitness,
    ConvergenceResult,
    Group,
    PhaseBounds,
    ProgressReport,
    ProgressViolation,
    RangeCheck,
    Violation,
    Walk,
    agreed,
    check_delta,
    condition_report,
    is_proper,
)
from agreesim.dynamics import RoundGraph, move_step
from agreesim.errors import AgreesimError, AnalysisError, ProtocolError, TraceError
from agreesim.harness import (
    IO_WINDOW_DEFAULT, Engine, RunReport, SweepCell, build_report, round_inputs, run_scenario,
    substream,
)
from agreesim.protocol import NodeState, StepResult, is_common_new_start
from agreesim.trace import SCHEMA_VERSION, RoundRecord, Trace, read_trace, trace_to_lines
from agreesim.vectors import VECTOR_SCHEMA


def trace_bytes(trace):
    return ("\n".join(trace_to_lines(trace)) + "\n").encode()


def report_text(report):
    """The text ``write_report`` writes for ``report``."""
    return json.dumps(report, sort_keys=True, indent=2, default=vars) + "\n"


def trace_from_lines(lines):
    """A trace from any iterable of text lines in one pass, each record checked as it arrives.

    ``read_trace`` decodes byte ranges of a file, each in any process, and
    folds them in order; this folds each line as soon as it is decoded.
    """
    numbered = enumerate(map(str.encode, lines), 1)
    trace, lineno = trace_module._read_header(numbered)
    keys = trace_module._node_keys(trace)
    fold = trace_module._fold(trace, lineno, trace.rounds.append)
    for _lineno, line in numbered:
        fold([trace_module._decode(line, keys, trace)])
    return trace_module._finished(trace)


class _Rounds:
    """Keeps each round ``read_trace`` reads in its trace's list."""

    def __init__(self, trace):
        self.add = trace.rounds.append


def load_trace(path):
    """The trace at ``path`` with every round record kept."""
    trace, _rounds = read_trace(path, _Rounds)
    return trace


def walked(trace, delta=None):
    """A ``Walk`` that ``build_report`` finished over ``trace``."""
    walk = Walk(trace, delta)
    build_report(trace, walk)
    return walk


def reference_trace_lines(trace):
    """``trace_to_lines``'s lines from ``json.dumps`` with sorted keys, one record at a time."""
    def by_id(values):
        # Keys become strings first: sort_keys would sort int keys by number,
        # not in the string order the trace holds.
        return {str(k): v for k, v in values.items()}

    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    header = {
        "type": "header",
        "schema": SCHEMA_VERSION,
        "scenario": trace.scenario_name,
        "seed": trace.seed,
        "params": dataclasses.asdict(trace.params),
        "byz_set": sorted(trace.byz_set),
        "initial_values": by_id(trace.initial_values),
    }
    rounds = [
        {
            "type": "round",
            "round": rec.round,
            "positions": by_id(rec.positions),
            "edges": rec.edges,
            "byz_sent": rec.byz_sent,
            "delivered": rec.delivered,
            "values_start": by_id(rec.values_start),
            "local_start": by_id(rec.local_start),
            "logs": {str(i): by_id(log) for i, log in rec.logs.items()},
            "computed": by_id(rec.computed),
        }
        for rec in trace.rounds
    ]
    final = {"type": "final", "values": by_id(trace.final_values)}
    return [dumps(record) for record in [header, *rounds, final]]


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


def reference_step_round(state, inbox, r, params):
    """``step_round`` with its own count, trim and average, as first written."""
    broadcast = state.value
    merged = dict(state.log)
    for sender, value in inbox:
        if sender == state.id:
            raise ProtocolError(f"node {state.id} received its own broadcast")
        if math.isfinite(value):
            merged[sender] = (value, r)
    f = params.f
    x = sum(1 for v, _ in merged.values() if v >= state.value)
    y = sum(1 for v, _ in merged.values() if v <= state.value)
    if x >= f + 1 or y >= f + 1:
        order = sorted(merged, key=lambda s: (merged[s][0], s))
        top = order[len(order) - f:] if f > 0 else []
        bottom = order[:f]
        if x > y:
            removed = set(top).union(s for s in bottom if merged[s][0] < state.value)
        else:
            removed = set(bottom).union(s for s in top if merged[s][0] > state.value)
        values = [merged[s][0] for s in order if s not in removed]
        count = len(values) + 1
        try:
            mean = (state.value + math.fsum(values)) / count
        except OverflowError:
            mean = math.inf
        if math.isinf(mean):  # the sum left float range: add up each value over the count
            mean = math.fsum([v / count for v in values + [state.value]])
        lo = min(values + [state.value])
        hi = max(values + [state.value])
        new_state = dataclasses.replace(
            state, value=min(max(mean, lo), hi), log={}, last_local_start=r + 1
        )
        computed = True
    elif r % params.r_c == 0:
        new_state = dataclasses.replace(state, log={}, last_local_start=r + 1)
        computed = False
    else:
        new_state = dataclasses.replace(state, log=merged)
        computed = False
    return StepResult(new_state, broadcast, merged, computed)


def reference_receivers(positions, radius):
    """Per node j, every other node within ``radius`` of j, in id order."""
    return {
        j: sorted(
            k for k in positions
            if k != j and math.dist(positions[j], positions[k]) <= radius
        )
        for j in positions
    }


def reference_simulate(config):
    """``simulate`` over the full horizon, each round's graph, edge list and position map afresh.

    Messages go through ``reference_deliver`` and nodes through
    ``reference_step_round``, so no part of the engine's round is shared.
    """
    params, model, behavior, place, start = config.validate()
    seed = config.seed

    def stream(draws, *parts):
        return substream(seed, *parts) if draws else None

    positions = place(substream(seed, "init-pos"))
    values = start(substream(seed, "init-values"))
    states = {i: NodeState(id=i, value=values[i]) for i in config.correct_ids}
    trace = Trace(params=params, byz_set=config.byz_set, initial_values=dict(values),
                  scenario_name=config.name, seed=seed)
    phase_start_values = dict(values)
    for r in range(1, config.effective_max_rounds + 1):
        if is_common_new_start(r, config.r_c):
            phase_start_values = {i: s.value for i, s in states.items()}
        view = RoundView(round=r, phase_start_values=phase_start_values)
        positions = move_step(positions, model, stream(model.draws, "move", r), r)
        graph = RoundGraph(receivers=reference_receivers(positions, config.radius))
        outbox = [(i, j, states[i].value) for i in sorted(states) for j in graph.out_neighbors(i)]
        byz_sent = []
        for b in sorted(config.byz_set):
            byz_sent += byzantine_outbox(behavior, b, graph, view,
                                         stream(behavior.draws, "adv", r, b))
        inboxes = reference_deliver(graph, outbox + byz_sent, config.loss_rate,
                                    stream(config.loss_rate > 0.0, "loss", r))
        results = {
            i: reference_step_round(
                states[i], [(sender, value) for sender, _, value in inboxes.get(i, [])], r, params)
            for i in sorted(states)
        }
        trace.rounds.append(RoundRecord(
            round=r,
            positions=dict(positions),
            edges=sorted((j, k) for j, ks in graph.receivers.items() for k in ks),
            byz_sent=sorted(byz_sent),
            delivered=sorted(itertools.chain.from_iterable(inboxes.values())),
            values_start={i: s.value for i, s in states.items()},
            local_start={i: s.last_local_start for i, s in states.items()},
            logs={i: res.merged_log for i, res in results.items()},
            computed={i: res.computed for i, res in results.items()},
        ))
        states = {i: res.state for i, res in results.items()}
    trace.final_values = {i: s.value for i, s in states.items()}
    return trace


def replay(trace):
    """Each record of ``trace`` stepped through an ``Engine`` from its deliveries, in order.

    Yields what ``simulate`` hands its hook, the trace aside: the rebuilt
    record, the states entering the round, the inboxes and the step results.
    """
    engine = Engine(trace)
    for rec in trace.rounds:
        states, inputs = engine.states, round_inputs(rec)
        record, results = engine.step(*inputs)
        yield record, states, inputs[-1], results


def reference_vectors(trace):
    """Every correct node's step in ``replay(trace)``, as the vectors ``run --vectors`` writes."""
    p = trace.params

    def state(s):
        log = {str(sender): list(entry) for sender, entry in s.log.items()}
        return {"value": s.value, "log": log, "last_local_start": s.last_local_start}

    return [
        {
            "schema": VECTOR_SCHEMA,
            "round": rec.round,
            "params": {"n": p.n, "f": p.f, "r_c": p.r_c},
            "state_in": {"id": i, **state(states[i])},
            "inbox": [[sender, value] for sender, _recv, value in inboxes.get(i, [])],
            "expect": {"broadcast": res.broadcast, **state(res.state), "computed": res.computed},
        }
        for rec, states, inboxes, results in replay(trace)
        for i, res in results.items()
    ]


def reference_deliver(graph, outbox, loss_rate, rng):
    """``deliver`` walking the sorted messages one by one, drawing each one's loss as it goes."""
    inboxes = {}
    for msg in sorted(outbox):
        if loss_rate > 0.0 and rng.random() < loss_rate:
            continue
        inboxes.setdefault(msg[1], []).append(msg)
    return inboxes


# Whole-trace queries by round number, for the oracles below and for tests.

def v_min(trace, r):
    return min(trace.values_at(r).values())


def v_max(trace, r):
    return max(trace.values_at(r).values())


def spread(trace, r):
    return v_max(trace, r) - v_min(trace, r)


def reported_spread(trace, r):
    """``spread`` as a report writes it: None beyond float range."""
    return None if math.isinf(spread(trace, r)) else spread(trace, r)


def common_starts(trace):
    """Phase-opening rounds covered by the trace, including last+1."""
    return list(range(1, trace.last_round + 2, trace.params.r_c))


def phase_of(trace, r):
    return (r - 1) // trace.params.r_c


def trace_phases(trace):
    """Phases whose rounds are (at least partly) covered by the trace."""
    return [phase_of(trace, r) for r in common_starts(trace) if r <= trace.last_round]


def phase_bounds(trace, k, delta):
    start = k * trace.params.r_c + 1
    if not 1 <= start <= trace.last_round + 1:
        raise AnalysisError(f"phase {k} starts beyond the trace")
    return PhaseBounds(phase=k, start_round=start, v_min=v_min(trace, start),
                       v_max=v_max(trace, start), delta=delta)


def legal_reference_round(r, r_c):
    """Phase-start round whose extrema bound values at round r.

    Values computed mid-phase may use retained values from earlier in the
    phase, so the binding envelope is the previous phase start: rounds
    inside a phase answer to their own phase start, while a phase-opening
    round (computed during the last round of the previous phase) answers
    to the start of that previous phase. Both cases are the phase start of
    round r-1, the round during which round r's values were computed.
    """
    if r < 1:
        raise AnalysisError(f"round must be >= 1, got {r}")
    return max(1, (r - 2) // r_c * r_c + 1)


def reference_range_check(trace, envelope):
    """Test every correct value at each round r against ``envelope(r)``'s (lo, hi)."""
    violations = []
    for r in range(1, trace.last_round + 2):
        lo, hi = envelope(r)
        for i, v in sorted(trace.values_at(r).items()):
            if not lo <= v <= hi:
                violations.append(Violation(i, r, v, lo, hi))
    return RangeCheck(ok=not violations, violations=violations)


def reference_check_validity(trace):
    lo, hi = min(trace.initial_values.values()), max(trace.initial_values.values())
    return reference_range_check(trace, lambda r: (lo, hi))


def reference_check_legality(trace):
    def envelope(r):
        d = legal_reference_round(r, trace.params.r_c)
        return v_min(trace, d), v_max(trace, d)

    return reference_range_check(trace, envelope)


def reference_check_safety(trace):
    """From each phase start on, values never leave that start's envelope."""
    violations = []
    last = trace.last_round + 1
    for r in common_starts(trace):
        lo, hi = v_min(trace, r), v_max(trace, r)
        for rr in range(r, last + 1):
            for i, v in sorted(trace.values_at(rr).items()):
                if not lo <= v <= hi:
                    violations.append(Violation(i, rr, v, lo, hi))
    return RangeCheck(ok=not violations, violations=violations)


def reference_check_convergence(trace):
    for r in common_starts(trace):
        if agreed(trace.values_at(r).values(), trace.params.epsilon):
            return ConvergenceResult(reached=True, at_round=r)
    return ConvergenceResult(reached=False, at_round=None)


def extreme_holder_count(trace, r):
    values = trace.values_at(r).values()
    lo, hi = min(values), max(values)
    return sum(1 for v in values if v == lo) + sum(1 for v in values if v == hi)


def reference_check_phase_progress(trace, verdicts):
    """Extremum-holder attrition over each pair of consecutive phase starts, rescanned."""
    n = trace.params.n
    starts = common_starts(trace)
    by_phase = {v.phase: v for v in verdicts}
    violations = []
    streak = max_streak = 0
    for r, r_next in zip(starts, starts[1:]):
        k = phase_of(trace, r)
        stagnant = (v_min(trace, r), v_max(trace, r)) == (v_min(trace, r_next), v_max(trace, r_next))
        if by_phase[k].vacuous or not by_phase[k].satisfied or not stagnant:
            streak = 0
            continue
        streak += 1
        max_streak = max(max_streak, streak)
        before, after = extreme_holder_count(trace, r), extreme_holder_count(trace, r_next)
        if after >= before:
            violations.append(ProgressViolation(
                k, "no-attrition",
                f"extrema unchanged over phase {k} but extreme holders went {before} -> {after}",
            ))
        if streak >= n:
            violations.append(ProgressViolation(
                k, "stagnation", f"extrema unchanged for {streak} phases (n={n})",
            ))
    return ProgressReport(ok=not violations, violations=violations, max_stagnant_streak=max_streak)


def reference_build_report(trace, delta):
    """``build_report``'s report, each check a rescan of the whole trace."""
    delta = check_delta(delta, trace.params.epsilon)
    convergence = reference_check_convergence(trace)
    verdicts = [reference_check_condition(trace, k, delta) for k in trace_phases(trace)]
    flags = [v.satisfied for v in verdicts]
    progress = reference_check_phase_progress(trace, verdicts)
    return RunReport(
        scenario=trace.scenario_name,
        seed=trace.seed,
        converged=convergence.reached,
        converged_at=convergence.at_round,
        validity_ok=reference_check_validity(trace).ok,
        legality_ok=reference_check_legality(trace).ok,
        safety_ok=reference_check_safety(trace).ok,
        cardinality_ok=trace.params.meets_cardinality_bound,
        condition_per_phase=verdicts,
        condition_ok_all_phases=condition_report(flags, 1),
        condition_ok_io=condition_report(flags, IO_WINDOW_DEFAULT),
        io_window=IO_WINDOW_DEFAULT,
        progress_ok=progress.ok,
        progress_violations=[f"{v.kind}@phase{v.phase}: {v.detail}" for v in progress.violations],
        max_stagnant_streak=progress.max_stagnant_streak,
        phase_starts=[{"round": r, "v_min": v_min(trace, r), "v_max": v_max(trace, r),
                       "spread": reported_spread(trace, r)} for r in common_starts(trace)],
        final_spread=reported_spread(trace, trace.last_round + 1),
    )


def reference_window_deliveries(trace, i, r):
    """(sender, value) of every message delivered to node i in its window.

    The window runs from i's local new starting round in effect at round r
    through round r itself; deliveries come oldest first.
    """
    record = trace.rounds[r - 1]
    if i not in record.local_start:
        raise TraceError(f"node {i} is not a correct node of this trace")
    return [
        (sender, value)
        for rr in range(record.local_start[i], r + 1)
        for sender, receiver, value in trace.rounds[rr - 1].delivered
        if receiver == i
    ]


def reference_joint_neighbor_set(trace, i, r):
    return {sender for sender, _value in reference_window_deliveries(trace, i, r)} - {i}


def reference_retained_values(trace, i, r):
    return {
        sender: value
        for sender, value in reference_window_deliveries(trace, i, r)
        if math.isfinite(value)
    }


def reference_check_condition(trace, k, delta):
    """``check_condition`` rebuilding each extreme holder's window at every round of the phase."""
    bounds = phase_bounds(trace, k, delta)
    start = bounds.start_round
    values = trace.values_at(start)
    if agreed(values.values(), trace.params.epsilon):
        return ConditionVerdict(phase=k, satisfied=True, vacuous=True)
    extremes = [
        (i, Group.MIN if values[i] == bounds.v_min else Group.MAX)
        for i in sorted(values)
        if values[i] in (bounds.v_min, bounds.v_max)
    ]
    f = trace.params.f
    last_phase_round = min(start + trace.params.r_c - 1, trace.last_round)
    for r_prime in range(start, last_phase_round + 1):
        for i, group in extremes:
            joint = reference_joint_neighbor_set(trace, i, r_prime)
            retained = reference_retained_values(trace, i, r_prime)
            proper = [
                j for j in sorted(retained)
                if is_proper(retained[j], group, bounds) and j in joint
            ]
            if len(proper) >= f + 1:
                return ConditionVerdict(
                    phase=k,
                    satisfied=True,
                    witness=ConditionWitness(i, r_prime, proper),
                )
    return ConditionVerdict(phase=k, satisfied=False)


def reference_is_proper(value, group, bounds):
    """``is_proper`` over exact fractions: the oracle at the rounded bounds."""
    v, lo, hi, delta = map(Fraction, (value, bounds.v_min, bounds.v_max, bounds.delta))
    if group is Group.MIN:
        return v >= lo + delta
    if group is Group.MAX:
        return v <= hi - delta
    raise AnalysisError(f"observer must hold an extreme value, got {group}")


def reference_classify_value(value, bounds):
    """``classify_value`` over exact fractions, its five intervals as the docstring lists them."""
    v, lo, hi, delta = map(Fraction, (value, bounds.v_min, bounds.v_max, bounds.delta))
    if lo == hi or v == lo:
        return Group.MIN
    if v == hi:
        return Group.MAX
    if lo + delta <= v <= hi - delta:
        return Group.MID
    return Group.NIN if v < lo + delta else Group.NAX


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
    joint = reference_joint_neighbor_set(trace, w.node, w.round)
    retained = reference_retained_values(trace, w.node, w.round)
    for j in w.senders:
        if j not in joint or j not in retained:
            return False
        if not is_proper(retained[j], group, bounds):
            return False
    return True


def reference_sweep(template, grid, seeds):
    """``sweep``'s cells with every run simulated to its full horizon.

    Grid keys must name top-level scenario fields.
    """
    keys = sorted(grid)
    cells = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        assignment = dict(zip(keys, combo))
        config = dataclasses.replace(template, **assignment)
        completed = []
        for seed in seeds:
            try:
                _trace, report = run_scenario(config, seed=seed)
            except AgreesimError:
                continue
            if report.invariants_ok:
                completed.append(report)
        rounds = [rep.converged_at for rep in completed if rep.converged]
        held = [v.satisfied for rep in completed for v in rep.condition_per_phase if not v.vacuous]
        cells.append(
            SweepCell(
                assignment=assignment,
                runs=len(seeds),
                failures=len(seeds) - len(completed),
                converged_rate=len(rounds) / len(completed) if completed else 0.0,
                mean_converged_round=sum(rounds) / len(rounds) if rounds else None,
                condition_rate=sum(held) / len(held) if held else 1.0,
            )
        )
    return cells


@contextlib.contextmanager
def split_reads(workers: int):
    """``read_trace`` splits every regular file over ``workers`` processes,
    whatever the affinity mask; with one worker it reads in one pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_module, "SPLIT_READ_BYTES", 0)
        patch.setattr(os, "sched_getaffinity", lambda _pid: set(range(workers)), raising=False)
        yield


def counting_forks(monkeypatch) -> list[int]:
    """The pids of the children ``os.fork`` makes from now on, as they are forked."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class DyingPickler(pickle.Pickler):
    """Writes the first half of its pickle, then kills its process."""

    def __init__(self, file, *args, **kwargs):
        super().__init__(file, *args, **kwargs)
        self.out = file

    def dump(self, obj):
        data = pickle.dumps(obj)
        self.out.write(data[: len(data) // 2])
        self.out.flush()
        os.kill(os.getpid(), signal.SIGKILL)
