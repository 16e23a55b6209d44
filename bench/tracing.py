"""Spans and counters around agreesim's public functions, for the traced run.

Each function is replaced at the attribute where its caller looks it up
(``agreesim.harness.step_round``, ``RoundGraph.out_neighbors``, ...), so
the program itself is not edited. The wrappers come in two kinds, never
installed together. In a timed operation a wrapper records a span (name,
start, end, parent, operation id) and nothing else. In a counting
operation a wrapper reads no clock and derives counts from the call's
arguments and return value. So no counter's cost lands in any span's self
time. Nothing here is installed while the end-to-end metrics are measured.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


def subtree_self_exceeds(spans: list[Span], selfs: list[float], names: set[str]) -> list[str]:
    """Spans named in ``names`` whose descendants' self times sum past their duration."""
    below: dict[int, float] = defaultdict(float)
    # Children always come after their parent in the list, so a reverse
    # pass sees every descendant before its ancestor.
    for idx in range(len(spans) - 1, -1, -1):
        parent = spans[idx].parent
        if parent >= 0:
            below[parent] += selfs[idx] + below[idx]
    bad = []
    for idx, span in enumerate(spans):
        if span.name in names and below[idx] > (span.end - span.start) * (1 + 1e-9) + 1e-9:
            bad.append(f"{span.name}#{idx}: children {below[idx]:.6f}s > span {span.end - span.start:.6f}s")
    return bad


class Recorder:
    """Holds spans and counters in memory until the benchmark ends."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._prefix_trace = None
        self._prefix: list[int] = []

    # -- recording -------------------------------------------------------

    def timed(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op)

        return wrapper

    @staticmethod
    def hooked(fn, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result, *args, **kwargs)
            return result

        return wrapper

    def _count_calls(self, name: str):
        def hook(*_args, **_kw) -> None:
            self.counts[name + ".calls"] += 1

        return hook

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def take_counts(self) -> Counter:
        """Counters accumulated since the last call, then start afresh."""
        counts, self.counts = self.counts, Counter()
        self._prefix_trace, self._prefix = None, []
        return counts

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, timing: bool) -> None:
        """Wrap the measured functions: with spans if ``timing``, else with counters."""
        mod = importlib.import_module
        cli, harness, analysis = mod("agreesim.cli"), mod("agreesim.harness"), mod("agreesim.analysis")
        trace_mod, dynamics = mod("agreesim.trace"), mod("agreesim.dynamics")
        graph_cls, trace_cls = dynamics.RoundGraph, trace_mod.Trace

        # (owner, attribute, span name or None if only counted, counting hook or None)
        wrapped = [
            (cli, "run_scenario", "harness.run_scenario", self._after_run_scenario),
            (harness, "run_scenario", "harness.run_scenario", self._after_run_scenario),
            (cli, "sweep", "harness.sweep", None),
            (cli, "build_report", "harness.build_report", None),
            (harness, "simulate", "harness.simulate", None),
            (harness, "build_report", "harness.build_report", None),
            (cli, "write_series_csv", "harness.write_series_csv", None),
            (harness, "move_step", "dynamics.move_step", None),
            (harness, "build_round_graph", "dynamics.build_round_graph", self._after_graph),
            (harness, "deliver", "dynamics.deliver", self._after_deliver),
            (harness, "byzantine_outbox", "adversary.byzantine_outbox", self._after_outbox),
            (harness, "step_round", "protocol.step_round", self._after_step),
            (analysis, "joint_neighbor_set", "dynamics.joint_neighbor_set", self._after_window_scan),
            (analysis, "retained_values", "dynamics.retained_values", self._after_window_scan),
            (analysis, "check_condition", "analysis.check_condition", None),
            (cli, "condition_report", "analysis.condition_report", None),
            (cli, "check_convergence", "analysis.check_convergence", None),
            (cli, "write_trace", "trace.write_trace", None),
            (cli, "read_trace", "trace.read_trace", None),
            (trace_mod, "trace_to_lines", "trace.trace_to_lines", None),
            (graph_cls, "out_neighbors", "dynamics.out_neighbors", None),
            (trace_cls, "values_at", None, self._count_calls("trace.values_at")),
            (harness, "substream", None, self._count_calls("harness.substream")),
        ]
        for check in (
            "check_validity", "check_legality", "check_safety", "check_convergence",
            "check_condition", "check_phase_progress", "spread_series",
        ):
            wrapped.append((harness, check, "analysis." + check, None))
        for owner, attr, name, hook in wrapped:
            fn = getattr(owner, attr)
            if timing and name is not None:
                self._replace(owner, attr, self.timed(name, fn))
            elif not timing and hook is not None:
                self._replace(owner, attr, self.hooked(fn, hook))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- counters derived from arguments and results ----------------------

    def _after_graph(self, graph, *_args, **_kw) -> None:
        self.counts["dynamics.edges"] += len(graph.edges)

    def _after_deliver(self, inboxes, _graph, outbox, *_args, **_kw) -> None:
        self.counts["dynamics.msgs_attempted"] += len(outbox)
        self.counts["dynamics.msgs_delivered"] += sum(len(msgs) for msgs in inboxes.values())

    def _after_outbox(self, msgs, *_args, **_kw) -> None:
        self.counts["adversary.msgs"] += len(msgs)

    def _after_step(self, result, _state, _inbox, r, _params) -> None:
        self.counts["protocol.log_entries"] += len(result.merged_log)
        if result.computed:
            self.counts["protocol.computed"] += 1
        elif result.state.last_local_start == r + 1:
            self.counts["protocol.resets"] += 1

    def _after_window_scan(self, _result, trace, i, r) -> None:
        # Deliveries the call iterates over: every message delivered in
        # rounds local_start[i] .. r, read from the trace it was given.
        if self._prefix_trace is not trace or len(self._prefix) != len(trace.rounds) + 1:
            self._prefix_trace, self._prefix = trace, [0]
            for rec in trace.rounds:
                self._prefix.append(self._prefix[-1] + len(rec.delivered))
        prefix = self._prefix
        start = trace.rounds[r - 1].local_start[i]
        self.counts["dynamics.deliveries_scanned"] += prefix[r] - prefix[start - 1]

    def _after_run_scenario(self, result, *_args, **_kw) -> None:
        trace, report = result
        self.counts["harness.rounds"] += trace.last_round
        if report.converged_at is not None:
            self.counts["harness.rounds_after_convergence"] += max(
                0, trace.last_round - report.converged_at + 1
            )

    # -- output ----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        spans = self.finished_spans()
        t0 = spans[0].start if spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for s in spans:
                fh.write(f"{s.name},{s.start - t0:.9f},{s.end - t0:.9f},{s.parent},{s.op}\n")
