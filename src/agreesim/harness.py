"""Run orchestration: lock-step execution, reports, seed sweeps.

Each round advances in a fixed order: move, rebuild the communication
graph, broadcast (correct nodes send their value, faulty nodes whatever
their strategy picks), deliver with loss, then step every correct node.
All randomness flows through per-(purpose, round) child streams of the
master seed, so a (scenario, seed) pair always reproduces the same trace
and report, byte for byte. A round seeds a stream only for the parts that
draw from it: the mobility model and faulty behavior say so by their
``draws`` attribute, and delivery draws only when loss_rate > 0. Each
stream is seeded from its own name, so skipping one moves no other.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from operator import is_, itemgetter
from pathlib import Path

from .adversary import RoundView, byzantine_outbox
from .analysis import (
    ConditionVerdict,
    Walk,
    agreed,
    check_condition,
    check_convergence,
    check_legality,
    check_phase_progress,
    check_safety,
    check_validity,
    condition_report,
    spread_series,
)
from .cpus import split_map, worker_count
from .dynamics import Position, build_round_graph, deliver, move_step
from .errors import AgreesimError, ConfigError
from .protocol import NodeId, NodeState, is_common_new_start, step_round
from .scenarios import ScenarioConfig
from .trace import RoundRecord, Trace

IO_WINDOW_DEFAULT = 3


def substream(seed: int, *parts) -> random.Random:
    """Independent child stream, stable across runs and platforms."""
    return random.Random(f"{seed}/" + "/".join(str(p) for p in parts))


def run_scenario(
    config: ScenarioConfig,
    seed: int | None = None,
    *,
    stop_at_agreement: bool = False,
    on_round: Callable[..., None] | None = None,
) -> tuple[Trace, "RunReport"]:
    """Execute a scenario end to end and analyze the resulting trace.

    ``on_round`` is ``simulate``'s hook, called after each round with the
    trace, the states entering the round, the inboxes and the step results.
    """
    trace = simulate(config, seed=seed, stop_at_agreement=stop_at_agreement, on_round=on_round)
    report = build_report(trace, Walk(trace, config.effective_delta))
    return trace, report


def simulate(
    config: ScenarioConfig,
    seed: int | None = None,
    *,
    stop_at_agreement: bool = False,
    on_round: Callable[..., None] | None = None,
) -> Trace:
    """Execute a scenario's lock-step rounds and record the trace.

    The trace covers every round up to the horizon, unless
    ``stop_at_agreement`` is set: then the run ends before the first phase
    start ``r`` whose correct values have agreed, so the trace's last round
    is ``r - 1`` and its final values are those at round ``r``.
    ``on_round``, if given, is called after each round's record is
    appended to the trace, as ``on_round(trace, states, inboxes, results)``:
    the correct nodes' states entering the round, their inboxes by
    receiver as ``deliver`` returned them, and each node's step result.
    Nothing changes ``states`` afterwards, so a hook may keep it.

    Correct nodes send along the round graph's ``out_neighbors`` and each
    faulty node's messages pass ``byzantine_outbox``, the topology gate, so
    ``deliver`` only routes. The round graph is built only when a node has
    moved: when every node holds the very position object it held the
    round before, the round reuses the last graph as is, and its record
    holds the last record's ``positions`` and ``edges``, the same objects.
    Identity, not equality, decides, since ``-0.0 == 0.0`` but the two
    encode apart.
    """
    params, model, behavior, positions, values = config.validate()
    run_seed = config.seed if seed is None else seed
    placed = positions(substream(run_seed, "init-pos"))
    trace = Trace(
        params=params,
        byz_set=config.byz_set,
        initial_values=values(substream(run_seed, "init-values")),
        scenario_name=config.name,
        seed=run_seed,
    )
    byz = sorted(trace.byz_set)

    def stream(draws: bool, *parts) -> random.Random | None:
        return substream(run_seed, *parts) if draws else None

    engine = Engine(trace)
    graph, edges = None, None
    for r in range(1, config.effective_max_rounds + 1):
        states = engine.states
        if is_common_new_start(r, config.r_c):  # always at round 1
            phase_start_values = {i: s.value for i, s in states.items()}
            if stop_at_agreement and agreed(phase_start_values.values(), params.epsilon):
                break
        moved = move_step(placed, model, stream(model.draws, "move", r), r)
        if graph is None or not _held(placed, moved):
            placed = moved
            graph = build_round_graph(placed, config.radius)
            edges = graph.edges
        outbox = [(i, j, s.value) for i, s in states.items() for j in graph.out_neighbors(i)]
        view = RoundView(round=r, phase_start_values=phase_start_values)
        byz_sent = []
        for b in byz:
            byz_sent.extend(
                byzantine_outbox(behavior, b, graph, view, stream(behavior.draws, "adv", r, b))
            )
        inboxes = deliver(graph, outbox + byz_sent, config.loss_rate,
                          stream(config.loss_rate > 0.0, "loss", r))
        rec, results = engine.step(r, placed, edges, sorted(byz_sent), _delivered(inboxes), inboxes)
        trace.rounds.append(rec)
        if on_round is not None:
            on_round(trace, states, inboxes, results)
    trace.final_values = engine.values()
    return trace


class Engine:
    """The correct nodes' states, started from ``trace``'s initial values in id order.

    Each ``step`` replaces ``states``: no dict or state handed out changes later.
    """

    def __init__(self, trace: Trace) -> None:
        self.params = trace.params
        self.states = {i: NodeState(id=i, value=v) for i, v in sorted(trace.initial_values.items())}

    def step(self, r: int, positions, edges, byz_sent, delivered, inboxes) -> tuple:
        """Round ``r``'s record and each node's ``step_round`` result on ``deliver``'s inboxes."""
        results = {
            i: step_round(s, [(sender, value) for sender, _recv, value in inboxes.get(i, ())],
                          r, self.params)
            for i, s in self.states.items()
        }
        record = RoundRecord(
            round=r, positions=positions, edges=edges, byz_sent=byz_sent, delivered=delivered,
            values_start={i: s.value for i, s in self.states.items()},
            local_start={i: s.last_local_start for i, s in self.states.items()},
            logs={i: res.merged_log for i, res in results.items()},
            computed={i: res.computed for i, res in results.items()},
        )
        self.states = {i: res.state for i, res in results.items()}
        return record, results

    def values(self) -> dict[NodeId, float]:
        """Each node's current value: its final value once the last round is stepped."""
        return {i: s.value for i, s in self.states.items()}


def _held(before: dict[NodeId, Position], after: dict[NodeId, Position]) -> bool:
    """Whether every node in ``after`` holds the very position object it held ``before``."""
    return len(after) == len(before) and all(map(is_, map(after.get, before), before.values()))


def _delivered(inboxes: dict[NodeId, list]) -> list:
    """``deliver``'s inboxes as one list sorted by (sender, receiver).

    Each inbox is sorted by sender and a pair carries at most one message,
    so a stable sort on the sender of the inboxes chained in receiver order
    gives the full sort.
    """
    chained = itertools.chain.from_iterable(inboxes[k] for k in sorted(inboxes))
    return sorted(chained, key=itemgetter(0))


def round_inputs(rec: RoundRecord) -> tuple:
    """``Engine.step``'s arguments for a record's round: its ``delivered`` regrouped by receiver."""
    inboxes: dict[NodeId, list] = {}
    for msg in rec.delivered:
        inboxes.setdefault(msg[1], []).append(msg)
    return rec.round, rec.positions, rec.edges, rec.byz_sent, rec.delivered, inboxes


@dataclass
class RunReport:
    """Analyzer verdicts for one run, all re-derivable from the trace."""

    scenario: str
    seed: int
    converged: bool
    converged_at: int | None
    validity_ok: bool
    legality_ok: bool
    safety_ok: bool
    cardinality_ok: bool
    condition_per_phase: list[ConditionVerdict]
    condition_ok_all_phases: bool
    condition_ok_io: bool
    io_window: int
    progress_ok: bool
    progress_violations: list[str]
    max_stagnant_streak: int
    phase_starts: list[dict]
    final_spread: float | None  # None when the spread lies beyond float range

    @property
    def invariants_ok(self) -> bool:
        return self.validity_ok and self.legality_ok and self.safety_ok


def build_report(trace: Trace, walk: Walk) -> RunReport:
    """Finish ``walk`` with the rounds ``trace`` holds and its final values.

    ``check`` holds no round in ``trace``: it fed each to ``walk`` as it read it.
    """
    for rec in trace.rounds:
        walk.add(rec)
    walk.finish(trace.final_values)
    verdicts = check_condition(walk)
    flags = [v.satisfied for v in verdicts]
    convergence = check_convergence(walk)
    progress = check_phase_progress(walk)
    return RunReport(
        scenario=trace.scenario_name,
        seed=trace.seed,
        converged=convergence.reached,
        converged_at=convergence.at_round,
        validity_ok=check_validity(walk).ok,
        legality_ok=check_legality(walk).ok,
        safety_ok=check_safety(walk).ok,
        cardinality_ok=trace.params.meets_cardinality_bound,
        condition_per_phase=verdicts,
        condition_ok_all_phases=condition_report(flags, 1),
        condition_ok_io=condition_report(flags, IO_WINDOW_DEFAULT),
        io_window=IO_WINDOW_DEFAULT,
        progress_ok=progress.ok,
        progress_violations=[f"{v.kind}@phase{v.phase}: {v.detail}" for v in progress.violations],
        max_stagnant_streak=progress.max_stagnant_streak,
        phase_starts=walk.phase_starts,
        final_spread=walk.final_spread,
    )


def _report_chunks(report: RunReport):
    """The report's JSON text in pieces: a long run's report is never copied or joined whole.

    Each dataclass is encoded as its instance dict, which holds its fields only.
    """
    yield from json.JSONEncoder(sort_keys=True, indent=2, default=vars).iterencode(report)
    yield "\n"


def write_report(report: RunReport, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_report_chunks(report))


def write_series_csv(trace: Trace, delta: float, path: str | Path) -> None:
    rows = spread_series(trace, delta)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _set_path(data: dict, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    target = data
    for part in parents:
        target = target.get(part) if isinstance(target, dict) else None
    if not isinstance(target, dict) or last not in target:
        raise ConfigError(f"grid path {dotted!r} does not match the scenario")
    target[last] = value


@dataclass
class SweepCell:
    assignment: dict
    runs: int
    failures: int
    converged_rate: float
    mean_converged_round: float | None
    condition_rate: float


def sweep(
    template: ScenarioConfig,
    grid: dict[str, list],
    seeds: list[int],
) -> list[SweepCell]:
    """Run the template across a parameter grid and a seed list per cell.

    Produces, per cell: the fraction of runs that converged, the mean
    round of convergence among those, and the fraction of evaluated
    (spread still open) phases in which the progress condition held. A run
    that raises an error or breaks validity, legality or safety is counted
    as a failure of its cell and left out of the rates.

    Each run stops at its first agreed phase start (``stop_at_agreement``),
    which leaves every cell as the full horizon would. Safety keeps each
    later correct value inside that start's envelope, so each later phase
    start stays agreed: its phase is vacuous and no invariant can break.
    Faulty nodes cannot change this, as a scenario never has more than f
    of them. ``converged_at`` is the same phase start either way. ``run``
    keeps the full horizon, since its trace bytes are the contract.

    Every cell's scenario is checked before any run starts. The runs are
    independent and fully seeded, so they are split over one worker per
    CPU in this process's affinity mask (``taskset`` limits them): this
    process and forked children, no pool. Worker ``w`` runs every
    ``workers``-th run from the ``w``-th, so each cell's seeds spread over
    all of them. The reports are folded here in cell and seed order: the
    cells do not depend on the worker count.
    """
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise ConfigError("grid must map parameter paths to value lists")
    if "seed" in grid:  # every run takes its seed from ``seeds``, whatever the cell's is
        raise ConfigError("grid path 'seed' cannot be swept: each run's seed comes from --seeds")
    keys = sorted(grid)
    for key in keys:
        if not grid[key]:
            raise ConfigError(f"grid path {key!r} has no values")
    assignments = []
    configs = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        assignment = dict(zip(keys, combo))
        doc = template.to_dict()
        for dotted, value in assignment.items():
            _set_path(doc, dotted, value)
        config = ScenarioConfig.from_dict(doc)
        config.validate()
        assignments.append(assignment)
        configs.append(config)
    tasks = [(config, seed) for config in configs for seed in seeds]
    workers = worker_count(len(tasks))
    shares = []
    split_map(lambda share: list(map(_sweep_run, share)),
              [tasks[w::workers] for w in range(workers)], shares.append)
    reports = [None] * len(tasks)
    for w, share in enumerate(shares):
        reports[w::workers] = share
    cells = []
    for c, assignment in enumerate(assignments):
        converged = 0
        failures = 0
        rounds = []
        phases_total = 0
        phases_ok = 0
        for report in reports[c * len(seeds):(c + 1) * len(seeds)]:
            if report is None or not report.invariants_ok:
                failures += 1
                continue
            if report.converged:
                converged += 1
                rounds.append(report.converged_at)
            for verdict in report.condition_per_phase:
                if not verdict.vacuous:
                    phases_total += 1
                    if verdict.satisfied:
                        phases_ok += 1
        completed = len(seeds) - failures
        cells.append(
            SweepCell(
                assignment=assignment,
                runs=len(seeds),
                failures=failures,
                converged_rate=(converged / completed) if completed else 0.0,
                mean_converged_round=(sum(rounds) / len(rounds)) if rounds else None,
                condition_rate=(phases_ok / phases_total) if phases_total else 1.0,
            )
        )
    return cells


def _sweep_run(task: tuple[ScenarioConfig, int]) -> RunReport | None:
    """One sweep run's report, or None if it raised an agreesim error.

    ``run_scenario`` is looked up when the run starts, so a child forked
    from the caller runs whatever the caller's module holds.
    """
    config, seed = task
    try:
        _trace, report = run_scenario(config, seed=seed, stop_at_agreement=True)
    except AgreesimError:
        return None
    return report


def write_sweep_csv(cells: list[SweepCell], path: str | Path) -> None:
    keys = sorted(cells[0].assignment) if cells else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            keys
            + ["runs", "failures", "converged_rate", "mean_converged_round", "condition_rate"]
        )
        for cell in cells:
            writer.writerow(
                [cell.assignment[k] for k in keys]
                + [
                    cell.runs,
                    cell.failures,
                    cell.converged_rate,
                    "" if cell.mean_converged_round is None else cell.mean_converged_round,
                    cell.condition_rate,
                ]
            )
