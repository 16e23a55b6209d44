"""Command-line interface.

Exit codes: 0 when every requested check passes, 1 when a protocol
guarantee (validity, legality, safety) is violated, 2 for usage or
configuration errors, unreadable or malformed traces and outputs that
cannot be written.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .analysis import Walk, check_convergence, condition_report
from .errors import AgreesimError, ConfigError, TraceError, decimal_key, read_json
from .harness import (
    build_report,
    run_scenario,
    sweep,
    write_report,
    write_series_csv,
    write_sweep_csv,
)
from .scenarios import LIBRARY, ScenarioConfig, builtin_scenario, load_scenario, save_scenario
from .trace import TraceEncoder, read_trace, write_trace
from .vectors import step_vectors, write_vectors

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _resolve_scenario(ref: str) -> ScenarioConfig:
    if ref in LIBRARY:
        return builtin_scenario(ref)
    path = Path(ref)
    if not path.exists():
        raise ConfigError(f"{ref!r} is neither a builtin scenario nor a file")
    return load_scenario(path)


@contextmanager
def _writing(path: str | Path):
    """Report an output that cannot be written as a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_scenario(args.scenario)
    out = Path(args.out)
    vectors = []
    with TraceEncoder(config.effective_max_rounds) as encoder:
        def on_round(*step) -> None:
            encoder.add(*step)
            if args.vectors:
                vectors.extend(step_vectors(*step))

        trace, report = run_scenario(config, seed=args.seed, on_round=on_round)
        with _writing(out):
            out.mkdir(parents=True, exist_ok=True)
            write_trace(trace, out / "trace.jsonl", encoder)
            write_report(report, out / "report.json")
            write_series_csv(trace, config.effective_delta, out / "series.csv")
    if args.vectors:
        with _writing(args.vectors):
            write_vectors(vectors, args.vectors)
    print(f"scenario:  {report.scenario}")
    print(f"seed:      {report.seed}")
    print(f"rounds:    {trace.last_round}")
    print(f"converged: {report.converged}"
          + (f" (round {report.converged_at})" if report.converged else ""))
    print(f"validity:  {'ok' if report.validity_ok else 'VIOLATED'}")
    print(f"legality:  {'ok' if report.legality_ok else 'VIOLATED'}")
    print(f"safety:    {'ok' if report.safety_ok else 'VIOLATED'}")
    if not report.cardinality_ok:
        print(f"warning: n={config.n} is below 3f+1={3 * config.f + 1}")
    print(f"outputs in {out}/")
    return EXIT_OK if report.invariants_ok else EXIT_CHECK_FAILED


def _parse_mode(raw: str) -> int:
    """The infinitely-often window a ``--mode`` names; per-phase is window 1."""
    if raw == "per-phase":
        return 1
    if raw.startswith("io:"):
        try:
            window = decimal_key(raw.split(":", 1)[1], "io window")
        except ValueError:
            raise ConfigError(f"bad io window in mode {raw!r}") from None
        if window < 1:
            raise ConfigError("io window must be >= 1")
        return window
    raise ConfigError(f"mode must be 'per-phase' or 'io:<W>', got {raw!r}")


def _cmd_check(args: argparse.Namespace) -> int:
    window = _parse_mode(args.mode)  # before the trace: a large one takes long to read
    try:  # a bad --delta is rejected before any round is read
        trace, walk = read_trace(args.trace, lambda header: Walk(header, args.delta))
    except OSError as exc:
        raise ConfigError(f"cannot read trace {args.trace}: {exc}") from None
    report = build_report(trace, walk)
    flags = [v.satisfied for v in report.condition_per_phase]
    convergence = check_convergence(walk)
    print(f"validity:  {'ok' if report.validity_ok else 'VIOLATED'}")
    print(f"legality:  {'ok' if report.legality_ok else 'VIOLATED'}")
    print(f"safety:    {'ok' if report.safety_ok else 'VIOLATED'}")
    print(f"converged: {convergence.reached}"
          + (f" (round {convergence.at_round})" if convergence.reached else ""))
    holds = condition_report(flags, window)
    print(f"condition ({args.mode}): {'holds' if holds else 'does not hold'} "
          f"[{sum(flags)}/{len(flags)} phases satisfied]")
    if args.out:
        with _writing(args.out):
            write_report(report, args.out)
    return EXIT_OK if report.invariants_ok else EXIT_CHECK_FAILED


def _cmd_sweep(args: argparse.Namespace) -> int:
    template = _resolve_scenario(args.scenario)
    grid = read_json(args.grid, "grid")
    seeds = [template.seed + i for i in range(args.seeds)]
    cells = sweep(template, grid, seeds)
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        write_sweep_csv(cells, out / "sweep.csv")
    for cell in cells:
        label = ", ".join(f"{k}={v}" for k, v in sorted(cell.assignment.items()))
        mean = (
            f"{cell.mean_converged_round:.1f}"
            if cell.mean_converged_round is not None
            else "-"
        )
        print(
            f"[{label}] converged {cell.converged_rate:.0%}, "
            f"mean round {mean}, condition rate {cell.condition_rate:.0%}"
        )
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in sorted(LIBRARY):
            print(name)
        return EXIT_OK
    config = builtin_scenario(args.name)
    if args.out:
        with _writing(args.out):
            save_scenario(config, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agreesim",
        description="Round-based simulator and checker for iterative "
        "approximate agreement in mobile networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and analyze it")
    p_run.add_argument("--scenario", required=True, help="builtin name or JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--vectors", default=None, help="also write step conformance vectors")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="re-run the checkers over a trace file")
    p_check.add_argument("--trace", required=True)
    p_check.add_argument("--delta", type=float, default=None)
    p_check.add_argument("--mode", default="per-phase", help="per-phase or io:<W>")
    p_check.add_argument("--out", default=None, help="write the report JSON here")
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="run a scenario across a parameter grid")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--grid", required=True, help="JSON file: {param: [values]}")
    p_sweep.add_argument("--seeds", type=int, default=10, help="seeds per cell")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_scen = sub.add_parser("scenarios", help="list or export builtin scenarios")
    scen_sub = p_scen.add_subparsers(dest="action", required=True)
    p_list = scen_sub.add_parser("list")
    p_list.set_defaults(func=_cmd_scenarios, action="list")
    p_export = scen_sub.add_parser("export")
    p_export.add_argument("name")
    p_export.add_argument("--out", default=None)
    p_export.set_defaults(func=_cmd_scenarios, action="export")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # A command's records stay alive until it ends and form no cycles, so
    # reference counting frees them all, and cyclic collection would only
    # walk the growing heap again and again. Restore the caller's setting.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AgreesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
