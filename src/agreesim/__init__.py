"""Deterministic simulator and checkers for iterative approximate agreement
in partially connected mobile networks."""

from .protocol import (
    NodeState,
    ProtocolParams,
    StepResult,
    admission_test,
    average,
    count_relative,
    is_common_new_start,
    reduce_log,
    step_round,
)
from .dynamics import (
    Arena,
    RoundGraph,
    build_round_graph,
    deliver,
    joint_neighbor_set,
    move_step,
)
from .adversary import AdversaryStrategy, byzantine_outbox
from .analysis import (
    ConditionVerdict,
    Group,
    GroupClassification,
    PhaseBounds,
    check_condition,
    check_convergence,
    check_legality,
    check_phase_progress,
    check_safety,
    check_validity,
    classify_groups,
    condition_report,
    is_proper,
    legal_reference_round,
)
from .harness import RunReport, build_report, run_scenario, simulate, sweep
from .scenarios import LIBRARY, ScenarioConfig, builtin_scenario, load_scenario
from .trace import Trace, read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "AdversaryStrategy",
    "Arena",
    "ConditionVerdict",
    "Group",
    "GroupClassification",
    "LIBRARY",
    "NodeState",
    "PhaseBounds",
    "ProtocolParams",
    "RoundGraph",
    "RunReport",
    "ScenarioConfig",
    "StepResult",
    "Trace",
    "admission_test",
    "average",
    "build_report",
    "build_round_graph",
    "builtin_scenario",
    "byzantine_outbox",
    "check_condition",
    "check_convergence",
    "check_legality",
    "check_phase_progress",
    "check_safety",
    "check_validity",
    "classify_groups",
    "condition_report",
    "count_relative",
    "deliver",
    "is_common_new_start",
    "is_proper",
    "joint_neighbor_set",
    "legal_reference_round",
    "load_scenario",
    "move_step",
    "read_trace",
    "reduce_log",
    "run_scenario",
    "simulate",
    "step_round",
    "sweep",
    "write_trace",
]
