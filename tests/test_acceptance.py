"""Acceptance suite: one test per criterion, printing a PASS line each.

Criteria 1 and 2 share a 200-scenario randomized pool that cycles every
adversary strategy, mobility model, retention window up to 4, and loss
rates 0 and 0.3. The pool is deterministic: scenario i is fully fixed by
its index.
"""

import itertools
import time

import pytest

from agreesim.analysis import (
    check_condition,
    check_convergence,
    check_legality,
    check_phase_progress,
    check_safety,
    check_validity,
)
from agreesim.harness import run_scenario, simulate
from agreesim.protocol import NodeState, ProtocolParams, step_round, trim
from agreesim.scenarios import ScenarioConfig, builtin_scenario

from reference import (
    common_starts, groups_converged, reference_admitted, reference_average, reference_reduce,
    report_text, spread, trace_bytes, v_max, v_min, walked,
)

STRATEGIES = ["silent", "fixed-value", "extreme-split", "random-legal", "scripted"]
MOBILITY = ["stationary", "random-waypoint", "teleport-random"]


def random_scenario(i: int) -> ScenarioConfig:
    import random

    rng = random.Random(9000 + i)
    n = rng.randint(2, 12)
    f = rng.randint(0, 2)
    byz_count = rng.randint(0, min(f, n - 1))
    byz = sorted(rng.sample(range(n), byz_count))
    r_c = rng.choice([1, 2, 3, 4])
    strategy = STRATEGIES[i % len(STRATEGIES)]
    adv = {"strategy": strategy, "byz_set": byz}
    if strategy == "fixed-value":
        adv["value"] = rng.choice([-5.0, 0.5, 42.0])
    elif strategy == "extreme-split":
        adv["v_hi"] = 2.0
        adv["v_lo"] = -1.0
    elif strategy == "random-legal":
        adv["range"] = [0.0, 1.0]
    elif strategy == "scripted":
        adv["table"] = {
            "*": {str(j): rng.choice([-3.0, 0.5, 3.0]) for j in range(n) if j not in byz}
        }
    mobility = {"model": MOBILITY[i % len(MOBILITY)]}
    if mobility["model"] == "random-waypoint":
        mobility["speed"] = [0.5, 2.0]
    return ScenarioConfig(
        name=f"rand-{i}",
        n=n,
        f=f,
        r_c=r_c,
        epsilon=0.05,
        max_rounds=6 * r_c,
        arena=(6.0, 6.0),
        radius=rng.uniform(1.5, 4.0),
        loss_rate=[0.0, 0.3][i % 2],
        mobility=mobility,
        adversary=adv,
        initial_values={"mode": "uniform", "range": [0.0, 1.0]},
        seed=1000 + i,
    )


def progress_scenario(i: int) -> ScenarioConfig:
    import random

    rng = random.Random(7000 + i)
    f = rng.choice([0, 1])
    byz_count = 1 if (f == 1 and rng.random() < 0.5) else 0
    n = rng.randint(4 + byz_count, 8)
    byz = [n - 1] if byz_count else []
    correct = n - byz_count
    # Duplicated extremes let a holder leave an extreme group while the
    # extremum itself survives at the other holder.
    values = [0.0, 0.0, 1.0, 1.0] + [
        round(rng.uniform(0.2, 0.8), 1) for _ in range(correct - 4)
    ]
    rng.shuffle(values)
    r_c = rng.choice([1, 2])
    return ScenarioConfig(
        name=f"prog-{i}",
        n=n,
        f=f,
        r_c=r_c,
        epsilon=0.05,
        max_rounds=8 * r_c,
        arena=(6.0, 6.0),
        radius=rng.choice([2.6, 3.2, 8.0]),
        loss_rate=rng.choice([0.0, 0.3]),
        mobility={"model": rng.choice(["stationary", "teleport-random"])},
        adversary={"strategy": "silent", "byz_set": byz},
        initial_values={"mode": "explicit", "values": values},
        seed=7000 + i,
    )


@pytest.fixture(scope="module")
def randomized_pool():
    start = time.monotonic()
    traces = [simulate(random_scenario(i)) for i in range(200)]
    return traces, time.monotonic() - start


def test_criterion_1_validity_suite(randomized_pool):
    traces, elapsed = randomized_pool
    for trace in traces:
        walk = walked(trace)
        validity = check_validity(walk)
        legality = check_legality(walk)
        assert validity.ok, f"{trace.scenario_name}: {validity.violations[0]}"
        assert legality.ok, f"{trace.scenario_name}: {legality.violations[0]}"
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s, target is under a minute"
    print(f"\nACCEPTANCE 1 validity suite (200 scenarios, {elapsed:.1f}s): PASS")


def test_criterion_2_safety_suite(randomized_pool):
    traces, _elapsed = randomized_pool
    monotone_checked = 0
    for trace in traces:
        safety = check_safety(walked(trace))
        assert safety.ok, f"{trace.scenario_name}: {safety.violations[0]}"
        if trace.params.r_c == 1:
            monotone_checked += 1
            for r in range(1, trace.last_round + 1):
                assert v_max(trace, r + 1) <= v_max(trace, r), trace.scenario_name
                assert v_min(trace, r + 1) >= v_min(trace, r), trace.scenario_name
    assert monotone_checked > 0
    print(f"\nACCEPTANCE 2 safety suite ({monotone_checked} monotone runs): PASS")


def test_criterion_3_reduce_oracle():
    grid = [0.0, 1.0, 2.0, 3.0, 4.0]
    own_values = [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]
    cases = 0
    for size in range(0, 8):
        for values in itertools.combinations_with_replacement(grid, size):
            sorted_values = list(values)
            inbox = list(enumerate(sorted_values, 1))
            for f in (0, 1, 2):
                params = ProtocolParams(16, f, 1, 0.1)
                for v_i in own_values:
                    survivors = trim(sorted_values, v_i, f)
                    admitted = reference_admitted(sorted_values, v_i, f)
                    assert (survivors is not None) == admitted, (sorted_values, f, v_i)
                    if not admitted:
                        continue
                    expected, removed = reference_reduce(sorted_values, f, v_i)
                    assert survivors == expected, (sorted_values, f, v_i)
                    assert f <= removed <= 2 * f, (sorted_values, f, v_i)
                    assert len(expected) >= 1
                    result = step_round(NodeState(0, v_i), inbox, 1, params)
                    assert result.state.value == reference_average(expected, v_i)
                    cases += 1
    assert cases > 10_000
    print(f"\nACCEPTANCE 3 reduce oracle ({cases} exact-match cases): PASS")


def test_criterion_4_convergence_positive():
    trace, report = run_scenario(builtin_scenario("fully_connected_baseline"))
    eps = trace.params.epsilon
    assert report.converged, "baseline must converge"
    assert report.converged_at <= trace.last_round
    spreads = [row["spread"] for row in report.phase_starts]
    assert all(b <= a for a, b in zip(spreads, spreads[1:])), spreads
    assert report.final_spread < eps
    for r in common_starts(trace):
        spread_says = spread(trace, r) < eps
        groups_say = groups_converged(trace.values_at(r), eps / 2.0)
        assert spread_says == groups_say, f"detectors disagree at round {r}"
    assert check_convergence(walked(trace)).at_round == report.converged_at
    print(f"\nACCEPTANCE 4 convergence positive (round {report.converged_at}): PASS")


def test_criterion_5_impossibility_negative():
    trace, report = run_scenario(builtin_scenario("lemma2_3f_impossible"))
    assert trace.params.n == 3 * trace.params.f
    phases = report.condition_per_phase
    assert len(phases) == 50
    assert all(not p.satisfied for p in phases)
    assert not any(p.vacuous for p in phases)
    assert not report.converged
    print("\nACCEPTANCE 5 impossibility negative (50 stuck phases): PASS")


@pytest.mark.parametrize("name", ["necessity_f_proper", "necessity_improper_mix"])
def test_criterion_6_necessity_negatives(name):
    trace, report = run_scenario(builtin_scenario(name))
    for r in range(1, trace.last_round + 2):
        assert trace.values_at(r) == trace.initial_values, (name, r)
    assert all(not p.satisfied for p in report.condition_per_phase)
    assert not report.converged
    print(f"\nACCEPTANCE 6 necessity negative ({name}): PASS")


def test_criterion_7_partition_negative():
    trace, report = run_scenario(builtin_scenario("partition_never"))
    eps = trace.params.epsilon
    final = trace.values_at(trace.last_round + 1)
    low = [final[i] for i in sorted(trace.initial_values)[:4]]
    high = [final[i] for i in sorted(trace.initial_values)[4:]]
    assert max(low) - min(low) < eps
    assert max(high) - min(high) < eps
    assert min(high) - max(low) >= eps
    assert not report.converged
    assert all(not p.satisfied for p in report.condition_per_phase)
    print("\nACCEPTANCE 7 partition negative: PASS")


def test_criterion_8_phase_progress():
    qualifying = 0
    stagnant_pairs = 0
    index = 0
    while qualifying < 50:
        assert index < 200, "could not assemble 50 condition-satisfying runs"
        config = progress_scenario(index)
        index += 1
        trace = simulate(config)
        delta = config.effective_delta
        walk = walked(trace, delta)
        if not all(v.satisfied for v in check_condition(walk)):
            continue
        qualifying += 1
        report = check_phase_progress(walk)
        assert report.ok, (config.name, report.violations)
        assert report.max_stagnant_streak < trace.params.n
        starts = common_starts(trace)
        for idx in range(len(starts) - 1):
            r, r_next = starts[idx], starts[idx + 1]
            if spread(trace, r) < trace.params.epsilon:
                continue
            if (
                v_min(trace, r) == v_min(trace, r_next)
                and v_max(trace, r) == v_max(trace, r_next)
            ):
                stagnant_pairs += 1
    assert stagnant_pairs > 0, "expected at least one stagnant-extrema phase pair"
    print(
        f"\nACCEPTANCE 8 phase progress (50 runs, {stagnant_pairs} stagnant pairs): PASS"
    )


def test_criterion_9_determinism():
    configs = [builtin_scenario(name) for name in (
        "fully_connected_baseline",
        "lemma2_3f_impossible",
        "necessity_f_proper",
        "necessity_improper_mix",
        "partition_never",
        "fig1_scripted_path",
        "stale_log_overshoot",
    )] + [random_scenario(i) for i in (1, 2, 3)]
    assert len(configs) == 10
    for config in configs:
        blobs = set()
        for _replay in range(3):
            trace, report = run_scenario(config)
            blobs.add(trace_bytes(trace) + report_text(report).encode())
        assert len(blobs) == 1, f"{config.name} not replay-stable"
    print("\nACCEPTANCE 9 determinism (10 scenarios x 3 replays): PASS")
