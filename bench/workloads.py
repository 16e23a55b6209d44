"""Seeded workload inputs for the agreesim benchmark.

Each workload is a scenario file (and, for the sweep, a grid file) made
from the workload seed alone, so the same seed always gives the same
bytes. The program under test only ever sees these files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Why each workload exists is recorded in BENCHMARK.json. Changing what a
# generator writes changes the workload, so it is a change to the benchmark.


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"agreesim-bench/{workload}/{seed}")


def _mobile_n100(rng: random.Random) -> dict:
    # The ROADMAP's profile point. Epsilon is small enough that agreement
    # comes mid-run, at round 19-21 of 40 for seeds 1-5. Nodes start on a
    # jittered 10x10 grid rather than uniformly at random: that halves how
    # much the edge count, and so the run's cost, varies from seed to seed.
    n = 100
    coords = {
        str(i): [i % 10 + 0.5 + rng.uniform(-0.4, 0.4), i // 10 + 0.5 + rng.uniform(-0.4, 0.4)]
        for i in range(n)
    }
    return {
        "schema": 1,
        "name": "bench_mobile_n100",
        "n": n,
        "f": 10,
        "r_c": 2,
        "epsilon": 0.0005,
        "max_rounds": 40,
        "arena": [10.0, 10.0],
        "radius": 3.0,
        "loss_rate": 0.1,
        "mobility": {"model": "random-waypoint", "speed": [0.5, 2.0]},
        "adversary": {
            "strategy": "extreme-split",
            "v_hi": 2.0,
            "v_lo": -1.0,
            "byz_set": sorted(rng.sample(range(n), 10)),
        },
        "initial_values": {"mode": "uniform", "range": [0.0, 1.0]},
        "initial_positions": {"mode": "explicit", "coords": coords},
        "seed": rng.randrange(2**31),
    }


def _disk_point(rng: random.Random, cx: float, cy: float, radius: float) -> list[float]:
    while True:
        dx, dy = rng.uniform(-radius, radius), rng.uniform(-radius, radius)
        if dx * dx + dy * dy <= radius * radius:
            return [cx + dx, cy + dy]


def _stuck_partition(rng: random.Random) -> dict:
    # Never converges, so every phase is audited and the trace is long.
    # Six clusters of five nodes, each inside a disk of radius 0.7 around a
    # centre 3 apart from its neighbours: every pair inside a cluster is in
    # radio range 1.5 and no pair across clusters is. So the edge count is
    # the same for every seed, and the clusters, whose value bands lie 0.1
    # apart (ten times epsilon), can never agree.
    n, size = 30, 5
    centres = [(x, y) for y in (2.5, 7.5) for x in (2.0, 5.0, 8.0)]
    byz = sorted(rng.sample(range(n), 3))
    coords = {}
    values = []
    for i in range(n):
        k = i // size
        coords[str(i)] = _disk_point(rng, *centres[k], 0.7)
        if i not in byz:
            values.append(rng.uniform(0.18 * k, 0.18 * k + 0.08))
    return {
        "schema": 1,
        "name": "bench_stuck_partition",
        "n": n,
        "f": 3,
        "r_c": 1,
        "epsilon": 0.01,
        "max_rounds": 600,
        "arena": [10.0, 10.0],
        "radius": 1.5,
        "loss_rate": 0.2,
        "mobility": {"model": "stationary"},
        "adversary": {"strategy": "random-legal", "range": [0.0, 1.0], "byz_set": byz},
        "initial_values": {"mode": "explicit", "values": values},
        "initial_positions": {"mode": "explicit", "coords": coords},
        "seed": rng.randrange(2**31),
    }


def _sweep_template(rng: random.Random) -> dict:
    # Dense enough that every grid cell agrees by a mean round below 24 for
    # seeds 1-3, so most of the 40 rounds are simulated after agreement.
    n = 16
    return {
        "schema": 1,
        "name": "bench_sweep_grid",
        "n": n,
        "f": 2,
        "r_c": 1,
        "epsilon": 0.01,
        "max_rounds": 40,
        "arena": [8.0, 8.0],
        "radius": 3.0,
        "loss_rate": 0.0,
        "mobility": {"model": "teleport-random"},
        "adversary": {"strategy": "fixed-value", "value": 0.5, "byz_set": sorted(rng.sample(range(n), 2))},
        "initial_values": {"mode": "uniform", "range": [0.0, 1.0]},
        "initial_positions": {"mode": "uniform"},
        "seed": rng.randrange(2**31),
    }


SWEEP_GRID = {"r_c": [1, 2, 4], "loss_rate": [0.0, 0.2, 0.4]}
SWEEP_SEEDS = 10
SWEEP_RUNS = SWEEP_SEEDS * len(SWEEP_GRID["r_c"]) * len(SWEEP_GRID["loss_rate"])

_SCENARIOS = {
    "mobile_n100": _mobile_n100,
    "stuck_partition": _stuck_partition,
    "sweep_grid": _sweep_template,
}
# An operation is `run` then `check`, except on the sweep workload.
WORKLOADS = list(_SCENARIOS)
SWEEP_WORKLOAD = "sweep_grid"


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def generate(workload: str, seed: int) -> dict[str, str]:
    """File name -> file text for one workload and seed."""
    files = {"scenario.json": _dumps(_SCENARIOS[workload](_rng(workload, seed)))}
    if workload == SWEEP_WORKLOAD:
        files["grid.json"] = _dumps(SWEEP_GRID)
    return files


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in generate(workload, seed).items():
        paths[name] = directory / name
        paths[name].write_text(text)
    return paths
