"""Run every workload over several seeds and summarise the metrics.

Run from the root of a source checkout:

    python3 bench/all.py                       # 10 seeds, every workload
    python3 bench/all.py --seeds 5 --workloads mobile_n100
    python3 bench/all.py --write bench/baseline.json

Seeds 1..N each run as one fresh ``bench/run.py --trace 0`` process; then
seed 1 runs once more with ``--trace 1``. For every metric the summary
gives the median, the quartiles (``statistics.quantiles(values, n=4)``),
the spread (quartile distance over the median, checked against a third
of the metric's bound in BENCHMARK.json) and the sample count, plus the
share of failed operations. ``--write`` stores the same numbers with the
processor count and Python version, as the baseline later changes
compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values),
        }
    return out


def main() -> int:
    config = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write", default=None, help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    summary = {}
    for workload in args.workloads.split(","):
        untraced = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = [run_once(workload, seeds[0], seconds, 1)]
        attempted = sum(r["attempted"] for r in untraced + traced)
        failed = sum(r["failed"] for r in untraced + traced)
        entry = {
            "correct": all(r["correct"] for r in untraced + traced),
            "attempted": attempted,
            "failed": failed,
            "failed_ops": failed / attempted,
            "end_to_end": summarise(untraced),
            "per_layer": summarise(traced),
        }
        summary[workload] = entry
        print(f"== {workload}: correct={entry['correct']} failed_ops={entry['failed_ops']:.4f} "
              f"({failed}/{attempted})")
        for section in ("end_to_end", "per_layer"):
            for name, m in entry[section].items():
                flag = ""
                if name in bounds and m["spread"] > bounds[name] / 3:
                    flag = f"  spread above bound/3 ({bounds[name] / 3:.3f})"
                print(f"  {name:42s} {m['median']:>14.6g} {m['unit']:6s} "
                      f"q1 {m['q1']:<11.6g} q3 {m['q3']:<11.6g} spread {m['spread']:.4f} "
                      f"n={m['n']}{flag}", flush=True)
    if args.write:
        doc = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "run_seconds": seconds,
            "seeds": seeds,
            "workloads": summary,
        }
        Path(args.write).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if all(e["correct"] for e in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
