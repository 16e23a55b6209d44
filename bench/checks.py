"""Output checks applied to every benchmark operation.

A ``run`` + ``check`` operation passes when both commands exit 0, the
report ``check --out`` writes is byte-equal to the one ``run`` wrote, and
the digest of the run's outcome matches the expected one. The outcome is
the final value of every correct node, ``converged_at`` and the per-phase
condition flags: report.json alone holds no final values, so a trace with
one non-extreme final value altered would otherwise pass. A ``sweep``
operation passes when it exits 0, every ``sweep.csv`` row ran all its
seeds with ``failures == 0``, and the digest of the rows matches.

Neither trace.jsonl nor report.json is pinned byte for byte: their formats
are expected to change.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _final_values(trace_path: Path) -> dict[str, str]:
    """Final-values record of a trace: its last non-empty line."""
    with open(trace_path, "rb") as fh:
        fh.seek(0, 2)
        size = fh.tell()
        fh.seek(max(0, size - (1 << 16)))
        tail = fh.read().decode()
    record = json.loads(tail.strip().rsplit("\n", 1)[-1])
    if record.get("type") != "final":
        raise ValueError(f"{trace_path} does not end with a final-values record")
    return {str(k): repr(float(v)) for k, v in record["values"].items()}


def run_outcome_digest(out_dir: Path) -> str:
    report = json.loads((out_dir / "report.json").read_text())
    return _digest(
        {
            "final_values": _final_values(out_dir / "trace.jsonl"),
            "converged_at": report["converged_at"],
            "condition_flags": [p["satisfied"] for p in report["condition_per_phase"]],
        }
    )


def check_run(out_dir: Path, check_report: Path, expected: str | None) -> tuple[str, list[str]]:
    """Digest of a run's outcome and the list of problems found (empty = pass)."""
    problems = []
    if (out_dir / "report.json").read_bytes() != check_report.read_bytes():
        problems.append("check --out report differs from run's report.json")
    digest = run_outcome_digest(out_dir)
    if expected is not None and digest != expected:
        problems.append(f"outcome digest {digest[:12]} != expected {expected[:12]}")
    return digest, problems


def check_sweep(
    csv_path: Path, seeds: int, expected: str | None
) -> tuple[str, int, int, list[str]]:
    """Digest, runs attempted, runs failed, and problems of one sweep."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    attempted = sum(int(row["runs"]) for row in rows)
    failed = sum(int(row["failures"]) for row in rows)
    if failed:
        problems.append(f"{failed} sweep runs failed")
    if any(int(row["runs"]) != seeds for row in rows):
        problems.append(f"a sweep cell did not run {seeds} seeds")
    digest = _digest(rows)
    if expected is not None and digest != expected:
        problems.append(f"sweep digest {digest[:12]} != expected {expected[:12]}")
    return digest, attempted, failed, problems
