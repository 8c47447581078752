"""Smoke-run every benchmark workload; exit non-zero on any incorrect pass.

``perfbench/run.py`` reports its verdict in the last stdout line (a JSON
object with ``correct`` and ``failed``) and exits 0 either way; this wrapper
turns the verdict into an exit status for CI. Run from anywhere::

    python tools/perfbench_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("study_cold", "study_warm", "analyze")


def verdict(stdout):
    """The run's final JSON line, or ``{}`` when there is none."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except ValueError:
        return {}


def main():
    failed = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--smoke"],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        result = verdict(proc.stdout)
        if proc.returncode or not result.get("correct") or result.get("failed"):
            failed.append(workload)
    if failed:
        sys.exit(f"perfbench smoke: incorrect workloads: {', '.join(failed)}")
    print(f"perfbench smoke OK: {', '.join(WORKLOADS)}")


if __name__ == "__main__":
    main()
