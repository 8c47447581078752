"""Tier benchmarking: wall-clock comparison of the execution tiers.

Times plain (uninstrumented) execution on any subset of the three tiers
— ``closure`` (reference interpreter), ``jit`` (scalar block-template
JIT), ``vec`` (vector-enabled JIT) — over either the bundled benchmark
programs or the loop-throughput kernel suite
(:mod:`repro.bench.loop_kernels`).  ``repro bench --tiers ...`` is the
CLI face; :func:`bench_row` shapes a result for
``BENCH_infrastructure.json``.

Whole programs measure end-to-end tier overheads (Amdahl-bound: tracked
reductions and LCD loops stay scalar in every tier).  The ``--loops``
kernels isolate proved-DOALL loop bodies, so their vec-vs-jit geomean is
the vector tier's kernel throughput number.
"""

from __future__ import annotations

import time

from ..frontend.codegen import compile_source
from ..interp.interpreter import Interpreter
from ..reporting.stats import geomean

TIERS = ("closure", "jit", "vec")

#: The closure interpreter is ~2 orders slower than the JIT tiers; when
#: it is among the timed tiers, callers may prefer fewer repeats.
DEFAULT_REPEATS = 3


def parse_tiers(text):
    """Validate a ``closure,jit,vec`` selection string, keeping order."""
    tiers = tuple(part.strip() for part in text.split(",") if part.strip())
    for tier in tiers:
        if tier not in TIERS:
            raise ValueError(
                f"unknown tier {tier!r} (expected a comma-separated subset "
                f"of {', '.join(TIERS)})"
            )
    if len(set(tiers)) != len(tiers):
        raise ValueError(f"duplicate tier in {text!r}")
    if len(tiers) < 2:
        raise ValueError("need at least two tiers to compare")
    return tiers


def time_source(source, tier, repeats=DEFAULT_REPEATS, fuel=2_000_000_000):
    """Best-of-``repeats`` plain execution time, compile excluded.

    Each repeat re-instantiates the interpreter on a pre-compiled module
    so warm code-cache behavior is measured (the cross-run steady state),
    not first-compile latency.
    """
    module = compile_source(source)
    best = float("inf")
    for _ in range(repeats):
        machine = Interpreter(module, fuel=fuel, backend=tier)
        started = time.perf_counter()
        machine.run("main")
        best = min(best, time.perf_counter() - started)
    return best


def _finish_row(row, tiers):
    baseline = row["times"].get(tiers[0])
    for tier in tiers[1:]:
        if baseline and row["times"].get(tier):
            row["speedups"][f"{tiers[0]}_vs_{tier}"] = round(
                baseline / row["times"][tier], 3
            )
    if "jit" in tiers and "vec" in tiers and row["times"].get("vec"):
        row["speedups"]["jit_vs_vec"] = round(
            row["times"]["jit"] / row["times"]["vec"], 3
        )
    return row


def bench_loop_kernels(tiers, repeats=DEFAULT_REPEATS):
    """Time the loop-throughput kernel suite on each tier."""
    from ..interp.veccodegen import vector_decisions
    from .loop_kernels import loop_kernels

    rows = []
    for kernel in loop_kernels():
        decisions = vector_decisions(compile_source(kernel.source))
        row = {
            "name": kernel.name,
            "derived_from": kernel.derived_from,
            "vectorized": any(
                d["status"] == "vectorized" for d in decisions
            ),
            "times": {
                tier: time_source(kernel.source, tier, repeats)
                for tier in tiers
            },
            "speedups": {},
        }
        rows.append(_finish_row(row, tiers))
    return {"mode": "loops", "tiers": list(tiers), "rows": rows}


def bench_programs(tiers, suite=None, repeats=DEFAULT_REPEATS):
    """Time bundled benchmark programs end-to-end on each tier."""
    from .suites import all_programs, suite_programs

    programs = suite_programs(suite) if suite else all_programs()
    rows = []
    for program in programs:
        row = {
            "name": program.full_name,
            "times": {
                tier: time_source(program.source, tier, repeats)
                for tier in tiers
            },
            "speedups": {},
        }
        rows.append(_finish_row(row, tiers))
    return {
        "mode": "programs",
        "suite": suite,
        "tiers": list(tiers),
        "rows": rows,
    }


def speedup_geomeans(result):
    """Geomean of each speedup column across the result's rows."""
    keys = sorted({key for row in result["rows"] for key in row["speedups"]})
    return {
        key: round(geomean(
            row["speedups"][key] for row in result["rows"]
            if key in row["speedups"]
        ), 3)
        for key in keys
    }


def format_tier_table(result):
    """Human-readable speedup table for a bench result."""
    tiers = result["tiers"]
    lines = []
    header = f"{'benchmark':24s}" + "".join(
        f"{tier + ' (s)':>14s}" for tier in tiers
    )
    speedup_keys = sorted(
        {key for row in result["rows"] for key in row["speedups"]}
    )
    header += "".join(f"{key:>18s}" for key in speedup_keys)
    lines.append(header)
    for row in result["rows"]:
        line = f"{row['name']:24s}" + "".join(
            f"{row['times'][tier]:>14.4f}" for tier in tiers
        )
        line += "".join(
            f"{row['speedups'].get(key, float('nan')):>17.2f}x"
            for key in speedup_keys
        )
        if row.get("vectorized") is False:
            line += "  [NOT VECTORIZED]"
        lines.append(line)
    means = speedup_geomeans(result)
    if means:
        line = f"{'geomean':24s}" + " " * (14 * len(tiers))
        line += "".join(f"{means[key]:>17.2f}x" for key in speedup_keys)
        lines.append(line)
    return "\n".join(lines)


def bench_row(result, repeats):
    """Shape a bench result as a BENCH_infrastructure.json row."""
    return {
        "kind": "tier_bench",
        "mode": result["mode"],
        "suite": result.get("suite"),
        "tiers": result["tiers"],
        "repeats": repeats,
        "rows": result["rows"],
        "geomeans": speedup_geomeans(result),
    }
