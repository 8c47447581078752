"""Experiment harness: regenerate every table and figure of the paper.

Each ``figure*`` function returns the underlying data structure; each
``format_*`` helper renders the paper-style text view. EXPERIMENTS.md is
produced from these (see ``examples/full_paper_run.py``).
"""

from __future__ import annotations

from ..bench.suites import (
    ALL_SUITES,
    NON_NUMERIC_SUITES,
    NUMERIC_SUITES,
    default_runner,
    suite_programs,
)
from ..core.config import BEST_HELIX, BEST_PDOALL, LPConfig, paper_configurations
from .stats import geomean

# The three configurations of the paper's coverage study (Fig. 5).
COVERAGE_CONFIGS = (
    LPConfig("pdoall", 0, 0, 2),
    LPConfig("helix", 0, 0, 2),
    LPConfig("helix", 0, 1, 2),
)


def figure2_nonnumeric(runner=None, jobs=None, sweep=None):
    """Fig. 2: GEOMEAN speedups for SpecINT2000/2006 per configuration.

    Returns ``{config_name: {suite: geomean_speedup}}`` in the paper's
    presentation order. ``jobs`` fans the underlying sweep out over a
    process pool (the aggregation below is unchanged, so the output is
    identical to a serial run). ``sweep`` carries the fault-tolerance
    options of :meth:`SuiteRunner.evaluate_many` — ``telemetry``,
    ``task_timeout``, ``retries`` — as a keyword dict.
    """
    return _figure_speedups(NON_NUMERIC_SUITES, runner, jobs, sweep)


def figure3_numeric(runner=None, jobs=None, sweep=None):
    """Fig. 3: GEOMEAN speedups for EEMBC and SpecFP2000/2006."""
    return _figure_speedups(NUMERIC_SUITES, runner, jobs, sweep)


def _figure_speedups(suites, runner, jobs=None, sweep=None):
    runner = runner or default_runner()
    _prefetch(
        runner,
        [p for suite in suites for p in suite_programs(suite)],
        paper_configurations(),
        jobs,
        sweep,
    )
    rows = {}
    for config in paper_configurations():
        row = {}
        for suite in suites:
            speedups = runner.suite_speedups(suite, config)
            row[suite] = geomean(speedups.values())
        rows[config.name] = row
    return rows


def figure4_per_benchmark(runner=None, jobs=None, sweep=None):
    """Fig. 4: per-benchmark speedups for the best PDOALL
    (``reduc1-dep2-fn2``) and best HELIX (``reduc1-dep1-fn2``) configs,
    across all four SPEC suites.

    Returns ``{suite/name: {"pdoall": s, "helix": s}}``.
    """
    runner = runner or default_runner()
    spec_suites = ("specint2000", "specint2006", "specfp2000", "specfp2006")
    _prefetch(
        runner,
        [p for suite in spec_suites for p in suite_programs(suite)],
        [BEST_PDOALL, BEST_HELIX],
        jobs,
        sweep,
    )
    result = {}
    for suite in spec_suites:
        for program in suite_programs(suite):
            result[program.full_name] = {
                "pdoall": runner.evaluate(program, BEST_PDOALL).speedup,
                "helix": runner.evaluate(program, BEST_HELIX).speedup,
            }
    return result


def figure5_coverage(runner=None, jobs=None, sweep=None):
    """Fig. 5: mean dynamic coverage (percent) for the three selected
    configurations, per suite.

    Returns ``{config_name: {suite: coverage_percent}}``. Coverage is a
    bounded fraction, so the suite aggregate uses the arithmetic mean
    (a geometric mean collapses whenever one benchmark has ~zero coverage).
    """
    runner = runner or default_runner()
    _prefetch(
        runner,
        [p for suite in ALL_SUITES for p in suite_programs(suite)],
        COVERAGE_CONFIGS,
        jobs,
        sweep,
    )
    rows = {}
    for config in COVERAGE_CONFIGS:
        row = {}
        for suite in ALL_SUITES:
            coverages = runner.suite_coverages(suite, config)
            values = [c * 100.0 for c in coverages.values()]
            row[suite] = sum(values) / len(values)
        rows[config.name] = row
    return rows


def table1_census(runner=None, jobs=None, sweep=None):
    """Table I as measured: dependence-category census per suite.

    With ``jobs``, workers profile the benchmarks in parallel and populate
    the shared disk store so the census pass below never re-profiles.
    """
    runner = runner or default_runner()
    _prefetch(
        runner,
        [p for suite in ALL_SUITES for p in suite_programs(suite)],
        [paper_configurations()[0]],
        jobs,
        sweep,
    )
    rows = {}
    for suite in ALL_SUITES:
        totals = {}
        for program in suite_programs(suite):
            census = runner.instance(program).census()
            for key, value in census.items():
                totals[key] = totals.get(key, 0) + value
        rows[suite] = totals
    return rows


def _prefetch(runner, programs, configs, jobs, sweep=None):
    """Warm the runner's result memo with a (possibly parallel) sweep.

    A no-op for plain serial runs: the figure loops below compute each
    cell on demand either way, so parallel and serial paths aggregate the
    exact same EvaluationResult values. With ``sweep`` telemetry attached
    the sweep always goes through ``evaluate_many`` — even serially — so
    every task lands in the run ledger and the run is resumable.
    """
    sweep = sweep or {}
    if (jobs is not None and jobs > 1) or sweep.get("telemetry") is not None:
        runner.evaluate_many(programs, configs, jobs=jobs, **sweep)


# -- formatting ------------------------------------------------------------------


def format_speedup_figure(rows, title):
    lines = [title, "=" * len(title)]
    suites = list(next(iter(rows.values())).keys())
    header = f"{'configuration':28s}" + "".join(f"{s:>14s}" for s in suites)
    lines.append(header)
    lines.append("-" * len(header))
    for config_name, row in rows.items():
        lines.append(
            f"{config_name:28s}"
            + "".join(f"{row[s]:>13.2f}x" for s in suites)
        )
    return "\n".join(lines)


def format_figure4(data):
    lines = [
        "Fig. 4 — per-benchmark speedups (best PDOALL vs best HELIX)",
        f"{'benchmark':32s}{'PDOALL':>12s}{'HELIX':>12s}{'winner':>10s}",
    ]
    for name, entry in data.items():
        winner = "PDOALL" if entry["pdoall"] > entry["helix"] else "HELIX"
        lines.append(
            f"{name:32s}{entry['pdoall']:>11.2f}x{entry['helix']:>11.2f}x"
            f"{winner:>10s}"
        )
    return "\n".join(lines)


def format_coverage(rows):
    lines = ["Fig. 5 — mean dynamic coverage (%)"]
    suites = list(next(iter(rows.values())).keys())
    header = f"{'configuration':28s}" + "".join(f"{s:>14s}" for s in suites)
    lines.append(header)
    for config_name, row in rows.items():
        lines.append(
            f"{config_name:28s}"
            + "".join(f"{row[s]:>13.1f}%" for s in suites)
        )
    return "\n".join(lines)


def format_census(rows):
    lines = ["Table I (measured) — dependence-category census per suite"]
    keys = [
        "loops", "computable_phis", "reduction_phis", "noncomputable_phis",
        "loops_with_calls", "loops_with_unsafe_calls",
    ]
    # Two spaces beyond the longest name keep every header apart.
    width = max(map(len, keys)) + 2
    header = f"{'suite':14s}" + "".join(f"{k:>{width}s}" for k in keys)
    lines.append(header)
    for suite, totals in rows.items():
        lines.append(f"{suite:14s}" + "".join(
            f"{totals.get(k, 0):>{width}d}" for k in keys))
    return "\n".join(lines)
