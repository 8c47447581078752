#!/usr/bin/env python3
"""Limit-study benchmark: one workload per process, closed loop, serial.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study_cold --seed 1 --seconds 20 \\
        --trace 0

Workloads: ``study_cold``, ``study_warm``, ``analyze`` (see
``workloads.py``). The run isolates itself first: every ``REPRO_*``
variable is cleared and ``REPRO_CACHE_DIR`` points at a fresh directory under
``.perfbench/`` (removed at exit), so neither a developer's
``~/.cache/repro`` nor an exported knob can turn a cold run warm. It then
calibrates the host, sets up (timed, ``setup_s``), and runs whole passes
until the next pass would end after ``--seconds`` (at least the workload's
minimum). Every pass is checked for correctness.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
passes with spans around every layer call and reports per-layer metrics,
writing the spans to ``.perfbench/traces/<workload>-seed<n>.jsonl``. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. ``--smoke`` runs a tiny subset (two passes, no comparison with
the published figures) in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "frontend.compile_s": "s",
    "frontend.compile_tx_s": "s",
    "ir.static_instrs": "count",
    "analysis.classify_s": "s",
    "analysis.depend_s": "s",
    "analysis.static_doall": "count",
    "analysis.static_lcd": "count",
    "analysis.unknown": "count",
    "core.instrument_s": "s",
    "interp.plain_s": "s",
    "interp.plain_minstr_s": "Minstr/s",
    "runtime.recorder.profile_s": "s",
    "runtime.recorder.tax": "x",
    "runtime.recorder.dyn_instrs": "count",
    "runtime.recorder.invocations": "count",
    "runtime.profile_store.store_s": "s",
    "runtime.profile_store.bytes": "bytes",
    "runtime.profile_store.load_s": "s",
    "runtime.profile_store.hits": "count",
    "runtime.profile_store.misses": "count",
    "runtime.profile_store.corrupt": "count",
    "runtime.profile_store.errors": "count",
    "core.evaluator.evaluate_s": "s",
    "core.evaluator.config_ms_p50": "ms",
    "core.evaluator.doall_s": "s",
    "core.evaluator.pdoall_s": "s",
    "core.evaluator.helix_s": "s",
    "interp.veccodegen.vectorized": "count",
    "interp.veccodegen.bailouts": "count",
    "interp.veccodegen.plan_s": "s",
    "reporting.transform_s": "s",
    "core.framework_s": "s",
    "perfbench.loop_s": "s",
    "host.calib_minstr_s": "Minstr/s",
    "trace.overhead_s": "s",
    "trace.pass_s": "s",
}

# Fixed host-calibration kernel, run on the closure backend: its rate
# (Minstr/s) lets rows measured on different hosts be compared as ratios.
CALIBRATION_KERNEL = r"""
int A[256];
int main() {
  int i; int j; int s = 0;
  for (i = 0; i < 256; i = i + 1) { A[i] = i * 7 + 3; }
  for (j = 0; j < 120; j = j + 1) {
    for (i = 1; i < 256; i = i + 1) {
      s = s + (A[i] ^ A[i - 1]) % 17;
      A[i] = A[i - 1] + s % 5;
    }
  }
  print_int(s);
  return s & 255;
}
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("study_cold", "study_warm",
                                               "analyze"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny subset, two passes, in seconds")
    parser.add_argument("--fill-store", metavar="DIR",
                        help=argparse.SUPPRESS)  # study_warm set-up child
    args = parser.parse_args(argv)
    if args.workload is None and args.fill_store is None:
        parser.error("--workload is required")
    return args


def isolate_environment(state):
    """Clear every ``REPRO_*`` knob and point ``REPRO_CACHE_DIR`` at a fresh
    directory; returns the effective settings for the result record."""
    cleared = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    cache_dir = state / "cache"
    cache_dir.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    return {
        "cleared_knobs": cleared,
        "REPRO_CACHE_DIR": str(cache_dir.relative_to(ROOT)),
        "jobs": None,
    }


def import_repro():
    """Import the checkout's own ``repro``; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no {src / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def host_calibration(repeats=5):
    """Minstr/s of the calibration kernel on the closure backend (median)."""
    from repro.frontend.codegen import compile_source
    from repro.interp.interpreter import Interpreter

    module = compile_source(CALIBRATION_KERNEL, module_name="calibration")
    rates = []
    for _ in range(repeats):
        machine = Interpreter(module, backend="closure")
        start = time.perf_counter()
        machine.run("main")
        rates.append(machine.cost / (time.perf_counter() - start) / 1e6)
    return statistics.median(rates)


def measure(workload, seconds, smoke, tracer):
    """Whole passes until the next one would end after ``seconds`` (smoke:
    exactly two); at least ``workload.min_passes``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(len(passes), tracer))
        if smoke:
            if len(passes) == 2:
                return passes
            continue
        elapsed = time.perf_counter() - start
        if (len(passes) >= workload.min_passes
                and elapsed + passes[-1].wall_s > seconds):
            return passes


def end_to_end_metrics(setup, passes):
    """Host-normalized times (see ``hostspeed.py``) and peak RSS."""
    from hostspeed import normalize
    from workloads import percentile

    task_ms = [normalize(r.task_ms, r.ref_s) for r in passes]
    pooled = [ms for pass_ms in task_ms for ms in pass_ms]
    return {
        "setup_s": statistics.median(normalized for _, normalized in setup),
        "pass_s": statistics.median(sum(ms) for ms in task_ms) / 1e3,
        "task_p50_ms": statistics.median(pooled),
        "task_p90_ms": percentile(pooled, 90),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(workload, passes, tracer, span_cost_s, calib):
    """Median over the traced passes of each layer's self time and count."""
    from spans import median_by_key

    layers = median_by_key([result.layers for result in passes])
    keys = {key for result in passes for key in result.counts}
    counts = median_by_key([
        {key: result.counts.get(key, 0) for key in keys} for result in passes
    ]) if keys else {}
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update(layers)
    metrics.update(counts)
    metrics.update(workload.finish(tracer))
    if metrics["interp.plain_s"]:
        metrics["runtime.recorder.tax"] = (
            metrics["runtime.recorder.profile_s"] / metrics["interp.plain_s"])
    metrics["host.calib_minstr_s"] = calib
    metrics["trace.overhead_s"] = span_cost_s * statistics.median(
        result.spans for result in passes)
    metrics["trace.pass_s"] = statistics.median(r.wall_s for r in passes)
    return metrics


def check_trace_accounting(workload, passes, span_cost_s):
    """Layer self times must add up to each traced pass's wall time to
    within that pass's tracing overhead."""
    for index, result in enumerate(passes):
        gap = abs(result.wall_s - result.self_s)
        if gap > span_cost_s * result.spans:
            workload.note(f"pass {index}: layer self times miss the pass "
                          f"time by {gap:.6f}s")
            return False
    return True


def run(args, state, settings):
    import workloads
    from repro.interp.interpreter import backend_from_env

    settings["backend"] = backend_from_env()
    calib = host_calibration()
    workload = workloads.make(args.workload, args.seed, args.smoke, state)
    setup = workload.setup()
    tracer = span_cost_s = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        span_cost_s = tracer.span_cost_s()
        install(tracer)
    passes = measure(workload, args.seconds, args.smoke, tracer)

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    task_ms = [ms for result in passes for ms in result.task_ms]
    if tracer is not None:
        metrics = per_layer_metrics(workload, passes, tracer, span_cost_s,
                                    calib)
        units = PER_LAYER
        traces = STATE / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
        accounted = check_trace_accounting(workload, passes, span_cost_s)
    else:
        metrics = end_to_end_metrics(setup, passes)
        units = END_TO_END
        accounted = True
    attempted += workload.extra_attempted
    failed += workload.extra_failed
    correct = failed == 0 and not workload.errors and accounted

    p90 = workloads.percentile(task_ms, 90)
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "passes": len(passes), "task_samples": len(task_ms),
        "samples_beyond_p90": sum(ms > p90 for ms in task_ms),
        "setup_repeats": len(setup),
        "raw_setup_s": statistics.median(raw for raw, _ in setup),
        "raw_pass_s": statistics.median(r.wall_s for r in passes),
        "host.calib_minstr_s": calib, "settings": settings,
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "error_rate": failed / attempted, "errors": workload.errors,
    }
    print("perfbench context " + json.dumps(context, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6f} {units[name]}")
    print(f"  {'error_rate':32s} {failed / attempted:>16.6f} "
          f"({failed}/{attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "EXPERIMENTS_MEASURED.md").is_file():
        sys.exit("perfbench: EXPERIMENTS_MEASURED.md missing; "
                 "run from a full checkout")
    state = STATE / f"run-{os.getpid()}"
    try:
        settings = isolate_environment(state)
        import_repro()
        if args.fill_store:
            from workloads import fill_store

            print(json.dumps(fill_store(pathlib.Path(args.fill_store),
                                        args.seed, args.smoke)))
        else:
            run(args, state, settings)
    finally:
        shutil.rmtree(state, ignore_errors=True)


if __name__ == "__main__":
    main()
