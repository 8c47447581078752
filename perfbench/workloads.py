"""The three benchmark workloads.

All are closed loops: one client, one task at a time, serial, in one
process, with no sweep pool. A task is one program taken through the
workload's pipeline; a pass is every task of the workload's input set.

* ``study_cold``: the 48 bundled programs x the 14 paper configurations
  through ``SuiteRunner.evaluate_many``, each pass against an empty profile
  store. Profiling and evaluation dominate; store writes follow.
* ``study_warm``: the same grid with a fresh ``SuiteRunner`` per pass against
  a store that set-up filled in a child process (so the cold profiling
  never counts toward this process's peak RSS). Evaluation and
  ``ProfileStore.load`` dominate; the interpreter never runs.
* ``analyze``: ``transform_program`` plus ``vector_decisions`` over the
  bundled programs and ``GENERATED`` ``fuzz.genprog`` programs drawn from
  the seed. No profiling; the only workload where compile and dependence
  analysis are a visible share.
"""

from __future__ import annotations

import contextlib
import gc
import json
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import time

from checks import (
    analysis_digest,
    experiments_blocks,
    grid_digest,
    mismatched,
    readme_transform_block,
    render_study_blocks,
    render_transform_block,
)
from hostspeed import bracket, normalize, sample
from spans import pass_layer_times, static_instrs

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Generated programs per ``analyze`` pass (``mixed`` grammar profile).
GENERATED = 200

#: Set-up repetitions whose median is reported as ``setup_s``
#: (``study_warm`` sets up once: its set-up is a whole cold pass).
SETUP_REPEATS = 3

_NO_SPAN = contextlib.nullcontext()


def _no_span(name):
    return _NO_SPAN


class PassResult:
    """One pass: wall time, per-task latencies and outcome counts, plus the
    per-layer self times and counters when the pass was traced."""

    __slots__ = ("wall_s", "task_ms", "ref_s", "attempted", "failed",
                 "layers", "counts", "self_s", "spans")

    def __init__(self, wall_s, task_ms, ref_s, failed):
        self.wall_s = wall_s
        self.task_ms = task_ms
        self.ref_s = ref_s  # host-speed references taken before each task
        self.attempted = len(task_ms)
        self.failed = failed
        self.layers = None
        self.counts = {}
        self.self_s = None  # sum of every span's self time in the pass
        self.spans = 0

    def add_counts(self, counts):
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


class Workload:
    min_passes = 1

    def __init__(self, seed, smoke, state):
        self.seed = seed
        self.smoke = smoke
        self.state = state
        self.errors = []
        self.extra_attempted = 0
        self.extra_failed = 0

    def note(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)

    def timed_pass(self, tracer, body):
        """Run ``body(span)`` as one pass; returns ``(wall_s, root_id)``.
        Untraced passes time the host-speed reference before each task
        (outside the task's time); traced passes do not."""
        span = tracer.span if tracer is not None else _no_span
        root_id = len(tracer.spans) if tracer is not None else None
        start = time.perf_counter()
        with span("perfbench.pass"):
            body(span)
        return time.perf_counter() - start, root_id

    @staticmethod
    def collect_trace(result, tracer, root_id):
        """Per-layer self times and counters of the pass just traced."""
        self_times = tracer.self_times(root_id)
        result.layers = pass_layer_times(self_times)
        result.self_s = sum(self_times.values())
        result.spans = len(tracer.spans) - root_id
        counts, eval_ms = tracer.take_counts()
        result.add_counts(counts)
        result.counts["core.evaluator.config_ms_p50"] = (
            statistics.median(eval_ms) if eval_ms else 0.0)

    def finish(self, tracer):
        """Post-measurement work of the traced run; returns extra per-layer
        metrics."""
        return {}


class Study(Workload):
    # Three passes of 48 tasks put at least ten samples beyond p90.
    min_passes = 3

    def __init__(self, seed, smoke, state, cold):
        super().__init__(seed, smoke, state)
        from repro.bench import all_programs
        from repro.core.config import paper_configurations

        self.cold = cold
        programs = all_programs()
        self.programs = programs[::16] if smoke else programs
        self.configs = paper_configurations()
        self.rng = random.Random(seed)
        self.reference = None if smoke else experiments_blocks(
            (ROOT / "EXPERIMENTS_MEASURED.md").read_text())
        self.expected = {}  # full_name -> grid digest
        self.store_dir = state / "profiles"
        self.runner = None

    # -- set-up ----------------------------------------------------------

    def setup(self):
        """``[(raw seconds, normalized seconds)]`` per set-up repetition."""
        if self.cold:
            return [bracket(lambda: warm_code_cache(self.programs))
                    for _ in range(SETUP_REPEATS)]
        return [self.fill_store()]

    def fill_store(self):
        """Profile every program into ``store_dir`` in a child process (a
        cold pass) and adopt its grid digests as the expected results.
        The child times its own pass, host-normalized per task like a
        measured pass, since it may run on the other core."""
        command = [sys.executable, str(pathlib.Path(__file__).with_name(
            "run.py")), "--fill-store", str(self.store_dir),
            "--seed", str(self.seed)]
        if self.smoke:
            command.append("--smoke")
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=150, cwd=ROOT)
        if child.returncode != 0:
            raise RuntimeError(
                f"store fill failed ({child.returncode}): {child.stderr}")
        filled = json.loads(child.stdout.strip().splitlines()[-1])
        self.expected = filled["digests"]
        for message in filled["errors"]:
            self.note(f"store fill: {message}")
        return (filled["wall_s"],
                sum(normalize(filled["task_ms"], filled["ref_s"])) / 1e3)

    # -- one pass --------------------------------------------------------

    def run_pass(self, index, tracer):
        from repro.bench import SuiteRunner

        self.runner = None
        gc.collect()
        order = list(self.programs)
        self.rng.shuffle(order)
        store_dir = (self.state / f"profiles-{index}" if self.cold
                     else self.store_dir)
        runner = SuiteRunner(cache_dir=store_dir)
        task_ms = []
        ref_s = []
        raised = set()

        def body(span):
            for program in order:
                if tracer is not None:
                    tracer.task_id = f"{index}:{program.full_name}"
                else:
                    ref_s.append(sample())
                start = time.perf_counter()
                try:
                    with span("bench.suites.evaluate_many"):
                        runner.evaluate_many([program], self.configs)
                except Exception as exc:  # task boundary: record, go on
                    raised.add(program.full_name)
                    self.note(f"{program.full_name}: {exc!r}")
                task_ms.append((time.perf_counter() - start) * 1e3)

        wall_s, root_id = self.timed_pass(tracer, body)
        result = PassResult(wall_s, task_ms, ref_s, 0)
        if tracer is not None:
            self.collect_trace(result, tracer, root_id)
            result.add_counts(self.pass_counts(runner, order, raised))
            self.runner = runner
        result.failed = len(self.check_pass(runner, order, raised))
        if self.cold:
            shutil.rmtree(store_dir, ignore_errors=True)
        return result

    def check_pass(self, runner, order, raised):
        """Names of the pass's failed tasks: raised, digest differs from the
        expected one, or (every task) the rendered grids differ from
        ``EXPERIMENTS_MEASURED.md``."""
        failed = set(raised)
        for program in order:
            name = program.full_name
            if name in raised:
                continue
            value = grid_digest({
                config.name: runner.evaluate(program, config)
                for config in self.configs
            })
            if self.expected.setdefault(name, value) != value:
                failed.add(name)
                self.note(f"{name}: grid digest differs")
        if self.reference is not None and not raised:
            bad = mismatched(render_study_blocks(runner), self.reference)
            if bad:
                failed.update(program.full_name for program in order)
                self.note(f"rendered {bad} differ from "
                          "EXPERIMENTS_MEASURED.md")
        return failed

    def pass_counts(self, runner, order, raised):
        stats = runner.store.stats
        counts = {
            "runtime.profile_store.hits": stats.hits,
            "runtime.profile_store.misses": stats.misses,
            "runtime.profile_store.corrupt": stats.corrupt,
            "runtime.profile_store.errors": stats.errors,
            "runtime.profile_store.bytes": (
                runner.store.size_bytes() if stats.stores else 0),
            "runtime.recorder.dyn_instrs": 0,
            "runtime.recorder.invocations": 0,
        }
        for program in order:
            if program.full_name in raised:
                continue
            lp = runner.instance(program)
            if not lp.profiled_from_cache:
                profile = lp.profile()
                counts["runtime.recorder.dyn_instrs"] += profile.total_cost
                counts["runtime.recorder.invocations"] += len(
                    profile.all_invocations())
        return counts

    # -- traced-run reference --------------------------------------------

    def finish(self, tracer):
        """Plain (uninstrumented) run of every program of the last pass: its
        output and instruction count must equal the instrumented run's, and
        its time is the base of the recorder tax."""
        runner = self.runner
        root_id = len(tracer.spans)
        instructions = 0
        with tracer.span("perfbench.plain"):
            for program in self.programs:
                lp = runner.instance(program)
                _, cost, output = lp.run_uninstrumented()
                instructions += cost
                self.extra_attempted += 1
                if output != lp.output or cost != lp.total_cost:
                    self.extra_failed += 1
                    self.note(f"{program.full_name}: plain run differs from "
                              "the instrumented run")
        plain_s = tracer.self_times(root_id).get("interp.plain", 0.0)
        return {
            "interp.plain_s": plain_s,
            "interp.plain_minstr_s": instructions / plain_s / 1e6,
        }


def warm_code_cache(programs):
    """Compile, classify and instrument every program and generate the JIT
    code of its instrumented variant, as the first profiling run would."""
    from repro.core.framework import Loopapalooza
    from repro.core.instrument import jit_variant_for
    from repro.interp.codegen import CodegenUnsupported, jit_entry
    from repro.interp.interpreter import backend_from_env
    from repro.runtime.recorder import ProfilingRuntime

    backend = backend_from_env()
    for program in programs:
        lp = Loopapalooza(program.source, name=program.full_name)
        runtime = ProfilingRuntime(program.full_name)
        for function in lp.module.defined_functions():
            plan = lp.instrumentation.get(function.name)
            try:
                jit_entry(function, plan, jit_variant_for(plan, runtime),
                          vectorize=backend in ("vec", "par"),
                          parallel=backend == "par")
            except CodegenUnsupported:
                pass  # the interpreter falls back to closures the same way


def fill_store(store_dir, seed, smoke):
    """The ``study_warm`` set-up child: one cold pass into ``store_dir``.
    Returns its timing, the grid digests and any check failures."""
    study = Study(seed, smoke, store_dir.parent, cold=False)
    study.store_dir = store_dir
    result = study.run_pass(0, None)
    return {"digests": study.expected, "errors": study.errors,
            "wall_s": result.wall_s, "task_ms": result.task_ms,
            "ref_s": result.ref_s}


class Analyze(Workload):
    min_passes = 2

    def __init__(self, seed, smoke, state):
        super().__init__(seed, smoke, state)
        from repro.bench import all_programs

        programs = all_programs()
        self.bundled = programs[::16] if smoke else programs
        self.generated = 4 if smoke else GENERATED
        self.reference = None if smoke else readme_transform_block(
            (ROOT / "README.md").read_text())
        self.expected = {}
        self.items = None

    def inputs(self):
        """``[(name, source, bundled?)]``: the bundled programs, then the
        generated ones. The same seed gives byte-identical inputs."""
        from repro.fuzz.genprog import generate_program

        rng = random.Random(self.seed)
        generated = [generate_program(rng.randrange(2 ** 31), "mixed")
                     for _ in range(self.generated)]
        return ([(p.full_name, p.source, True) for p in self.bundled]
                + [(g.name, g.source, False) for g in generated])

    def setup(self):
        return [bracket(self.prepare) for _ in range(SETUP_REPEATS)]

    def prepare(self):
        """Generate the inputs and run one warm-up task."""
        self.items = self.inputs()
        name, source, _ = self.items[0]
        analyze_task(name, source, _no_span)

    def run_pass(self, index, tracer):
        gc.collect()
        task_ms = []
        ref_s = []
        results = []
        raised = set()

        def body(span):
            for name, source, bundled in self.items:
                if tracer is not None:
                    tracer.task_id = f"{index}:{name}"
                else:
                    ref_s.append(sample())
                start = time.perf_counter()
                try:
                    results.append((name, bundled)
                                   + analyze_task(name, source, span))
                except Exception as exc:  # task boundary: record, go on
                    raised.add(name)
                    self.note(f"{name}: {exc!r}")
                task_ms.append((time.perf_counter() - start) * 1e3)

        wall_s, root_id = self.timed_pass(tracer, body)
        result = PassResult(wall_s, task_ms, ref_s, 0)
        if tracer is not None:
            self.collect_trace(result, tracer, root_id)
            result.add_counts(self.pass_counts(results))
        result.failed = len(self.check_pass(results, raised))
        return result

    def check_pass(self, results, raised):
        """Verdicts and vectorizer decisions identical across passes, and
        the bundled programs' transform figure equal to the README's."""
        from repro.reporting import TransformReport

        failed = set(raised)
        rows, log = [], []
        for name, bundled, program_rows, program_log, decisions, _ in results:
            value = analysis_digest(program_rows, decisions)
            if self.expected.setdefault(name, value) != value:
                failed.add(name)
                self.note(f"{name}: verdicts differ between passes")
            if bundled:
                rows.extend(program_rows)
                log.extend(dict(entry, program=name) for entry in program_log)
        if self.reference is not None and not raised:
            rendered = render_transform_block(TransformReport(rows, log))
            if rendered != self.reference:
                failed.update(item[0] for item in self.items if item[2])
                self.note("transform figure differs from README.md")
        return failed

    def pass_counts(self, results):
        counts = {"ir.static_instrs": 0, "interp.veccodegen.vectorized": 0,
                  "interp.veccodegen.bailouts": 0}
        for _, _, _, _, decisions, module in results:
            counts["ir.static_instrs"] += static_instrs(module)
            for decision in decisions:
                key = ("interp.veccodegen.vectorized"
                       if decision["status"] == "vectorized"
                       else "interp.veccodegen.bailouts")
                counts[key] += 1
        return counts


def analyze_task(name, source, span):
    """One ``analyze`` task; returns ``(rows, log, decisions, module)``."""
    from repro.core.instrument import build_instrumentation
    from repro.core.static_info import ModuleStaticInfo
    from repro.frontend.codegen import compile_source
    from repro.interp.veccodegen import vector_decisions
    from repro.reporting.transform_report import transform_program

    with span("reporting.transform_report"):
        rows, log = transform_program(source, name)
    with span("frontend.compile"):
        module = compile_source(source, module_name=name)
    with span("analysis.classify"):
        static_info = ModuleStaticInfo(module)
    with span("core.instrument"):
        plan = build_instrumentation(static_info)
    with span("interp.veccodegen.plan"):
        decisions = vector_decisions(module, plan)
    return rows, log, decisions, module


def make(name, seed, smoke, state):
    if name == "analyze":
        return Analyze(seed, smoke, state)
    return Study(seed, smoke, state, cold=name == "study_cold")


def percentile(values, q):
    """The ``q``-th percentile (inclusive method) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
