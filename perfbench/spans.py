"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own code, around calls into the
pipeline's public functions: :func:`install` rebinds those names in the
modules that call them (``repro.core.framework``,
``repro.reporting.transform_report``) and wraps two public methods, so the
traced run executes exactly the code path of the untraced run with a span
around each layer call. Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent_id, task_id]``; ids are list
indices. A span's self time is its duration minus the durations of its
children, so the self times of one tree sum to its root's duration.
"""

from __future__ import annotations

import json
import statistics
import time

_now = time.perf_counter_ns


class Tracer:
    """Collects nested spans and per-pass counters in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.eval_ms = []  # duration of each evaluate_config call
        self._stack = []
        self.task_id = None

    def span(self, name):
        return _Span(self, name)

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def take_counts(self):
        counts, self.counts = self.counts, {}
        eval_ms, self.eval_ms = self.eval_ms, []
        return counts, eval_ms

    def self_times(self, root_id):
        """``{span name: self seconds}`` over the tree rooted at ``root_id``
        (spans are appended in start order, so the subtree is a suffix)."""
        spans = self.spans
        inside = {root_id}
        self_ns = {}
        for span_id in range(root_id, len(spans)):
            _, start, end, parent, _ = spans[span_id]
            if span_id != root_id and parent not in inside:
                continue
            inside.add(span_id)
            self_ns[span_id] = end - start
            if span_id != root_id:
                self_ns[parent] -= end - start
        totals = {}
        for span_id, ns in self_ns.items():
            name = spans[span_id][0]
            totals[name] = totals.get(name, 0.0) + ns / 1e9
        return totals

    def span_cost_s(self, samples=20_000):
        """Measured cost of recording one empty span on this host."""
        start = time.perf_counter()
        with self.span("trace.calibration"):
            for _ in range(samples):
                with self.span("trace.calibration.empty"):
                    pass
        cost = (time.perf_counter() - start) / samples
        del self.spans[-(samples + 1):]
        return cost

    def write(self, path):
        """Dump every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span_id, (name, start, end, parent, task) in enumerate(
                    self.spans):
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "task": task,
                }) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "span_id")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        self.span_id = len(tracer.spans)
        tracer.spans.append([self.name, _now(), None,
                             stack[-1] if stack else None, tracer.task_id])
        stack.append(self.span_id)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.span_id][2] = _now()
        self.tracer._stack.pop()
        return False


def static_instrs(module):
    return sum(
        len(block.instructions)
        for function in module.defined_functions()
        for block in function.blocks
    )


def install(tracer):
    """Wrap the pipeline's layer entry points with spans, for the rest of
    the process."""
    from repro.core import framework
    from repro.core.static_info import ModuleStaticInfo
    from repro.reporting import transform_report
    from repro.runtime.profile_store import ProfileStore

    def traced_compile(original):
        def compile_source(source, *args, **kwargs):
            name = ("frontend.compile_tx" if kwargs.get("transform")
                    else "frontend.compile")
            with tracer.span(name):
                module = original(source, *args, **kwargs)
            tracer.count("ir.static_instrs", static_instrs(module))
            return module
        return compile_source

    def traced_call(name, original):
        def call(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)
        return call

    def traced_analyze(original):
        def analyze_module(*args, **kwargs):
            with tracer.span("analysis.depend"):
                verdicts = original(*args, **kwargs)
            for dependence in verdicts.values():
                tracer.count(VERDICT_COUNTS.get(dependence.verdict,
                                                "analysis.unknown"))
            return verdicts
        return analyze_module

    def traced_evaluate(original):
        def evaluate_config(profile, static_info, config, *args, **kwargs):
            start = _now()
            with tracer.span(f"core.evaluator.{config.model}"):
                result = original(profile, static_info, config, *args,
                                  **kwargs)
            tracer.eval_ms.append((_now() - start) / 1e6)
            return result
        return evaluate_config

    class TracedInterpreter(framework.Interpreter):
        def run(self, *args, **kwargs):
            name = ("interp.plain" if self.runtime is None
                    else "runtime.recorder.profile")
            with tracer.span(name):
                result = super().run(*args, **kwargs)
            tracer.count("interp.veccodegen.vectorized",
                         sum(self.vec_runs.values()))
            tracer.count("interp.veccodegen.bailouts",
                         sum(self.vec_bailouts.values()))
            return result

    class TracedRuntime(framework.ProfilingRuntime):
        def finish(self, *args, **kwargs):
            with tracer.span("runtime.recorder.profile"):
                return super().finish(*args, **kwargs)

    setattr(framework, "compile_source",
          traced_compile(framework.compile_source))
    setattr(framework, "ModuleStaticInfo",
          traced_call("analysis.classify", framework.ModuleStaticInfo))
    setattr(framework, "build_instrumentation",
          traced_call("core.instrument", framework.build_instrumentation))
    setattr(framework, "Interpreter", TracedInterpreter)
    setattr(framework, "ProfilingRuntime", TracedRuntime)
    setattr(framework, "ProfileCache",
          traced_call("core.evaluator.cache", framework.ProfileCache))
    setattr(framework, "evaluate_config",
          traced_evaluate(framework.evaluate_config))
    setattr(ModuleStaticInfo, "dependence",
          traced_call("analysis.depend", ModuleStaticInfo.dependence))
    setattr(ProfileStore, "load",
          traced_call("runtime.profile_store.load", ProfileStore.load))
    setattr(ProfileStore, "store",
          traced_call("runtime.profile_store.store", ProfileStore.store))
    setattr(transform_report, "compile_source",
          traced_compile(transform_report.compile_source))
    setattr(transform_report, "analyze_module",
          traced_analyze(transform_report.analyze_module))


VERDICT_COUNTS = {
    "STATIC_DOALL": "analysis.static_doall",
    "STATIC_LCD": "analysis.static_lcd",
}

#: Per-layer time metric -> the span names whose self time it sums.
SELF_TIME_METRICS = {
    "frontend.compile_s": ("frontend.compile",),
    "frontend.compile_tx_s": ("frontend.compile_tx",),
    "analysis.classify_s": ("analysis.classify",),
    "analysis.depend_s": ("analysis.depend",),
    "core.instrument_s": ("core.instrument",),
    "runtime.recorder.profile_s": ("runtime.recorder.profile",),
    "runtime.profile_store.store_s": ("runtime.profile_store.store",),
    "runtime.profile_store.load_s": ("runtime.profile_store.load",),
    "core.evaluator.evaluate_s": (
        "core.evaluator.cache", "core.evaluator.doall",
        "core.evaluator.pdoall", "core.evaluator.helix",
    ),
    "core.evaluator.doall_s": ("core.evaluator.doall",),
    "core.evaluator.pdoall_s": ("core.evaluator.pdoall",),
    "core.evaluator.helix_s": ("core.evaluator.helix",),
    "interp.veccodegen.plan_s": ("interp.veccodegen.plan",),
    "reporting.transform_s": ("reporting.transform_report",),
    "core.framework_s": ("bench.suites.evaluate_many",),
    "perfbench.loop_s": ("perfbench.pass",),
}

#: Span names that partition a pass: their self times sum to the pass time.
PASS_LAYERS = {name for names in SELF_TIME_METRICS.values() for name in names}


def pass_layer_times(self_times):
    """Per-layer self seconds of one pass, keyed by metric name."""
    unknown = set(self_times) - PASS_LAYERS
    if unknown:
        raise ValueError(f"spans outside the layer map: {sorted(unknown)}")
    return {
        metric: sum(self_times.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }


def median_by_key(rows):
    """Element-wise median of a list of equal-keyed dicts."""
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}
