"""Structured run telemetry: the JSONL run ledger and the run manifest.

A *run* is one logical sweep over a (benchmark x configuration) grid — a
``full_paper_run``, a ``repro figures`` invocation, or any direct
:meth:`~repro.bench.suites.SuiteRunner.evaluate_many` call that was handed
a :class:`RunTelemetry`. Each run owns a directory under the runs root
(default ``~/.cache/repro/runs``, override with ``REPRO_RUNS_DIR``):

``<run_id>/ledger.jsonl``
    Append-only event log, one JSON object per line. ``task`` events carry
    the *serialized evaluation results* for every configuration the task
    covered, so a later run can resume from them without re-evaluating;
    ``retry`` / ``quarantine`` / ``resumed`` events record the fault
    history. The ledger is the source of truth: the manifest is always
    recomputable from it.

``<run_id>/manifest.json``
    Aggregate view, rewritten after every event: task tallies (done /
    resumed / quarantined), retry count, profile-cache hits and misses,
    total interpreter instructions profiled, cumulative task wall time,
    the model-outcome tally (parallel vs serial loop summaries across
    every recorded result), and the ``REPRO_*`` settings
    (:func:`repro.settings.current`). ``repro runs`` renders this file.

Resume semantics: :meth:`RunTelemetry.resume` replays the ledger; a task
whose recorded configurations cover the request is served from the ledger
(:meth:`completed_results`) and never re-executed. Results round-trip
through JSON floats exactly (``repr`` round-trip), so a resumed run's
figures are byte-identical to an uninterrupted one.

Telemetry must never break a sweep: every disk write is best-effort and
failures are counted, not raised (mirroring the profile store's contract).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import time
import uuid

from ..settings import current

#: Version of the ledger/manifest layout. Bumping it orphans old runs (they
#: remain listable but are refused for resume).
RUN_LEDGER_SCHEMA = 1

LEDGER_NAME = "ledger.jsonl"
MANIFEST_NAME = "manifest.json"


def runs_root():
    """The runs directory used when none is given explicitly."""
    override = current().runs_dir
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro" / "runs"


def new_run_id():
    """Sortable, collision-resistant run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


def _result_from_dict(data):
    from ..core.evaluator import EvaluationResult

    return EvaluationResult.from_dict(data)


class RunTelemetry:
    """One run's ledger + manifest, shared by every sweep in the run.

    Use :meth:`create` for a fresh run and :meth:`resume` to continue an
    interrupted one; the constructor itself is an implementation detail.
    """

    def __init__(self, run_id, root=None, _replay=False):
        self.run_id = run_id
        self.root = pathlib.Path(root) if root is not None else runs_root()
        self.run_dir = self.root / run_id
        self.ledger_path = self.run_dir / LEDGER_NAME
        self.manifest_path = self.run_dir / MANIFEST_NAME
        self.created = time.time()
        self.status = "running"
        self.write_errors = 0
        self.corrupt_lines = 0
        # task name -> {config_name: serialized result}
        self._completed = {}
        # Aggregate counters (recomputed from the ledger on resume).
        self._tasks = {}  # task -> last "task" event (without results)
        self._retries = 0
        self._resumed = 0
        self._quarantined = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._instructions = 0
        self._task_wall_s = 0.0
        self._outcomes = {"parallel_loops": 0, "serial_loops": 0}
        self._cache_stats = {}
        self._vec_decisions = {}
        self._fuzz = {"cases": 0, "quarantined": 0, "by_oracle": {},
                      "wall_s": 0.0}
        #: The ``REPRO_*`` settings of the process that last opened the run.
        self._settings = current().to_dict()
        if _replay:
            self._replay_ledger()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def create(cls, root=None, run_id=None):
        """Start a new run (creates the directory and an empty manifest)."""
        telemetry = cls(run_id or new_run_id(), root)
        try:
            telemetry.run_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            telemetry.write_errors += 1
        telemetry._append({"type": "start", "schema": RUN_LEDGER_SCHEMA})
        return telemetry

    @classmethod
    def resume(cls, run_id, root=None):
        """Reopen an existing run, replaying its ledger so previously
        completed tasks are served without re-execution.

        Raises :class:`FileNotFoundError` for an unknown run id and
        :class:`ValueError` for a ledger written by an incompatible schema.
        """
        root_path = pathlib.Path(root) if root is not None else runs_root()
        ledger = root_path / run_id / LEDGER_NAME
        if not ledger.exists():
            raise FileNotFoundError(
                f"no run {run_id!r} under {root_path} (see `repro runs`)"
            )
        telemetry = cls(run_id, root_path, _replay=True)
        telemetry._append({"type": "resume", "schema": RUN_LEDGER_SCHEMA})
        return telemetry

    # -- events ---------------------------------------------------------------

    def sweep_started(self, num_programs, num_configs, jobs):
        self._append({
            "type": "sweep",
            "programs": num_programs,
            "configs": num_configs,
            "jobs": jobs,
        })

    def task_done(self, task, results, *, attempt=1, wall_s=0.0,
                  cache_hit=None, instructions=0, path="serial"):
        """Checkpoint one completed (benchmark x all-configs) task.

        ``results`` is ``{config_name: EvaluationResult}``; the serialized
        results ride in the ledger entry so a resumed run can restore them.
        """
        serialized = {
            name: result.to_dict() for name, result in results.items()
        }
        tally = {"parallel_loops": 0, "serial_loops": 0}
        for result in results.values():
            for summary in result.loops.values():
                key = (
                    "parallel_loops" if summary.is_parallel else "serial_loops"
                )
                tally[key] += 1
        event = {
            "type": "task",
            "task": task,
            "configs": sorted(serialized),
            "attempt": attempt,
            "wall_s": wall_s,
            "cache_hit": cache_hit,
            "instructions": instructions,
            "path": path,
            "tally": tally,
            "results": serialized,
        }
        self._absorb_task(event)
        self._completed.setdefault(task, {}).update(serialized)
        self._append(event)

    def task_retry(self, task, attempt, reason):
        self._retries += 1
        self._append({
            "type": "retry", "task": task, "attempt": attempt,
            "reason": reason,
        })

    def task_quarantined(self, task, reason):
        self._quarantined[task] = reason
        self._append({"type": "quarantine", "task": task, "reason": reason})

    def task_resumed(self, task):
        """Note that a task's cells were restored from the ledger."""
        self._resumed += 1
        self._append({"type": "resumed", "task": task})

    def record_cache_stats(self, stats):
        """Snapshot end-of-run cache counters (profile store + code cache):
        ``{cache_name: {"entries", "size_bytes", "hits", "misses", ...}}``.
        The latest snapshot wins; ``repro cache stats`` reads it from the
        manifest of the most recent run."""
        self._cache_stats = dict(stats)
        self._append({"type": "cache_stats", "caches": self._cache_stats})

    def record_vec_decisions(self, summary):
        """Snapshot the vectorizer's aggregate decisions for the run's
        workload (see :func:`repro.interp.veccodegen.summarize_vec_decisions`):
        ``{"loops", "vectorized", "static_trip", "runtime_trip",
        "bailouts": {reason: count}}``. The latest snapshot wins and lands
        in the manifest, so `repro runs show` answers "how much of this
        sweep ran vectorized" without rerunning the planner."""
        self._vec_decisions = dict(summary)
        self._append({
            "type": "vec_decisions", "summary": self._vec_decisions,
        })

    def fuzz_case(self, *, seed, profile, verdict, case_id=None,
                  oracles=(), wall_s=0.0):
        """One differential-fuzzing oracle run (see :mod:`repro.fuzz`).

        ``verdict`` is ``"ok"`` or ``"quarantined"``; ``oracles`` lists the
        oracle kinds that fired (empty on agreement). The event rides in
        the same JSONL ledger as sweep tasks, so one ``repro runs show``
        answers both "what did the sweep do" and "what did the fuzzer
        find"."""
        event = {
            "type": "fuzz_case",
            "seed": seed,
            "profile": profile,
            "verdict": verdict,
            "case_id": case_id,
            "oracles": sorted(oracles),
            "wall_s": wall_s,
        }
        self._absorb_fuzz_case(event)
        self._append(event)

    def _absorb_fuzz_case(self, event):
        self._fuzz["cases"] += 1
        self._fuzz["wall_s"] = round(
            self._fuzz["wall_s"] + float(event.get("wall_s") or 0.0), 6)
        if event.get("verdict") == "quarantined":
            self._fuzz["quarantined"] += 1
        for oracle in event.get("oracles") or ():
            by_oracle = self._fuzz["by_oracle"]
            by_oracle[oracle] = by_oracle.get(oracle, 0) + 1

    def finish(self, status="complete"):
        self.status = status
        self._append({"type": "finish", "status": status})

    # -- resume ---------------------------------------------------------------

    def completed_results(self, task, config_names):
        """``{config_name: EvaluationResult}`` when the ledger covers every
        requested configuration of ``task``, else ``None``."""
        recorded = self._completed.get(task)
        if recorded is None:
            return None
        if any(name not in recorded for name in config_names):
            return None
        try:
            return {
                name: _result_from_dict(recorded[name])
                for name in config_names
            }
        except Exception:
            # A half-written or stale entry degrades to re-evaluation.
            self.corrupt_lines += 1
            return None

    # -- aggregation ----------------------------------------------------------

    def _absorb_task(self, event):
        self._tasks[event["task"]] = {
            k: v for k, v in event.items() if k != "results"
        }
        if event.get("cache_hit") is True:
            self._cache_hits += 1
        elif event.get("cache_hit") is False:
            self._cache_misses += 1
        self._instructions += int(event.get("instructions") or 0)
        self._task_wall_s += float(event.get("wall_s") or 0.0)
        tally = event.get("tally") or {}
        for key in self._outcomes:
            self._outcomes[key] += int(tally.get(key, 0))

    def _replay_ledger(self):
        try:
            text = self.ledger_path.read_text()
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                self.corrupt_lines += 1
                continue
            kind = event.get("type")
            if kind in ("start", "resume"):
                schema = event.get("schema")
                if schema is not None and schema != RUN_LEDGER_SCHEMA:
                    raise ValueError(
                        f"run {self.run_id!r} was written by ledger schema "
                        f"{schema}, this code speaks {RUN_LEDGER_SCHEMA}"
                    )
            elif kind == "task":
                try:
                    self._absorb_task(event)
                    self._completed.setdefault(event["task"], {}).update(
                        event.get("results") or {}
                    )
                except Exception:
                    self.corrupt_lines += 1
            elif kind == "retry":
                self._retries += 1
            elif kind == "resumed":
                self._resumed += 1
            elif kind == "quarantine":
                self._quarantined[event.get("task")] = event.get("reason")
            elif kind == "cache_stats":
                caches = event.get("caches")
                if isinstance(caches, dict):
                    self._cache_stats = caches
            elif kind == "vec_decisions":
                summary = event.get("summary")
                if isinstance(summary, dict):
                    self._vec_decisions = summary
            elif kind == "fuzz_case":
                try:
                    self._absorb_fuzz_case(event)
                except Exception:
                    self.corrupt_lines += 1

    # -- persistence ----------------------------------------------------------

    def _append(self, event):
        event = dict(event)
        event.setdefault("time", time.time())
        try:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            with open(self.ledger_path, "a") as handle:
                handle.write(json.dumps(event) + "\n")
        except (OSError, TypeError, ValueError):
            self.write_errors += 1
            return
        self._write_manifest()

    def _write_manifest(self):
        manifest = self.summary()
        try:
            tmp = self.manifest_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(manifest, indent=1))
            os.replace(tmp, self.manifest_path)
        except OSError:
            self.write_errors += 1

    # -- reporting ------------------------------------------------------------

    def summary(self):
        """The manifest dict (also what ``repro runs show`` prints)."""
        return {
            "schema": RUN_LEDGER_SCHEMA,
            "run_id": self.run_id,
            "status": self.status,
            "updated": time.time(),
            "tasks_done": len(self._tasks),
            "tasks_resumed": self._resumed,
            "tasks_quarantined": dict(self._quarantined),
            "retries": self._retries,
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
            "instructions": self._instructions,
            "task_wall_s": round(self._task_wall_s, 6),
            "outcomes": dict(self._outcomes),
            "cache_stats": dict(self._cache_stats),
            "vec_decisions": dict(self._vec_decisions),
            "settings": dict(self._settings),
            "fuzz": {
                "cases": self._fuzz["cases"],
                "quarantined": self._fuzz["quarantined"],
                "by_oracle": dict(self._fuzz["by_oracle"]),
                "wall_s": self._fuzz["wall_s"],
            },
            "write_errors": self.write_errors,
            "corrupt_lines": self.corrupt_lines,
        }

    @property
    def ledger_tasks(self):
        """How many tasks the ledger currently covers (incl. prior runs)."""
        return len(self._completed)

    @property
    def retries(self):
        return self._retries

    @property
    def resumed(self):
        return self._resumed

    @property
    def quarantined(self):
        return dict(self._quarantined)

    def describe(self):
        """One-line summary for run footers."""
        s = self.summary()
        parts = [
            f"run {self.run_id}",
            f"{s['tasks_done']} tasks",
        ]
        if s["tasks_resumed"]:
            parts.append(f"{s['tasks_resumed']} resumed")
        if s["retries"]:
            parts.append(f"{s['retries']} retries")
        if s["tasks_quarantined"]:
            parts.append(f"{len(s['tasks_quarantined'])} quarantined")
        parts.append(f"{s['cache_hits']} cache hits")
        parts.append(f"{s['cache_misses']} misses")
        return ", ".join(parts)

    def __repr__(self):
        return f"<RunTelemetry {self.run_id} ({len(self._tasks)} tasks)>"


# -- run registry ----------------------------------------------------------------


def list_runs(root=None):
    """Manifest dicts of every run under ``root``, newest first."""
    root = pathlib.Path(root) if root is not None else runs_root()
    manifests = []
    try:
        run_dirs = sorted(root.iterdir(), reverse=True)
    except OSError:
        return []
    for run_dir in run_dirs:
        manifest = load_manifest(run_dir.name, root)
        if manifest is not None:
            manifests.append(manifest)
    return manifests


def load_manifest(run_id, root=None):
    """One run's manifest dict, or ``None`` when absent/unreadable."""
    root = pathlib.Path(root) if root is not None else runs_root()
    try:
        data = json.loads((root / run_id / MANIFEST_NAME).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    data.setdefault("run_id", run_id)
    return data


def purge_runs(root=None):
    """Delete every run directory; returns the number removed."""
    root = pathlib.Path(root) if root is not None else runs_root()
    removed = 0
    try:
        run_dirs = list(root.iterdir())
    except OSError:
        return 0
    for run_dir in run_dirs:
        if not run_dir.is_dir():
            continue
        try:
            shutil.rmtree(run_dir)
            removed += 1
        except OSError:
            pass
    return removed


# -- formatting ------------------------------------------------------------------


def format_runs_table(manifests):
    """The ``repro runs`` listing."""
    if not manifests:
        return "no recorded runs"
    lines = [
        f"{'run id':24s}{'status':>12s}{'tasks':>7s}{'resumed':>9s}"
        f"{'retries':>9s}{'quarantined':>13s}"
    ]
    for manifest in manifests:
        lines.append(
            f"{manifest.get('run_id', '?'):24s}"
            f"{manifest.get('status', '?'):>12s}"
            f"{manifest.get('tasks_done', 0):>7d}"
            f"{manifest.get('tasks_resumed', 0):>9d}"
            f"{manifest.get('retries', 0):>9d}"
            f"{len(manifest.get('tasks_quarantined') or {}):>13d}"
        )
    return "\n".join(lines)


def format_run_summary(manifest):
    """The ``repro runs show RUN_ID`` / full-paper-run summary block."""
    outcomes = manifest.get("outcomes") or {}
    quarantined = manifest.get("tasks_quarantined") or {}
    lines = [
        f"run {manifest.get('run_id', '?')} [{manifest.get('status', '?')}]",
        f"  tasks:        {manifest.get('tasks_done', 0)} done, "
        f"{manifest.get('tasks_resumed', 0)} resumed from ledger, "
        f"{len(quarantined)} quarantined",
        f"  retries:      {manifest.get('retries', 0)}",
        f"  profile cache: {manifest.get('cache_hits', 0)} hits, "
        f"{manifest.get('cache_misses', 0)} misses",
        f"  instructions: {manifest.get('instructions', 0)} profiled",
        f"  task wall:    {manifest.get('task_wall_s', 0.0):.2f}s summed "
        f"across workers",
        f"  outcomes:     {outcomes.get('parallel_loops', 0)} parallel / "
        f"{outcomes.get('serial_loops', 0)} serial loop summaries",
    ]
    for name, stats in sorted((manifest.get("cache_stats") or {}).items()):
        lines.append(
            f"  {name}: {stats.get('entries', 0)} entries, "
            f"{stats.get('size_bytes', 0)} bytes, "
            f"{stats.get('hits', 0)} hits, {stats.get('misses', 0)} misses"
        )
    vec = manifest.get("vec_decisions") or {}
    if vec:
        bailouts = vec.get("bailouts") or {}
        lines.append(
            f"  vectorizer:   {vec.get('vectorized', 0)}/"
            f"{vec.get('loops', 0)} innermost loops vectorized "
            f"({vec.get('static_trip', 0)} static / "
            f"{vec.get('runtime_trip', 0)} runtime trip), "
            f"{sum(bailouts.values())} bailouts"
        )
        for reason, count in sorted(
            bailouts.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(f"    bailout {reason}: {count}")
    settings = manifest.get("settings")
    if settings:
        lines.append("  settings:     " + ", ".join(
            f"{name}={value}" for name, value in settings.items()))
    fuzz = manifest.get("fuzz") or {}
    if fuzz.get("cases"):
        lines.append(
            f"  fuzz:         {fuzz.get('cases', 0)} oracle runs, "
            f"{fuzz.get('quarantined', 0)} quarantined "
            f"({fuzz.get('wall_s', 0.0):.2f}s)"
        )
        for oracle, count in sorted((fuzz.get("by_oracle") or {}).items()):
            lines.append(f"    oracle {oracle}: {count} disagreement(s)")
    for task, reason in sorted(quarantined.items()):
        lines.append(f"  quarantined:  {task} ({reason})")
    return "\n".join(lines)
