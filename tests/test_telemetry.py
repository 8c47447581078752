"""Run telemetry: ledger/manifest round-trips and resume semantics.

The contract under test: every completed task checkpointed through
:class:`RunTelemetry` can be restored from the on-disk ledger by a later
process with *bit-identical* results (JSON floats round-trip exactly via
``repr``), the manifest aggregates survive replay, and defects in the
ledger (corrupt lines, schema drift, unknown runs) fail loudly or degrade
to re-evaluation — never to wrong numbers.
"""

import json

import pytest

from repro.bench.suites import SuiteRunner, suite_programs
from repro.runtime.telemetry import (
    RUN_LEDGER_SCHEMA,
    RunTelemetry,
    format_run_summary,
    format_runs_table,
    list_runs,
    load_manifest,
    purge_runs,
    runs_root,
)

CONFIGS = ("doall:reduc1-dep0-fn0", "pdoall:reduc1-dep2-fn2")


@pytest.fixture(scope="module")
def grid_results():
    """Real EvaluationResults for two cheap benchmarks."""
    runner = SuiteRunner()
    programs = suite_programs("eembc")[:2]
    grid = runner.evaluate_many(programs, CONFIGS)
    return grid


def test_create_writes_ledger_and_manifest(tmp_path):
    telemetry = RunTelemetry.create(root=tmp_path)
    assert telemetry.ledger_path.exists()
    assert telemetry.manifest_path.exists()
    first = json.loads(telemetry.ledger_path.read_text().splitlines()[0])
    assert first["type"] == "start"
    assert first["schema"] == RUN_LEDGER_SCHEMA


def test_task_done_round_trips_bit_identical(tmp_path, grid_results):
    telemetry = RunTelemetry.create(root=tmp_path)
    for task, results in grid_results.items():
        telemetry.task_done(task, results, wall_s=0.5, cache_hit=False,
                            instructions=123, path="pool")
    telemetry.finish()

    resumed = RunTelemetry.resume(telemetry.run_id, root=tmp_path)
    assert resumed.ledger_tasks == len(grid_results)
    for task, results in grid_results.items():
        restored = resumed.completed_results(task, list(CONFIGS))
        assert restored is not None
        for name, result in results.items():
            other = restored[name]
            assert other.speedup == result.speedup
            assert other.coverage == result.coverage
            assert other.total_serial == result.total_serial
            assert other.total_parallel == result.total_parallel
            assert other.config.name == result.config.name
            assert set(other.loops) == set(result.loops)
            for loop_id, summary in result.loops.items():
                assert other.loops[loop_id].to_dict() == summary.to_dict()


def test_completed_results_requires_full_coverage(tmp_path, grid_results):
    telemetry = RunTelemetry.create(root=tmp_path)
    task, results = next(iter(grid_results.items()))
    only_first = {CONFIGS[0]: results[CONFIGS[0]]}
    telemetry.task_done(task, only_first)
    assert telemetry.completed_results(task, [CONFIGS[0]]) is not None
    assert telemetry.completed_results(task, list(CONFIGS)) is None
    assert telemetry.completed_results("unknown/task", [CONFIGS[0]]) is None


def test_resume_unknown_run_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        RunTelemetry.resume("20990101-000000-abcdef", root=tmp_path)


def test_resume_rejects_foreign_schema(tmp_path):
    run_dir = tmp_path / "old-run"
    run_dir.mkdir()
    (run_dir / "ledger.jsonl").write_text(
        json.dumps({"type": "start", "schema": RUN_LEDGER_SCHEMA + 99}) + "\n"
    )
    with pytest.raises(ValueError, match="schema"):
        RunTelemetry.resume("old-run", root=tmp_path)


def test_corrupt_ledger_lines_degrade_gracefully(tmp_path, grid_results):
    telemetry = RunTelemetry.create(root=tmp_path)
    task, results = next(iter(grid_results.items()))
    telemetry.task_done(task, results)
    with open(telemetry.ledger_path, "a") as handle:
        handle.write("{not json\n")
    resumed = RunTelemetry.resume(telemetry.run_id, root=tmp_path)
    assert resumed.corrupt_lines == 1
    assert resumed.completed_results(task, list(CONFIGS)) is not None


def test_manifest_aggregates(tmp_path, grid_results):
    telemetry = RunTelemetry.create(root=tmp_path)
    tasks = list(grid_results)
    telemetry.task_done(tasks[0], grid_results[tasks[0]],
                        wall_s=1.0, cache_hit=True, instructions=100)
    telemetry.task_retry(tasks[1], attempt=1, reason="worker-crash")
    telemetry.task_done(tasks[1], grid_results[tasks[1]], attempt=2,
                        wall_s=2.0, cache_hit=False, instructions=50)
    telemetry.finish()

    manifest = load_manifest(telemetry.run_id, root=tmp_path)
    assert manifest["status"] == "complete"
    assert manifest["tasks_done"] == 2
    assert manifest["retries"] == 1
    assert manifest["cache_hits"] == 1
    assert manifest["cache_misses"] == 1
    assert manifest["instructions"] == 150
    assert manifest["task_wall_s"] == pytest.approx(3.0)
    loops_total = sum(
        len(result.loops)
        for row in grid_results.values()
        for result in row.values()
    )
    assert (manifest["outcomes"]["parallel_loops"]
            + manifest["outcomes"]["serial_loops"]) == loops_total

    # Replay reproduces the same aggregates.
    resumed = RunTelemetry.resume(telemetry.run_id, root=tmp_path)
    replayed = resumed.summary()
    for key in ("tasks_done", "retries", "cache_hits", "cache_misses",
                "instructions", "outcomes"):
        assert replayed[key] == manifest[key]


def test_quarantine_is_run_history(tmp_path, grid_results):
    # Quarantine records persist even after the serial fallback completes
    # the task: the manifest documents that the pool path failed, like the
    # retry counter does. The results themselves are still restorable.
    telemetry = RunTelemetry.create(root=tmp_path)
    task, results = next(iter(grid_results.items()))
    telemetry.task_quarantined(task, "worker-crash")
    telemetry.task_done(task, results, path="serial-fallback")
    assert telemetry.quarantined == {task: "worker-crash"}
    assert telemetry.completed_results(task, list(CONFIGS)) is not None
    resumed = RunTelemetry.resume(telemetry.run_id, root=tmp_path)
    assert resumed.quarantined == {task: "worker-crash"}


def test_runs_registry_and_formatting(tmp_path, grid_results):
    a = RunTelemetry.create(root=tmp_path)
    task, results = next(iter(grid_results.items()))
    a.task_done(task, results)
    a.finish()
    b = RunTelemetry.create(root=tmp_path)
    b.finish(status="interrupted")

    manifests = list_runs(root=tmp_path)
    assert {m["run_id"] for m in manifests} == {a.run_id, b.run_id}
    table = format_runs_table(manifests)
    assert a.run_id in table and b.run_id in table
    assert "interrupted" in table
    summary = format_run_summary(load_manifest(a.run_id, root=tmp_path))
    assert "tasks" in summary

    removed = purge_runs(root=tmp_path)
    assert removed == 2
    assert list_runs(root=tmp_path) == []


def test_runs_root_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs-here"))
    assert runs_root() == tmp_path / "runs-here"


def test_describe_mentions_retries(tmp_path, grid_results):
    telemetry = RunTelemetry.create(root=tmp_path)
    task, results = next(iter(grid_results.items()))
    telemetry.task_retry(task, attempt=1, reason="timeout")
    telemetry.task_done(task, results, attempt=2)
    line = telemetry.describe()
    assert telemetry.run_id in line
    assert "1 retries" in line


def test_run_with_removed_par_stats_event_still_loads(tmp_path, grid_results):
    """Run directories recorded while the parallel execution tier existed
    carry a ``par_stats`` ledger event and manifest key. They must still
    replay without corruption and render in ``repro runs show``."""
    import io

    from repro.cli import main

    telemetry = RunTelemetry.create(root=tmp_path)
    task, results = next(iter(grid_results.items()))
    telemetry.task_done(task, results, instructions=7)
    telemetry.finish()
    par_stats = {"workers": 2, "doall_dispatches": 3, "tls_commits": 5,
                 "soundness": {"runs_checked": 4, "pool_commits": 3}}
    with open(telemetry.ledger_path, "a") as handle:
        handle.write(json.dumps(
            {"type": "par_stats", "stats": par_stats, "time": 0.0}) + "\n")
    manifest = json.loads(telemetry.manifest_path.read_text())
    manifest["par_stats"] = par_stats
    telemetry.manifest_path.write_text(json.dumps(manifest, indent=1))

    def show():
        out = io.StringIO()
        code = main(["runs", "show", telemetry.run_id,
                     "--runs-dir", str(tmp_path)], out=out)
        assert code == 0
        return out.getvalue()

    text = show()
    assert f"run {telemetry.run_id} [complete]" in text
    assert "1 done" in text and "7 profiled" in text

    resumed = RunTelemetry.resume(telemetry.run_id, root=tmp_path)
    assert resumed.corrupt_lines == 0
    assert resumed.completed_results(task, list(CONFIGS)) is not None
    assert "par_stats" not in resumed.summary()
    assert "7 profiled" in show()


def _show(run_id, root):
    import io

    from repro.cli import main

    out = io.StringIO()
    assert main(["runs", "show", run_id, "--runs-dir", str(root)],
                out=out) == 0
    return out.getvalue()


def test_manifest_records_settings(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRANSFORM", "yes")
    monkeypatch.setenv("REPRO_NO_VEC", "1")
    telemetry = RunTelemetry.create(root=tmp_path)
    telemetry.finish()
    settings = load_manifest(telemetry.run_id, root=tmp_path)["settings"]
    assert settings["transform"] is True and settings["no_vec"] is True
    assert settings["no_jit"] is False
    [line] = [line for line in _show(telemetry.run_id, tmp_path).splitlines()
              if line.strip().startswith("settings:")]
    assert "transform=True" in line and "no_vec=True" in line


def test_manifest_without_settings_still_renders(tmp_path, grid_results):
    """Manifests written before settings were recorded lack the key."""
    telemetry = RunTelemetry.create(root=tmp_path)
    task, results = next(iter(grid_results.items()))
    telemetry.task_done(task, results, instructions=7)
    telemetry.finish()
    manifest = json.loads(telemetry.manifest_path.read_text())
    del manifest["settings"]
    telemetry.manifest_path.write_text(json.dumps(manifest, indent=1))

    text = _show(telemetry.run_id, tmp_path)
    assert f"run {telemetry.run_id} [complete]" in text
    assert "7 profiled" in text
    assert "settings:" not in text
    assert [m["run_id"] for m in list_runs(root=tmp_path)] == [telemetry.run_id]
    resumed = RunTelemetry.resume(telemetry.run_id, root=tmp_path)
    assert resumed.completed_results(task, list(CONFIGS)) is not None
