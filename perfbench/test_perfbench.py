"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check that the correctness checks fail when a reference value is
perturbed, that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that one seed regenerates byte-identical ``analyze`` inputs, that the
smoke mode runs every workload in seconds, and that the benchmark refuses to
run outside a full checkout.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
STATE = ROOT / ".perfbench"


def setUpModule():
    global _CACHE
    STATE.mkdir(exist_ok=True)
    _CACHE = tempfile.mkdtemp(dir=STATE, prefix="selftest-")
    os.environ["REPRO_CACHE_DIR"] = _CACHE
    sys.path.insert(0, str(ROOT / "src"))


def tearDownModule():
    shutil.rmtree(_CACHE, ignore_errors=True)


def _perturb(text, old, new):
    assert old in text, old
    return text.replace(old, new, 1)


def run_benchmark(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=180)


class PerturbedReferenceTest(unittest.TestCase):
    """A single changed reference value must raise the error rate."""

    def test_study_grid_mismatch_fails_every_task(self):
        import checks
        import workloads

        reference = checks.experiments_blocks(
            (ROOT / "EXPERIMENTS_MEASURED.md").read_text())
        perturbed = dict(reference)
        perturbed["Figure 2"] = _perturb(reference["Figure 2"], "1.06x",
                                         "1.07x")
        self.assertEqual(checks.mismatched(reference, perturbed),
                         ["Figure 2"])

        study = workloads.Study(0, True, pathlib.Path(_CACHE), cold=True)
        from repro.bench import SuiteRunner

        runner = SuiteRunner(cache_dir=pathlib.Path(_CACHE) / "profiles")
        original = workloads.render_study_blocks
        workloads.render_study_blocks = lambda _: reference
        try:
            study.reference = reference
            self.assertEqual(
                study.check_pass(runner, study.programs, set()), set())
            study.reference = perturbed
            failed = study.check_pass(runner, study.programs, set())
        finally:
            workloads.render_study_blocks = original
        self.assertEqual(failed, {p.full_name for p in study.programs})

    def test_analyze_transform_figure_mismatch_raises_error_rate(self):
        import workloads

        analyze = workloads.Analyze(0, False, pathlib.Path(_CACHE))
        analyze.generated = 2
        analyze.setup()
        self.assertEqual(analyze.run_pass(0, None).failed, 0)
        analyze.reference = _perturb(analyze.reference, "138", "137")
        result = analyze.run_pass(1, None)
        self.assertGreater(result.failed / result.attempted, 0)
        self.assertTrue(analyze.errors)


class SeedTest(unittest.TestCase):
    SNIPPET = (
        "import hashlib, pathlib, sys; sys.path[:0] = [{src!r}, {here!r}];"
        "import workloads;"
        "a = workloads.Analyze({seed}, False, pathlib.Path('.'));"
        "print(hashlib.sha256(repr(a.inputs()).encode()).hexdigest())"
    )

    def digest(self, seed, hash_seed):
        code = self.SNIPPET.format(src=str(ROOT / "src"), here=str(HERE),
                                   seed=seed)
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_seed_regenerates_byte_identical_analyze_inputs(self):
        first = self.digest(5, 1)
        self.assertEqual(first, self.digest(5, 2))
        self.assertNotEqual(first, self.digest(6, 1))


class EmittedMetricsTest(unittest.TestCase):
    """Smoke runs of every workload, untraced and traced."""

    def test_every_declared_metric_is_emitted_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    start = time.perf_counter()
                    out = run_benchmark("--workload", workload, "--seed",
                                        "3", "--seconds", "1", "--trace",
                                        str(trace), "--smoke")
                    elapsed = time.perf_counter() - start
                    self.assertEqual(out.returncode, 0, out.stderr)
                    self.assertLess(elapsed, 60)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], out.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {name: m["unit"]
                         for name, m in result["metrics"].items()},
                        declared[trace])


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=STATE) as bare:
            bare = pathlib.Path(bare)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run_benchmark("--workload", "analyze", "--seed", "1",
                                "--seconds", "1", "--trace", "0", cwd=bare,
                                script=bare / "perfbench" / "run.py")
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
