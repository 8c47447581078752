"""Golden digests and metamorphic properties of the evaluator over every
bundled program and the purpose-built kernels of :data:`KERNELS`.

The grid is every legal configuration (72) plus ``innermost_only`` on the
14 paper configurations, evaluated once per module against the shared
``runner`` fixture's profiles and the kernels of :data:`KERNELS`. The
golden file stores one sha256 per program over the
``EvaluationResult.to_dict()`` of every grid cell. Floats are
formatted with ``%.12g`` so that a last-ulp difference between Python
versions (3.12's ``sum()`` compensates float rounding) cannot change a
digest; a real model change moves far more than that.

Regenerate after an intended model change with::

    PYTHONPATH=src python tests/test_evaluator_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.bench import all_programs
from repro.core.config import MODELS, LPConfig, paper_configurations
from repro.core.framework import Loopapalooza

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "evaluator_golden.json"

#: Programs for evaluation shapes the bundled suite lacks. In
#: ``mixed_nest``, ``work``'s outer loop runs its inner loop only for odd
#: ``k``, so one static loop has leaf invocations and invocations with
#: children, interleaved in the bottom-up walk.
KERNELS = {
    "kernel/mixed_nest": """
        int A[256];
        int work(int k) {
          int i; int j; int s = 0;
          for (i = 0; i < 6; i = i + 1) {
            if (k % 2 == 1) {
              for (j = 0; j < 5; j = j + 1) { A[k * 30 + i * 5 + j] = i * j + k; }
            }
            s = s + A[i + k];
            A[i + k + 1] = s;
          }
          return s;
        }
        int main() {
          int k; int t = 0;
          for (k = 0; k < 6; k = k + 1) { t = t + work(k); }
          return t & 255;
        }
    """,
}


def legal_configurations():
    """Every legal Table-II configuration (DOALL combines only with dep0)."""
    return [
        LPConfig(model, reduc, dep, fn)
        for model in MODELS
        for reduc in (0, 1)
        for dep in ((0,) if model == "doall" else (0, 1, 2, 3))
        for fn in (0, 1, 2, 3)
    ]


def evaluate_grid(lp):
    """``{(config name, innermost_only): EvaluationResult}`` for one program."""
    cells = {
        (config.name, False): lp.evaluate(config)
        for config in legal_configurations()
    }
    for config in paper_configurations():
        cells[(config.name, True)] = lp.evaluate(config, innermost_only=True)
    return cells


def _canonical(value):
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    return value


def digest(cells):
    """sha256 over the canonical ``to_dict()`` of every cell, in grid order."""
    hasher = hashlib.sha256()
    for (name, innermost), result in cells.items():
        row = [name, innermost, _canonical(result.to_dict())]
        hasher.update(json.dumps(row).encode("utf-8"))
    return hasher.hexdigest()


def grid_programs(runner):
    """``{name: Loopapalooza}`` for every bundled program and kernel."""
    programs = {
        program.full_name: runner.instance(program)
        for program in all_programs()
    }
    for name, source in KERNELS.items():
        programs[name] = Loopapalooza(source, name=name, store=runner.store)
    return programs


@pytest.fixture(scope="module")
def grid(runner):
    return {
        name: evaluate_grid(lp) for name, lp in grid_programs(runner).items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())["programs"]


@pytest.mark.parametrize(
    "name", [program.full_name for program in all_programs()] + list(KERNELS)
)
def test_golden_digest(grid, golden, name):
    assert name in golden, f"{name}: no golden digest (regenerate with --write)"
    assert digest(grid[name]) == golden[name], (
        f"{name}: evaluator results differ from the golden digest"
    )


def test_mixed_nest_interleaves_leaves_and_nodes():
    from repro.core.evaluator import ProfileCache

    lp = Loopapalooza(KERNELS["kernel/mixed_nest"], name="mixed_nest")
    plan = ProfileCache(lp.profile()).plan(lp.static_info)
    [mixed] = [loop for loop in plan.loops
               if loop.nodes and loop.leaves is not None]
    assert mixed.node_slots.tolist() == [0, 2, 4]
    assert mixed.leaf_slots.tolist() == [1, 3, 5]


def _relaxations(config):
    """Configurations one flag step more permissive than ``config``."""
    steps = (
        (config.reduc + 1, config.dep, config.fn),
        (config.reduc, config.dep + 1, config.fn),
        (config.reduc, config.dep, config.fn + 1),
    )
    for reduc, dep, fn in steps:
        if reduc <= 1 and dep <= 3 and fn <= 3 and (
                config.model != "doall" or dep == 0):
            yield LPConfig(config.model, reduc, dep, fn)


def test_speedup_monotone_under_relaxation(grid):
    pairs = 0
    for name, cells in grid.items():
        for config in legal_configurations():
            base = cells[(config.name, False)].speedup
            for relaxed in _relaxations(config):
                pairs += 1
                speedup = cells[(relaxed.name, False)].speedup
                assert speedup >= base, (
                    f"{name}: {relaxed.name} speedup {speedup!r} < "
                    f"{config.name} speedup {base!r}"
                )
    assert pairs == 138 * len(grid)


def test_coverage_is_a_fraction(grid):
    for name, cells in grid.items():
        for (config_name, innermost), result in cells.items():
            assert 0.0 <= result.coverage <= 1.0, (
                f"{name}: {config_name} (innermost_only={innermost}) "
                f"coverage {result.coverage!r}"
            )


def test_innermost_only_never_beats_nested(grid):
    for name, cells in grid.items():
        for config in paper_configurations():
            nested = cells[(config.name, False)].speedup
            innermost = cells[(config.name, True)].speedup
            assert innermost <= nested, (
                f"{name}: {config.name} innermost_only speedup "
                f"{innermost!r} > nested {nested!r}"
            )


def test_speedup_bounded_by_slowest_iteration(runner, grid):
    """No schedule finishes an invocation before its slowest iteration: a
    loop whose invocations are all leaves (no nested child invocation to
    subtract) costs at least the sum over its invocations of their slowest
    raw iteration, i.e. speedup <= serial / slowest iteration."""
    checked = 0
    for name, lp in grid_programs(runner).items():
        floors, nested = {}, set()
        for inv in lp.profile().all_invocations():
            if inv.children:
                nested.add(inv.loop_id)
            floors[inv.loop_id] = (floors.get(inv.loop_id, 0)
                                   + max(inv.iteration_costs()))
        for (config_name, innermost), result in grid[name].items():
            for loop_id, summary in result.loops.items():
                if loop_id in nested:
                    continue
                checked += 1
                assert summary.parallel_cost >= floors[loop_id], (
                    f"{name}: {config_name} (innermost_only={innermost}) "
                    f"{loop_id} parallel cost {summary.parallel_cost!r} < "
                    f"slowest-iteration floor {floors[loop_id]}"
                )
    assert checked > 0


def _write():
    from repro.bench.suites import SuiteRunner

    programs = {
        name: digest(evaluate_grid(lp))
        for name, lp in grid_programs(SuiteRunner()).items()
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {"float_format": "%.12g", "programs": programs}, indent=1,
    ) + "\n")
    print(f"wrote {len(programs)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_evaluator_golden.py --write")
    _write()
