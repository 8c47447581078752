"""Dynamic dependence census — the run-time half of Table I.

The paper's Table I splits dependencies along a *frequency* axis that only
execution can decide: memory LCDs are "frequent" or "infrequent" by how
often they manifest, and non-computable register LCDs divide into
"predictable" and "unpredictable" by how the value predictors fare on their
actual value streams. This module measures those splits from recorded
profiles.

Thresholds (documented knobs, not magic): a loop's memory LCDs count as
*frequent* when conflicts bind more than ``FREQUENT_RATE`` of its
iterations; a register LCD is *predictable* when the perfect hybrid
predicts at least ``PREDICTABLE_ACCURACY`` of its values.
"""

from __future__ import annotations

from ..core.static_info import PHI_NONCOMPUTABLE, PHI_REDUCTION
from ..runtime.cost_models import pdoall_phase_breaks

FREQUENT_RATE = 0.20
PREDICTABLE_ACCURACY = 0.90


class LoopDynamicCensus:
    """Dynamic classification of one static loop (aggregated invocations)."""

    __slots__ = (
        "loop_id", "invocations", "iterations", "conflicting_iterations",
        "predictable_lcds", "unpredictable_lcds", "reduction_lcds",
    )

    def __init__(self, loop_id):
        self.loop_id = loop_id
        self.invocations = 0
        self.iterations = 0
        self.conflicting_iterations = 0
        self.predictable_lcds = set()
        self.unpredictable_lcds = set()
        self.reduction_lcds = set()

    @property
    def memory_class(self):
        """'frequent' | 'infrequent' | 'none' per the paper's Table I."""
        if self.conflicting_iterations == 0:
            return "none"
        rate = self.conflicting_iterations / max(1, self.iterations)
        return "frequent" if rate > FREQUENT_RATE else "infrequent"

    def __repr__(self):
        return (
            f"<LoopDynamicCensus {self.loop_id} mem={self.memory_class} "
            f"pred={len(self.predictable_lcds)} "
            f"unpred={len(self.unpredictable_lcds)}>"
        )


def dynamic_census_of(lp):
    """Per-loop dynamic census for one profiled program
    (:class:`~repro.core.framework.Loopapalooza` instance)."""
    profile = lp.profile()
    loops = lp.classification().loops
    census = {}
    reduction_keys = {
        key
        for static in loops.values()
        for key in static.phis_of_class(PHI_REDUCTION)
    }
    noncomputable_keys = {
        key
        for static in loops.values()
        for key in static.phis_of_class(PHI_NONCOMPUTABLE)
    }
    for invocation in profile.all_invocations():
        entry = census.get(invocation.loop_id)
        if entry is None:
            entry = census[invocation.loop_id] = LoopDynamicCensus(
                invocation.loop_id
            )
        entry.invocations += 1
        entry.iterations += invocation.num_iterations
        # Count the *binding* manifestations (restart semantics): a read
        # whose producer already committed does not manifest again.
        entry.conflicting_iterations += len(
            pdoall_phase_breaks(
                invocation.conflict_pairs, invocation.num_iterations
            )
        )
        for phi_key, values in invocation.lcd_values.items():
            if phi_key in reduction_keys:
                entry.reduction_lcds.add(phi_key)
                continue
            if phi_key not in noncomputable_keys or not values:
                continue
            hits = invocation.lcd_hits(phi_key)
            accuracy = hits.count(1) / len(hits)
            if accuracy >= PREDICTABLE_ACCURACY:
                entry.predictable_lcds.add(phi_key)
            else:
                entry.unpredictable_lcds.add(phi_key)
    return census


def suite_dynamic_census(runner, suite):
    """Aggregate Table-I dynamic counts over one suite."""
    from ..bench.suites import suite_programs

    totals = {
        "loops_frequent_mem": 0,
        "loops_infrequent_mem": 0,
        "loops_no_mem_lcd": 0,
        "predictable_reg_lcds": 0,
        "unpredictable_reg_lcds": 0,
    }
    for program in suite_programs(suite):
        census = dynamic_census_of(runner.instance(program))
        for entry in census.values():
            key = {
                "frequent": "loops_frequent_mem",
                "infrequent": "loops_infrequent_mem",
                "none": "loops_no_mem_lcd",
            }[entry.memory_class]
            totals[key] += 1
            totals["predictable_reg_lcds"] += len(entry.predictable_lcds)
            totals["unpredictable_reg_lcds"] += len(entry.unpredictable_lcds)
    return totals


def format_dynamic_census(rows):
    """Render ``{suite: totals}`` as the Table-I dynamic view."""
    keys = [
        "loops_frequent_mem", "loops_infrequent_mem", "loops_no_mem_lcd",
        "predictable_reg_lcds", "unpredictable_reg_lcds",
    ]
    lines = ["Table I (measured, dynamic axis) — frequency/predictability"]
    header = f"{'suite':14s}" + "".join(f"{k:>24s}" for k in keys)
    lines.append(header)
    for suite, totals in rows.items():
        lines.append(
            f"{suite:14s}" + "".join(f"{totals[k]:>24d}" for k in keys)
        )
    return "\n".join(lines)
