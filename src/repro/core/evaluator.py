"""Configuration evaluator — turns one execution profile into the paper's
numbers for any Table-II configuration.

The evaluation walks the loop-invocation tree bottom-up:

1. each invocation's *effective* iteration costs are its raw spans minus the
   parallel savings of the child invocations nested in each iteration
   (multi-level nested parallelism, as LP inherits from SWARM/T4);
2. the configuration decides which register LCDs constrain the loop
   (``reduc``/``dep`` flags), which call sites do (``fn`` flags), and the
   execution model turns the surviving constraints into a parallel cost
   (:mod:`repro.runtime.cost_models`);
3. loops are *statically marked* serial the way the paper describes —
   DOALL: any conflict ever; PDOALL: aggregate conflicting-iteration rate
   above 80 %; HELIX: no aggregate gain — and the evaluation re-runs until
   the marking set is stable (marking only grows, so this terminates).

Leaf invocations (no nested loop ran inside them) are nearly all of the
tree and need no child savings, so each loop's leaves are priced together
as one column of arrays (:class:`_LeafColumn`). Every gate is per static
loop, so a loop's leaves always share a gate, and the column's outcome
depends only on the model, the register-LCD treatment and the LCD set: it
is memoized on exactly that, once per profile, and reused across
configurations and fixpoint re-runs. Invocations with children keep the
per-invocation walk.

Producer/consumer skews were recorded against serial timestamps; when inner
parallelism shrinks an invocation they are scaled by the invocation's
overall shrink factor (documented approximation; see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from .config import LPConfig
from ..runtime.cost_models import (
    PDOALL_SERIAL_THRESHOLD,
    ModelOutcome,
    doall_cost,
    helix_cost,
    pdoall_cost,
    pdoall_phase_breaks,
)
from .static_info import PHI_NONCOMPUTABLE, PHI_REDUCTION

#: Serial reasons as small integer codes for outcome columns; 0 = parallel.
_REASONS = (
    "", "untracked", "outer-loop", "marked", "fn", "register-lcd",
    "conflict", "conflict-rate", "no-gain", "sync-bound",
)
_REASON_CODE = {reason: code for code, reason in enumerate(_REASONS)}


class ProfileCache:
    """Config-independent derived data, shared across configurations.

    Everything here is a pure memo over the (immutable, post-``finish``)
    profile: the evaluation plan (per-loop leaf columns and the records of
    invocations with children) and each loop's priced leaf outcomes. The
    value-predictor outcomes live on the profile itself
    (:meth:`~repro.runtime.profile.LoopInvocation.lcd_hits`). Caching never
    changes a result — only how often it is recomputed — so serial,
    warm-start, and process-pool evaluations stay bit-identical.
    """

    def __init__(self, profile):
        self.profile = profile
        self._plan = None
        self._plan_static = None

    def plan(self, static_info):
        """The profile's :class:`_Plan` against ``static_info``, built on
        first use. Rebuilding only happens if a different ``static_info``
        is passed (never in practice: the cache and the static info belong
        to one instance)."""
        if self._plan is None or self._plan_static is not static_info:
            self._plan = _Plan(self.profile, static_info)
            self._plan_static = static_info
        return self._plan


class _Plan:
    """Config-independent evaluation layout of one profile.

    Invocations are numbered children-first (the order the bottom-up walk
    needs). Each static loop gets a :class:`_Loop` in order of its first
    invocation, holding its leaves as one column and its invocations with
    children as :class:`_Node` records; ``nodes`` lists every node in walk
    order.
    """

    __slots__ = ("size", "loops", "nodes", "top_pos", "top_serial")

    def __init__(self, profile, static_info):
        order = list(reversed(profile.all_invocations()))
        position = {id(inv): index for index, inv in enumerate(order)}
        loops = {}
        members = {}  # loop_id -> [(index, inv, _Node or None for a leaf)]
        self.nodes = []
        for index, inv in enumerate(order):
            loop = loops.get(inv.loop_id)
            if loop is None:
                loop = loops[inv.loop_id] = _Loop(
                    inv.loop_id, static_info.loops.get(inv.loop_id))
                members[inv.loop_id] = []
            node = None
            if inv.children:
                node = _Node(inv, index, len(self.nodes), loop, position)
                self.nodes.append(node)
            members[inv.loop_id].append((index, inv, node))
        for loop_id, loop in loops.items():
            loop.set_members(members[loop_id])
        self.size = len(order)
        self.loops = list(loops.values())
        self.top_pos = np.array(
            [position[id(inv)] for inv in profile.top_level], dtype=np.intp)
        self.top_serial = [float(inv.serial_cost) for inv in profile.top_level]


class _Loop:
    """One static loop: its gates, leaf column, nodes and outcome memo."""

    __slots__ = (
        "loop_id", "untracked", "fn_serial", "reg_keys", "leaves", "nodes",
        "leaf_slots", "node_slots", "outcomes",
    )

    def __init__(self, loop_id, static):
        self.loop_id = loop_id
        self.untracked = static is None or not static.trackable
        if self.untracked:
            self.fn_serial = (False, False, False, False)
            self.reg_keys = ((), ())
        else:
            self.fn_serial = (
                static.serial_under_fn(0),
                static.serial_under_fn(1),
                static.serial_under_fn(2),
                False,
            )
            base = tuple(static.phis_of_class(PHI_NONCOMPUTABLE))
            # Indexed by the reduc flag: reduc0 keeps reductions as LCDs.
            self.reg_keys = (base + tuple(static.phis_of_class(PHI_REDUCTION)),
                             base)
        self.outcomes = {}

    def set_members(self, members):
        """Build the leaf column, the node list and where each sits in the
        loop's walk order (``members``: ``(index, inv, node-or-None)``)."""
        leaves = [(index, inv) for index, inv, node in members if node is None]
        self.leaves = _LeafColumn(leaves) if leaves else None
        self.nodes = [node for _, _, node in members if node is not None]
        is_leaf = np.array([node is None for _, _, node in members])
        self.leaf_slots = np.flatnonzero(is_leaf)
        self.node_slots = np.flatnonzero(~is_leaf)

    def gate(self, config, forced_serial, outer=False):
        """The reason every invocation of this loop is serial under
        ``config`` whatever its data, or ``None``."""
        if self.untracked:
            return "untracked"
        if outer:
            # Related-work mode (Kejariwal et al., §V): only innermost loops
            # are candidates; outer-loop and nested parallelization are
            # disabled.
            return "outer-loop"
        if forced_serial and self.loop_id in forced_serial:
            return "marked"
        if self.fn_serial[config.fn]:
            return "fn"
        if config.dep == 0 and self.reg_keys[config.reduc]:
            return "register-lcd"
        return None

    def price_leaves(self, config, forced_serial):
        """The leaf column's :class:`_LeafOutcome` under ``config``.

        Memo key: the gate reason, or ``(model, lowered dep, LCD set)`` —
        with no surviving register LCDs (or under ``dep3``) the dep flag
        and the LCD set change nothing, and the ``fn`` bit and the marking
        only ever select a serial gate.
        """
        reason = self.gate(config, forced_serial)
        if reason is not None:
            key = reason
        else:
            reg_keys = self.reg_keys[config.reduc]
            lowered = config.dep if reg_keys and config.dep in (1, 2) else 0
            key = (config.model, lowered, reg_keys if lowered else ())
        outcome = self.outcomes.get(key)
        if outcome is None:
            column = self.leaves
            if reason is not None:
                outcome = _LeafOutcome(
                    column, column.serial, np.zeros(column.count, dtype=bool),
                    np.full(column.count, _REASON_CODE[reason], dtype=np.int8),
                    np.zeros(column.count, dtype=np.int64),
                )
            else:
                outcome = _price_column(column, config, reg_keys, lowered)
            self.outcomes[key] = outcome
        return outcome


class _LeafColumn:
    """A loop's leaf invocations as arrays, in walk order.

    ``costs`` concatenates every leaf's raw iteration spans
    (``costs[offsets[i]:offsets[i + 1]]`` is leaf ``i``); ``serial`` and
    ``max`` are the per-leaf sum and maximum. The spans are integer
    instruction counts, so the sums are exact in any order.
    """

    __slots__ = (
        "invs", "positions", "count", "costs", "offsets", "serial", "max",
        "trips", "conflict", "npairs", "skew", "serial_total", "iterations",
    )

    def __init__(self, leaves):
        self.positions = np.array([index for index, _ in leaves],
                                  dtype=np.intp)
        invs = self.invs = [inv for _, inv in leaves]
        self.count = len(invs)
        stamps = []
        for inv in invs:
            stamps.extend(inv.iter_starts)
            stamps.append(inv.end_ts)
        trips = self.trips = np.array([len(inv.iter_starts) for inv in invs],
                                      dtype=np.int64)
        # np.diff over the concatenated stamps, minus the diffs that cross
        # from one leaf's end to the next leaf's first start.
        crossings = np.cumsum(trips + 1)[:-1] - 1
        self.costs = np.delete(np.diff(np.array(stamps, dtype=float)),
                               crossings)
        self.offsets = np.concatenate(([0], np.cumsum(trips)))
        starts = self.offsets[:-1]
        self.serial = np.add.reduceat(self.costs, starts)
        self.max = np.maximum.reduceat(self.costs, starts)
        self.conflict = np.array([inv.conflict_count > 0 for inv in invs],
                                 dtype=bool)
        self.npairs = np.array([len(inv.conflict_pairs) for inv in invs],
                               dtype=np.int64)
        self.skew = np.array([inv.max_mem_skew for inv in invs], dtype=float)
        self.serial_total = float(np.add.accumulate(self.serial)[-1])
        self.iterations = int(trips.sum())


class _LeafOutcome:
    """One outcome class of a leaf column: per-leaf cost (the effective
    cost: the parallel cost, or the serial cost), covered cost, serial
    reason code and conflicting-iteration count, plus the loop-summary
    aggregates over the whole column."""

    __slots__ = ("cost", "covered", "codes", "nconf", "parallel_count",
                 "parallel_total", "conflicts", "reasons")

    def __init__(self, column, cost, parallel, codes, nconf):
        self.cost = cost
        self.covered = np.where(parallel, column.serial, 0.0)
        self.codes = codes
        self.nconf = nconf
        self.parallel_count = int(np.count_nonzero(parallel))
        # In walk order: HELIX costs are fractional, so the summary total
        # must add them exactly as the per-invocation walk did.
        self.parallel_total = float(np.add.accumulate(cost)[-1])
        self.conflicts = int(nconf.sum())
        self.reasons = _reason_counts(codes)


def _reason_counts(codes):
    """``((reason, count), ...)`` of the nonzero codes, in order of first
    occurrence (the insertion order of :meth:`LoopSummary.note_reason`)."""
    serial_at = np.flatnonzero(codes)
    if not serial_at.size:
        return ()
    values, first, counts = np.unique(
        codes[serial_at], return_index=True, return_counts=True)
    return tuple(
        (_REASONS[values[j]], int(counts[j])) for j in np.argsort(first)
    )


def _price_column(column, config, reg_keys, lowered):
    """Price every leaf of ``column`` under ``config``'s model.

    Closed forms cover the column; only PDOALL leaves with conflict pairs
    and HELIX ``dep2`` leaves (mispredicted-iteration skews) go through
    :func:`_model_outcome` one at a time:

    * DOALL: any conflict ⇒ serial, otherwise the slowest iteration;
    * PDOALL: a leaf without conflict pairs costs its slowest iteration,
      against serial. Under ``dep1`` every adjacent pair conflicts, so a
      leaf is over the 80 % cut-off when ``(n-1)/n`` is, and otherwise
      every phase is one iteration (no gain). Under ``dep2`` see
      :func:`_lower_mispredicted`. Other leaves with pairs go per leaf;
    * HELIX: ``max + skew·n`` against serial, with the ``dep1`` register
      skews of :func:`_register_skews`; ``dep2`` skews go per leaf.

    A leaf's raw serial equals its recorded span, so the HELIX shrink
    factor is exactly 1.
    """
    serial, trips = column.serial, column.trips
    model = config.model
    per_leaf = None
    if model == "doall":
        parallel = ~column.conflict
        cost = np.where(parallel, column.max, serial)
        codes = np.where(parallel, 0, _REASON_CODE["conflict"])
        nconf = column.npairs.copy()
    elif model == "pdoall" and lowered == 1:
        parallel = np.zeros(column.count, dtype=bool)
        cost = serial
        nconf = trips - 1
        codes = np.where(nconf / trips > PDOALL_SERIAL_THRESHOLD,
                         _REASON_CODE["conflict-rate"],
                         _REASON_CODE["no-gain"])
    elif model == "pdoall":
        parallel = column.max < serial
        cost = np.where(parallel, column.max, serial)
        codes = np.where(parallel, 0, _REASON_CODE["no-gain"])
        nconf = np.zeros(column.count, dtype=np.int64)
        per_leaf = np.flatnonzero(column.npairs)
    else:
        skew = np.maximum(column.skew, 0.0)
        if lowered == 1:
            skew = np.maximum(skew, _register_skews(column, reg_keys))
        elif lowered == 2:
            per_leaf = np.arange(column.count)
        helix = column.max + skew * trips
        parallel = helix < serial
        cost = np.where(parallel, helix, serial)
        codes = np.where(parallel, 0, _REASON_CODE["sync-bound"])
        nconf = column.npairs.copy()
    codes = codes.astype(np.int8)
    if model == "pdoall" and lowered == 2:
        _lower_mispredicted(column, reg_keys, cost, parallel, codes, nconf)
    if per_leaf is not None and per_leaf.size:
        serial_list = serial.tolist()
        max_list = column.max.tolist()
        offsets = column.offsets.tolist()
        for i in per_leaf.tolist():
            outcome, conflicts = _model_outcome(
                column.invs[i], config,
                column.costs[offsets[i]:offsets[i + 1]],
                serial_list[i], max_list[i], reg_keys,
            )
            cost[i] = outcome.cost
            parallel[i] = outcome.parallel
            codes[i] = 0 if outcome.parallel else _REASON_CODE[outcome.reason]
            nconf[i] = conflicts
    return _LeafOutcome(column, cost, parallel, codes, nconf)


def _register_skews(column, reg_keys):
    """Per leaf, the largest producer->consumer skew of any of ``reg_keys``
    lowered to memory (``dep1``): :func:`_reg_skew` over the whole column.

    Producer iteration ``p``'s definition pairs with consumer ``p+1``'s
    first use; a missing use (``None``, read as NaN) imposes no wait.
    """
    best = np.zeros(column.count)
    for key in reg_keys:
        defs_all = []
        uses_all = []
        pairs = []
        for inv in column.invs:
            defs = inv.lcd_def_offsets.get(key, [])
            uses = inv.lcd_use_offsets.get(key, [])
            count = max(0, min(len(defs), len(uses) - 1))
            defs_all.extend(defs[:count])
            uses_all.extend(uses[1:count + 1])
            pairs.append(count)
        if not defs_all:
            continue
        skew = (np.array(defs_all, dtype=float)
                - np.array(uses_all, dtype=float))
        skew = np.where(skew > 0, skew, 0.0)
        pairs = np.array(pairs)
        has = pairs > 0
        starts = (np.cumsum(pairs) - pairs)[has]
        best[has] = np.maximum(best[has], np.maximum.reduceat(skew, starts))
    return best


def _lower_mispredicted(column, reg_keys, cost, parallel, codes, nconf):
    """PDOALL ``dep2`` for the leaves without memory conflict pairs, in
    place.

    Each mispredicted consumer iteration conflicts only with its
    predecessor, which is always in the current phase, so every one of
    them starts a phase: the phase breaks are the sorted consumers. The
    misses of every key are marked on one mask over the column's
    iterations, and all breaks go into one segmented max.
    """
    leaves = np.flatnonzero(column.npairs == 0)
    if not leaves.size:
        return
    invs = [column.invs[i] for i in leaves.tolist()]
    first = column.offsets[leaves]
    trips = column.trips[leaves]
    missed = np.zeros(column.costs.size, dtype=bool)
    for key in reg_keys:
        runs = [inv.lcd_hits(key) for inv in invs]
        at = np.flatnonzero(
            np.frombuffer(b"".join(runs), dtype=np.uint8) == 0)
        if not at.size:
            continue
        lengths = np.fromiter(map(len, runs), dtype=np.int64,
                              count=len(runs))
        ends = np.cumsum(lengths)
        # A miss on value i of a leaf's run delays its iteration i + 1.
        run = np.searchsorted(ends, at, side="right")
        consumer = at - (ends - lengths)[run] + 1
        keep = consumer < trips[run]
        missed[first[run[keep]] + consumer[keep]] = True
    breaks = np.flatnonzero(missed)
    if not breaks.size:
        return
    leaf_starts = column.offsets[:-1]
    counts = np.add.reduceat(missed, leaf_starts, dtype=np.int64)
    starts = np.sort(np.concatenate((leaf_starts, breaks)))
    totals = np.add.reduceat(
        np.maximum.reduceat(column.costs, starts),
        np.searchsorted(starts, leaf_starts),
    )
    hit = leaves[counts[leaves] > 0]
    over = counts[hit] / column.trips[hit] > PDOALL_SERIAL_THRESHOLD
    total = totals[hit]
    serial = column.serial[hit]
    gain = ~over & (total < serial)
    parallel[hit] = gain
    cost[hit] = np.where(gain, total, serial)
    codes[hit] = np.where(
        over, _REASON_CODE["conflict-rate"],
        np.where(gain, 0, _REASON_CODE["no-gain"]),
    )
    nconf[hit] = counts[hit]


class _Node:
    """Config-independent state of one invocation with children: its raw
    iteration costs and, per child, the record to read the effective cost
    and coverage from."""

    __slots__ = (
        "inv", "index", "rank", "loop", "costs", "serial_cost_f",
        "child_pos", "apply_pos", "apply_iter", "apply_serial",
    )

    def __init__(self, inv, index, rank, loop, position):
        self.inv = inv
        self.index = index
        self.rank = rank
        self.loop = loop
        self.costs = np.asarray(inv.iteration_costs(), dtype=float)
        self.serial_cost_f = float(inv.serial_cost)
        self.child_pos = np.array(
            [position[id(child)] for child in inv.children], dtype=np.intp)
        # Savings land only on children recorded inside an iteration.
        n_costs = len(self.costs)
        inside = [child for child in inv.children
                  if 0 <= child.parent_iter < n_costs]
        self.apply_pos = np.array([position[id(child)] for child in inside],
                                  dtype=np.intp)
        self.apply_iter = np.array([child.parent_iter for child in inside],
                                   dtype=np.intp)
        self.apply_serial = np.array(
            [float(child.serial_cost) for child in inside], dtype=float)


class LoopSummary:
    """Aggregate outcome for one static loop under one configuration."""

    __slots__ = (
        "loop_id", "invocations", "parallel_invocations", "serial_cost",
        "parallel_cost", "iterations", "conflicting_iterations", "reasons",
    )

    def __init__(self, loop_id):
        self.loop_id = loop_id
        self.invocations = 0
        self.parallel_invocations = 0
        self.serial_cost = 0.0
        self.parallel_cost = 0.0
        self.iterations = 0
        self.conflicting_iterations = 0
        self.reasons = {}

    @property
    def speedup(self):
        if self.parallel_cost <= 0:
            return 1.0
        return self.serial_cost / self.parallel_cost

    @property
    def is_parallel(self):
        return self.parallel_invocations > 0

    def note_reason(self, reason):
        if reason:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def to_dict(self):
        """JSON-safe form for the run ledger; floats round-trip exactly."""
        return {
            "loop_id": self.loop_id,
            "invocations": self.invocations,
            "parallel_invocations": self.parallel_invocations,
            "serial_cost": self.serial_cost,
            "parallel_cost": self.parallel_cost,
            "iterations": self.iterations,
            "conflicting_iterations": self.conflicting_iterations,
            "reasons": dict(self.reasons),
        }

    @classmethod
    def from_dict(cls, data):
        summary = cls(data["loop_id"])
        summary.invocations = int(data["invocations"])
        summary.parallel_invocations = int(data["parallel_invocations"])
        summary.serial_cost = float(data["serial_cost"])
        summary.parallel_cost = float(data["parallel_cost"])
        summary.iterations = int(data["iterations"])
        summary.conflicting_iterations = int(data["conflicting_iterations"])
        summary.reasons = {
            reason: int(count)
            for reason, count in (data.get("reasons") or {}).items()
        }
        return summary

    def __repr__(self):
        return (
            f"<LoopSummary {self.loop_id} x{self.invocations} "
            f"speedup={self.speedup:.2f}>"
        )


class EvaluationResult:
    """Whole-program outcome for one configuration."""

    def __init__(self, config, total_serial, total_parallel, coverage, loops):
        self.config = config
        self.total_serial = total_serial
        self.total_parallel = total_parallel
        self.coverage = coverage
        self.loops = loops  # {loop_id: LoopSummary}

    @property
    def speedup(self):
        if self.total_parallel <= 0:
            return 1.0
        return self.total_serial / self.total_parallel

    def to_dict(self):
        """Ledger checkpoint form. JSON floats round-trip via ``repr``, so
        a deserialized result renders byte-identical figure text."""
        return {
            "config": self.config.name,
            "total_serial": self.total_serial,
            "total_parallel": self.total_parallel,
            "coverage": self.coverage,
            "loops": {
                loop_id: summary.to_dict()
                for loop_id, summary in self.loops.items()
            },
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            LPConfig.parse(data["config"]),
            float(data["total_serial"]),
            float(data["total_parallel"]),
            float(data["coverage"]),
            {
                loop_id: LoopSummary.from_dict(entry)
                for loop_id, entry in (data.get("loops") or {}).items()
            },
        )

    def __repr__(self):
        return (
            f"<EvaluationResult {self.config.name}: speedup={self.speedup:.2f} "
            f"coverage={self.coverage * 100:.1f}%>"
        )


def _reg_skew(invocation, phi_key, hits=None):
    """Largest producer->consumer skew of a register LCD lowered to memory.

    Producer: the definition of the latch value in iteration ``i``
    (``lcd_def_offsets``); consumer: the first use of the phi in iteration
    ``i+1`` (``lcd_use_offsets``). Iterations without an observed use impose
    no wait. ``hits`` (the phi's :meth:`lcd_hits` under ``dep2``) limits it
    to the consumers of mispredicted values.
    """
    defs = invocation.lcd_def_offsets.get(phi_key, [])
    uses = invocation.lcd_use_offsets.get(phi_key, [])
    best = 0.0
    for producer_iter, def_off in enumerate(defs):
        consumer_iter = producer_iter + 1
        if hits is not None and (producer_iter >= len(hits)
                                 or hits[producer_iter]):
            continue
        use_off = uses[consumer_iter] if consumer_iter < len(uses) else None
        if use_off is None:
            continue
        skew = def_off - use_off
        if skew > best:
            best = float(skew)
    return best


def _model_outcome(invocation, config, eff_costs, serial, eff_max, reg_keys):
    """Price one invocation that passed every gate; returns
    ``(ModelOutcome, n_conflict_iters)``.

    ``serial`` is the caller's precomputed ``float(np.sum(eff_costs))`` —
    the summary needs it too, so the array is summed exactly once.
    ``eff_max`` is the precomputed max of ``eff_costs`` for untouched leaf
    arrays (None when the array was adjusted for child savings).
    ``reg_keys`` are the register LCDs that survive ``config.reduc``.
    """
    n = len(eff_costs)

    # Conflict pairs: consumer iteration -> latest producer iteration.
    # Copied only on the paths that inject extra (lowered/mispredicted
    # register-LCD) pairs; every other path reads it as-is.
    pairs = invocation.conflict_pairs
    pairs_copied = False

    def add_adjacent(consumer):
        nonlocal pairs, pairs_copied
        if not pairs_copied:
            pairs = dict(pairs)
            pairs_copied = True
        producer = consumer - 1
        if pairs.get(consumer, -1) < producer:
            pairs[consumer] = producer

    reg_delta = 0.0
    if reg_keys and config.dep == 1:
        if config.model == "helix":
            for key in reg_keys:
                reg_delta = max(reg_delta, _reg_skew(invocation, key))
        else:
            # Lowered LCDs manifest as frequent memory conflicts.
            for consumer in range(1, n):
                add_adjacent(consumer)
    elif reg_keys and config.dep == 2:
        for key in reg_keys:
            hits = invocation.lcd_hits(key)
            if config.model == "helix":
                reg_delta = max(reg_delta, _reg_skew(invocation, key, hits))
                continue
            # A miss on value i delays iteration i + 1.
            at = hits.find(0)
            while 0 <= at < n - 1:
                add_adjacent(at + 1)
                at = hits.find(0, at + 1)
    # dep3: perfect prediction removes every register LCD.

    if config.model == "doall":
        outcome = doall_cost(
            eff_costs, invocation.conflict_count > 0, serial, iter_max=eff_max
        )
        return outcome, len(pairs)
    if config.model == "pdoall":
        breaks = pdoall_phase_breaks(pairs, n)
        # The 80 % cutoff is on conflicting *iterations*, not phase breaks:
        # conflicts absorbed by an earlier phase break still count.
        conflicts = sum(1 for consumer in pairs if 0 < consumer < n)
        outcome = pdoall_cost(
            eff_costs, breaks, serial, conflicts=conflicts, iter_max=eff_max
        )
        return outcome, conflicts
    # HELIX: scale serial-time skews by the invocation's shrink factor.
    raw_total = invocation.serial_cost
    scale = (serial / raw_total) if raw_total > 0 else 1.0
    delta = max(invocation.max_mem_skew, reg_delta) * scale
    outcome = helix_cost(eff_costs, delta, serial, iter_max=eff_max)
    return outcome, len(pairs)


def _evaluate_once(profile, static_info, config, cache, forced_serial,
                   innermost_only=False):
    plan = cache.plan(static_info)
    # Per invocation (walk order): effective cost and covered cost.
    effective = np.empty(plan.size)
    covered = np.empty(plan.size)

    # Leaves first: they depend on nothing but the configuration.
    leaf_outcomes = []
    for loop in plan.loops:
        outcome = None
        if loop.leaves is not None:
            outcome = loop.price_leaves(config, forced_serial)
            effective[loop.leaves.positions] = outcome.cost
            covered[loop.leaves.positions] = outcome.covered
        leaf_outcomes.append(outcome)

    # Then invocations with children, bottom-up.
    node_results = []
    for node in plan.nodes:
        eff_costs = node.costs.copy()
        if node.apply_iter.size:
            # Child savings are non-negative, so clamping once after the
            # in-order subtraction equals clamping after every step.
            np.subtract.at(eff_costs, node.apply_iter,
                           node.apply_serial - effective[node.apply_pos])
            np.maximum(eff_costs, 0.0, out=eff_costs)
        child_covered = float(np.add.accumulate(covered[node.child_pos])[-1])
        serial = float(np.sum(eff_costs)) if len(eff_costs) else 0.0
        reason = node.loop.gate(config, forced_serial, outer=innermost_only)
        if reason is None:
            outcome, n_conflicts = _model_outcome(
                node.inv, config, eff_costs, serial, None,
                node.loop.reg_keys[config.reduc],
            )
        else:
            outcome, n_conflicts = ModelOutcome(serial, False, reason), 0
        if outcome.parallel:
            effective[node.index] = outcome.cost
            covered[node.index] = node.serial_cost_f
        else:
            effective[node.index] = serial
            covered[node.index] = child_covered
        node_results.append((serial, outcome, n_conflicts))

    summaries = {
        loop.loop_id: _summarize(loop, leaf_outcome, node_results)
        for loop, leaf_outcome in zip(plan.loops, leaf_outcomes)
    }

    top_effective = effective[plan.top_pos].tolist()
    saved = sum(
        serial_cost - eff
        for serial_cost, eff in zip(plan.top_serial, top_effective)
    )
    total_parallel = max(1.0, profile.total_cost - saved)
    total_covered = sum(covered[plan.top_pos].tolist())
    coverage = (total_covered / profile.total_cost) if profile.total_cost else 0.0
    return EvaluationResult(
        config, float(profile.total_cost), total_parallel, coverage, summaries
    )


def _summarize(loop, leaf_outcome, node_results):
    """The loop's :class:`LoopSummary`. Costs are added in walk order, as
    the per-invocation walk did: leaves and nodes of one loop interleave."""
    summary = LoopSummary(loop.loop_id)
    column = loop.leaves
    if not loop.nodes:
        summary.invocations = column.count
        summary.parallel_invocations = leaf_outcome.parallel_count
        summary.serial_cost = column.serial_total
        summary.parallel_cost = leaf_outcome.parallel_total
        summary.iterations = column.iterations
        summary.conflicting_iterations = leaf_outcome.conflicts
        summary.reasons = dict(leaf_outcome.reasons)
        return summary
    results = [node_results[node.rank] for node in loop.nodes]
    slots = len(loop.leaf_slots) + len(results)
    serial = np.empty(slots)
    cost = np.empty(slots)
    codes = np.empty(slots, dtype=np.int8)
    serial[loop.node_slots] = [node_serial for node_serial, _, _ in results]
    cost[loop.node_slots] = [outcome.cost for _, outcome, _ in results]
    codes[loop.node_slots] = [
        0 if outcome.parallel else _REASON_CODE[outcome.reason]
        for _, outcome, _ in results
    ]
    summary.invocations = slots
    summary.iterations = sum(node.inv.num_iterations for node in loop.nodes)
    summary.conflicting_iterations = sum(n for _, _, n in results)
    summary.parallel_invocations = sum(
        1 for _, outcome, _ in results if outcome.parallel)
    if column is not None:
        serial[loop.leaf_slots] = column.serial
        cost[loop.leaf_slots] = leaf_outcome.cost
        codes[loop.leaf_slots] = leaf_outcome.codes
        summary.iterations += column.iterations
        summary.conflicting_iterations += leaf_outcome.conflicts
        summary.parallel_invocations += leaf_outcome.parallel_count
    summary.serial_cost = float(np.add.accumulate(serial)[-1])
    summary.parallel_cost = float(np.add.accumulate(cost)[-1])
    summary.reasons = dict(_reason_counts(codes))
    return summary


def _violations(result, config, forced_serial):
    """Static serial-marking rules applied to the aggregate (paper §III-B)."""
    newly = set()
    for loop_id, summary in result.loops.items():
        if loop_id in forced_serial or not summary.is_parallel:
            continue
        if config.model == "doall":
            # "Mark the loop as suitable for serial execution only" on the
            # first conflict: one conflicting invocation serializes them all.
            if summary.conflicting_iterations > 0:
                newly.add(loop_id)
            continue
        if config.model == "pdoall" and summary.iterations > 0:
            rate = summary.conflicting_iterations / summary.iterations
            if rate > PDOALL_SERIAL_THRESHOLD:
                newly.add(loop_id)
                continue
        if summary.parallel_cost >= summary.serial_cost - 1e-9:
            newly.add(loop_id)  # no aggregate gain: mark serial
    return newly


def evaluate_config(profile, static_info, config, cache=None,
                    innermost_only=False):
    """Evaluate one configuration against a profile (fixpoint over static
    serial marking). ``cache`` may be shared across configurations.

    ``innermost_only`` reproduces the related-work baseline (Kejariwal et
    al., paper §V): only innermost loop invocations may parallelize — no
    outer loops, no nested parallelism.
    """
    if cache is None:
        cache = ProfileCache(profile)
    forced_serial = set()
    for _ in range(1 + len(static_info.loops)):
        result = _evaluate_once(
            profile, static_info, config, cache, forced_serial,
            innermost_only=innermost_only,
        )
        newly = _violations(result, config, forced_serial)
        if not newly:
            return result
        forced_serial |= newly
    return result


def evaluate_all(profile, static_info, configs):
    """Evaluate many configurations, sharing one :class:`ProfileCache`."""
    cache = ProfileCache(profile)
    return {
        config.name: evaluate_config(profile, static_info, config, cache)
        for config in configs
    }
