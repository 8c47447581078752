"""Execution-profile data structures.

One profiling run per benchmark records *raw facts*; every Table-II
configuration is then evaluated analytically from the recorded profile (see
DESIGN.md for why this is observationally equivalent to the paper's
per-configuration instrumented runs).

The profile is a tree of :class:`LoopInvocation` records rooted at a
:class:`ProgramProfile` pseudo-invocation covering the whole run. Each
invocation stores:

* iteration start timestamps (dynamic IR instruction counts),
* aggregated memory-RAW conflicts: the set of consumer iterations (for the
  Partial-DOALL phase simulation and the 80 % rule), the per-iteration
  producer->consumer skew maximum (for the HELIX formula), and the raw count,
* per tracked register LCD: the latch value sequence, the perfect-hybrid
  predictor outcome of each of its values (``dep2``; derived from the
  sequence, see :meth:`LoopInvocation.lcd_hits`) and per-iteration
  producer-definition / first-use offsets (for HELIX ``dep1`` lowering).
"""

from __future__ import annotations

from ..predictors.hybrid import perfect_hybrid_flags


class LoopInvocation:
    """One dynamic execution of a loop (entry to exit).

    Iteration boundaries are the header-entry edges, so a loop whose body
    runs N times records N+1 iteration starts: the final header execution
    (the failing exit test) forms a cheap trailing pseudo-iteration. All
    derived quantities (costs, conflicts, LCD indices) use this numbering
    consistently.
    """

    __slots__ = (
        "loop_id", "parent", "parent_iter", "iter_starts", "end_ts",
        "conflict_pairs", "max_mem_skew", "conflict_count",
        "lcd_values", "lcd_def_offsets", "lcd_use_offsets",
        "children", "exited", "_hits",
    )

    def __init__(self, loop_id, parent, parent_iter, start_ts):
        self.loop_id = loop_id
        self.parent = parent
        self.parent_iter = parent_iter
        self.iter_starts = [start_ts]
        self.end_ts = start_ts
        # consumer iteration -> latest producer iteration observed for it.
        # The latest producer is the binding constraint: a Partial-DOALL
        # phase break before it commits every earlier producer too.
        self.conflict_pairs = {}
        self.max_mem_skew = 0.0
        self.conflict_count = 0
        self.lcd_values = {}
        self.lcd_def_offsets = {}
        self.lcd_use_offsets = {}
        self.children = []
        self.exited = False
        self._hits = {}

    @classmethod
    def decoded(cls, loop_id, parent, parent_iter, iter_starts, end_ts,
                conflict_pairs, max_mem_skew, conflict_count, lcd_values,
                lcd_def_offsets, lcd_use_offsets, exited, hits):
        """An invocation whose every field is already known (a decoded
        profile), without the placeholder containers ``__init__`` builds
        for recording; ``children`` starts empty. ``hits`` presets
        :meth:`lcd_hits` (``{phi key: bytes}``)."""
        self = cls.__new__(cls)
        self.loop_id = loop_id
        self.parent = parent
        self.parent_iter = parent_iter
        self.iter_starts = iter_starts
        self.end_ts = end_ts
        self.conflict_pairs = conflict_pairs
        self.max_mem_skew = max_mem_skew
        self.conflict_count = conflict_count
        self.lcd_values = lcd_values
        self.lcd_def_offsets = lcd_def_offsets
        self.lcd_use_offsets = lcd_use_offsets
        self.children = []
        self.exited = exited
        self._hits = hits
        return self

    def lcd_hits(self, phi_key):
        """One byte per value of ``lcd_values[phi_key]``: 1 where the
        perfect hybrid of the four value predictors (§III-C), trained on
        the values before it, predicted it exactly, else 0.

        ``values[i]`` is consumed by iteration ``i+1``, so a 0 at ``i``
        delays iteration ``i+1`` under ``dep2``. Computed on first use and
        kept (the profile must be finished by then); a decoded profile
        arrives with them already filled.
        """
        bits = self._hits.get(phi_key)
        if bits is None:
            bits = self._hits[phi_key] = bytes(
                perfect_hybrid_flags(self.lcd_values.get(phi_key, ())))
        return bits

    # -- derived quantities -------------------------------------------------------

    @property
    def num_iterations(self):
        return len(self.iter_starts)

    @property
    def current_iter(self):
        return len(self.iter_starts) - 1

    @property
    def start_ts(self):
        return self.iter_starts[0]

    @property
    def serial_cost(self):
        return self.end_ts - self.iter_starts[0]

    def iteration_costs(self):
        """Raw span of each iteration in IR instructions."""
        starts = self.iter_starts
        costs = [
            starts[index + 1] - starts[index]
            for index in range(len(starts) - 1)
        ]
        costs.append(self.end_ts - starts[-1])
        return costs

    def record_conflict(self, producer_iter, producer_ts, consumer_iter, consumer_ts):
        """Aggregate one cross-iteration RAW manifestation."""
        self.conflict_count += 1
        previous = self.conflict_pairs.get(consumer_iter, -1)
        if producer_iter > previous:
            self.conflict_pairs[consumer_iter] = producer_iter
        producer_off = producer_ts - self.iter_starts[producer_iter]
        consumer_off = consumer_ts - self.iter_starts[consumer_iter]
        distance = consumer_iter - producer_iter
        skew = (producer_off - consumer_off) / distance
        if skew > self.max_mem_skew:
            self.max_mem_skew = skew

    def __repr__(self):
        return (
            f"<LoopInvocation {self.loop_id} iters={self.num_iterations} "
            f"conflicts={self.conflict_count}>"
        )


class ProgramProfile:
    """Root of the invocation tree plus whole-run metadata."""

    def __init__(self, name="program"):
        self.name = name
        self.top_level = []       # LoopInvocation list (invocation order)
        self.total_cost = 0       # dynamic IR instructions of the whole run
        self.result = None        # program exit value
        self.call_sites = {}      # site_id -> CallSiteSummary (call TLS)

    def all_invocations(self):
        """Every invocation in the tree, parents before children."""
        result = []
        worklist = list(reversed(self.top_level))
        while worklist:
            invocation = worklist.pop()
            result.append(invocation)
            worklist.extend(reversed(invocation.children))
        return result

    def invocations_of(self, loop_id):
        return [inv for inv in self.all_invocations() if inv.loop_id == loop_id]

    def loop_ids(self):
        return sorted({inv.loop_id for inv in self.all_invocations()})

    def __repr__(self):
        return (
            f"<ProgramProfile {self.name}: cost={self.total_cost}, "
            f"{len(self.all_invocations())} invocations>"
        )
