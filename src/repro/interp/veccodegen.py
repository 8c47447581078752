"""Vector kernel tier: whole-loop NumPy codegen for proved-DOALL loops.

The scalar block-template JIT (:mod:`repro.interp.codegen`) still pays
per-iteration dispatch for loops the static dependence engine has already
proved ``STATIC_DOALL``. This module cashes in that proof as a different
code shape: for an innermost loop with a SCEV-computable constant trip
count, affine induction variables, and affine memory accesses over
disambiguated base objects, the emitter plants a *vector section* on the
preheader's branch into the header. The section evaluates the whole loop
at once — induction variables become ``np.arange``-derived index vectors,
loads become strided gathers over the flat :class:`AddressSpace` slot
list, the straight-line body becomes elementwise NumPy expressions, and
stores become strided scatters — then jumps straight to the exit block.

The design constraints, in order of importance:

1. **Byte-identical observables.** Results, traps, fuel accounting, and
   the full instrumented profile must match the scalar tiers exactly.
   Loop-invocation and memory events are computed in *closed form* from
   the trip count and access functions and delivered in bulk through
   :meth:`ProfilingRuntime.vec_loop`. Anything the kernel cannot
   reproduce exactly (division by zero mid-vector, an out-of-bounds
   address, a gather over non-scalar slots, int64 headroom exhausted)
   raises :class:`_VBail` *before any state is mutated* and control falls
   through to the unmodified scalar path, which then replays the loop —
   including its trap or fuel exhaustion — with identical timestamps.

2. **Explicit bailouts.** Every reason a loop is not vectorized is one of
   the ``BAIL_*`` constants below, surfaced per loop via
   :func:`plan_vector_loops` / :func:`vector_decisions` so a run manifest
   can report exactly which parallelism was unlocked and which was left
   on the table (and why).

3. **No new dependences.** NumPy is optional at runtime: without it
   (``_np is None``) every loop reports ``numpy-unavailable`` and the
   scalar JIT carries on alone. ``jit_entry`` additionally keys cached
   sources with a tier tag so vector and scalar sources never mix.

Soundness of the reordering (gather everything, compute, scatter
everything) rests on the DOALL verdict: cross-iteration RAW/WAR/WAW on
may-alias pairs all imply a loop-carried dependence, which the verdict
excludes, and intra-iteration store/load overlaps are rejected by
:func:`_intra_alias`. Runtime address checks (stride progression and
bounds against the live stack pointer) re-verify at execution time what
the affine model promised statically.
"""

from __future__ import annotations

import math as _math

from ..analysis.depend import (
    DependenceAnalysis,
    VERDICT_DOALL,
    module_memory_summaries,
)
from ..analysis.loop_info import LoopInfo
from ..analysis.purity import _trace_to_base
from ..analysis.scev import SCEVAddRec, SCEVConstant, ScalarEvolution
from ..ir.instructions import (
    GEP,
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    Select,
    Store,
)
from ..ir.values import Argument, ConstantFloat, ConstantInt, GlobalVariable
from .interpreter import signed_div, signed_rem, unsigned_div, unsigned_rem
from .intrinsics import _hash32

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None

#: Bump whenever the vector-section template changes; folded into the
#: code-cache key (tier tag) so stale vector sources are never reused.
VEC_VERSION = 3

#: Largest trip count executed as one kernel. Beyond this the transient
#: arrays stop paying for themselves and a buggy bound would allocate
#: gigabytes; the scalar tier handles the rest.
_MAX_VEC_TRIP = 1 << 21

# -- bailout taxonomy (every non-vectorized loop reports exactly one) ---------

BAIL_NUMPY = "numpy-unavailable"
BAIL_INNER = "contains-inner-loop"
BAIL_MULTI_LATCH = "multiple-latches"
BAIL_NOT_SIMPLIFIED = "not-simplified"
BAIL_HEADER = "complex-header"
BAIL_CFG = "control-flow-in-body"
BAIL_CALL = "contains-call"
BAIL_OP = "unsupported-op"
BAIL_INSTR = "irregular-instrumentation"
BAIL_HOOKS = "lcd-hooks-in-loop"
BAIL_TRIP = "no-constant-trip-count"
BAIL_TRIP_WRAP = "i32-wrap-unprovable-bounds"
BAIL_TRIP_SIZE = "oversized-trip"
BAIL_IV = "non-affine-iv"
BAIL_ACCESS = "non-affine-access"
BAIL_ALIAS = "intra-iteration-alias"
BAIL_VERDICT = "not-proved-doall"

ALL_BAILOUTS = (
    BAIL_NUMPY, BAIL_INNER, BAIL_MULTI_LATCH, BAIL_NOT_SIMPLIFIED,
    BAIL_HEADER, BAIL_CFG, BAIL_CALL, BAIL_OP, BAIL_INSTR, BAIL_HOOKS,
    BAIL_TRIP, BAIL_TRIP_WRAP, BAIL_TRIP_SIZE, BAIL_IV, BAIL_ACCESS,
    BAIL_ALIAS, BAIL_VERDICT,
)

_ICMP = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_FCMP = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}

_WRAP_LIMIT = 1 << 31
#: Per-operation int64 headroom: ``_vw`` adds 2**31 before masking, so
#: every intermediate must stay strictly below 2**62 in magnitude.
_MAG_LIMIT = 1 << 62
#: Static magnitude assumed for any runtime address (slot index). The
#: slot space is a real Python list, so this is generous by orders of
#: magnitude; it only has to keep address arithmetic inside int64.
_ADDR_BOUND = 1 << 48


def vec_available():
    """Whether the vector tier can run at all in this process."""
    return _np is not None


class _VBail(Exception):
    """A runtime guard failed before any state was mutated; the caller
    falls through to the scalar path, which replays the loop exactly
    (including any trap or fuel exhaustion the guard anticipated)."""


# -- runtime helpers (injected into generated-code namespaces) ----------------
#
# Every helper is *dual*: it accepts NumPy arrays or plain Python scalars
# and preserves scalarness, so loop-invariant subexpressions stay exact
# Python arithmetic and only IV-dependent values pay for (and rely on)
# int64/float64 semantics.


def _vw(x):
    """Branch-free 32-bit two's-complement wrap, elementwise or scalar."""
    return ((x + 2147483648) & 4294967295) - 2147483648


def _vb(x):
    """Comparison result -> 0/1 int (int64 vector or Python int)."""
    if isinstance(x, _np.ndarray):
        return x.astype(_np.int64)
    return 1 if x else 0


def _vsel(c, t, f):
    """``select``: np.where when anything is vectored, else exact Python
    (preserving object identity of the chosen operand)."""
    if isinstance(c, _np.ndarray) or isinstance(t, _np.ndarray) \
            or isinstance(f, _np.ndarray):
        if isinstance(c, _np.ndarray):
            return _np.where(c != 0, t, f)
        return _np.where(bool(c), t, f)
    return t if c else f


def _vf(x):
    """``sitofp``: exact for canonical i32 (|x| < 2**31 < 2**53)."""
    if isinstance(x, _np.ndarray):
        return x.astype(_np.float64)
    return float(x)


def _vfptosi(x):
    """``fptosi``: truncate toward zero then wrap to i32. Python's int()
    accepts any finite float; bounding |x| < 2**62 keeps the array path
    inside int64 (then the wrap makes both routes identical). Non-finite
    input would raise in the scalar tier, so the kernel bails and lets
    the scalar replay produce that exact error."""
    if isinstance(x, _np.ndarray):
        if not _np.isfinite(x).all() or (_np.abs(x) >= 4611686018427387904.0).any():
            raise _VBail
        return _vw(x.astype(_np.int64))
    if not _math.isfinite(x) or abs(x) >= 4611686018427387904.0:
        raise _VBail
    return _vw(int(x))


def _vtrunc(x, mask, half, span):
    """``trunc`` to a width >= 2: mask then sign-extend, branch-free."""
    x = x & mask
    return x - span * (x >= half)


def _vsdiv(a, b):
    """``sdiv`` at width 32; INT_MIN // -1 wraps back to INT_MIN."""
    if isinstance(b, _np.ndarray):
        if (b == 0).any():
            raise _VBail  # scalar replay raises the trap at the right cost
        if not isinstance(a, _np.ndarray):
            a = _np.int64(a)
        q = (_np.abs(a) // _np.abs(b)) * (_np.sign(a) * _np.sign(b))
        return _vw(q)
    if b == 0:
        raise _VBail
    if isinstance(a, _np.ndarray):
        q = (_np.abs(a) // abs(b)) * (_np.sign(a) * (1 if b > 0 else -1))
        return _vw(q)
    return signed_div(a, b, 32)


def _vsrem(a, b):
    """``srem``: remainder of the truncating division (INT_MIN % -1 == 0);
    the quotient is deliberately unwrapped, mirroring ``signed_rem``."""
    if isinstance(b, _np.ndarray):
        if (b == 0).any():
            raise _VBail
        if not isinstance(a, _np.ndarray):
            a = _np.int64(a)
        q = (_np.abs(a) // _np.abs(b)) * (_np.sign(a) * _np.sign(b))
        return a - q * b
    if b == 0:
        raise _VBail
    if isinstance(a, _np.ndarray):
        q = (_np.abs(a) // abs(b)) * (_np.sign(a) * (1 if b > 0 else -1))
        return a - q * b
    return signed_rem(a, b, 32)


def _vudiv(a, b):
    """``udiv`` over the unsigned views of the 32-bit patterns."""
    if isinstance(a, _np.ndarray) or isinstance(b, _np.ndarray):
        ub = b & 4294967295
        if isinstance(ub, _np.ndarray):
            if (ub == 0).any():
                raise _VBail
        elif ub == 0:
            raise _VBail
        return _vw((a & 4294967295) // ub)
    if b & 4294967295 == 0:
        raise _VBail
    return unsigned_div(a, b, 32)


def _vurem(a, b):
    """``urem`` over the unsigned views of the 32-bit patterns."""
    if isinstance(a, _np.ndarray) or isinstance(b, _np.ndarray):
        ub = b & 4294967295
        if isinstance(ub, _np.ndarray):
            if (ub == 0).any():
                raise _VBail
        elif ub == 0:
            raise _VBail
        return _vw((a & 4294967295) % ub)
    if b & 4294967295 == 0:
        raise _VBail
    return unsigned_rem(a, b, 32)


def _vfdiv(a, b):
    """``fdiv``: any zero divisor means the scalar tier would trap."""
    if isinstance(b, _np.ndarray):
        if (b == 0.0).any():
            raise _VBail
    elif b == 0.0:
        raise _VBail
    return a / b


def _vaddr(space, ptrs, stride, n):
    """Verify an access's address vector at runtime — exact stride
    progression and full in-bounds range — and return the base address.
    This re-checks dynamically what the affine model promised statically,
    so even a planner bug degrades to a bailout, never a wrong access."""
    if isinstance(ptrs, _np.ndarray):
        base = int(ptrs[0])
        if n > 1 and not (ptrs[1:] - ptrs[:-1] == stride).all():
            raise _VBail
    else:
        if stride != 0 and n > 1:
            raise _VBail
        base = ptrs
    last = base + stride * (n - 1)
    lo, hi = (base, last) if stride >= 0 else (last, base)
    if lo < 0 or hi >= space._stack_pointer:
        raise _VBail  # scalar replay raises the trap at the faulting access
    return base


#: Store pre-check: identical to the load-side verifier; kept as its own
#: name so generated sources read as check/commit pairs.
_vpre = _vaddr


def _vconvi(space, base, n):
    """Convert ``n`` contiguous integer slots starting at ``base``."""
    values = space.slots[base:base + n]
    if set(map(type, values)) != {int}:
        raise _VBail
    try:
        # dtype is known, so fromiter skips asarray's inference pass; an
        # int beyond int64 (impossible for canonical slots, but this is
        # the verifier) overflows to OverflowError, not silent wrap.
        arr = _np.fromiter(values, _np.int64, n)
    except (OverflowError, ValueError):
        raise _VBail
    if (_np.abs(arr) >= 2147483648).any():
        raise _VBail
    return arr


def _vconvf(space, base, n):
    """Convert ``n`` contiguous float slots starting at ``base``."""
    values = space.slots[base:base + n]
    # set(map(type, ...)) runs the whole scan in C; asarray alone cannot
    # stand in for it because a mixed int/float slice converts silently.
    if set(map(type, values)) != {float}:
        raise _VBail
    return _np.fromiter(values, _np.float64, n)


#: Gather-window cache bound: at most this many windows per kernel
#: invocation; the least-recently-used window is evicted.
WINDOW_CAP = 32
_WINDOW_STATS = {"evictions": 0}


def vec_runtime_stats():
    """In-process vector-tier cache counters (for ``repro cache stats``)."""
    return {
        "window_cap": WINDOW_CAP,
        "window_evictions": _WINDOW_STATS["evictions"],
    }


def _vwindow(space, base, n, windows, convert):
    """Serve a contiguous gather from per-invocation window cache.

    Overlapping gathers of the same array are the common case (stencils
    read ``U[i-1]``, ``U[i+1]``, ... in one body), and every gather in a
    kernel reads the pre-kernel memory image — scatters are deferred to
    the commit step — so a slot range converted once stays valid for the
    whole invocation. On overlap only the uncovered prefix/suffix is
    converted, which turns k shifted reads of one array into ~one
    conversion pass instead of k."""
    lo, hi = base, base + n
    for index, window in enumerate(windows):
        wlo, whi = window[0], window[1]
        if wlo <= lo and hi <= whi:
            if index != len(windows) - 1:
                windows.append(windows.pop(index))  # LRU: refresh on hit
            return window[2][lo - wlo:hi - wlo]
        if lo <= whi and wlo <= hi:  # overlap or adjacency: extend
            new_lo, new_hi = min(lo, wlo), max(hi, whi)
            parts = []
            if new_lo < wlo:
                parts.append(convert(space, new_lo, wlo - new_lo))
            parts.append(window[2])
            if whi < new_hi:
                parts.append(convert(space, whi, new_hi - whi))
            arr = _np.concatenate(parts) if len(parts) > 1 else parts[0]
            window[0], window[1], window[2] = new_lo, new_hi, arr
            if index != len(windows) - 1:
                windows.append(windows.pop(index))
            return arr[lo - new_lo:hi - new_lo]
    if len(windows) >= WINDOW_CAP:
        del windows[0]
        _WINDOW_STATS["evictions"] += 1
    arr = convert(space, lo, n)
    windows.append([lo, hi, arr])
    return arr


def _vgathi(space, ptrs, stride, n, cache=None):
    """Strided integer gather. Bails unless every touched slot holds a
    Python int of canonical i32-or-address magnitude, which is what keeps
    all downstream int64 arithmetic exact."""
    base = _vaddr(space, ptrs, stride, n)
    if stride == 1 and cache is not None:
        return _vwindow(space, base, n, cache, _vconvi)
    stop = base + stride * n
    if stop < 0:
        stop = None
    values = space.slots[base:stop:stride]
    if set(map(type, values)) != {int}:
        raise _VBail
    try:
        arr = _np.fromiter(values, _np.int64, n)
    except (OverflowError, ValueError):
        raise _VBail
    if (_np.abs(arr) >= 2147483648).any():
        raise _VBail
    return arr


def _vgathf(space, ptrs, stride, n, cache=None):
    """Strided float gather. The per-element ``type is float`` check keeps
    value identity through the float64 round-trip: an int smuggled into a
    float-typed slot must take the scalar path."""
    base = _vaddr(space, ptrs, stride, n)
    if stride == 1 and cache is not None:
        return _vwindow(space, base, n, cache, _vconvf)
    stop = base + stride * n
    if stop < 0:
        stop = None
    values = space.slots[base:stop:stride]
    if set(map(type, values)) != {float}:
        raise _VBail
    return _np.fromiter(values, _np.float64, n)


def _vg0i(space, ptr):
    """Loop-invariant (stride-0) integer load, broadcast as a scalar."""
    if isinstance(ptr, _np.ndarray):
        p = int(ptr[0])
        if not (ptr == p).all():
            raise _VBail
    else:
        p = ptr
    if p < 0 or p >= space._stack_pointer:
        raise _VBail
    value = space.slots[p]
    if type(value) is not int or not -2147483648 <= value < 2147483648:
        raise _VBail
    return value


def _vg0f(space, ptr):
    """Loop-invariant (stride-0) float load, broadcast as a scalar."""
    if isinstance(ptr, _np.ndarray):
        p = int(ptr[0])
        if not (ptr == p).all():
            raise _VBail
    else:
        p = ptr
    if p < 0 or p >= space._stack_pointer:
        raise _VBail
    value = space.slots[p]
    if type(value) is not float:
        raise _VBail
    return value


def _vput(space, base, stride, n, values):
    """Strided scatter of ``values`` (already verified by ``_vpre``).
    ``tolist`` keeps plain Python ints/floats in the slot list, so the
    memory image is indistinguishable from scalar execution."""
    if stride == 0:
        # Only reachable with trip count 1 (a stride-0 store over more
        # iterations is a WAW loop-carried dependence and never DOALL).
        if isinstance(values, _np.ndarray):
            last = values[n - 1].item()
        else:
            last = values
        space.slots[base] = last
        return
    stop = base + stride * n
    if stop < 0:
        stop = None
    if isinstance(values, _np.ndarray):
        space.slots[base:stop:stride] = values.tolist()
    else:
        space.slots[base:stop:stride] = [values] * n


def _vbase(ptrs):
    """Base address of an (already verified) access for event emission."""
    if isinstance(ptrs, _np.ndarray):
        return int(ptrs[0])
    return ptrs


# -- vectorized pure intrinsics ------------------------------------------------
#
# Only intrinsics whose NumPy lowering is *bit-identical* to the scalar
# implementation qualify: exact integer avalanche (uint64 wraps mod 2**64,
# then masking to 32 bits equals exact arithmetic mod 2**32), IEEE-exact
# float ops (sqrt/floor/abs are correctly rounded in both libm and NumPy),
# and min/max spelled as the same comparison CPython's min()/max() perform
# (NaN picks the *first* operand either way). Transcendentals (sin, cos,
# exp, log, pow) stay scalar: libm and NumPy may differ in the last ulp.


def _vhashu(x):
    """uint64 lowering of :func:`_hash32` for int64 arrays."""
    v = x.astype(_np.uint64) & _np.uint64(0xFFFFFFFF)
    v ^= v >> _np.uint64(16)
    v = (v * _np.uint64(0x7FEB352D)) & _np.uint64(0xFFFFFFFF)
    v ^= v >> _np.uint64(15)
    v = (v * _np.uint64(0x846CA68B)) & _np.uint64(0xFFFFFFFF)
    v ^= v >> _np.uint64(16)
    return v


def _vhash(x):
    """``hash_i32``: avalanche then canonicalize to signed i32."""
    if isinstance(x, _np.ndarray):
        return _vw(_vhashu(x).astype(_np.int64))
    return _vw(_hash32(x))


def _vnoise(x):
    """``noise_f64``: 24 hash bits scaled into [0, 1). The int -> float64
    conversion and the power-of-two division are both exact."""
    if isinstance(x, _np.ndarray):
        return (_vhashu(x) & _np.uint64(0xFFFFFF)).astype(_np.float64) \
            / 16777216.0
    return (_hash32(x) & 0xFFFFFF) / 16777216.0


def _viabs(x):
    """``iabs``: abs then wrap (INT_MIN maps back to INT_MIN)."""
    return _vw(abs(x))


def _vimin(a, b):
    """``imin``: integers only, so np.minimum matches Python min exactly."""
    if isinstance(a, _np.ndarray) or isinstance(b, _np.ndarray):
        return _np.minimum(a, b)
    return min(a, b)


def _vimax(a, b):
    """``imax``: integers only, so np.maximum matches Python max exactly."""
    if isinstance(a, _np.ndarray) or isinstance(b, _np.ndarray):
        return _np.maximum(a, b)
    return max(a, b)


def _vfmin(a, b):
    """``fmin`` as CPython's ``min(a, b)``: ``b if b < a else a``, which
    keeps the first operand on NaN (np.minimum would propagate NaN)."""
    if isinstance(a, _np.ndarray) or isinstance(b, _np.ndarray):
        return _np.where(b < a, b, a)
    return min(a, b)


def _vfmax(a, b):
    """``fmax`` as CPython's ``max(a, b)``: ``b if b > a else a``."""
    if isinstance(a, _np.ndarray) or isinstance(b, _np.ndarray):
        return _np.where(b > a, b, a)
    return max(a, b)


def _vsqrt(x):
    """``sqrt`` (correctly rounded in both libm and NumPy). A negative
    input would trap in the scalar tier, so the kernel bails and lets the
    scalar replay raise at the exact faulting cost."""
    if isinstance(x, _np.ndarray):
        if (x < 0).any():
            raise _VBail
        return _np.sqrt(x)
    if x < 0:
        raise _VBail
    return _math.sqrt(x)


def _vfloor(x):
    """``floor``: exact in float64. Non-finite input raises in the scalar
    implementation (math.floor), so the kernel bails instead of silently
    producing NumPy's inf/nan."""
    if isinstance(x, _np.ndarray):
        if not _np.isfinite(x).all():
            raise _VBail
        return _np.floor(x)
    return float(_math.floor(x))


#: Intrinsics the kernel may call: name -> generated-code callable. Every
#: entry is pure (no machine access, no memory, no global state) and
#: bit-identical to the scalar implementation (see block comment above).
_VEC_INTRINSICS = {
    "sqrt": "_vsqrt",
    "fabs": "abs",
    "floor": "_vfloor",
    "fmin": "_vfmin",
    "fmax": "_vfmax",
    "iabs": "_viabs",
    "imin": "_vimin",
    "imax": "_vimax",
    "hash_i32": "_vhash",
    "noise_f64": "_vnoise",
}


def vec_namespace():
    """Names the vector sections reference from generated sources."""
    return {
        "_np": _np,
        "_VBail": _VBail,
        "_vw": _vw,
        "_vb": _vb,
        "_vsel": _vsel,
        "_vf": _vf,
        "_vfptosi": _vfptosi,
        "_vtrunc": _vtrunc,
        "_vsdiv": _vsdiv,
        "_vsrem": _vsrem,
        "_vudiv": _vudiv,
        "_vurem": _vurem,
        "_vfdiv": _vfdiv,
        "_vgathi": _vgathi,
        "_vgathf": _vgathf,
        "_vg0i": _vg0i,
        "_vg0f": _vg0f,
        "_vpre": _vpre,
        "_vput": _vput,
        "_vbase": _vbase,
        "_vhash": _vhash,
        "_vnoise": _vnoise,
        "_viabs": _viabs,
        "_vimin": _vimin,
        "_vimax": _vimax,
        "_vfmin": _vfmin,
        "_vfmax": _vfmax,
        "_vsqrt": _vsqrt,
        "_vfloor": _vfloor,
    }


# -- planning -----------------------------------------------------------------


class _VecAccess:
    """One Load/Store in the loop body with its affine access function."""

    __slots__ = ("instruction", "is_write", "offset", "stride", "base",
                 "is_float")

    def __init__(self, instruction, is_write, offset, stride, base, is_float):
        self.instruction = instruction
        self.is_write = is_write
        self.offset = offset      # timestamp offset within one iteration
        self.stride = stride      # address delta per iteration
        self.base = base          # base object (for alias queries)
        self.is_float = is_float


class VecLoopPlan:
    """Everything the emitter needs to plant one vector section."""

    __slots__ = ("loop", "loop_id", "preheader", "header", "latch",
                 "exit_block", "chain", "phis", "phi_steps", "trip",
                 "trip_runtime", "header_cost", "iter_cost", "total_cost",
                 "accesses", "exit_cond")

    def __init__(self, loop, preheader, header, latch, exit_block, chain,
                 phis, phi_steps, trip, trip_runtime, header_cost, iter_cost,
                 accesses, exit_cond):
        self.loop = loop
        self.loop_id = loop.loop_id
        self.preheader = preheader
        self.header = header
        self.latch = latch
        self.exit_block = exit_block
        self.chain = chain            # straight-line body blocks, in order
        self.phis = phis              # header phis, in header order
        self.phi_steps = phi_steps    # id(phi) -> constant step per iteration
        self.trip = trip              # static trip count, or None when the
        self.trip_runtime = trip_runtime  # section computes it at runtime
        self.header_cost = header_cost
        self.iter_cost = iter_cost    # header + body cost per iteration
        self.total_cost = None if trip is None \
            else trip * iter_cost + header_cost
        self.accesses = accesses      # list[_VecAccess], program order
        self.exit_cond = exit_cond    # the header ICmp

    @property
    def trip_bound(self):
        """Largest trip count a kernel invocation can see (used by the
        static magnitude and alias proofs)."""
        return self.trip if self.trip is not None else _MAX_VEC_TRIP


def _header_shape(loop, cfg):
    """Canonical counted-loop header: phis, one ICmp, a CondBr on it,
    exactly one in-loop and one out-of-loop successor, and the header as
    the loop's only exiting block. Returns (icmp, body_entry, exit_block)
    or None."""
    header = loop.header
    instructions = header.instructions
    icmp = None
    for position, instruction in enumerate(instructions):
        if isinstance(instruction, Phi):
            if icmp is not None:
                return None
            continue
        if isinstance(instruction, ICmp):
            if icmp is not None or position != len(instructions) - 2:
                return None
            icmp = instruction
            continue
        if isinstance(instruction, CondBr):
            if icmp is None or instruction.condition is not icmp:
                return None
            continue
        return None
    if icmp is None or not isinstance(header.terminator, CondBr):
        return None
    inside = [s for s in header.terminator.successors() if s in loop.blocks]
    outside = [s for s in header.terminator.successors() if s not in loop.blocks]
    if len(inside) != 1 or len(outside) != 1:
        return None
    if set(loop.exiting_blocks(cfg)) != {header}:
        return None
    return icmp, inside[0], outside[0]


def _body_chain(loop, body_entry, latch):
    """The body as a straight line of Br-terminated blocks from the
    header's in-loop successor down to the latch, covering the whole
    loop. Returns the ordered block list or None."""
    header = loop.header
    chain = []
    seen = set()
    block = body_entry
    while True:
        if block is header or id(block) in seen:
            return None
        seen.add(id(block))
        chain.append(block)
        terminator = block.terminator
        if not isinstance(terminator, Br):
            return None
        if block is latch:
            if terminator.target is not header:
                return None
            break
        block = terminator.target
        if block not in loop.blocks:
            return None
    if set(chain) | {header} != loop.blocks:
        return None
    return chain


def _scan_ops(chain):
    """Structural screen of the body: no phis, no allocas, calls only to
    whitelisted pure intrinsics, and every op within the dual-helper
    table. Returns a BAIL_* reason or None."""
    for block in chain:
        for instruction in block.instructions:
            if isinstance(instruction, Phi):
                return BAIL_CFG
            if isinstance(instruction, Call):
                callee = instruction.callee
                if not callee.is_intrinsic:
                    return BAIL_CALL
                info = callee.intrinsic
                if callee.name not in _VEC_INTRINSICS or info.global_state \
                        or info.reads_memory or info.writes_memory:
                    return BAIL_CALL
                continue
            if isinstance(instruction, Alloca):
                return BAIL_OP
            if isinstance(instruction, BinaryOp):
                opcode = instruction.opcode
                type_ = instruction.type
                if type_.is_float:
                    if opcode not in ("fadd", "fsub", "fmul", "fdiv"):
                        return BAIL_OP
                elif type_.is_integer:
                    if type_.width not in (1, 32):
                        return BAIL_OP
                    if opcode in ("sdiv", "srem", "udiv", "urem"):
                        if type_.width != 32:
                            return BAIL_OP
                    elif opcode not in ("add", "sub", "mul", "and", "or",
                                        "xor", "shl", "ashr", "lshr"):
                        return BAIL_OP
                else:
                    return BAIL_OP
                for operand in (instruction.lhs, instruction.rhs):
                    if isinstance(operand, ConstantFloat) \
                            and not _math.isfinite(operand.value):
                        return BAIL_OP
            elif isinstance(instruction, ICmp):
                if instruction.predicate not in _ICMP:
                    return BAIL_OP
            elif isinstance(instruction, FCmp):
                if instruction.predicate not in _FCMP:
                    return BAIL_OP
                for operand in (instruction.lhs, instruction.rhs):
                    if isinstance(operand, ConstantFloat) \
                            and not _math.isfinite(operand.value):
                        return BAIL_OP
            elif isinstance(instruction, Cast):
                if instruction.opcode not in ("sitofp", "fptosi", "zext",
                                              "trunc"):
                    return BAIL_OP
            elif isinstance(instruction, Select):
                for operand in (instruction.true_value,
                                instruction.false_value):
                    if isinstance(operand, ConstantFloat) \
                            and not _math.isfinite(operand.value):
                        return BAIL_OP
            elif isinstance(instruction, (Load, Store, GEP, Br)):
                pass
            else:
                return BAIL_OP
    return None


def _plan_pattern_ok(loop, plan, preheader, latch, exit_block):
    """The instrumented kernel reproduces exactly the canonical event
    pattern (one enter, one iter per trip, one exit, no latch-value
    shipping); anything else on the loop's edges means the plan wants
    events the closed form does not produce."""
    header = loop.header
    if plan is None:
        return False
    if plan.edge_actions.get((id(preheader), id(header))) != \
            [("enter", loop.loop_id)]:
        return False
    if plan.edge_actions.get((id(latch), id(header))) != \
            [("iter", loop.loop_id)]:
        return False
    if plan.edge_actions.get((id(header), id(exit_block))) != \
            [("exit", loop.loop_id)]:
        return False
    if plan.latch_values.get((id(latch), id(header))):
        return False
    return True


def _has_lcd_hooks(loop, plan):
    if plan is None:
        return False
    for block in loop.blocks:
        for instruction in block.instructions:
            key = id(instruction)
            if plan.def_hooks.get(key) or plan.use_hooks.get(key) \
                    or plan.call_use_hooks.get(key):
                return True
    return False


def _iv_chain_ok(value, loop, header):
    """Whether SCEV's constant step for a header phi is trustworthy at
    runtime: every operation between the phi(s) and the latch value must
    be ring-congruent mod 2**32 (add/sub/mul/shl, GEP address math, zext)
    over canonical values — then SCEV's exactly-folded recurrence equals
    the wrapped runtime sequence. A ``trunc`` (which SCEV looks through)
    or any opaque op poisons the chain."""
    work = [value]
    seen = set()
    while work:
        v = work.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, (ConstantInt, Argument, GlobalVariable)):
            continue
        if isinstance(v, Phi):
            if v.parent is header:
                continue  # mutual induction: every header phi is checked
            return False
        if not isinstance(v, Instruction):
            return False
        if v.parent not in loop.blocks:
            continue  # loop-invariant: read once from its register
        if isinstance(v, BinaryOp):
            if v.opcode not in ("add", "sub", "mul", "shl"):
                return False
            work.append(v.lhs)
            work.append(v.rhs)
            continue
        if isinstance(v, GEP):
            work.append(v.pointer)
            work.extend(v.indices)
            continue
        if isinstance(v, Cast) and v.opcode == "zext":
            work.append(v.value)
            continue
        return False
    return True


def _controlling_recurrence(icmp, header, scev, loop, const_start=True):
    """Find the icmp operand that is this loop's counted IV: a header phi
    whose SCEV is a constant-step AddRec of this loop (with a constant
    start too when ``const_start``). Returns (phi, addrec, bound_operand)
    or None."""
    for side, other in ((icmp.lhs, icmp.rhs), (icmp.rhs, icmp.lhs)):
        if not (isinstance(side, Phi) and side.parent is header):
            continue
        rec = scev.get(side)
        if (isinstance(rec, SCEVAddRec) and rec.loop is loop
                and isinstance(rec.step, SCEVConstant)
                and (not const_start or isinstance(rec.start, SCEVConstant))):
            return side, rec, other
    return None


def _trip_exact(icmp, header, preheader, scev, loop, trip):
    """Whether the static trip count provably equals the runtime first
    exit. SCEV folds constants exactly and looks through truncs, so the
    static count is only trusted when the bound compare is pure 32-bit
    with *literal* endpoints and the whole IV range [start, start+step*trip]
    stays inside i32 — then the runtime sequence is monotonic, unwrapped,
    and mathematically identical to SCEV's model."""
    if not (icmp.lhs.type.is_integer and icmp.lhs.type.width == 32
            and icmp.rhs.type.is_integer and icmp.rhs.type.width == 32):
        return False
    found = _controlling_recurrence(icmp, header, scev, loop)
    if found is None:
        return False
    phi, rec, bound = found
    if not isinstance(bound, ConstantInt):
        return False
    start_in = phi.incoming_for_block(preheader)
    if not isinstance(start_in, ConstantInt):
        return False
    start, step = rec.start.value, rec.step.value
    if start_in.value != start:
        return False
    if not (abs(start) < _WRAP_LIMIT and abs(step) < _WRAP_LIMIT
            and abs(bound.value) < _WRAP_LIMIT
            and abs(start + step * trip) < _WRAP_LIMIT):
        return False
    return True


#: Predicate seen from the phi's side when the IV sits on the icmp's rhs.
_PRED_SWAPPED = {"slt": "sgt", "sle": "sge", "sgt": "slt", "sge": "sle"}


def _trip_runtime(icmp, header, preheader, scev, loop):
    """Runtime-computable first-exit trip count for a counted loop whose
    start/bound are loop-invariant but not literal: ``while i <pred> B``
    with an i32 IV of constant nonzero step marching *toward* the bound.
    The emitted section computes ``trip`` from the live start and bound
    registers (canonical i32 by the runtime invariant) and guards that
    the final IV value ``start + step*trip`` still fits i32 — then the
    scalar sequence is monotonic and unwrapped up to the first exit, so
    the closed form is exact. Returns ``(start_value, bound_value, step,
    inclusive)`` or None."""
    if not (icmp.lhs.type.is_integer and icmp.lhs.type.width == 32
            and icmp.rhs.type.is_integer and icmp.rhs.type.width == 32):
        return None
    found = _controlling_recurrence(icmp, header, scev, loop,
                                    const_start=False)
    if found is None:
        return None
    phi, rec, bound = found
    predicate = icmp.predicate
    if phi is icmp.rhs:
        predicate = _PRED_SWAPPED.get(predicate)
    if predicate not in _PRED_SWAPPED:  # eq/ne or unsigned
        return None
    step = rec.step.value
    if step == 0 or abs(step) >= _WRAP_LIMIT:
        return None
    if (step > 0) != (predicate in ("slt", "sle")):
        return None  # IV marches away from the bound: 0 or wrap-bounded
    if isinstance(bound, Instruction) and bound.parent in loop.blocks:
        return None  # loop-variant bound
    start = phi.incoming_for_block(preheader)
    return start, bound, step, predicate in ("sle", "sge")


def _phi_step(phi, scev, loop):
    """Constant per-iteration step of a header phi, or None when the phi
    is not a small-step affine recurrence of this loop (or its type is
    outside the kernel's int32/pointer model)."""
    type_ = phi.type
    if not (type_.is_pointer or (type_.is_integer and type_.width == 32)):
        return None
    rec = scev.get(phi)
    if not (isinstance(rec, SCEVAddRec) and rec.loop is loop
            and isinstance(rec.step, SCEVConstant)):
        return None
    step = rec.step.value
    if abs(step) >= _WRAP_LIMIT:
        return None
    return step


def _operand_bound(value, bounds):
    """Static magnitude bound of an operand feeding kernel arithmetic."""
    known = bounds.get(id(value))
    if known is not None:
        return known
    if isinstance(value, ConstantInt):
        return abs(value.value)
    if isinstance(value, ConstantFloat):
        return 0
    type_ = getattr(value, "type", None)
    if type_ is None:
        return _MAG_LIMIT * 4
    if type_.is_float:
        return 0
    if type_.is_pointer:
        return _ADDR_BOUND
    if type_.is_integer:
        if type_.width == 32:
            return _WRAP_LIMIT  # runtime i32 values are always canonical
        if type_.width == 1:
            return 2
    return _MAG_LIMIT * 4  # unknown width: poison any arithmetic using it


def _magnitudes_ok(vec_plan):
    """Prove every kernel intermediate stays strictly inside int64 (with
    ``_vw`` headroom), so NumPy's fixed-width arithmetic agrees with the
    scalar tiers' arbitrary-precision Python ints. Gathers contribute
    canonical-i32 bounds (enforced at runtime by ``_vgathi``), IV vectors
    contribute start+step*trip extents, and each op's inputs are checked
    against the 2**62 headroom limit."""
    bounds = {}
    for phi in vec_plan.phis:
        step = vec_plan.phi_steps[id(phi)]
        if phi.type.is_pointer:
            bounds[id(phi)] = _ADDR_BOUND + abs(step) * vec_plan.trip_bound
        else:
            bounds[id(phi)] = _WRAP_LIMIT
    for block in vec_plan.chain:
        for instruction in block.instructions:
            if isinstance(instruction, Br):
                continue
            if isinstance(instruction, Load):
                if _operand_bound(instruction.pointer, bounds) >= _MAG_LIMIT:
                    return False
                bounds[id(instruction)] = 0 if instruction.type.is_float \
                    else _WRAP_LIMIT
                continue
            if isinstance(instruction, Store):
                if _operand_bound(instruction.pointer, bounds) >= _MAG_LIMIT:
                    return False
                if _operand_bound(instruction.value, bounds) >= _MAG_LIMIT:
                    return False
                continue
            if isinstance(instruction, GEP):
                total = _operand_bound(instruction.pointer, bounds)
                element = instruction.pointer.type.pointee
                for index in instruction.indices:
                    if element.is_array:
                        scale = element.element.size_in_slots()
                        element = element.element
                    else:
                        scale = element.size_in_slots()
                    total += scale * _operand_bound(index, bounds)
                if total >= _MAG_LIMIT:
                    return False
                bounds[id(instruction)] = total
                continue
            if isinstance(instruction, Call):
                # Whitelisted intrinsics only (screened by _scan_ops);
                # every one returns a canonical i32 or a float, and the
                # hash lowering is exact as long as its int64 input is.
                for argument in instruction.args:
                    if _operand_bound(argument, bounds) >= _MAG_LIMIT:
                        return False
                bounds[id(instruction)] = 0 if instruction.type.is_float \
                    else _WRAP_LIMIT
                continue
            if isinstance(instruction, BinaryOp):
                a = _operand_bound(instruction.lhs, bounds)
                b = _operand_bound(instruction.rhs, bounds)
                opcode = instruction.opcode
                type_ = instruction.type
                if type_.is_float:
                    bounds[id(instruction)] = 0
                    continue
                if opcode in ("add", "sub"):
                    peak, out = a + b, a + b
                elif opcode == "mul":
                    peak, out = a * b, a * b
                elif opcode == "shl":
                    shift = 31 if type_.width == 32 else 1
                    peak = out = a * (1 << shift)
                elif opcode in ("and", "or", "xor"):
                    peak = out = 2 * max(a, b)
                elif opcode == "ashr":
                    peak, out = a, a
                elif opcode == "lshr":
                    peak, out = max(a, 1 << 33), _WRAP_LIMIT
                else:  # sdiv/srem/udiv/urem at width 32
                    peak, out = max(a, b), _WRAP_LIMIT
                if peak >= _MAG_LIMIT:
                    return False
                if type_.width == 32 and opcode in ("add", "sub", "mul",
                                                    "shl", "lshr"):
                    out = _WRAP_LIMIT  # _vw re-canonicalizes
                bounds[id(instruction)] = out
                continue
            if isinstance(instruction, (ICmp, FCmp)):
                a = _operand_bound(instruction.lhs, bounds)
                b = _operand_bound(instruction.rhs, bounds)
                if max(a, b) >= _MAG_LIMIT:
                    return False
                bounds[id(instruction)] = 2
                continue
            if isinstance(instruction, Select):
                bounds[id(instruction)] = max(
                    _operand_bound(instruction.true_value, bounds),
                    _operand_bound(instruction.false_value, bounds),
                )
                if bounds[id(instruction)] >= _MAG_LIMIT:
                    return False
                continue
            if isinstance(instruction, Cast):
                a = _operand_bound(instruction.value, bounds)
                opcode = instruction.opcode
                if opcode == "sitofp":
                    if a >= _MAG_LIMIT:
                        return False
                    bounds[id(instruction)] = 0
                elif opcode == "fptosi":
                    bounds[id(instruction)] = _WRAP_LIMIT  # helper guards
                elif opcode == "zext":
                    bounds[id(instruction)] = a
                else:  # trunc
                    width = instruction.type.width
                    bounds[id(instruction)] = 1 << max(0, width - 1)
                continue
    return True


def _intra_alias(dep, footprints, first, second, trip):
    """Whether the gather-everything/scatter-everything reordering is
    unsafe for one (store, later access) pair *within* an iteration.
    Cross-iteration overlaps are already excluded by the DOALL verdict;
    this closes the same-iteration cases the verdict says nothing about.
    Returns a BAIL_* reason or None."""
    verdict = dep._alias(first, second)
    if verdict == "no":
        return None
    if verdict == "may":
        return BAIL_ALIAS
    fp1 = footprints[id(first.instruction)]
    fp2 = footprints[id(second.instruction)]
    if fp1.terms != fp2.terms:
        return BAIL_ALIAS  # symbolic parts differ: cannot compare offsets
    s1, c1 = fp1.stride, fp1.const
    s2, c2 = fp2.stride, fp2.const
    if s1 == s2:
        if c1 == c2:
            # Same cell every iteration. A later load would need store
            # forwarding; a later store is fine (scatters run in program
            # order, so the last write wins either way).
            return BAIL_ALIAS if not second.is_write else None
        return None  # constant nonzero gap: never equal in one iteration
    if (c2 - c1) % (s1 - s2) == 0:
        k = (c2 - c1) // (s1 - s2)
        if 0 <= k < trip:
            return BAIL_ALIAS
    return None


def _plan_loop(loop, cfg, scev, dep, plan, instrumented):
    """Plan one innermost loop. Returns (VecLoopPlan, None) on success or
    (None, BAIL_*) — each check ordered so every reason stays reachable
    (and unit-testable) behind the previous ones."""
    if _np is None:
        return None, BAIL_NUMPY
    if loop.subloops:
        return None, BAIL_INNER
    preheader = loop.preheader(cfg)
    latch = loop.single_latch()
    if latch is None and loop.latches:
        # Distinct from "not simplified": loop-simplify cannot merge
        # multiple backedges, so this is a terminal classification the
        # census must report (not silently fold into a generic bail).
        return None, BAIL_MULTI_LATCH
    if preheader is None or latch is None \
            or not isinstance(preheader.terminator, Br):
        return None, BAIL_NOT_SIMPLIFIED
    header = loop.header
    if latch is header:
        return None, BAIL_HEADER  # body work inside the header block
    shape = _header_shape(loop, cfg)
    if shape is None:
        return None, BAIL_HEADER
    icmp, body_entry, exit_block = shape
    chain = _body_chain(loop, body_entry, latch)
    if chain is None:
        return None, BAIL_CFG
    reason = _scan_ops(chain)
    if reason is not None:
        return None, reason
    if instrumented:
        if not _plan_pattern_ok(loop, plan, preheader, latch, exit_block):
            return None, BAIL_INSTR
        if _has_lcd_hooks(loop, plan):
            return None, BAIL_HOOKS
    trip = scev.trip_count(loop)
    trip_runtime = None
    if trip is not None and not 1 <= trip <= _MAX_VEC_TRIP:
        return None, BAIL_TRIP_SIZE
    if trip is None or not _trip_exact(icmp, header, preheader, scev, loop,
                                       trip):
        had_static = trip is not None
        trip_runtime = _trip_runtime(icmp, header, preheader, scev, loop)
        if trip_runtime is None:
            return None, BAIL_TRIP_WRAP if had_static else BAIL_TRIP
        trip = None  # the section computes (and guards) the trip itself

    phis = list(header.phis())
    phi_steps = {}
    for phi in phis:
        step = _phi_step(phi, scev, loop)
        if step is None:
            return None, BAIL_IV
        if not _iv_chain_ok(phi.incoming_for_block(latch), loop, header):
            return None, BAIL_IV
        phi_steps[id(phi)] = step

    header_cost = len(header.instructions)
    iter_cost = header_cost
    accesses = []
    footprints = {}
    offset = header_cost
    for block in chain:
        # Intrinsic calls cost 1 + extra; the scalar JIT adds the extra to
        # _cost mid-block, so it shifts the *next* blocks' event bases but
        # not this block's (events are stamped `_base + position`).
        extras = 0
        for position, instruction in enumerate(block.instructions):
            if isinstance(instruction, Call):
                extras += max(0, instruction.callee.intrinsic.cost - 1)
                continue
            if not isinstance(instruction, (Load, Store)):
                continue
            fp = dep._footprint(instruction.pointer, loop, block)
            if fp is None or not fp.exact:
                return None, BAIL_ACCESS
            base = _trace_to_base(instruction.pointer)
            if not isinstance(base, (GlobalVariable, Alloca, Argument)):
                return None, BAIL_ACCESS
            is_write = isinstance(instruction, Store)
            if is_write and fp.stride == 0 and (trip is None or trip > 1):
                # Guaranteed loop-carried WAW; the verdict check below
                # would also catch it, but never let it near a kernel.
                return None, BAIL_ACCESS
            is_float = (instruction.value.type.is_float if is_write
                        else instruction.type.is_float)
            accesses.append(_VecAccess(
                instruction, is_write, offset + position, fp.stride, base,
                is_float,
            ))
            footprints[id(instruction)] = fp
        offset += len(block.instructions) + extras
        iter_cost += len(block.instructions) + extras

    vec_plan = VecLoopPlan(
        loop, preheader, header, latch, exit_block, chain, phis, phi_steps,
        trip, trip_runtime, header_cost, iter_cost, accesses, icmp,
    )
    if not _magnitudes_ok(vec_plan):
        return None, BAIL_OP
    for index, access in enumerate(accesses):
        if not access.is_write:
            continue
        for later in accesses[index + 1:]:
            reason = _intra_alias(dep, footprints, access, later,
                                  vec_plan.trip_bound)
            if reason is not None:
                return None, reason
    if dep.loop_verdict(loop).verdict != VERDICT_DOALL:
        return None, BAIL_VERDICT
    return vec_plan, None


def plan_vector_loops(function, plan, instrumented):
    """Plan every innermost loop of ``function``. Returns
    ``(kernels, decisions)`` where kernels maps ``id(preheader)`` to its
    :class:`VecLoopPlan` (the emitter's hook point is the preheader's
    branch) and decisions is one record per innermost loop."""
    loop_info = LoopInfo(function)
    kernels = {}
    decisions = []
    loops = [
        loop for loop in loop_info.loops_in_postorder() if not loop.subloops
    ]
    if not loops:
        return kernels, decisions
    scev = ScalarEvolution(function, loop_info)
    # Memory summaries make calls transparent to the verdict (pure
    # intrinsics contribute nothing), matching analyze_module's setup so
    # the kernel's DOALL gate is the same verdict the crosscheck audits.
    dep = DependenceAnalysis(
        function, loop_info=loop_info, scev=scev,
        summaries=module_memory_summaries(function.module),
    )
    for loop in loops:
        vec_plan, reason = _plan_loop(
            loop, loop_info.cfg, scev, dep, plan, instrumented
        )
        if vec_plan is not None:
            kernels[id(vec_plan.preheader)] = vec_plan
            decisions.append({
                "loop_id": loop.loop_id,
                "status": "vectorized",
                "reason": None,
                "trip": "runtime" if vec_plan.trip is None else vec_plan.trip,
            })
        else:
            decisions.append({
                "loop_id": loop.loop_id,
                "status": "bailout",
                "reason": reason,
                "trip": None,
            })
    return kernels, decisions


def vector_decisions(module, instrumentation=None):
    """Per-loop vectorizer decisions for a whole module, as the
    instrumented tier would make them (the tier every figure runs on)."""
    if instrumentation is None:
        from ..core.instrument import build_instrumentation
        from ..core.static_info import ModuleStaticInfo

        instrumentation = build_instrumentation(ModuleStaticInfo(module))
    decisions = []
    for function in module.defined_functions():
        _, function_decisions = plan_vector_loops(
            function, instrumentation.get(function.name), True
        )
        decisions.extend(function_decisions)
    return decisions


def summarize_vec_decisions(decisions):
    """Aggregate per-loop decisions into the compact shape recorded in run
    manifests: totals plus a bailout-reason histogram."""
    summary = {
        "loops": len(decisions),
        "vectorized": 0,
        "static_trip": 0,
        "runtime_trip": 0,
        "bailouts": {},
    }
    for decision in decisions:
        if decision["status"] == "vectorized":
            summary["vectorized"] += 1
            key = (
                "runtime_trip" if decision["trip"] == "runtime"
                else "static_trip"
            )
            summary[key] += 1
        else:
            reason = decision["reason"]
            summary["bailouts"][reason] = (
                summary["bailouts"].get(reason, 0) + 1
            )
    return summary


# -- emission -----------------------------------------------------------------


def _c(value):
    """Literal int, parenthesized when negative (expression context)."""
    return f"({value})" if value < 0 else str(value)


class _VecEmitter:
    """Lowers one :class:`VecLoopPlan` to source lines inside the scalar
    emitter's preheader arm. Uses the scalar emitter for out-of-loop
    operands (registers, constants, globals) so invariants are read from
    the very same locals the scalar path would use."""

    def __init__(self, emitter, vec_plan):
        self.em = emitter
        self.vec = vec_plan
        self.names = {}       # id(value) -> kernel local
        self.counter = 0
        # A body use of the header compare always sees its "continue"
        # value: the body only runs on iterations the compare let through.
        header_br = vec_plan.header.terminator
        self.names[id(vec_plan.exit_cond)] = (
            "1" if header_br.then_block in vec_plan.loop.blocks else "0"
        )

    def _name(self, value):
        name = f"_vv{self.counter}"
        self.counter += 1
        self.names[id(value)] = name
        return name

    def expr(self, value):
        name = self.names.get(id(value))
        if name is not None:
            return name
        return self.em.expr(value)

    # -- pieces ---------------------------------------------------------------

    def phi_lines(self):
        out = []
        vec = self.vec
        for phi in vec.phis:
            step = vec.phi_steps[id(phi)]
            start = self.em.expr(phi.incoming_for_block(vec.preheader))
            name = self._name(phi)
            if step == 0:
                out.append(f"{name} = {start}")
            elif phi.type.is_pointer:
                out.append(f"{name} = {start} + {_c(step)} * _vi")
            elif step == 1:
                out.append(f"{name} = _vw({start} + _vi)")
            else:
                out.append(f"{name} = _vw({start} + {_c(step)} * _vi)")
        return out

    def body_lines(self):
        """Kernel computation in program order: gathers and store address
        pre-checks inside the guarded region; nothing here mutates any
        machine state."""
        out = []
        vec = self.vec
        strides = {id(a.instruction): a for a in vec.accesses}
        store_index = 0
        for block in vec.chain:
            for instruction in block.instructions:
                if isinstance(instruction, Br):
                    continue
                if isinstance(instruction, Store):
                    access = strides[id(instruction)]
                    pointer = self.expr(instruction.pointer)
                    out.append(
                        f"_vsb{store_index} = _vpre(_space, {pointer}, "
                        f"{_c(access.stride)}, _vn)"
                    )
                    store_index += 1
                    continue
                out.append(self._op_line(instruction, strides))
        return out

    def _op_line(self, instruction, strides):
        expr = self.expr
        if isinstance(instruction, Load):
            access = strides[id(instruction)]
            dst = self._name(instruction)
            pointer = expr(instruction.pointer)
            if access.stride == 0:
                helper = "_vg0f" if access.is_float else "_vg0i"
                return f"{dst} = {helper}(_space, {pointer})"
            helper = "_vgathf" if access.is_float else "_vgathi"
            windows = "_vgf" if access.is_float else "_vgi"
            return (f"{dst} = {helper}(_space, {pointer}, "
                    f"{_c(access.stride)}, _vn, {windows})")
        if isinstance(instruction, Call):
            helper = _VEC_INTRINSICS[instruction.callee.name]
            args = ", ".join(expr(a) for a in instruction.args)
            return f"{self._name(instruction)} = {helper}({args})"
        if isinstance(instruction, BinaryOp):
            return f"{self._name(instruction)} = " \
                + self._binop(instruction)
        if isinstance(instruction, ICmp):
            operator = _ICMP[instruction.predicate]
            return (f"{self._name(instruction)} = _vb({expr(instruction.lhs)}"
                    f" {operator} {expr(instruction.rhs)})")
        if isinstance(instruction, FCmp):
            operator = _FCMP[instruction.predicate]
            return (f"{self._name(instruction)} = _vb({expr(instruction.lhs)}"
                    f" {operator} {expr(instruction.rhs)})")
        if isinstance(instruction, Select):
            return (f"{self._name(instruction)} = "
                    f"_vsel({expr(instruction.condition)}, "
                    f"{expr(instruction.true_value)}, "
                    f"{expr(instruction.false_value)})")
        if isinstance(instruction, GEP):
            terms = [expr(instruction.pointer)]
            element = instruction.pointer.type.pointee
            for index in instruction.indices:
                if element.is_array:
                    scale = element.element.size_in_slots()
                    element = element.element
                else:
                    scale = element.size_in_slots()
                index_expr = expr(index)
                terms.append(
                    index_expr if scale == 1 else f"{scale} * {index_expr}"
                )
            return f"{self._name(instruction)} = " + " + ".join(terms)
        if isinstance(instruction, Cast):
            value = expr(instruction.value)
            dst = self._name(instruction)
            opcode = instruction.opcode
            if opcode == "sitofp":
                return f"{dst} = _vf({value})"
            if opcode == "fptosi":
                return f"{dst} = _vfptosi({value})"
            if opcode == "zext":
                return f"{dst} = {value}"
            width = instruction.type.width
            if width == 1:
                return f"{dst} = {value} & 1"
            mask = (1 << width) - 1
            half = 1 << (width - 1)
            span = 1 << width
            return f"{dst} = _vtrunc({value}, {mask}, {half}, {span})"
        raise AssertionError(f"unplanned kernel op {instruction!r}")

    def _binop(self, instruction):
        a = self.expr(instruction.lhs)
        b = self.expr(instruction.rhs)
        opcode = instruction.opcode
        type_ = instruction.type
        if opcode in ("sdiv", "srem", "udiv", "urem"):
            helper = {"sdiv": "_vsdiv", "srem": "_vsrem",
                      "udiv": "_vudiv", "urem": "_vurem"}[opcode]
            return f"{helper}({a}, {b})"
        if opcode == "fdiv":
            return f"_vfdiv({a}, {b})"
        if opcode in ("fadd", "fsub", "fmul"):
            operator = {"fadd": "+", "fsub": "-", "fmul": "*"}[opcode]
            return f"{a} {operator} {b}"
        if type_.width == 32:
            if opcode == "add":
                return f"_vw({a} + {b})"
            if opcode == "sub":
                return f"_vw({a} - {b})"
            if opcode == "mul":
                return f"_vw({a} * {b})"
            if opcode in ("and", "or", "xor"):
                operator = {"and": "&", "or": "|", "xor": "^"}[opcode]
                return f"{a} {operator} {b}"
            if opcode == "shl":
                return f"_vw({a} << ({b} & 31))"
            if opcode == "ashr":
                return f"{a} >> ({b} & 31)"
            return f"_vw(({a} & 4294967295) >> ({b} & 31))"  # lshr
        # Width-1 (and the scalar tier's other non-32 widths): plain ops.
        width = type_.width
        if opcode == "lshr":
            mask = (1 << width) - 1
            return f"({a} & {mask}) >> ({b} & {width - 1})"
        operator = {"add": "+", "sub": "-", "mul": "*", "and": "&",
                    "or": "|", "xor": "^", "shl": "<<", "ashr": ">>"}[opcode]
        return f"{a} {operator} {b}"

    def commit_lines(self):
        """The success arm: scatters in program order, counters, closed
        forms for every live-out (header phis and the exit compare), the
        bulk profile delivery, and the jump to the exit block. Body
        values need no materialization — the header is the only exiting
        block, so no body instruction dominates (or is visible in) any
        block outside the loop."""
        vec = self.vec
        out = []
        store_index = 0
        for access in vec.accesses:
            if not access.is_write:
                continue
            value = self.expr(access.instruction.value)
            out.append(
                f"_vput(_space, _vsb{store_index}, {_c(access.stride)}, "
                f"_vn, {value})"
            )
            store_index += 1
        out.append(
            f"machine.vec_runs[{vec.loop_id!r}] = "
            f"machine.vec_runs.get({vec.loop_id!r}, 0) + 1"
        )
        out.extend(self.epilogue_lines())
        return out

    def epilogue_lines(self):
        """Loop-exit closed forms of the commit arm: header-phi final
        values, the exit compare, the bulk profile delivery, the fuel
        charge, and the jump to the exit block."""
        em = self.em
        vec = self.vec
        out = []
        for phi in vec.phis:
            step = vec.phi_steps[id(phi)]
            start = em.expr(phi.incoming_for_block(vec.preheader))
            register = em.reg[id(phi)]
            if step == 0:
                out.append(f"{register} = {start}")
            elif phi.type.is_pointer:
                out.append(f"{register} = {start} + {_c(step)} * _vn")
            else:
                out.append(
                    f"{register} = _vw({start} + {_c(step)} * _vn)"
                )
        icmp = vec.exit_cond
        operator = _ICMP[icmp.predicate]
        out.append(
            f"{em.reg[id(icmp)]} = 1 if {em.expr(icmp.lhs)} {operator} "
            f"{em.expr(icmp.rhs)} else 0"
        )
        if em.instrumented:
            tuples = ", ".join(
                f"({access.is_write!r}, {access.offset}, "
                f"{self._event_base(access)}, {_c(access.stride)})"
                for access in vec.accesses
            )
            out.append(
                f"_rt.vec_loop({vec.loop_id!r}, _cost, _vn, "
                f"{vec.iter_cost}, _vt, [{tuples}])"
            )
        out.append("_cost = _vt")
        out.extend(em._edge_lines(vec.header, vec.exit_block,
                                  skip_actions=True))
        out.append(f"_L = {em.labels[id(vec.exit_block)]}")
        out.append("continue")
        return out

    def _event_base(self, access):
        if access.is_write:
            index = sum(
                1 for other in self.vec.accesses
                if other.is_write and other.offset < access.offset
            )
            return f"_vsb{index}"
        return f"_vbase({self.expr(access.instruction.pointer)})"


def emit_trip_prologue(emitter, vec_plan):
    """``(lines, guard)`` binding ``_vn`` for one kernel section.

    A static trip count binds ``_vn`` to a literal (guard 0). A runtime
    trip count computes ``_vn`` from the live start/bound registers and
    opens a guard taken only when the count is in kernel range *and* the
    IV's final value still fits i32 — the no-wrap proof that makes the
    closed forms exact (see :func:`_trip_runtime`)."""
    lines = []
    guard = 0
    if vec_plan.trip is not None:
        lines.append((1, f"_vn = {vec_plan.trip}"))
    else:
        start, bound, step, inclusive = vec_plan.trip_runtime
        start_expr = emitter.expr(start)
        bound_expr = emitter.expr(bound)
        magnitude = abs(step)
        delta = (f"({bound_expr} - {start_expr})" if step > 0
                 else f"({start_expr} - {bound_expr})")
        if inclusive:
            trip_expr = f"{delta} // {magnitude} + 1"
        elif magnitude == 1:
            trip_expr = delta
        else:
            trip_expr = f"({delta} + {magnitude - 1}) // {magnitude}"
        lines.append((1, f"_vn = {trip_expr}"))
        lines.append((1, f"if 1 <= _vn <= {_MAX_VEC_TRIP} and "
                         f"-2147483648 <= {start_expr} + {_c(step)} * _vn "
                         f"< 2147483648:"))
        guard = 1
    return lines, guard


def emit_vec_section(emitter, vec_plan):
    """Source lines (indent, text) for one vector section, planted at the
    top of the preheader's Br arm; indentation is relative to the arm
    body. Falling out of the guards/``except`` continues into the
    untouched scalar edge code, so every bail is a plain slow path."""
    section = _VecEmitter(emitter, vec_plan)
    if vec_plan.accesses:
        emitter.needs.add("space")
    lines, guard = emit_trip_prologue(emitter, vec_plan)
    lines.append((guard + 1, f"_vt = _cost + _vn * {vec_plan.iter_cost} "
                             f"+ {vec_plan.header_cost}"))
    lines.append((guard + 1, "if _vt <= _fuel:"))
    lines.append((guard + 2, "try:"))
    lines.append((guard + 3, "with _np.errstate(all='ignore'):"))
    lines.append((guard + 4, "_vi = _np.arange(_vn, dtype=_np.int64)"))
    lines.append((guard + 4, "_vgf = []; _vgi = []"))
    for text in section.phi_lines():
        lines.append((guard + 4, text))
    for text in section.body_lines():
        lines.append((guard + 4, text))
    lines.append((guard + 2, "except (_VBail, OverflowError, ValueError, "
                             "ZeroDivisionError, TypeError):"))
    lines.append((guard + 3,
                  f"machine.vec_bailouts[{vec_plan.loop_id!r}] = "
                  f"machine.vec_bailouts.get({vec_plan.loop_id!r}, 0) + 1"))
    lines.append((guard + 2, "else:"))
    for text in section.commit_lines():
        lines.append((guard + 3, text))
    return lines
