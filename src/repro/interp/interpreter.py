"""The IR interpreter — Loopapalooza's execution substrate.

Executes a verified module, counting **dynamic IR instructions** as the time
metric (the paper's §III-D choice: "LP always takes the dynamic LLVM IR
instruction count as the approximation of execution time"). Cost is charged
per basic block, matching the paper's hard-coded per-block callbacks; events
within a block carry ``block_base + position`` timestamps.

Three execution backends share this module's semantics:

* ``vec`` (the default) — the template JIT below, plus whole-loop NumPy
  kernels for loops the static dependence engine proves STATIC_DOALL
  (see :mod:`repro.interp.veccodegen`). Disabled with ``REPRO_NO_VEC=1``.
* ``jit`` — each function is lowered to straight-line Python source by
  :mod:`repro.interp.codegen`, ``compile()``d once, and executed as a
  native code object (see docs/internals.md, "Codegen backend").
* ``closure`` — each function is pre-compiled to closures once (operand
  access resolved to register indices), interpreted by a tight dispatch
  loop. Selected with ``backend="closure"`` or ``REPRO_NO_JIT=1``.

All backends charge fuel identically (per block, at block entry) and
produce byte-identical profiles (enforced by
``tests/test_differential_backends.py``). An optional
:class:`FunctionInstrumentation` plan per function injects the Loopapalooza
callbacks:

* loop entry / iteration / exit on the corresponding CFG edges,
* memory read/write events with timestamps,
* register-LCD tracking: the latch value of each tracked header phi, the
  timestamp of its producing definition, and the first in-iteration use.

The runtime object (see :mod:`repro.runtime.recorder`) receives these events
and builds the execution profile.
"""

from __future__ import annotations

import sys

from ..errors import FuelExhausted, InterpError, TrapError
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
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.values import ConstantFloat, ConstantInt, GlobalVariable
from ..settings import current
from .memory import AddressSpace

_MASK32 = 0xFFFFFFFF
_SIGN32 = 0x80000000


def _wrap32(value):
    value &= _MASK32
    return value - 0x100000000 if value & _SIGN32 else value


def backend_from_env():
    """The default execution backend per ``REPRO_NO_JIT``/``REPRO_NO_VEC``
    (see :attr:`repro.settings.Settings.backend`)."""
    return current().backend


# -- shared division semantics (both backends) ----------------------------------
#
# C/LLVM truncating division over two's-complement bit patterns. The one
# hardware edge the obvious Python spellings get wrong is INT_MIN / -1: the
# mathematical quotient 2**31 is unrepresentable, and 32-bit hardware wraps
# it back to INT_MIN (with a remainder of 0) rather than trapping.


def signed_div(a, b, width=32):
    """``sdiv``: truncate toward zero, wrap the quotient to ``width`` bits
    (so ``INT_MIN / -1 == INT_MIN``); a zero divisor traps."""
    if b == 0:
        raise TrapError("integer division by zero")
    q = -(-a // b) if (a < 0) != (b < 0) else a // b
    span = 1 << width
    q &= span - 1
    return q - span if q & (span >> 1) else q


def signed_rem(a, b, width=32):
    """``srem``: remainder of the truncating division (sign follows the
    dividend; ``INT_MIN % -1 == 0``); a zero divisor traps."""
    if b == 0:
        raise TrapError("integer remainder by zero")
    q = -(-a // b) if (a < 0) != (b < 0) else a // b
    return a - q * b


def unsigned_div(a, b, width=32):
    """``udiv`` over the unsigned views of the bit patterns."""
    mask = (1 << width) - 1
    divisor = b & mask
    if divisor == 0:
        raise TrapError("integer division by zero")
    value = (a & mask) // divisor
    return _wrap32(value) if width == 32 else value


def unsigned_rem(a, b, width=32):
    """``urem`` over the unsigned views of the bit patterns."""
    mask = (1 << width) - 1
    divisor = b & mask
    if divisor == 0:
        raise TrapError("integer remainder by zero")
    value = (a & mask) % divisor
    return _wrap32(value) if width == 32 else value


_INT_OPS = {
    "add": lambda a, b: _wrap32(a + b),
    "sub": lambda a, b: _wrap32(a - b),
    "mul": lambda a, b: _wrap32(a * b),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: _wrap32(a << (b & 31)),
    "ashr": lambda a, b: a >> (b & 31),
    # Logical shift right: the unsigned view of the 32-bit pattern shifted,
    # reinterpreted as signed (matches LLVM's lshr on i32; shift amounts
    # masked to the width like shl/ashr above).
    "lshr": lambda a, b: _wrap32((a & _MASK32) >> (b & 31)),
}

# udiv/urem are handled as special cases alongside sdiv/srem (they trap on a
# zero divisor, so they cannot live in the pure-function table above).

_FLOAT_OPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
}

_ICMP_OPS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
}

_FCMP_OPS = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}


class FunctionInstrumentation:
    """Per-function callback plan consumed by the compiler.

    Attributes (all keyed by object ids of IR entities):

    * ``edge_actions`` — ``{(id(pred), id(succ)): [(kind, loop_id), ...]}``
      with kind in ``'enter' | 'iter' | 'exit'``, fired in list order.
    * ``latch_values`` — ``{(id(latch), id(header)): [(phi_key, value_ref)]}``
      where ``value_ref`` is the IR value entering the phi from the latch;
      its run-time value is shipped with the ``loop_iter`` event.
    * ``def_hooks`` — ``{id(value): [(loop_id, phi_key)]}``: when the value is
      (re)computed, report the timestamp as the LCD's producer definition.
    * ``use_hooks`` — ``{id(instruction): [(loop_id, phi_key)]}``: when the
      instruction executes, report a consumer use of the LCD.
    * ``call_sites`` — ``{id(call): site_id}``: user calls tracked for the
      call/continuation TLS estimator (start/end events).
    * ``call_use_hooks`` — ``{id(instruction): [site_id]}``: the call's
      return value is consumed here (a continuation dependence).
    """

    def __init__(self):
        self.edge_actions = {}
        self.latch_values = {}
        self.def_hooks = {}
        self.use_hooks = {}
        # Function-call/continuation TLS (paper §I extension):
        self.call_sites = {}      # id(Call instr) -> site_id string
        self.call_use_hooks = {}  # id(instr) -> [site_id]: result consumed

    @property
    def is_empty(self):
        return not (
            self.edge_actions or self.latch_values
            or self.def_hooks or self.use_hooks or self.call_sites
        )


class _CompiledBlock:
    __slots__ = ("cost", "ops", "run", "phi_moves", "terminator")

    def __init__(self):
        self.cost = 0
        self.ops = []
        self.run = None       # fused closure over ops (None when no ops)
        self.phi_moves = {}   # id(pred) -> closure(machine, regs)
        self.terminator = None


def _fuse_ops(ops):
    """Fuse a block's op closures into one callable.

    The dispatch loop then makes a single call per block instead of
    iterating a list — small blocks (the common case after mem2reg) are
    specialized to straight-line calls with no loop at all.
    """
    if not ops:
        return None
    if len(ops) == 1:
        return ops[0]
    if len(ops) == 2:
        op0, op1 = ops

        def run2(machine, regs, base, op0=op0, op1=op1):
            op0(machine, regs, base)
            op1(machine, regs, base)
        return run2
    if len(ops) == 3:
        op0, op1, op2 = ops

        def run3(machine, regs, base, op0=op0, op1=op1, op2=op2):
            op0(machine, regs, base)
            op1(machine, regs, base)
            op2(machine, regs, base)
        return run3
    if len(ops) == 4:
        op0, op1, op2, op3 = ops

        def run4(machine, regs, base, op0=op0, op1=op1, op2=op2, op3=op3):
            op0(machine, regs, base)
            op1(machine, regs, base)
            op2(machine, regs, base)
            op3(machine, regs, base)
        return run4
    ops = tuple(ops)

    def run_many(machine, regs, base, ops=ops):
        for op in ops:
            op(machine, regs, base)
    return run_many


def _fn_binop(dst, lhs, rhs, fn):
    """``regs[dst] = fn(a, b)`` specialized on operand shapes (register
    index vs constant), eliminating the getter indirection per operand."""
    ls, rs = lhs.slot, rhs.slot
    if ls is not None and rs is not None:
        def op(machine, regs, base, dst=dst, ls=ls, rs=rs, fn=fn):
            regs[dst] = fn(regs[ls], regs[rs])
    elif ls is not None:
        rc = rhs.const

        def op(machine, regs, base, dst=dst, ls=ls, rc=rc, fn=fn):
            regs[dst] = fn(regs[ls], rc)
    elif rs is not None:
        lc = lhs.const

        def op(machine, regs, base, dst=dst, lc=lc, rs=rs, fn=fn):
            regs[dst] = fn(lc, regs[rs])
    else:
        lc, rc = lhs.const, rhs.const

        def op(machine, regs, base, dst=dst, lc=lc, rc=rc, fn=fn):
            regs[dst] = fn(lc, rc)
    return op


def _fn_cmp(dst, lhs, rhs, fn):
    """``regs[dst] = 1 if fn(a, b) else 0`` with the same operand-shape
    specialization as :func:`_fn_binop`."""
    ls, rs = lhs.slot, rhs.slot
    if ls is not None and rs is not None:
        def op(machine, regs, base, dst=dst, ls=ls, rs=rs, fn=fn):
            regs[dst] = 1 if fn(regs[ls], regs[rs]) else 0
    elif ls is not None:
        rc = rhs.const

        def op(machine, regs, base, dst=dst, ls=ls, rc=rc, fn=fn):
            regs[dst] = 1 if fn(regs[ls], rc) else 0
    elif rs is not None:
        lc = lhs.const

        def op(machine, regs, base, dst=dst, lc=lc, rs=rs, fn=fn):
            regs[dst] = 1 if fn(lc, regs[rs]) else 0
    else:
        lc, rc = lhs.const, rhs.const

        def op(machine, regs, base, dst=dst, lc=lc, rc=rc, fn=fn):
            regs[dst] = 1 if fn(lc, rc) else 0
    return op


def _inline_arith32(opcode, dst, lhs, rhs):
    """Fully inlined 32-bit add/sub/mul for the dominant operand shapes
    (loop counters and array indexing); ``None`` when not applicable."""
    ls, rs = lhs.slot, rhs.slot
    if ls is None:
        return None
    if opcode == "add":
        if rs is not None:
            def op(machine, regs, base, dst=dst, ls=ls, rs=rs):
                value = (regs[ls] + regs[rs]) & _MASK32
                regs[dst] = value - 0x100000000 if value & _SIGN32 else value
            return op
        rc = rhs.const

        def op(machine, regs, base, dst=dst, ls=ls, rc=rc):
            value = (regs[ls] + rc) & _MASK32
            regs[dst] = value - 0x100000000 if value & _SIGN32 else value
        return op
    if opcode == "sub":
        if rs is not None:
            def op(machine, regs, base, dst=dst, ls=ls, rs=rs):
                value = (regs[ls] - regs[rs]) & _MASK32
                regs[dst] = value - 0x100000000 if value & _SIGN32 else value
            return op
        rc = rhs.const

        def op(machine, regs, base, dst=dst, ls=ls, rc=rc):
            value = (regs[ls] - rc) & _MASK32
            regs[dst] = value - 0x100000000 if value & _SIGN32 else value
        return op
    if opcode == "mul":
        if rs is not None:
            def op(machine, regs, base, dst=dst, ls=ls, rs=rs):
                value = (regs[ls] * regs[rs]) & _MASK32
                regs[dst] = value - 0x100000000 if value & _SIGN32 else value
            return op
        rc = rhs.const

        def op(machine, regs, base, dst=dst, ls=ls, rc=rc):
            value = (regs[ls] * rc) & _MASK32
            regs[dst] = value - 0x100000000 if value & _SIGN32 else value
        return op
    return None


_RETURN = object()


class _CompiledFunction:
    __slots__ = ("function", "blocks", "entry_id", "num_regs", "arg_regs",
                 "edge_hooks", "latch_getters")

    def __init__(self, function):
        self.function = function
        self.blocks = {}
        self.entry_id = None
        self.num_regs = 0
        self.arg_regs = []
        self.edge_hooks = {}
        self.latch_getters = {}


class Interpreter:
    """Compiles and executes a module, firing runtime callbacks.

    Args:
        module: a verified IR module with a ``main`` function.
        runtime: optional Loopapalooza runtime receiving the events.
        instrumentation: optional ``{function_name: FunctionInstrumentation}``.
        fuel: dynamic IR instruction budget (guards runaway programs).
        backend: ``"vec"`` (vector-enabled template JIT, the default),
            ``"jit"`` (scalar template JIT), ``"closure"`` (PR 1 closure
            interpreter), or ``None`` to follow the ``REPRO_NO_VEC`` /
            ``REPRO_NO_JIT`` environment contract.
    """

    def __init__(self, module, runtime=None, instrumentation=None,
                 fuel=200_000_000, backend=None):
        if backend is None:
            backend = backend_from_env()
        if backend not in ("vec", "jit", "closure"):
            raise InterpError(
                f"unknown interpreter backend {backend!r} "
                "(choose 'vec', 'jit' or 'closure')"
            )
        self.module = module
        self.runtime = runtime
        self.instrumentation = instrumentation or {}
        self.fuel = fuel
        self.backend = backend
        self.space = AddressSpace()
        self.cost = 0
        self.output = []
        self.prng_state = 0x853C49E6748FEA9B
        self.input_cursor = 0
        self.global_bases = {}
        self._compiled = {}
        self._jit_entries = {}
        self._jit_failed = set()
        # Vector-tier observability: loop_id -> count of committed kernel
        # runs / of runtime-guard bailouts (kernel fell through to the
        # scalar path for that invocation).
        self.vec_runs = {}
        self.vec_bailouts = {}
        self._call_depth = 0
        # Per-block batch of (is_write, address, ts) memory events, flushed
        # to the runtime after each call-free block's ops (see _call).
        self._membuf = []
        for variable in module.globals.values():
            self.global_bases[variable.name] = self.space.add_global(variable)

    # -- public API ---------------------------------------------------------------

    def run(self, function_name="main", args=()):
        """Execute ``function_name`` and return its result."""
        function = self.module.get_function(function_name)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10_000))
        self._membuf.clear()  # a prior aborted run may have left events
        try:
            return self._call(function, list(args))
        finally:
            sys.setrecursionlimit(old_limit)

    # -- memory primitives (also used by intrinsic implementations) -------------

    def load_slot(self, address, ts=None):
        value = self.space.load(address)
        if self.runtime is not None:
            self.runtime.mem_read(address, self.cost if ts is None else ts)
        return value

    def store_slot(self, address, value, ts=None):
        self.space.store(address, value)
        if self.runtime is not None:
            self.runtime.mem_write(address, self.cost if ts is None else ts)

    def marks_for(self, address):
        return self.space.marks_for(address)

    # -- compilation ---------------------------------------------------------------

    def _compiled_for(self, function):
        compiled = self._compiled.get(function.name)
        if compiled is None:
            plan = self.instrumentation.get(function.name)
            compiled = self._compile_function(function, plan)
            self._compiled[function.name] = compiled
        return compiled

    def _compile_function(self, function, plan):
        compiled = _CompiledFunction(function)
        reg_index = {}

        def reg_for(value):
            key = id(value)
            slot = reg_index.get(key)
            if slot is None:
                slot = len(reg_index)
                reg_index[key] = slot
            return slot

        for argument in function.arguments:
            compiled.arg_regs.append(reg_for(argument))

        # First pass: assign registers to every value-producing instruction
        # so forward references (phis) resolve.
        for block in function.blocks:
            for instruction in block.instructions:
                if not instruction.type.is_void:
                    reg_for(instruction)

        def getter(value):
            """Return a closure fetching the operand's runtime value.

            The closure carries ``slot``/``const`` attributes (exactly one is
            non-``None``) so per-op compilers can inline the fetch — a
            register index or a constant — instead of calling through it.
            """
            if isinstance(value, (ConstantInt, ConstantFloat)):
                constant = value.value

                def get(regs, constant=constant):
                    return constant
                get.slot, get.const = None, constant
                return get
            if isinstance(value, GlobalVariable):
                base = self.global_bases[value.name]

                def get(regs, base=base):
                    return base
                get.slot, get.const = None, base
                return get
            from ..ir.function import Function as IRFunction

            if isinstance(value, IRFunction):
                raise InterpError("function values cannot be operands here")
            slot = reg_index[id(value)]

            def get(regs, slot=slot):
                return regs[slot]
            get.slot, get.const = slot, None
            return get

        for block in function.blocks:
            compiled_block = _CompiledBlock()
            compiled.blocks[id(block)] = compiled_block
            compiled_block.cost = len(block.instructions)
            # Memory events from a call-free block can be delivered to the
            # runtime in one batch after the block's ops: no call/loop/frame
            # event can interleave, so the runtime observes the same state it
            # would have per-event. Calls (including intrinsics, which may
            # emit their own memory events) and call-result-use hooks (which
            # race mem_read for the first-dependence timestamp) force
            # immediate emission.
            batch = self.runtime is not None and not any(
                isinstance(i, Call)
                or (plan is not None and plan.call_use_hooks.get(id(i)))
                for i in block.instructions
            )
            position = 0
            phis = []
            for instruction in block.instructions:
                if isinstance(instruction, Phi):
                    phis.append(instruction)
                    position += 1
                    continue
                if instruction.is_terminator:
                    terminator = self._compile_terminator(
                        instruction, getter, reg_index
                    )
                    if plan is not None:
                        use_entries = plan.use_hooks.get(id(instruction))
                        if use_entries:
                            terminator = self._wrap_terminator_uses(
                                terminator, use_entries, position
                            )
                    compiled_block.terminator = terminator
                else:
                    op = self._compile_op(
                        instruction, getter, reg_index, position, plan, batch
                    )
                    if op is not None:
                        compiled_block.ops.append(op)
                position += 1
            if compiled_block.terminator is None:
                raise InterpError(
                    f"block {block.name} in @{function.name} lacks a terminator"
                )
            compiled_block.run = _fuse_ops(compiled_block.ops)
            if phis:
                self._compile_phi_moves(
                    compiled_block, block, phis, getter, reg_index, plan
                )

        compiled.entry_id = id(function.entry_block)
        compiled.num_regs = len(reg_index)
        if plan is not None:
            compiled.edge_hooks = dict(plan.edge_actions)
            self._attach_latch_values(compiled, function, plan, getter)
        return compiled

    def _attach_latch_values(self, compiled, function, plan, getter):
        """Resolve latch-value references into reg getters, stored alongside
        the edge key for the dispatch loop to ship with ``loop_iter``."""
        resolved = {}
        for edge_key, specs in plan.latch_values.items():
            resolved[edge_key] = [
                (phi_key, getter(value_ref)) for phi_key, value_ref in specs
            ]
        compiled.latch_getters = resolved

    def _compile_phi_moves(self, compiled_block, block, phis, getter, reg_index, plan):
        """Parallel phi assignment per incoming edge (gather then scatter)."""
        predecessors = set()
        for phi in phis:
            predecessors.update(id(b) for b in phi.incoming_blocks)
        runtime = self  # machine reference for hooks
        for pred_id in predecessors:
            moves = []
            hooks = []
            for phi in phis:
                for value, pred in phi.incoming():
                    if id(pred) == pred_id:
                        moves.append((reg_index[id(phi)], getter(value)))
                        break
            if plan is not None:
                for phi in phis:
                    for entry in plan.def_hooks.get(id(phi), ()):
                        hooks.append(("def", entry, reg_index[id(phi)]))
                    for entry in plan.use_hooks.get(id(phi), ()):
                        hooks.append(("use", entry, reg_index[id(phi)]))
            if not hooks:
                if len(moves) == 1:
                    # One phi: no parallel-copy staging needed.
                    dst, get = moves[0]
                    src = get.slot
                    if src is not None:
                        def move(machine, regs, base, dst=dst, src=src):
                            regs[dst] = regs[src]
                    else:
                        constant = get.const

                        def move(machine, regs, base, dst=dst, constant=constant):
                            regs[dst] = constant
                    compiled_block.phi_moves[pred_id] = move
                    continue

                def move(machine, regs, base, moves=moves):
                    values = [get(regs) for _, get in moves]
                    for (dst, _), value in zip(moves, values):
                        regs[dst] = value
            else:
                def move(machine, regs, base, moves=moves, hooks=hooks):
                    values = [get(regs) for _, get in moves]
                    for (dst, _), value in zip(moves, values):
                        regs[dst] = value
                    rt = machine.runtime
                    if rt is not None:
                        for kind, (loop_id, phi_key), _ in hooks:
                            if kind == "def":
                                rt.lcd_def(loop_id, phi_key, machine.cost)
                            else:
                                rt.lcd_use(loop_id, phi_key, machine.cost)
            compiled_block.phi_moves[pred_id] = move

    # -- per-instruction compilation -----------------------------------------------

    def _compile_op(self, instruction, getter, reg_index, position, plan,
                    batch=False):
        op = self._compile_op_core(
            instruction, getter, reg_index, position, plan, batch
        )
        if plan is None:
            return op
        def_entries = plan.def_hooks.get(id(instruction), ())
        use_entries = plan.use_hooks.get(id(instruction), ())
        call_uses = plan.call_use_hooks.get(id(instruction), ())
        if not def_entries and not use_entries and not call_uses:
            return op
        entries = [("def", e) for e in def_entries] + [("use", e) for e in use_entries]

        def hooked(machine, regs, base, op=op, entries=entries,
                   call_uses=call_uses, position=position):
            rt = machine.runtime
            if rt is not None and call_uses:
                # Result-use hooks fire before the consumer executes.
                ts = base + position
                for site_id in call_uses:
                    rt.call_result_use(site_id, ts)
            if op is not None:
                op(machine, regs, base)
            if rt is not None:
                ts = base + position
                for kind, (loop_id, phi_key) in entries:
                    if kind == "def":
                        rt.lcd_def(loop_id, phi_key, ts)
                    else:
                        rt.lcd_use(loop_id, phi_key, ts)

        return hooked

    def _compile_op_core(self, instruction, getter, reg_index, position,
                         plan=None, batch=False):
        if isinstance(instruction, BinaryOp):
            dst = reg_index[id(instruction)]
            lhs = getter(instruction.lhs)
            rhs = getter(instruction.rhs)
            opcode = instruction.opcode
            if opcode in _INT_OPS and instruction.type.is_integer:
                fn = _INT_OPS[opcode]
                if instruction.type.width != 32:
                    width = instruction.type.width
                    mask = (1 << width) - 1
                    # i1/i64 arithmetic: plain Python semantics suffice.
                    # Unsigned ops view the two's-complement bit pattern of
                    # the operand (widths are powers of two, so ``& (w-1)``
                    # masks shift amounts like the 32-bit table does).
                    fn = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
                          "mul": lambda a, b: a * b, "and": lambda a, b: a & b,
                          "or": lambda a, b: a | b, "xor": lambda a, b: a ^ b,
                          "shl": lambda a, b: a << b, "ashr": lambda a, b: a >> b,
                          "lshr": lambda a, b, mask=mask, width=width:
                              (a & mask) >> (b & (width - 1)),
                          }.get(opcode, fn)
                else:
                    op = _inline_arith32(opcode, dst, lhs, rhs)
                    if op is not None:
                        return op
                return _fn_binop(dst, lhs, rhs, fn)
            if opcode in ("sdiv", "srem", "udiv", "urem"):
                # Division semantics (incl. the INT_MIN / -1 wrap and the
                # zero-divisor trap) live in the module-level helpers so the
                # JIT backend shares them verbatim.
                fn = {"sdiv": signed_div, "srem": signed_rem,
                      "udiv": unsigned_div, "urem": unsigned_rem}[opcode]
                width = instruction.type.width

                def op(machine, regs, base, dst=dst, lhs=lhs, rhs=rhs,
                       fn=fn, width=width):
                    regs[dst] = fn(lhs(regs), rhs(regs), width)
                return op
            if opcode in _FLOAT_OPS:
                return _fn_binop(dst, lhs, rhs, _FLOAT_OPS[opcode])
            if opcode == "fdiv":
                def op(machine, regs, base, dst=dst, lhs=lhs, rhs=rhs):
                    divisor = rhs(regs)
                    if divisor == 0.0:
                        raise TrapError("float division by zero")
                    regs[dst] = lhs(regs) / divisor
                return op
            raise InterpError(f"unsupported binary opcode {opcode}")

        if isinstance(instruction, ICmp):
            dst = reg_index[id(instruction)]
            lhs = getter(instruction.lhs)
            rhs = getter(instruction.rhs)
            return _fn_cmp(dst, lhs, rhs, _ICMP_OPS[instruction.predicate])

        if isinstance(instruction, FCmp):
            dst = reg_index[id(instruction)]
            lhs = getter(instruction.lhs)
            rhs = getter(instruction.rhs)
            return _fn_cmp(dst, lhs, rhs, _FCMP_OPS[instruction.predicate])

        if isinstance(instruction, Alloca):
            dst = reg_index[id(instruction)]
            size = instruction.allocated_type.size_in_slots()
            zero = 0.0 if _alloc_zero_is_float(instruction.allocated_type) else 0
            allocate = self.space.allocate
            if self.runtime is None:
                def op(machine, regs, base, dst=dst, size=size, zero=zero,
                       allocate=allocate):
                    regs[dst] = allocate(size, zero, None)
                return op
            current_marks = self.runtime.current_marks

            def op(machine, regs, base, dst=dst, size=size, zero=zero,
                   allocate=allocate, current_marks=current_marks):
                regs[dst] = allocate(size, zero, current_marks())
            return op

        if isinstance(instruction, Load):
            dst = reg_index[id(instruction)]
            pointer = getter(instruction.pointer)
            space_load = self.space.load
            if self.runtime is None:
                def op(machine, regs, base, dst=dst, pointer=pointer,
                       space_load=space_load):
                    regs[dst] = space_load(pointer(regs))
                return op
            if batch:
                membuf = self._membuf
                pslot = pointer.slot
                if pslot is not None:
                    def op(machine, regs, base, dst=dst, pslot=pslot,
                           space_load=space_load, membuf=membuf,
                           position=position):
                        address = regs[pslot]
                        regs[dst] = space_load(address)
                        membuf.append((False, address, base + position))
                    return op

                def op(machine, regs, base, dst=dst, pointer=pointer,
                       space_load=space_load, membuf=membuf, position=position):
                    address = pointer(regs)
                    regs[dst] = space_load(address)
                    membuf.append((False, address, base + position))
                return op
            mem_read = self.runtime.mem_read

            def op(machine, regs, base, dst=dst, pointer=pointer,
                   space_load=space_load, mem_read=mem_read, position=position):
                address = pointer(regs)
                value = space_load(address)
                mem_read(address, base + position)
                regs[dst] = value
            return op

        if isinstance(instruction, Store):
            pointer = getter(instruction.pointer)
            value = getter(instruction.value)
            space_store = self.space.store
            if self.runtime is None:
                def op(machine, regs, base, pointer=pointer, value=value,
                       space_store=space_store):
                    space_store(pointer(regs), value(regs))
                return op
            if batch:
                membuf = self._membuf
                pslot = pointer.slot
                if pslot is not None:
                    def op(machine, regs, base, pslot=pslot, value=value,
                           space_store=space_store, membuf=membuf,
                           position=position):
                        address = regs[pslot]
                        space_store(address, value(regs))
                        membuf.append((True, address, base + position))
                    return op

                def op(machine, regs, base, pointer=pointer, value=value,
                       space_store=space_store, membuf=membuf, position=position):
                    address = pointer(regs)
                    space_store(address, value(regs))
                    membuf.append((True, address, base + position))
                return op
            mem_write = self.runtime.mem_write

            def op(machine, regs, base, pointer=pointer, value=value,
                   space_store=space_store, mem_write=mem_write,
                   position=position):
                address = pointer(regs)
                space_store(address, value(regs))
                mem_write(address, base + position)
            return op

        if isinstance(instruction, GEP):
            dst = reg_index[id(instruction)]
            pointer = getter(instruction.pointer)
            scales = []
            element = instruction.pointer.type.pointee
            for index in instruction.indices:
                if element.is_array:
                    scales.append((element.element.size_in_slots(), getter(index)))
                    element = element.element
                else:
                    scales.append((element.size_in_slots(), getter(index)))
            if len(scales) == 1:
                scale, index_get = scales[0]
                pslot, islot = pointer.slot, index_get.slot
                if islot is not None:
                    if pslot is not None:
                        def op(machine, regs, base, dst=dst, pslot=pslot,
                               scale=scale, islot=islot):
                            regs[dst] = regs[pslot] + scale * regs[islot]
                        return op
                    pconst = pointer.const

                    def op(machine, regs, base, dst=dst, pconst=pconst,
                           scale=scale, islot=islot):
                        regs[dst] = pconst + scale * regs[islot]
                    return op

                def op(machine, regs, base, dst=dst, pointer=pointer,
                       scale=scale, index_get=index_get):
                    regs[dst] = pointer(regs) + scale * index_get(regs)
                return op

            def op(machine, regs, base, dst=dst, pointer=pointer, scales=scales):
                address = pointer(regs)
                for scale, index_get in scales:
                    address += scale * index_get(regs)
                regs[dst] = address
            return op

        if isinstance(instruction, Call):
            callee = instruction.callee
            arg_getters = [getter(a) for a in instruction.args]
            dst = reg_index.get(id(instruction))
            if callee.is_intrinsic:
                info = callee.intrinsic
                extra_cost = max(0, info.cost - 1)
                impl = info.implementation

                def op(machine, regs, base, dst=dst, impl=impl,
                       arg_getters=arg_getters, extra_cost=extra_cost):
                    machine.cost += extra_cost
                    if machine.cost > machine.fuel:
                        raise FuelExhausted(machine.fuel)
                    result = impl(machine, [g(regs) for g in arg_getters])
                    if dst is not None:
                        regs[dst] = result
                return op

            site_id = plan.call_sites.get(id(instruction)) if plan else None
            if site_id is None:
                def op(machine, regs, base, dst=dst, callee=callee,
                       arg_getters=arg_getters):
                    result = machine._call(callee, [g(regs) for g in arg_getters])
                    if dst is not None:
                        regs[dst] = result
                return op

            def op(machine, regs, base, dst=dst, callee=callee,
                   arg_getters=arg_getters, site_id=site_id):
                rt = machine.runtime
                if rt is not None:
                    rt.call_start(site_id, machine.cost)
                result = machine._call(callee, [g(regs) for g in arg_getters])
                if rt is not None:
                    rt.call_end(site_id, machine.cost)
                if dst is not None:
                    regs[dst] = result
            return op

        if isinstance(instruction, Select):
            dst = reg_index[id(instruction)]
            condition = getter(instruction.condition)
            true_get = getter(instruction.true_value)
            false_get = getter(instruction.false_value)

            def op(machine, regs, base, dst=dst, condition=condition,
                   true_get=true_get, false_get=false_get):
                regs[dst] = true_get(regs) if condition(regs) else false_get(regs)
            return op

        if isinstance(instruction, Cast):
            dst = reg_index[id(instruction)]
            value = getter(instruction.value)
            opcode = instruction.opcode
            if opcode == "sitofp":
                def op(machine, regs, base, dst=dst, value=value):
                    regs[dst] = float(value(regs))
                return op
            if opcode == "fptosi":
                def op(machine, regs, base, dst=dst, value=value):
                    regs[dst] = _wrap32(int(value(regs)))
                return op
            if opcode == "zext":
                def op(machine, regs, base, dst=dst, value=value):
                    regs[dst] = value(regs)
                return op
            if opcode == "trunc":
                width = instruction.type.width

                def op(machine, regs, base, dst=dst, value=value, width=width):
                    raw = value(regs) & ((1 << width) - 1)
                    if width > 1 and raw >= (1 << (width - 1)):
                        raw -= 1 << width
                    regs[dst] = raw
                return op

        raise InterpError(f"cannot compile {instruction!r}")

    @staticmethod
    def _wrap_terminator_uses(terminator, use_entries, position):
        """Fire LCD-use hooks when an instrumented phi feeds a terminator."""

        def wrapped(machine, regs, base, terminator=terminator,
                    use_entries=use_entries, position=position):
            rt = machine.runtime
            if rt is not None:
                ts = base + position
                for loop_id, phi_key in use_entries:
                    rt.lcd_use(loop_id, phi_key, ts)
            return terminator(machine, regs, base)

        return wrapped

    def _compile_terminator(self, instruction, getter, reg_index):
        if isinstance(instruction, Br):
            target_id = id(instruction.target)

            def term(machine, regs, base, target_id=target_id):
                return target_id
            return term
        if isinstance(instruction, CondBr):
            condition = getter(instruction.condition)
            then_id = id(instruction.then_block)
            else_id = id(instruction.else_block)

            def term(machine, regs, base, condition=condition,
                     then_id=then_id, else_id=else_id):
                return then_id if condition(regs) else else_id
            return term
        if isinstance(instruction, Ret):
            if instruction.value is None:
                def term(machine, regs, base):
                    machine._return_value = None
                    return _RETURN
                return term
            value = getter(instruction.value)

            def term(machine, regs, base, value=value):
                machine._return_value = value(regs)
                return _RETURN
            return term
        raise InterpError(f"unknown terminator {instruction!r}")

    # -- JIT backend ---------------------------------------------------------------

    def _jit_for(self, function):
        """The compiled JIT entry for ``function``, or ``None`` when the
        template JIT cannot lower it (per-function closure fallback)."""
        name = function.name
        entry = self._jit_entries.get(name)
        if entry is not None:
            return entry
        if name in self._jit_failed:
            return None
        from .codegen import CodegenUnsupported, jit_entry
        from ..core.instrument import jit_variant_for

        plan = self.instrumentation.get(name)
        try:
            entry = jit_entry(
                function, plan, jit_variant_for(plan, self.runtime),
                vectorize=(self.backend == "vec"),
            )
        except CodegenUnsupported:
            self._jit_failed.add(name)
            return None
        self._jit_entries[name] = entry
        return entry

    # -- execution ------------------------------------------------------------------

    def _call(self, function, args):
        if function.is_intrinsic:
            return function.intrinsic.implementation(self, args)
        if function.is_declaration:
            raise InterpError(f"call to undefined function @{function.name}")
        self._call_depth += 1
        if self._call_depth > 2000:
            self._call_depth -= 1
            raise TrapError("call stack depth limit exceeded")
        if self.backend != "closure":
            entry = self._jit_for(function)
            if entry is not None:
                runtime = self.runtime
                frame_base = self.space.frame_base()
                if runtime is not None:
                    runtime.func_enter(function)
                try:
                    return entry(self, args)
                finally:
                    self._call_depth -= 1
                    self.space.release_to(frame_base)
                    if runtime is not None:
                        runtime.func_exit(function)
        compiled = self._compiled_for(function)
        regs = [None] * compiled.num_regs
        for slot, value in zip(compiled.arg_regs, args):
            regs[slot] = value

        runtime = self.runtime
        frame_base = self.space.frame_base()
        membuf = self._membuf
        mem_batch = None
        if runtime is not None:
            runtime.func_enter(function)
            mem_batch = runtime.mem_batch

        blocks = compiled.blocks
        edge_hooks = compiled.edge_hooks
        latch_getters = compiled.latch_getters
        check_edges = runtime is not None and bool(edge_hooks)
        fuel = self.fuel
        block_id = compiled.entry_id
        pred_id = None
        try:
            while True:
                if check_edges and pred_id is not None:
                    edge_key = (pred_id, block_id)
                    actions = edge_hooks.get(edge_key)
                    if actions is not None:
                        ts = self.cost
                        for kind, loop_id in actions:
                            if kind == "iter":
                                specs = latch_getters.get(edge_key, ())
                                values = [
                                    (phi_key, get(regs)) for phi_key, get in specs
                                ]
                                runtime.loop_iter(loop_id, ts, values)
                            elif kind == "enter":
                                runtime.loop_enter(loop_id, ts)
                            else:
                                runtime.loop_exit(loop_id, ts)
                block = blocks[block_id]
                move = block.phi_moves.get(pred_id)
                if move is not None:
                    move(self, regs, self.cost)
                base = self.cost
                self.cost = base + block.cost
                if self.cost > fuel:
                    raise FuelExhausted(fuel)
                run = block.run
                if run is not None:
                    run(self, regs, base)
                    # Deliver the block's batched memory events before the
                    # terminator fires any edge actions for the next block.
                    if membuf:
                        mem_batch(membuf)
                        del membuf[:]
                next_id = block.terminator(self, regs, base)
                if next_id is _RETURN:
                    return self._return_value
                pred_id = block_id
                block_id = next_id
        finally:
            self._call_depth -= 1
            self.space.release_to(frame_base)
            if runtime is not None:
                runtime.func_exit(function)

    @property
    def fuel_left(self):
        return self.fuel - self.cost


def _alloc_zero_is_float(type_):
    while type_.is_array:
        type_ = type_.element
    return type_.is_float


def run_module(module, function_name="main", args=(), runtime=None,
               instrumentation=None, fuel=200_000_000, backend=None):
    """Convenience: build an interpreter, run, and return
    ``(result, interpreter)``."""
    interpreter = Interpreter(module, runtime, instrumentation, fuel,
                              backend=backend)
    result = interpreter.run(function_name, args)
    return result, interpreter
