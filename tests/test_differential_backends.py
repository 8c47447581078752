"""Differential test: the closure interpreter, the block-template JIT and
the vector tier must produce byte-identical profiles for every bundled
benchmark.

This is the backend equivalence contract in its strongest form — not just
matching results and instruction counts, but the full serialized
:class:`ProgramProfile` (loop invocation trees, conflict records, LCD value
streams and offsets, call-site summaries), compared as canonical JSON.
Every figure and table is a pure function of the profile, so equality here
means every downstream artifact is backend-independent — including the
vector tier's closed-form loop and memory event accounting.
"""

import json

import pytest

from repro.bench.suites import all_programs
from repro.core.framework import Loopapalooza
from repro.frontend.codegen import compile_source
from repro.interp.interpreter import Interpreter
from repro.runtime.serialize import profile_to_dict


def _canonical_profile(program, backend):
    lp = Loopapalooza(program.source, name=program.name, backend=backend)
    text = json.dumps(profile_to_dict(lp.profile()), sort_keys=True)
    return text, lp.output


@pytest.mark.parametrize(
    "program", all_programs(), ids=lambda p: p.full_name
)
def test_backends_profile_identically(program):
    closure_profile, closure_output = _canonical_profile(program, "closure")
    jit_profile, jit_output = _canonical_profile(program, "jit")
    vec_profile, vec_output = _canonical_profile(program, "vec")
    assert closure_profile == jit_profile
    assert closure_output == jit_output
    assert jit_profile == vec_profile
    assert jit_output == vec_output


I32_WRAP_SOURCE = """
int main() { int x; int i; int acc;
  x = 2147483647; acc = 0;
  for (i = 0; i < 8; i = i + 1) { x = x + 1; acc = acc ^ x; }
  print_int(x); print_int(acc);
  return x & 255; }
"""

INT_MIN_DIV_SOURCE = """
int main() { int a; int b; int q; int r;
  a = 0 - 2147483647; a = a - 1;
  b = 0 - 1;
  q = a / b; r = a % b;
  print_int(q); print_int(r);
  return (q ^ r) & 65535; }
"""

# probe()'s uninitialized C[] reuses scribble()'s dead B[] slots: growing
# the stack zeroes only slots beyond the old high-water mark, so C[0..31]
# still hold 3*i+7 (sum 1712) and C[32..47] read 0.
STACK_REUSE_SOURCE = """
int scribble(int k) { int B[32]; int i;
  for (i = 0; i < 32; i = i + 1) { B[i] = k * i + 7; }
  return B[31]; }
int probe() { int C[48]; int i; int acc;
  acc = 0;
  for (i = 0; i < 48; i = i + 1) { acc = acc + C[i]; }
  return acc; }
int main() { int s;
  s = scribble(3);
  print_int(probe());
  return s & 255; }
"""

#: name -> (source, pinned (result, cost, output) on every backend).
MEMORY_QUIRKS = {
    "i32_wrap": (I32_WRAP_SOURCE, (7, 100, (-2147483641, 0))),
    "int_min_div": (INT_MIN_DIV_SOURCE, (0, 21, (-2147483648, 0))),
    "stack_reuse": (STACK_REUSE_SOURCE, (100, 749, (1712,))),
}


@pytest.mark.parametrize("name", sorted(MEMORY_QUIRKS))
@pytest.mark.parametrize("backend", ["closure", "jit", "vec"])
def test_memory_quirks_pinned(backend, name):
    """Arithmetic and slot-memory warts every backend must reproduce
    exactly: i32 wraparound, INT_MIN / -1, and stale stack slots."""
    source, expected = MEMORY_QUIRKS[name]
    machine = Interpreter(compile_source(source), backend=backend)
    result = machine.run("main")
    assert (result, machine.cost, tuple(machine.output)) == expected


@pytest.mark.parametrize(
    "backend", ["closure", "jit", "vec"]
)
def test_static_doall_never_conflicts(backend):
    """Soundness of the static dependence engine against every backend: a
    loop proved STATIC_DOALL must never record a cross-iteration conflict
    in the dynamic profile, whichever interpreter produced it. This is
    also the vector tier's safety argument — its kernels only ever replace
    loops carrying that verdict."""
    from repro.analysis.depend import VERDICT_DOALL

    proved_loops = 0
    for program in all_programs():
        lp = Loopapalooza(program.source, name=program.name, backend=backend)
        dependence = lp.static_info.dependence()
        conflicts = {}
        for invocation in lp.profile().all_invocations():
            conflicts[invocation.loop_id] = (
                conflicts.get(invocation.loop_id, 0)
                + invocation.conflict_count)
        for loop_id, verdict in dependence.items():
            if verdict.verdict != VERDICT_DOALL:
                continue
            proved_loops += 1
            assert conflicts.get(loop_id, 0) == 0, (
                f"{program.full_name} {loop_id}: STATIC_DOALL but "
                f"{conflicts[loop_id]} dynamic conflict(s) on {backend}")
    # The suites must actually exercise the engine, not vacuously pass.
    assert proved_loops >= 100
