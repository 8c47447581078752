"""Differential fuzzing subsystem: generator, oracle harness, shrinker,
quarantine corpus.

The limit study's trustworthiness rests on every execution tier and every
pipeline stage agreeing about every program. The hand-written bench suites
exercise 225 loops; this package manufactures an unbounded supply of new
ones and checks the pipeline's core invariants on each:

* :mod:`.genprog` — a seeded, grammar-driven MiniC program generator.
  Every program is fully determined by a ``(seed, profile)`` pair and is
  biased toward the constructs the analyses care about (affine and
  non-affine subscripts, reductions, loop-carried dependences at known
  distances, calls with memory effects, nested and multi-latch loops).
* :mod:`.harness` — the differential oracle: closure/jit/vec
  profiles byte-identical, observable behaviour identical with
  transforms on vs. off, every STATIC_DOALL verdict dynamically conflict-free, and
  verifier-clean IR after every pass stage.
* :mod:`.shrink` — delta-minimizes a disagreeing program (drop
  statements and loops, simplify subscripts, halve trip counts) while
  re-checking the same oracle.
* :mod:`.corpus` — the quarantine corpus under ``fuzz_corpus/``: each
  minimized reproducer with its seed, oracle verdict, and pipeline
  fingerprint, replayed as regression tests by
  ``tests/test_fuzz_corpus.py``.

Entry point: ``repro fuzz`` (see :mod:`repro.cli`) or
:func:`repro.fuzz.harness.fuzz_campaign`.
"""

from .genprog import (  # noqa: F401
    GEN_VERSION,
    PROFILES,
    GeneratedProgram,
    generate_program,
    generate_spec,
)
from .harness import (  # noqa: F401
    ORACLES,
    OracleFailure,
    OracleReport,
    fuzz_campaign,
    run_oracles,
)
from .corpus import (  # noqa: F401
    QuarantineCase,
    corpus_root,
    load_case,
    load_cases,
    replay_case,
    store_case,
)
from .shrink import shrink_spec  # noqa: F401
