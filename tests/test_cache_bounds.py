"""Size bounds on the three code-path caches.

A long-lived host (sweep driver, fuzz campaign, REPL) must not grow
memory or disk without bound, so every cache on the compile/execute path
is LRU-capped and counts its evictions:

* the persistent on-disk :class:`CodeCache` (``CODE_CACHE_CAP``,
  mtime-LRU, touched on every hit),
* the in-process codegen memo (``codegen.CODE_MEMO_CAP``), and
* the per-invocation gather-window cache in the vector runtime
  (``veccodegen.WINDOW_CAP``).

All three surface in ``repro cache stats``. The caps are module
constants; these tests shrink them with ``monkeypatch.setattr``.
"""

from __future__ import annotations

import os

from repro.frontend.codegen import compile_source
from repro.interp import codegen, veccodegen
from repro.interp.codegen import codegen_memo_stats
from repro.interp.interpreter import Interpreter
from repro.interp.veccodegen import vec_runtime_stats
from repro.runtime import profile_store
from repro.runtime.profile_store import CodeCache


def _stamp(cache, key, mtime):
    path = cache._path_for(key)
    os.utime(path, (mtime, mtime))


def test_code_cache_evicts_oldest_beyond_cap(tmp_path):
    cache = CodeCache(root=tmp_path, cap=2)
    assert cache.store("aaa", "source a")
    _stamp(cache, "aaa", 1_000_000)
    assert cache.store("bbb", "source b")
    _stamp(cache, "bbb", 1_000_100)
    assert cache.store("ccc", "source c")  # evicts aaa (oldest mtime)
    assert cache.evictions == 1
    assert cache.load("aaa") is None
    assert cache.load("bbb") == "source b"
    assert cache.load("ccc") == "source c"
    assert len(cache.entries()) == 2


def test_code_cache_hit_refreshes_lru_rank(tmp_path):
    cache = CodeCache(root=tmp_path, cap=2)
    cache.store("aaa", "source a")
    _stamp(cache, "aaa", 1_000_000)
    cache.store("bbb", "source b")
    _stamp(cache, "bbb", 1_000_100)
    assert cache.load("aaa") == "source a"  # touch: aaa is now newest
    cache.store("ccc", "source c")
    assert cache.load("aaa") == "source a"
    assert cache.load("bbb") is None  # bbb was the LRU entry
    assert cache.evictions == 1


def test_code_cache_cap_default(tmp_path, monkeypatch):
    assert CodeCache(root=tmp_path).cap == 1024
    monkeypatch.setattr(profile_store, "CODE_CACHE_CAP", 5)
    cache = CodeCache(root=tmp_path)  # cap=None takes the module constant
    assert cache.cap == 5
    assert cache.info()["cap"] == 5


def test_code_cache_info_reports_evictions(tmp_path):
    cache = CodeCache(root=tmp_path, cap=1)
    cache.store("aaa", "a")
    _stamp(cache, "aaa", 1_000_000)
    cache.store("bbb", "b")
    info = cache.info()
    assert info["cap"] == 1
    assert info["evictions"] == 1
    assert info["entries"] == 1


def _run_jit(source):
    machine = Interpreter(compile_source(source), backend="jit")
    machine.run("main")


def test_codegen_memo_respects_cap(monkeypatch):
    monkeypatch.setattr(codegen, "CODE_MEMO_CAP", 2)
    # One switch governs the profile store and the disk code cache; kill
    # both so this exercises the in-process memo only.
    monkeypatch.setenv("REPRO_NO_PROFILE_CACHE", "1")
    before = codegen_memo_stats()["memo_evictions"]
    for salt in (101, 202, 303, 404):
        _run_jit(
            "int main() { int i; int acc; acc = 0;"
            f"  for (i = 0; i < 50; i = i + 1) {{ acc = acc + i * {salt}; }}"
            "  return acc & 255; }"
        )
    stats = codegen_memo_stats()
    assert stats["memo_cap"] == 2
    assert stats["memo_entries"] <= 2
    assert stats["memo_evictions"] > before


VEC_TWO_ARRAY_SOURCE = """
int N = 256;
int A[256];
int GAP[8];
int B[256];
int C[256];
int main() { int i;
  for (i = 0; i < N; i = i + 1) { A[i] = i * 3; B[i] = i * 5; }
  for (i = 0; i < N; i = i + 1) { C[i] = A[i] + B[i]; }
  return C[200] & 255; }
"""


def test_vec_gather_window_cap_evicts(monkeypatch):
    """With the window cache capped at one entry, a kernel gathering two
    non-adjacent arrays must evict between them (and still be correct —
    eviction only costs a re-conversion)."""
    monkeypatch.setattr(veccodegen, "WINDOW_CAP", 1)
    before = vec_runtime_stats()["window_evictions"]
    machine = Interpreter(compile_source(VEC_TWO_ARRAY_SOURCE),
                          backend="vec")
    result = machine.run("main")
    jit = Interpreter(compile_source(VEC_TWO_ARRAY_SOURCE), backend="jit")
    assert result == jit.run("main")
    stats = vec_runtime_stats()
    assert stats["window_cap"] == 1
    assert stats["window_evictions"] > before
