"""Persistent profile cache: round-trip fidelity and failure fallbacks.

The contract under test: a profile served from the on-disk store must be
observationally identical to the freshly measured one — every paper
configuration evaluates to bit-identical speedup and coverage — and any
defect in the store (schema drift, corruption, version bumps) silently
degrades to re-profiling, never to wrong numbers.
"""

import json
import multiprocessing

import pytest

from repro.bench import find_program
from repro.core.config import paper_configurations
from repro.core.framework import Loopapalooza
from repro.runtime.profile_store import (
    PROFILE_CACHE_SCHEMA,
    CodeCache,
    ProfileStore,
    default_code_cache,
    default_store,
)
from repro.runtime.serialize import profile_to_dict

FUEL = 50_000_000
BENCH = "specint2000/gzip_like"


@pytest.fixture(scope="module")
def source():
    return find_program(BENCH).source


@pytest.fixture()
def store(tmp_path):
    return ProfileStore(tmp_path / "profiles")


def _fresh(source, store):
    return Loopapalooza(source, name=BENCH, fuel=FUEL, store=store)


def test_round_trip_bit_identical_for_every_config(source, store):
    cold = _fresh(source, store)
    cold.profile()
    assert not cold.profiled_from_cache
    assert store.stats.stores == 1

    warm = _fresh(source, store)
    warm.profile()
    assert warm.profiled_from_cache
    assert store.stats.hits == 1

    for config in paper_configurations():
        measured = cold.evaluate(config)
        cached = warm.evaluate(config)
        # Exact float equality: serving from the cache must not change a
        # single bit of any reported number.
        assert cached.speedup == measured.speedup, config.name
        assert cached.coverage == measured.coverage, config.name
        assert cached.total_serial == measured.total_serial, config.name
        assert cached.total_parallel == measured.total_parallel, config.name


def test_round_trip_preserves_output_and_total_cost(source, store):
    cold = _fresh(source, store)
    cold.profile()
    warm = _fresh(source, store)
    warm.profile()
    assert warm.output == cold.output
    assert warm.total_cost == cold.total_cost


def test_schema_bump_invalidates(source, store):
    cold = _fresh(source, store)
    cold.profile()

    bumped = ProfileStore(store.root, schema=PROFILE_CACHE_SCHEMA + 1)
    relearn = _fresh(source, bumped)
    relearn.profile()
    assert not relearn.profiled_from_cache
    assert bumped.stats.hits == 0
    assert bumped.stats.misses == 1
    # The bumped store writes its own entry alongside the old one.
    assert bumped.stats.stores == 1

    # The original schema still hits its own entry.
    again = _fresh(source, ProfileStore(store.root))
    again.profile()
    assert again.profiled_from_cache


def test_key_depends_on_fuel_and_inline(store):
    key = store.cache_key("int main() { return 0; }", FUEL)
    assert key != store.cache_key("int main() { return 0; }", FUEL + 1)
    assert key != store.cache_key("int main() { return 0; }", FUEL,
                                  inline=True)
    assert key != store.cache_key("int main() { return 1; }", FUEL)
    assert key == store.cache_key("int main() { return 0; }", FUEL)


def test_key_depends_on_transform(store):
    """Stale-hit regression: the transform pipeline changes the loop
    population, so a profile recorded with it off must not warm-start a
    run with it on (or vice versa)."""
    source = "int main() { return 0; }"
    key = store.cache_key(source, FUEL)
    assert key != store.cache_key(source, FUEL, transform=True)
    assert key == store.cache_key(source, FUEL, transform=False)


def test_corrupt_entry_falls_back_to_reprofiling(source, store):
    cold = _fresh(source, store)
    cold.profile()
    [entry] = store.entries()
    entry.write_text(entry.read_text()[: entry.stat().st_size // 2])

    relearn = _fresh(source, store)
    relearn.profile()
    assert not relearn.profiled_from_cache
    assert store.stats.corrupt == 1
    # The corrupt entry was dropped and rewritten by the re-profile.
    assert store.stats.stores == 2

    warm = _fresh(source, store)
    warm.profile()
    assert warm.profiled_from_cache


def test_checksum_mismatch_detected(source, store):
    cold = _fresh(source, store)
    cold.profile()
    [path] = store.entries()
    entry = json.loads(path.read_text())
    entry["payload"]["profile"]["total_cost"] += 1  # bit rot
    path.write_text(json.dumps(entry))

    warm = _fresh(source, store)
    warm.profile()
    assert not warm.profiled_from_cache
    assert store.stats.corrupt == 1
    assert store.entries(), "entry is rewritten after the fallback"


def test_same_length_payload_flip_detected(source, store):
    """A flipped digit keeps the entry's layout, length and JSON validity;
    only the checksum over the raw payload bytes can catch it."""
    cold = _fresh(source, store)
    cold.profile()
    [path] = store.entries()
    data = path.read_bytes()
    at = data.index(b'"total_cost":') + len(b'"total_cost":')
    digit = data[at:at + 1]
    assert digit.isdigit()
    flipped = b"2" if digit == b"1" else b"1"
    path.write_bytes(data[:at] + flipped + data[at + 1:])

    warm = _fresh(source, store)
    warm.profile()
    assert not warm.profiled_from_cache
    assert store.stats.corrupt == 1
    assert store.entries(), "entry is rewritten after the fallback"


def test_clear_and_info(source, store):
    cold = _fresh(source, store)
    cold.profile()
    info = store.info()
    assert info["entries"] == 1
    assert info["size_bytes"] > 0
    assert store.clear() == 1
    assert store.info()["entries"] == 0


def test_default_root_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert ProfileStore().root == tmp_path / "elsewhere"
    assert CodeCache().root == tmp_path / "elsewhere" / "code"


class TestCacheEnabledEnv:
    """Regression: REPRO_NO_PROFILE_CACHE=0 used to *disable* the cache
    because any non-empty value was treated as truthy. One switch governs
    both default caches; the spelling contract itself is tested in
    ``tests/test_settings.py``."""

    @staticmethod
    def _enabled():
        profiles, code = default_store(), default_code_cache()
        assert (profiles is None) == (code is None)
        return profiles is not None

    def test_unset_means_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_PROFILE_CACHE", raising=False)
        assert self._enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "False", "no", "off", " 0 ", "OFF"])
    def test_falsy_values_keep_cache_enabled(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NO_PROFILE_CACHE", value)
        assert self._enabled()

    @pytest.mark.parametrize("value", ["1", "true", "TRUE", "yes", "on"])
    def test_truthy_values_disable_cache(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NO_PROFILE_CACHE", value)
        assert not self._enabled()


# -- concurrent writers ---------------------------------------------------------

SMALL_SOURCE = """
int A[64];
int main() { int i; int s; s = 0;
  for (i = 0; i < 64; i = i + 1) { A[i] = i * 3; }
  for (i = 1; i < 64; i = i + 1) { A[i] = A[i - 1] + A[i]; s = s + A[i]; }
  return s & 255; }
"""
ROUNDS = 40


def _small_run():
    lp = Loopapalooza(SMALL_SOURCE, name="concurrent", fuel=FUEL)
    lp.profile()
    return lp


def _writer(root, start):
    lp = _small_run()
    store = ProfileStore(root)
    start.wait()
    for _ in range(ROUNDS):
        store.store(SMALL_SOURCE, FUEL, lp.profile(), lp.static_info,
                    lp.output)
    assert store.stats.errors == 0


def _reader(root, expected, start, results):
    store = ProfileStore(root)
    start.wait()
    outcomes = []
    for _ in range(ROUNDS):
        cached = store.load(SMALL_SOURCE, FUEL)
        outcomes.append(
            "miss" if cached is None
            else "hit" if profile_to_dict(cached.profile) == expected
            else "wrong")
    outcomes.append(f"corrupt={store.stats.corrupt}")
    results.put(outcomes)


def test_concurrent_writers_and_reader(tmp_path):
    """Two processes store the same key into one tree while a third loads:
    the atomic publish must show the reader old-or-new, never a torn entry,
    and leave no temporary file behind."""
    lp = _small_run()
    root = tmp_path / "profiles"
    ProfileStore(root).store(SMALL_SOURCE, FUEL, lp.profile(), lp.static_info,
                             lp.output)
    context = multiprocessing.get_context("spawn")
    start = context.Barrier(3)
    results = context.Queue()
    workers = [context.Process(target=_writer, args=(root, start))
               for _ in range(2)]
    workers.append(context.Process(
        target=_reader,
        args=(root, profile_to_dict(lp.profile()), start, results)))
    for worker in workers:
        worker.start()
    outcomes = results.get(timeout=120)
    for worker in workers:
        worker.join(timeout=120)
        assert worker.exitcode == 0
    assert outcomes[-1] == "corrupt=0"
    assert set(outcomes[:-1]) <= {"hit", "miss"}
    assert "hit" in outcomes
    assert sorted(p.name for p in root.iterdir()) == [
        f"{ProfileStore(root).cache_key(SMALL_SOURCE, FUEL)}.json"]
