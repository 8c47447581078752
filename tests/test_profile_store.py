"""Persistent profile cache: round-trip fidelity and failure fallbacks.

The contract under test: a profile served from the on-disk store must be
observationally identical to the freshly measured one — every paper
configuration evaluates to bit-identical speedup and coverage — and any
defect in the store (schema drift, corruption, version bumps) silently
degrades to re-profiling, never to wrong numbers.
"""

import json
import logging
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
from repro.runtime.serialize import packed_regions, profile_to_dict

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
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])

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
    data = bytearray(path.read_bytes())
    at = _entry_regions(data)["iter_starts"][0] + 3
    data[at] ^= 0x10  # bit rot in a timestamp
    path.write_bytes(data)

    warm = _fresh(source, store)
    warm.profile()
    assert not warm.profiled_from_cache
    assert store.stats.corrupt == 1
    assert store.entries(), "entry is rewritten after the fallback"


def test_same_length_payload_flip_detected(source, store):
    """A flipped digit keeps the entry's layout, length and the validity of
    the payload's JSON header; only the checksum over the raw payload bytes
    can catch it."""
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


# -- damage in every region of the entry layout -------------------------------

#: Cheap enough to re-profile once per damaged region, and every column of
#: its packed profile is non-empty: memory-LCD conflict pairs, int and
#: float register-LCD runs.
REGION_SOURCE = """
int A[64];
int main() { int i; int x = 1; float f = 1.0; int s = 0;
  for (i = 1; i < 64; i = i + 1) {
    A[i] = A[i - 1] + i;
    if (i % 3 == 0) { s = s + x; }
    x = (x * 5 + 1) & 1023;
    f = f * 0.5 + 1.0;
  }
  return (s + A[63] + (int)f) & 255; }
"""


def _entry_regions(data):
    """``name -> (start, end)`` over a whole profile entry: its ``line``,
    every region of the packed payload, then the ``checksum``."""
    start = data.index(b"\n") + 1
    length = int(data[:start].split()[-1])
    regions = {"line": (0, start)}
    payload = bytes(data[start:start + length])
    for name, begin, end in packed_regions(payload):
        regions[name] = (start + begin, start + end)
    regions["checksum"] = (start + length, len(data))
    return regions


@pytest.fixture(scope="module")
def region_entry(tmp_path_factory):
    store = ProfileStore(tmp_path_factory.mktemp("region-entry"))
    Loopapalooza(REGION_SOURCE, name="regions", fuel=FUEL,
                 store=store).profile()
    [path] = store.entries()
    return path.read_bytes()


def _planted(root, data):
    """A store under ``root`` whose only entry (for ``REGION_SOURCE``) holds
    ``data``, and that entry's path."""
    store = ProfileStore(root)
    path = root / f"{store.cache_key(REGION_SOURCE, FUEL)}.prof"
    root.mkdir(parents=True)
    path.write_bytes(data)
    return store, path


def _assert_recovers(root, damaged, what):
    """The damaged entry is a counted corrupt miss and unlinked; the run
    re-profiles and rewrites it, and the rewrite is a hit."""
    store, path = _planted(root, damaged)
    assert store.load(REGION_SOURCE, FUEL) is None, what
    assert (store.stats.corrupt, store.stats.misses) == (1, 1), what
    assert not path.exists(), what
    relearn = Loopapalooza(REGION_SOURCE, name="regions", fuel=FUEL,
                           store=store)
    relearn.profile()
    assert not relearn.profiled_from_cache, what
    assert store.stats.stores == 1, what
    cached = store.load(REGION_SOURCE, FUEL)
    assert cached is not None, what
    assert profile_to_dict(cached.profile) == profile_to_dict(
        relearn.profile()), what


def test_byte_flip_in_every_region_detected(region_entry, tmp_path):
    """A same-length flip anywhere — the entry line, the frame, the JSON
    header, any column, the checksum — never loads."""
    regions = _entry_regions(region_entry)
    assert all(end > start for start, end in regions.values()), regions
    for name, (start, end) in regions.items():
        damaged = bytearray(region_entry)
        damaged[(start + end) // 2] ^= 0x01
        _assert_recovers(tmp_path / name, bytes(damaged), name)


def test_truncation_at_every_region_boundary_detected(region_entry, tmp_path):
    boundaries = {start for start, _ in _entry_regions(region_entry).values()}
    boundaries.add(len(region_entry) - 1)
    for size in sorted(boundaries):
        _assert_recovers(tmp_path / str(size), region_entry[:size],
                         f"truncated to {size} bytes")


def test_trailing_bytes_detected(region_entry, tmp_path):
    _assert_recovers(tmp_path / "long", region_entry + b"\n", "trailing")


# -- one warning per discard or failed write ----------------------------------

LOGGER = "repro.runtime.profile_store"


def _warnings(caplog):
    return [record.getMessage() for record in caplog.records
            if record.name == LOGGER and record.levelno == logging.WARNING]


def _flip_payload(data):
    damaged = bytearray(data)
    start, end = _entry_regions(data)["int_values"]
    damaged[(start + end) // 2] ^= 0x01
    return bytes(damaged)


@pytest.mark.parametrize("damage, reason", [
    (_flip_payload, "checksum mismatch"),
    (lambda data: b"X" + data[1:], "not a canonical entry"),
    (lambda data: data[:-10], "truncated"),
], ids=["checksum", "canonical", "truncated"])
def test_profile_store_logs_each_discard(region_entry, tmp_path, caplog,
                                         damage, reason):
    store, path = _planted(tmp_path / "profiles", damage(region_entry))
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        assert store.load(REGION_SOURCE, FUEL) is None
    [message] = _warnings(caplog)
    assert str(path) in message and reason in message
    assert store.stats.corrupt == 1


def test_profile_store_logs_unreadable_entry(tmp_path, caplog):
    """An entry that exists but cannot be read is a logged miss; a missing
    entry is an ordinary, silent one."""
    store, path = _planted(tmp_path / "profiles", b"")
    path.unlink()
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        assert store.load(REGION_SOURCE, FUEL) is None
        assert _warnings(caplog) == []
        path.mkdir()
        assert store.load(REGION_SOURCE, FUEL) is None
    [message] = _warnings(caplog)
    assert str(path) in message and "cannot read" in message
    assert (store.stats.misses, store.stats.corrupt) == (2, 0)


def test_profile_store_logs_failed_write(tmp_path, caplog):
    lp = Loopapalooza(REGION_SOURCE, name="regions", fuel=FUEL)
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    store = ProfileStore(blocker)
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        assert not store.store(REGION_SOURCE, FUEL, lp.profile(),
                               lp.static_info, lp.output)
    [message] = _warnings(caplog)
    assert str(blocker) in message and "File exists" in message
    assert store.stats.errors == 1


def test_profile_store_logs_unencodable_profile(tmp_path, caplog):
    """A profile the packed layout cannot hold is a counted, logged write
    error, never an exception out of ``store``."""
    lp = Loopapalooza(REGION_SOURCE, name="regions", fuel=FUEL)
    profile = lp.profile()
    saved = profile.top_level[0].iter_starts[1]
    profile.top_level[0].iter_starts[1] = float(saved)
    store = ProfileStore(tmp_path / "profiles")
    try:
        with caplog.at_level(logging.WARNING, logger=LOGGER):
            assert not store.store(REGION_SOURCE, FUEL, profile,
                                   lp.static_info, lp.output)
    finally:
        profile.top_level[0].iter_starts[1] = saved
    [message] = _warnings(caplog)
    assert "iter_starts" in message
    assert store.stats.errors == 1 and not store.entries()


def _truncate_json(text):
    return text[: len(text) // 2]


@pytest.mark.parametrize("damage", [
    lambda entry: json.dumps({**entry, "source": entry["source"] + " "}),
    lambda entry: json.dumps({**entry, "schema": entry["schema"] + 1}),
    lambda entry: _truncate_json(json.dumps(entry)),
], ids=["checksum", "schema", "truncated"])
def test_code_cache_logs_each_discard(tmp_path, caplog, damage):
    cache = CodeCache(tmp_path / "code")
    assert cache.store("k", "def f():\n    return 1\n")
    [path] = cache.entries()
    damaged = damage(json.loads(path.read_text()))
    path.write_text(damaged)
    try:
        entry = json.loads(damaged)
    except ValueError as exc:
        reason = str(exc)
    else:
        reason = ("checksum mismatch" if entry["schema"] == cache.schema
                  else "schema mismatch")
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        assert cache.load("k") is None
    [message] = _warnings(caplog)
    assert str(path) in message and reason in message
    assert cache.stats.corrupt == 1 and not path.exists()


def test_code_cache_logs_failed_write(tmp_path, caplog):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    cache = CodeCache(blocker)
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        assert not cache.store("k", "pass\n")
    [message] = _warnings(caplog)
    assert str(blocker) in message and "File exists" in message
    assert cache.stats.errors == 1


def test_temp_files_are_not_entries(tmp_path):
    """A writer's in-flight ``.tmp-*`` file is neither counted nor sized,
    and ``clear`` leaves it for its writer's rename."""
    lp = Loopapalooza(REGION_SOURCE, name="regions", fuel=FUEL)
    profiles = ProfileStore(tmp_path / "profiles")
    assert profiles.store(REGION_SOURCE, FUEL, lp.profile(), lp.static_info,
                          lp.output)
    code = CodeCache(tmp_path / "code")
    assert code.store("k", "pass\n")
    for cache, suffix in ((profiles, ".prof"), (code, ".json")):
        [entry] = cache.entries()
        planted = [cache.root / ".tmp-x", cache.root / f".tmp-x{suffix}"]
        for path in planted:
            path.write_bytes(b"in flight")
        info = cache.info()
        assert info["entries"] == 1
        assert info["size_bytes"] == entry.stat().st_size
        assert cache.clear() == 1
        assert all(path.exists() for path in planted)
        assert cache.entries() == []


# -- deep invocation trees ----------------------------------------------------

DEEP_SOURCE = """
int dive(int n) { int i; int s = 0;
  if (n == 0) { return 0; }
  for (i = 0; i < 2; i = i + 1) {
    if (i == 0) { s = s + dive(n - 1); } else { s = s + 1; }
  }
  return s; }
int main() { return dive(1500) & 255; }
"""


def test_deep_invocation_tree_round_trips_through_the_store(tmp_path):
    """Regression: a recursive call inside a loop nests one invocation per
    call; at depth 1500 ``store`` used to raise ``RecursionError`` out of
    ``Loopapalooza.profile``."""
    store = ProfileStore(tmp_path / "profiles")
    cold = Loopapalooza(DEEP_SOURCE, name="deep", fuel=FUEL, store=store)
    profile = cold.profile()
    depth, invocation = 1, profile.top_level[0]
    while invocation.children:
        depth, invocation = depth + 1, invocation.children[0]
    assert depth == 1500
    assert store.stats.stores == 1 and store.stats.errors == 0

    warm = Loopapalooza(DEEP_SOURCE, name="deep", fuel=FUEL, store=store)
    warm.profile()
    assert warm.profiled_from_cache
    for config in paper_configurations():
        assert warm.evaluate(config).to_dict() == cold.evaluate(
            config).to_dict(), config.name


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
        f"{ProfileStore(root).cache_key(SMALL_SOURCE, FUEL)}.prof"]
