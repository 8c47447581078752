"""Persistent profile cache — profile once, evaluate everywhere.

Profiling is the expensive stage of the pipeline (an instrumented
interpreter run over millions of dynamic IR instructions); evaluation is
cheap and purely analytical. This module gives the expensive stage a
versioned, content-addressed on-disk home so warm starts of the suite
runner, the figure harnesses, and pytest skip re-profiling entirely.

Cache key
---------

``sha256(cache_schema | profile_format | pipeline_digest | fuel | inline |
transform | source)`` — any change to the benchmark source, the fuel
budget, the inlining or transform mode, the serialized profile layout, or
the code that decides the profile invalidates the entry.
:func:`pipeline_digest` hashes that code itself (every file listed in
:data:`PIPELINE_SOURCES`), so no version needs bumping by hand when the
compiler, the classifier, the instrumentation, the interpreter, the
recorder or the value predictors change, and an entry's stored static
loops always belong to the code that reads them: a hit needs no compiled
module. Bump :data:`PROFILE_CACHE_SCHEMA` whenever the *entry* layout
changes (the profile format's own version is
``repro.runtime.serialize.FORMAT_VERSION``).

Profile entries are binary files named ``<key>.prof``: one ASCII line
``repro-profile <schema> <key> <payload length>``, the payload, then the
sha256 hex digest of the payload. The payload is
:func:`~repro.runtime.serialize.pack_profile` output, whose JSON header
also carries the static loop classification and the program output. The
line and the checksum are verified on the raw bytes before anything is
decoded. Corruption (truncated writes, bit rot, schema drift) is detected
on load, logged as a warning on the ``repro.runtime.profile_store`` logger
and the entry is discarded — the caller falls back to re-profiling and the
entry is rewritten.

The default location is ``~/.cache/repro/profiles`` (override with the
``REPRO_CACHE_DIR`` environment variable; set ``REPRO_NO_PROFILE_CACHE=1``
to disable the default store entirely, e.g. for cold-start timing runs).
The JIT :class:`CodeCache` shares the entry-file mechanics (its entries
are ``<key>.json``) and lives in ``code`` beside it
(``<REPRO_CACHE_DIR>/code`` under the override).
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import pathlib
import tempfile

from ..settings import current
from .serialize import FORMAT_VERSION, pack_profile, unpack_profile_with_extra

#: Version of the on-disk cache payload layout (not of the profile format
#: itself — that is ``serialize.FORMAT_VERSION``). Bumping this invalidates
#: every existing cache entry. 3: packed payloads carry the ``lcd_hits``
#: column.
PROFILE_CACHE_SCHEMA = 3

#: The source of the ``repro`` package that decides a stored entry's
#: profile, static loops, program output and predictor outcomes:
#: directories (every ``.py`` file below them) and single files, relative
#: to the package root. The evaluator, cost models and reporting only read
#: entries and stay out.
PIPELINE_SOURCES = (
    "frontend", "ir", "passes", "analysis", "interp", "predictors",
    "core/static_info.py", "core/instrument.py",
    "runtime/recorder.py", "runtime/profile.py", "runtime/call_records.py",
    "runtime/serialize.py",
)

_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent

_log = logging.getLogger(__name__)

#: Name prefix of a writer's temporary file; never an entry.
_TEMP_PREFIX = ".tmp-"


def pipeline_digest(root=_PACKAGE_ROOT):
    """sha256 hex over the relative path and bytes of every file of
    :data:`PIPELINE_SOURCES` under the package directory ``root``."""
    root = pathlib.Path(root)
    files = set()
    for name in PIPELINE_SOURCES:
        path = root / name
        files.update(path.rglob("*.py") if path.is_dir() else [path])
    digest = hashlib.sha256()
    for path in sorted(files, key=lambda path: path.relative_to(root)):
        data = path.read_bytes()
        relative = path.relative_to(root).as_posix().encode("utf-8")
        digest.update(b"%s\0%d\0" % (relative, len(data)))
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def _pipeline_digest():
    """This package's :func:`pipeline_digest`, computed once per
    process."""
    return pipeline_digest()


class ProfileStoreStats:
    """Hit/miss/corruption counters for one :class:`ProfileStore` or
    :class:`CodeCache`."""

    __slots__ = ("hits", "misses", "stores", "corrupt", "errors")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.errors = 0

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "errors": self.errors,
        }

    def describe(self):
        """One-line human-readable summary for run footers."""
        parts = [f"{self.hits} hits", f"{self.misses} misses"]
        if self.stores:
            parts.append(f"{self.stores} stored")
        if self.corrupt:
            parts.append(f"{self.corrupt} corrupt")
        if self.errors:
            parts.append(f"{self.errors} errors")
        return ", ".join(parts)

    def __repr__(self):
        return (
            f"<ProfileStoreStats hits={self.hits} misses={self.misses} "
            f"stores={self.stores} corrupt={self.corrupt}>"
        )


class CachedRun:
    """What a warm start gets back: the profile plus everything else the
    framework would have learned by running the program."""

    __slots__ = ("profile", "static_loops", "output")

    def __init__(self, profile, static_loops, output):
        self.profile = profile
        self.static_loops = static_loops
        self.output = output


class _EntryStore:
    """What the two on-disk caches share: one ``<key><suffix>`` file per
    entry under ``root``, hit/miss counters, corrupt entries deleted and
    counted as misses, and atomic publication.

    All methods degrade gracefully: IO or serialization failures count as
    misses/errors, are logged as one warning each, and never propagate — a
    broken cache must never break a run. Subclasses own their entry layout,
    file suffix and key function.
    """

    #: The default root: ``~/.cache/repro/<_home_dir>``, or
    #: ``<REPRO_CACHE_DIR>/<_cache_dir_subdir>`` when that is set.
    _home_dir = None
    _cache_dir_subdir = None
    #: File-name suffix of an entry.
    _suffix = None

    def __init__(self, root, schema):
        if root is None:
            override = current().cache_dir
            root = (pathlib.Path(override) / self._cache_dir_subdir
                    if override else
                    pathlib.Path.home() / ".cache" / "repro" / self._home_dir)
        self.root = pathlib.Path(root)
        self.schema = schema
        self.stats = ProfileStoreStats()

    def _path_for(self, key):
        return self.root / f"{key}{self._suffix}"

    def _read(self, path):
        """The raw entry bytes, or ``None`` (counted as a miss)."""
        try:
            return path.read_bytes()
        except FileNotFoundError:
            pass
        except OSError as exc:
            _log.warning("cannot read cache entry %s: %s", path, exc)
        self.stats.misses += 1
        return None

    def _discard(self, path, reason):
        """Drop an unreadable entry so the caller's rewrite replaces it."""
        _log.warning("discarding cache entry %s: %s", path, reason)
        self.stats.corrupt += 1
        self.stats.misses += 1
        try:
            path.unlink()
        except OSError:
            pass

    def _write_failed(self, key, reason):
        _log.warning("cannot write cache entry %s: %s", self._path_for(key),
                     reason)
        self.stats.errors += 1
        return False

    def _publish(self, key, data):
        """Write one entry's bytes; failures are logged and counted, never
        raised (caching is never a correctness dependency)."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # Atomic publish: concurrent sweep workers may store the same
            # entry; the rename makes readers see old-or-new, never partial.
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=_TEMP_PREFIX, suffix=self._suffix
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_name, self._path_for(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except Exception as exc:
            return self._write_failed(key, exc)
        self.stats.stores += 1
        return True

    # -- maintenance -----------------------------------------------------------

    def entries(self):
        """Paths of all entries currently on disk (never another writer's
        temporary file)."""
        try:
            return sorted(path for path in self.root.glob(f"*{self._suffix}")
                          if not path.name.startswith(_TEMP_PREFIX))
        except OSError:
            return []

    def size_bytes(self):
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self):
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def info(self):
        """Human-oriented summary used by ``repro cache info``/``stats``."""
        return {
            "root": str(self.root),
            "entries": len(self.entries()),
            "size_bytes": self.size_bytes(),
            "schema": self.schema,
            **self.stats.as_dict(),
        }

    def __repr__(self):
        return (f"<{type(self).__name__} {self.root} "
                f"({len(self.entries())} entries)>")


class ProfileStore(_EntryStore):
    """Content-addressed on-disk store for execution profiles."""

    _home_dir = "profiles"
    _cache_dir_subdir = ""
    _suffix = ".prof"

    def __init__(self, root=None, schema=None):
        super().__init__(root, PROFILE_CACHE_SCHEMA if schema is None else schema)

    def cache_key(self, source, fuel, inline=False, transform=False):
        """Content hash identifying one (program, profiling setup) pair.

        ``transform`` is the structural-transform pipeline flag: the same
        source profiled with and without fission/peel/fusion yields
        different loop populations, so the entries must never collide.
        """
        tag = (
            f"{self.schema}|{FORMAT_VERSION}|{_pipeline_digest()}"
            f"|{fuel}|{int(bool(inline))}|{int(bool(transform))}|"
        )
        digest = hashlib.sha256()
        digest.update(tag.encode("utf-8"))
        digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    def load(self, source, fuel, inline=False, transform=False):
        """Return a :class:`CachedRun` on a hit, else ``None``.

        Corrupt entries (truncated, checksum mismatch, wrong schema or key,
        any layout other than the one :meth:`store` writes) are logged,
        deleted and reported as a miss so the caller re-profiles and
        overwrites them.
        """
        key = self.cache_key(source, fuel, inline, transform)
        path = self._path_for(key)
        data = self._read(path)
        if data is None:
            return None
        try:
            profile, extra = unpack_profile_with_extra(
                self._verified_payload(key, data))
            static_loops = _static_loops_from_dict(extra["static_loops"])
            output = list(extra["output"])
        except Exception as exc:
            self._discard(path, exc)
            return None
        self.stats.hits += 1
        return CachedRun(profile, static_loops, output)

    def _entry_prefix(self, key):
        return b"repro-profile %d %s " % (self.schema, key.encode("ascii"))

    def _verified_payload(self, key, data):
        """The payload of an entry in :meth:`store`'s layout, checked
        against the stored checksum before any decoding; raises
        ``ValueError`` naming the defect for anything else (including
        another schema)."""
        prefix = self._entry_prefix(key)
        newline = data.find(b"\n", len(prefix), len(prefix) + 21)
        length = data[len(prefix):newline]
        if not data.startswith(prefix) or newline < 0 or not length.isdigit():
            raise ValueError("not a canonical entry")
        start = newline + 1
        end = start + int(length)
        if len(data) < end + 64:
            raise ValueError(f"truncated: {len(data)} of {end + 64} bytes")
        if len(data) > end + 64:
            raise ValueError("not a canonical entry: "
                             f"{len(data) - end - 64} trailing bytes")
        payload = memoryview(data)[start:end]
        if hashlib.sha256(payload).hexdigest().encode("ascii") != data[end:]:
            raise ValueError("checksum mismatch")
        return payload

    def store(self, source, fuel, profile, static_info, output, inline=False,
              transform=False):
        """Persist one profiling run; returns whether it was written. A
        profile that cannot be encoded counts as an error like a failed
        write."""
        key = self.cache_key(source, fuel, inline, transform)
        try:
            payload = pack_profile(profile, {
                "static_loops": _static_loops_to_dict(static_info.loops),
                "output": list(output),
            })
        except Exception as exc:
            return self._write_failed(key, exc)
        return self._publish(key, b"".join((
            self._entry_prefix(key), b"%d\n" % len(payload), payload,
            hashlib.sha256(payload).hexdigest().encode("ascii"))))


_DEFAULT_STORE = None


def default_store():
    """Process-wide shared store at the default location, or ``None`` when
    disabled via ``REPRO_NO_PROFILE_CACHE``."""
    global _DEFAULT_STORE
    if current().no_profile_cache:
        return None
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ProfileStore()
    return _DEFAULT_STORE


# -- code cache ----------------------------------------------------------------

#: Version of the on-disk code-cache entry layout. The *content* of cached
#: sources is versioned separately by ``repro.interp.codegen.CODEGEN_VERSION``
#: (part of the entry key).
CODE_CACHE_SCHEMA = 1

#: Entry cap for the on-disk code cache (oldest-access eviction). Sized so
#: a full bundled-suite sweep (48 programs x 2 variants x a few tiers) fits
#: with headroom; long-lived fuzzing hosts stay bounded.
CODE_CACHE_CAP = 1024


class CodeCache(_EntryStore):
    """Content-addressed on-disk store for JIT-generated Python sources.

    Keys come from :func:`repro.interp.codegen.jit_cache_key` (IR text +
    plan + codegen version), so a warm sweep skips source generation
    entirely and goes straight to ``compile()``. Bounded: beyond ``cap``
    entries the least recently used (oldest mtime) are evicted.
    """

    _home_dir = "code"
    _cache_dir_subdir = "code"
    _suffix = ".json"

    def __init__(self, root=None, schema=None, cap=None):
        super().__init__(root, CODE_CACHE_SCHEMA if schema is None else schema)
        self.cap = CODE_CACHE_CAP if cap is None else cap
        self.evictions = 0

    def load(self, key):
        """The cached source for ``key``, or ``None``. Corrupt entries are
        deleted and counted, then reported as a miss."""
        path = self._path_for(key)
        data = self._read(path)
        if data is None:
            return None
        try:
            entry = json.loads(data)
            if entry.get("schema") != self.schema:
                raise ValueError("schema mismatch")
            source = entry["source"]
            if not isinstance(source, str):
                raise ValueError("bad source payload")
            checksum = hashlib.sha256(source.encode("utf-8")).hexdigest()
            if entry.get("checksum") != checksum:
                raise ValueError("checksum mismatch")
        except Exception as exc:
            self._discard(path, exc)
            return None
        self.stats.hits += 1
        try:
            os.utime(path)  # LRU touch: eviction is oldest-mtime-first
        except OSError:
            pass
        return source

    def store(self, key, source, meta=None):
        """Persist one generated source; returns whether it was written."""
        entry = {
            "schema": self.schema,
            "key": key,
            "source": source,
            "checksum": hashlib.sha256(source.encode("utf-8")).hexdigest(),
            "meta": dict(meta) if meta else {},
        }
        if not self._publish(key, json.dumps(entry).encode("utf-8")):
            return False
        self._evict_to_cap()
        return True

    def _evict_to_cap(self):
        """Drop least-recently-used entries until the cap holds. Races
        with concurrent processes are benign: eviction of an entry another
        process is about to read just costs that process a miss."""
        entries = self.entries()
        if len(entries) <= self.cap:
            return
        by_age = []
        for path in entries:
            try:
                by_age.append((path.stat().st_mtime, str(path), path))
            except OSError:
                pass
        by_age.sort()
        for _, _, path in by_age[: max(0, len(by_age) - self.cap)]:
            try:
                path.unlink()
                self.evictions += 1
            except OSError:
                pass

    def info(self):
        return {**super().info(), "cap": self.cap,
                "evictions": self.evictions}


_DEFAULT_CODE_CACHE = None


def default_code_cache():
    """Process-wide shared code cache, or ``None`` when caching is
    disabled via ``REPRO_NO_PROFILE_CACHE`` (one switch governs both the
    profile store and the code cache, so cold-start timing runs stay
    cold)."""
    global _DEFAULT_CODE_CACHE
    if current().no_profile_cache:
        return None
    if _DEFAULT_CODE_CACHE is None:
        _DEFAULT_CODE_CACHE = CodeCache()
    return _DEFAULT_CODE_CACHE


# -- payload helpers -----------------------------------------------------------


def _static_loops_to_dict(loops):
    from ..core.static_info import loop_static_to_dict

    return {loop_id: loop_static_to_dict(s) for loop_id, s in loops.items()}


def _static_loops_from_dict(data):
    from ..core.static_info import loop_static_from_dict

    return {loop_id: loop_static_from_dict(entry) for loop_id, entry in data.items()}
