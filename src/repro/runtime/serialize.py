"""Profile serialization: JSON interchange and the packed-column cache body.

Profiling is the expensive step (an instrumented interpreter run); the
evaluation of Table-II configurations is cheap. Serializing profiles lets a
study run once and be re-analyzed offline — the same reason the paper
separates its compile-time and run-time components.

Two encodings of one :class:`ProgramProfile`:

* :func:`profile_to_dict` / :func:`save_profile` — the documented JSON
  interchange format and the comparison form of the differential tests.
* :func:`pack_profile` / :func:`unpack_profile` — the body of profile-store
  entries, exact down to value types, float bits and dictionary order.
  Parsing the JSON of a large profile costs more than evaluating it, so
  the store writes the invocation tree as flat little-endian int64/float64
  columns plus a small JSON header instead.

Packed layout (all columns int64 unless noted, every count in the
header's ``counts``)::

    "LPPK" | u64 header length | header JSON (UTF-8)
    invocation table, one column each, one row per invocation in preorder:
        loop (index into header loop_ids), parent (row, -1 at top level),
        parent_iter, iterations, end_ts, conflict_count, exited,
        pairs, runs
    iter_starts              every invocation's, concatenated
    conflict_pairs           (consumer, producer) in consumer order
    run_table, run_key, run_tag, run_length
                             one run per (invocation, lcd_* table, phi key)
    int_values               values of int and int-with-None runs
    max_mem_skew   float64   one per invocation
    float_values   float64   values of float runs

A run's tag says where its values live: ``int`` and ``int-with-None``
(``None`` written as -2**63) in ``int_values``, ``float`` in
``float_values``, and ``header`` for anything else — ints beyond int64,
bools, mixed types — as a JSON list in the header's ``header_runs``
(floats there as ``[bits]`` so every NaN keeps its bits). The structural
columns must fit int64; a profile where they do not cannot be packed. The
header's own values (name, total cost, result, call sites) follow JSON,
where a NaN keeps neither sign nor payload.
"""

from __future__ import annotations

import array
import gc
import json
import struct
import sys

from ..errors import FrameworkError
from .call_records import CallSiteSummary
from .profile import LoopInvocation, ProgramProfile

FORMAT_VERSION = 1


def _invocation_to_dict(invocation):
    return {
        "loop_id": invocation.loop_id,
        "parent_iter": invocation.parent_iter,
        "iter_starts": invocation.iter_starts,
        "end_ts": invocation.end_ts,
        "conflict_pairs": sorted(invocation.conflict_pairs.items()),
        "max_mem_skew": invocation.max_mem_skew,
        "conflict_count": invocation.conflict_count,
        "lcd_values": invocation.lcd_values,
        "lcd_def_offsets": invocation.lcd_def_offsets,
        "lcd_use_offsets": invocation.lcd_use_offsets,
        "exited": invocation.exited,
        "children": [
            _invocation_to_dict(child) for child in invocation.children
        ],
    }


def _invocation_from_dict(data, parent):
    invocation = LoopInvocation(
        data["loop_id"], parent, data["parent_iter"], data["iter_starts"][0]
    )
    invocation.iter_starts = list(data["iter_starts"])
    invocation.end_ts = data["end_ts"]
    invocation.conflict_pairs = {
        int(consumer): int(producer)
        for consumer, producer in data["conflict_pairs"]
    }
    invocation.max_mem_skew = data["max_mem_skew"]
    invocation.conflict_count = data["conflict_count"]
    invocation.lcd_values = dict(data["lcd_values"])
    invocation.lcd_def_offsets = dict(data["lcd_def_offsets"])
    invocation.lcd_use_offsets = dict(data["lcd_use_offsets"])
    invocation.exited = data["exited"]
    invocation.children = [
        _invocation_from_dict(child, invocation)
        for child in data["children"]
    ]
    return invocation


def _call_sites_to_dict(call_sites):
    return {
        site_id: {
            "calls": summary.calls,
            "total_duration": summary.total_duration,
            "total_saving": summary.total_saving,
            "dependent_calls": summary.dependent_calls,
        }
        for site_id, summary in call_sites.items()
    }


def _profile_shell(data):
    """A :class:`ProgramProfile` with everything but the invocation tree,
    from a :func:`profile_to_dict`-style dictionary."""
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise FrameworkError(
            f"unsupported profile format {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    profile = ProgramProfile(data["name"])
    profile.total_cost = data["total_cost"]
    profile.result = data["result"]
    for site_id, entry in data.get("call_sites", {}).items():
        summary = CallSiteSummary(site_id)
        summary.calls = entry["calls"]
        summary.total_duration = entry["total_duration"]
        summary.total_saving = entry["total_saving"]
        summary.dependent_calls = entry["dependent_calls"]
        profile.call_sites[site_id] = summary
    return profile


def profile_to_dict(profile):
    """Convert a :class:`ProgramProfile` to a JSON-safe dictionary."""
    return {
        "format": FORMAT_VERSION,
        "name": profile.name,
        "total_cost": profile.total_cost,
        "result": profile.result,
        "top_level": [
            _invocation_to_dict(invocation)
            for invocation in profile.top_level
        ],
        "call_sites": _call_sites_to_dict(profile.call_sites),
    }


def profile_from_dict(data):
    """Rebuild a :class:`ProgramProfile` from :func:`profile_to_dict`
    output."""
    profile = _profile_shell(data)
    profile.top_level = [
        _invocation_from_dict(entry, None) for entry in data["top_level"]
    ]
    return profile


def save_profile(profile, path):
    """Write a profile to ``path`` as JSON."""
    with open(path, "w") as handle:
        handle.write(json.dumps(profile_to_dict(profile)))


def load_profile(path):
    """Read a profile previously written by :func:`save_profile`."""
    with open(path) as handle:
        return profile_from_dict(json.load(handle))


# -- packed columns ------------------------------------------------------------

_MAGIC = b"LPPK"
#: Magic, then the byte length of the JSON header that follows it.
_FRAME = struct.Struct("<4sQ")

_TABLE_COLUMNS = ("loop", "parent", "parent_iter", "iterations", "end_ts",
                  "conflict_count", "exited", "pairs", "runs")
_RUN_COLUMNS = ("run_table", "run_key", "run_tag", "run_length")

_INT, _FLOAT, _INT_OR_NONE, _HEADER = range(4)
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
#: How an int-with-None run writes ``None``; a run holding this value as
#: an int goes to the header instead.
_NONE = _INT64_MIN
_BIG_ENDIAN_HOST = sys.byteorder == "big"
_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<q")


def _columns(counts):
    """``(name, typecode, length)`` of every column, in payload order: all
    int64 columns, then the float64 ones."""
    invocations, starts, pairs, runs, ints, floats = counts
    return [
        *((name, "q", invocations) for name in _TABLE_COLUMNS),
        ("iter_starts", "q", starts),
        ("conflict_pairs", "q", 2 * pairs),
        *((name, "q", runs) for name in _RUN_COLUMNS),
        ("int_values", "q", ints),
        ("max_mem_skew", "d", invocations),
        ("float_values", "d", floats),
    ]


_INTS = frozenset((int,))
_FLOATS = frozenset((float,))
_INTS_OR_NONE = frozenset((int, type(None)))


def _run_tag(values):
    """Which column a run's values go to (see the module docstring)."""
    kinds = set(map(type, values))
    if kinds == _INTS:
        if min(values) >= _INT64_MIN and max(values) <= _INT64_MAX:
            return _INT
    elif kinds == _FLOATS:
        return _FLOAT
    elif not kinds:
        return _INT
    elif kinds == _INTS_OR_NONE:
        present = [value for value in values if value is not None]
        if min(present) > _NONE and max(present) <= _INT64_MAX:
            return _INT_OR_NONE
    return _HEADER


def _header_run(values):
    for value in values:
        if value is not None and type(value) not in (int, float, bool):
            raise TypeError(f"cannot pack LCD value {value!r}")
    return [[_BITS.unpack(_DOUBLE.pack(value))[0]] if type(value) is float
            else value for value in values]


def _from_header_run(values):
    return [_DOUBLE.unpack(_BITS.pack(value[0]))[0] if type(value) is list
            else value for value in values]


def _require(name, values, kind):
    """Reject a column holding anything but ``kind`` (a bool is not an
    int here: it would come back as one)."""
    found = set(map(type, values)) - {kind}
    if found:
        raise TypeError(
            f"cannot pack {name}: {sorted(t.__name__ for t in found)} "
            f"values, expected {kind.__name__}")


def pack_profile(profile, extra=None):
    """The packed-column encoding of ``profile`` (layout in the module
    docstring). ``extra`` is any JSON-safe value stored in the header and
    returned by :func:`unpack_profile_with_extra`.

    Raises ``TypeError`` / ``OverflowError`` for a profile the layout cannot
    hold exactly (a non-int timestamp, a structural value beyond int64)."""
    loop_index = {}
    key_index = {}
    table = tuple([] for _ in _TABLE_COLUMNS)
    (loops, parents, parent_iters, iterations, end_ts, conflict_counts,
     exited, pair_counts, run_counts) = table
    starts, pairs, ints, skews, floats, header_runs = [], [], [], [], [], []
    runs = tuple([] for _ in _RUN_COLUMNS)
    run_tables, run_keys, run_tags, run_lengths = runs

    stack = [(invocation, -1) for invocation in reversed(profile.top_level)]
    while stack:
        invocation, parent = stack.pop()
        row = len(loops)
        loops.append(loop_index.setdefault(invocation.loop_id,
                                           len(loop_index)))
        parents.append(parent)
        parent_iters.append(invocation.parent_iter)
        iterations.append(len(invocation.iter_starts))
        starts += invocation.iter_starts
        end_ts.append(invocation.end_ts)
        conflict_counts.append(invocation.conflict_count)
        exited.append(invocation.exited)
        skews.append(invocation.max_mem_skew)
        conflict_pairs = invocation.conflict_pairs
        pair_counts.append(len(conflict_pairs))
        for consumer in sorted(conflict_pairs):
            pairs += (consumer, conflict_pairs[consumer])
        first_run = len(run_tags)
        for which, lcd in enumerate((invocation.lcd_values,
                                     invocation.lcd_def_offsets,
                                     invocation.lcd_use_offsets)):
            for key, values in lcd.items():
                tag = _run_tag(values)
                if tag == _INT:
                    ints += values
                elif tag == _FLOAT:
                    floats += values
                elif tag == _INT_OR_NONE:
                    ints += [_NONE if value is None else value
                             for value in values]
                else:
                    header_runs.append(_header_run(values))
                run_tables.append(which)
                run_keys.append(key_index.setdefault(key, len(key_index)))
                run_tags.append(tag)
                run_lengths.append(len(values))
        run_counts.append(len(run_tags) - first_run)
        stack.extend((child, row) for child in reversed(invocation.children))

    for name, values in (("parent_iter", parent_iters), ("end_ts", end_ts),
                         ("conflict_count", conflict_counts),
                         ("iter_starts", starts), ("conflict_pairs", pairs)):
        _require(name, values, int)
    _require("exited", exited, bool)
    _require("max_mem_skew", skews, float)
    _require("loop_id", loop_index, str)
    _require("phi key", key_index, str)

    header = {
        "format": FORMAT_VERSION,
        "name": profile.name,
        "total_cost": profile.total_cost,
        "result": profile.result,
        "call_sites": _call_sites_to_dict(profile.call_sites),
        "loop_ids": list(loop_index),
        "phi_keys": list(key_index),
        "counts": [len(loops), len(starts), len(pairs) // 2, len(run_tags),
                   len(ints), len(floats)],
        "header_runs": header_runs,
        "extra": extra,
    }
    values_of = {
        **dict(zip(_TABLE_COLUMNS, table)), "iter_starts": starts,
        "conflict_pairs": pairs, **dict(zip(_RUN_COLUMNS, runs)),
        "int_values": ints, "max_mem_skew": skews, "float_values": floats,
    }
    column = {"q": array.array("q"), "d": array.array("d")}
    for name, code, _ in _columns(header["counts"]):
        try:
            column[code].fromlist(values_of[name])
        except OverflowError:
            raise OverflowError(f"cannot pack {name}: a value is beyond "
                                "int64") from None
    if _BIG_ENDIAN_HOST:
        column["q"].byteswap()
        column["d"].byteswap()
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join((_FRAME.pack(_MAGIC, len(header_bytes)), header_bytes,
                     column["q"].tobytes(), column["d"].tobytes()))


def _read_header(data):
    """The decoded JSON header and the offset of the first column."""
    if len(data) < _FRAME.size:
        raise ValueError("packed profile shorter than its frame")
    magic, length = _FRAME.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a packed profile")
    start = _FRAME.size + length
    if len(data) < start:
        raise ValueError("packed profile shorter than its header")
    return json.loads(bytes(data[_FRAME.size:start])), start


def packed_regions(data):
    """``(name, start, end)`` byte range of every part of a packed profile:
    ``frame``, ``header``, then each column of the layout in order."""
    header, offset = _read_header(data)
    regions = [("frame", 0, _FRAME.size), ("header", _FRAME.size, offset)]
    for name, _, length in _columns(header["counts"]):
        regions.append((name, offset, offset + 8 * length))
        offset += 8 * length
    return regions


def unpack_profile(data):
    """The :class:`ProgramProfile` :func:`pack_profile` encoded in
    ``data``."""
    return unpack_profile_with_extra(data)[0]


def unpack_profile_with_extra(data):
    """``(profile, extra)`` from :func:`pack_profile` output. Raises
    ``ValueError`` (or :class:`FrameworkError` for another format version)
    on anything that is not exactly such output.

    The cyclic collector is paused meanwhile: decoding only allocates
    objects that stay alive, so the collections it would trigger find
    nothing to free, yet on a large heap they cost more than the decode."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _unpack(data)
    finally:
        if enabled:
            gc.enable()


def _unpack(data):
    header, offset = _read_header(data)
    profile = _profile_shell(header)
    columns = _columns(header["counts"])
    # Each column's [begin, end) in the int64 or the float64 section.
    span = {}
    size = {"q": 0, "d": 0}
    for name, code, length in columns:
        span[name] = (size[code], size[code] + length)
        size[code] += length
    split = offset + 8 * size["q"]
    end = split + 8 * size["d"]
    if len(data) != end:
        raise ValueError(f"packed profile is {len(data)} bytes, its header "
                         f"describes {end}")
    view = memoryview(data)
    int_column = array.array("q")
    int_column.frombytes(view[offset:split])
    float_column = array.array("d")
    float_column.frombytes(view[split:end])
    if _BIG_ENDIAN_HOST:
        int_column.byteswap()
        float_column.byteswap()
    ints = int_column.tolist()
    floats = float_column.tolist()

    def column(name, section=ints):
        begin, end = span[name]
        return section[begin:end]

    # Runs first, as (table, key, values) in payload order.
    keys = header["phi_keys"]
    header_runs = iter(header["header_runs"])
    value_at, values_end = span["int_values"]
    float_at, floats_end = span["float_values"]
    decoded_runs = []
    for which, key, tag, length in zip(*map(column, _RUN_COLUMNS)):
        if tag == _INT:
            values = ints[value_at:value_at + length]
            value_at += length
        elif tag == _FLOAT:
            values = floats[float_at:float_at + length]
            float_at += length
        elif tag == _INT_OR_NONE:
            values = [None if value == _NONE else value
                      for value in ints[value_at:value_at + length]]
            value_at += length
        elif tag == _HEADER:
            values = _from_header_run(next(header_runs))
        else:
            raise ValueError(f"unknown run tag {tag}")
        if len(values) != length:
            raise ValueError("run overruns its value column")
        decoded_runs.append((which, keys[key], values))
    if (value_at != values_end or float_at != floats_end
            or next(header_runs, None) is not None):
        raise ValueError("value columns and run table disagree")

    # Then the invocation table; a parent row always precedes its children.
    table = [column(name) for name in _TABLE_COLUMNS]
    table.append(column("max_mem_skew", floats))
    if table[1] and min(table[1]) < -1:
        raise ValueError("bad parent row")
    loop_ids = header["loop_ids"]
    make = LoopInvocation.decoded
    rows = []
    top_level = profile.top_level
    start_at, starts_end = span["iter_starts"]
    pair_at, pairs_end = span["conflict_pairs"]
    run_at = 0
    for (loop, parent, parent_iter, count, end_ts, conflict_count, exited,
         pair_count, run_count, skew) in zip(*table):
        if pair_count:
            pair_end = pair_at + 2 * pair_count
            conflict_pairs = dict(zip(ints[pair_at:pair_end:2],
                                      ints[pair_at + 1:pair_end:2]))
            pair_at = pair_end
        else:
            conflict_pairs = {}
        lcd = ({}, {}, {})
        if run_count:
            for which, key, values in decoded_runs[run_at:run_at + run_count]:
                lcd[which][key] = values
            run_at += run_count
        parent = rows[parent] if parent >= 0 else None
        invocation = make(
            loop_ids[loop], parent, parent_iter,
            ints[start_at:start_at + count], end_ts, conflict_pairs, skew,
            conflict_count, lcd[0], lcd[1], lcd[2], exited == 1)
        start_at += count
        rows.append(invocation)
        if parent is None:
            top_level.append(invocation)
        else:
            parent.children.append(invocation)
    if (start_at != starts_end or pair_at != pairs_end
            or run_at != len(decoded_runs)):
        raise ValueError("invocation table and columns disagree")
    return profile, header["extra"]
