"""The packed-column profile encoding is exact.

``unpack_profile(pack_profile(p))`` must be indistinguishable from ``p``:
the same ``profile_to_dict`` JSON, the same ``type()`` for every
value, floats equal bit for bit, and every dictionary in the order
``profile_from_dict`` produces. Random invocation trees cover the edges of
the layout (ints beyond int64, bools, NaN/inf/-0.0, ``None``-padded use
offsets, empty tables, non-ASCII phi keys, 2,000-deep chains); the corpus
test covers every bundled program and a set of generated ones through the
profile store.
"""

from __future__ import annotations

import contextlib
import json
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import all_programs
from repro.core.framework import Loopapalooza
from repro.errors import FrameworkError
from repro.fuzz.genprog import generate_program
from repro.runtime.call_records import CallSiteSummary
from repro.runtime.profile import LoopInvocation, ProgramProfile
from repro.runtime.profile_store import ProfileStore
from repro.runtime.serialize import (
    pack_profile,
    packed_regions,
    profile_from_dict,
    profile_to_dict,
    unpack_profile,
    unpack_profile_with_extra,
)

INT64 = st.integers(-(1 << 63), (1 << 63) - 1)
BEYOND_INT64 = st.one_of(st.integers(min_value=1 << 63),
                         st.integers(max_value=-(1 << 63) - 1))
#: Every float hypothesis draws, NaNs with any sign and payload included.
FLOATS = st.floats()
SPECIAL_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                  -0.0, 0.0])
SCALARS = st.one_of(INT64, BEYOND_INT64, st.booleans(), FLOATS,
                    SPECIAL_FLOATS, st.none())

RUNS = st.one_of(
    st.lists(INT64, max_size=8),
    st.lists(st.one_of(FLOATS, SPECIAL_FLOATS), max_size=8),
    st.lists(st.one_of(INT64, st.none()), max_size=8),  # use offsets
    st.lists(st.one_of(INT64, BEYOND_INT64), max_size=4),
    st.lists(SCALARS, max_size=8),
)
PHI_KEYS = st.one_of(st.sampled_from(["main.for.cond#1:x", "φ", "环#2:s"]),
                     st.text(max_size=6))
TABLES = st.dictionaries(PHI_KEYS, RUNS, max_size=3)

NODES = st.fixed_dictionaries({
    "loop_id": st.one_of(st.sampled_from(["main.for.cond", "f.while.body"]),
                         st.text(max_size=6)),
    "parent_iter": INT64,
    "iter_starts": st.lists(INT64, min_size=1, max_size=8),
    "end_ts": INT64,
    "conflict_pairs": st.dictionaries(INT64, INT64, max_size=4),
    "max_mem_skew": st.one_of(FLOATS, SPECIAL_FLOATS),
    "conflict_count": INT64,
    "lcd_values": TABLES,
    "lcd_def_offsets": TABLES,
    "lcd_use_offsets": TABLES,
    "exited": st.booleans(),
})

CALL_SITES = st.dictionaries(st.text(max_size=6), st.fixed_dictionaries({
    "calls": INT64,
    "total_duration": INT64,
    # The header is JSON, where a NaN keeps neither sign nor payload; a
    # saving is a sum of non-negative spans and is never NaN.
    "total_saving": st.floats(allow_nan=False),
    "dependent_calls": INT64,
}), max_size=3)

DEEP = 2000


def _invocation(fields, parent):
    invocation = LoopInvocation(fields["loop_id"], parent,
                                fields["parent_iter"],
                                fields["iter_starts"][0])
    for name, value in fields.items():
        setattr(invocation, name, value)
    if parent is not None:
        parent.children.append(invocation)
    return invocation


def _profile(name, total_cost, result, call_sites, nodes, parents, chain=0):
    """A profile whose node ``i`` hangs under node ``parents[i] % i`` (the
    first node and negative choices go to the top level), with a chain of
    ``chain`` nested copies of the last node below it."""
    profile = ProgramProfile(name)
    profile.total_cost = total_cost
    profile.result = result
    for site_id, entry in call_sites.items():
        summary = CallSiteSummary(site_id)
        for field, value in entry.items():
            setattr(summary, field, value)
        profile.call_sites[site_id] = summary
    built = []
    for index, (fields, choice) in enumerate(zip(nodes, parents)):
        parent = built[choice % index] if index and choice >= 0 else None
        built.append(_invocation(dict(fields), parent))
        if parent is None:
            profile.top_level.append(built[-1])
    below = built[-1] if built else None
    for _ in range(chain):
        fields = dict(nodes[-1]) if nodes else {
            "loop_id": "chain", "parent_iter": 0, "iter_starts": [0]}
        fields["iter_starts"] = list(fields["iter_starts"])
        below = _invocation(fields, below)
        if below.parent is None:
            profile.top_level.append(below)
    return profile


@contextlib.contextmanager
def _deep_recursion():
    """``profile_to_dict`` / ``profile_from_dict`` and ``json`` recurse per
    tree level; the comparison forms need room for a 2,000-deep chain."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, 6 * DEEP + 1000))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def _preorder(profile):
    return profile.all_invocations()


def _bits(value):
    return struct.pack("<d", value)


def _assert_same_values(expected, actual, where):
    assert len(expected) == len(actual), where
    for want, got in zip(expected, actual):
        assert type(want) is type(got), (where, want, got)
        if type(want) is float:
            assert _bits(want) == _bits(got), (where, want, got)
        else:
            assert want == got, (where, want, got)


def assert_same_json(original, decoded):
    """``profile_to_dict`` JSON is byte-identical, key order included, so
    the sorted-key forms are equal too. Compared as one boolean: pytest's
    diff of two multi-megabyte strings takes minutes."""
    same = (json.dumps(profile_to_dict(decoded))
            == json.dumps(profile_to_dict(original)))
    assert same, "profile_to_dict JSON differs"


def assert_exact(original, decoded):
    """Every property the module docstring promises."""
    with _deep_recursion():
        assert_same_json(original, decoded)
        reference = profile_from_dict(profile_to_dict(original))
    _assert_same_values([original.name, original.total_cost, original.result],
                        [decoded.name, decoded.total_cost, decoded.result],
                        "profile")
    assert list(decoded.call_sites) == list(reference.call_sites)
    for site_id, summary in original.call_sites.items():
        got = decoded.call_sites[site_id]
        _assert_same_values(
            [summary.calls, summary.total_duration, summary.total_saving,
             summary.dependent_calls],
            [got.calls, got.total_duration, got.total_saving,
             got.dependent_calls], site_id)
    originals, references, decodeds = (_preorder(original),
                                       _preorder(reference),
                                       _preorder(decoded))
    assert len(decodeds) == len(originals)
    rows = {id(invocation): row for row, invocation in enumerate(decodeds)}
    for row, (want, ref, got) in enumerate(zip(originals, references,
                                               decodeds)):
        where = f"invocation {row}"
        _assert_same_values(
            [want.loop_id, want.parent_iter, want.end_ts, want.max_mem_skew,
             want.conflict_count, want.exited, len(want.children)],
            [got.loop_id, got.parent_iter, got.end_ts, got.max_mem_skew,
             got.conflict_count, got.exited, len(got.children)], where)
        _assert_same_values(want.iter_starts, got.iter_starts, where)
        assert (got.parent is None) == (want.parent is None), where
        if got.parent is not None:
            assert got in got.parent.children, where
            assert rows[id(got.parent)] < row, where
        assert list(got.conflict_pairs.items()) == list(
            ref.conflict_pairs.items()), where
        for table in ("lcd_values", "lcd_def_offsets", "lcd_use_offsets"):
            expected, actual = getattr(ref, table), getattr(got, table)
            assert list(actual) == list(expected), (where, table)
            for key, values in getattr(want, table).items():
                _assert_same_values(values, actual[key], (where, table, key))


@settings(max_examples=50)
@given(
    name=st.text(max_size=8),
    total_cost=st.one_of(INT64, BEYOND_INT64),
    result=st.one_of(INT64, st.none()),
    call_sites=CALL_SITES,
    nodes=st.lists(NODES, max_size=8),
    parents=st.lists(st.integers(-1, 100), min_size=8, max_size=8),
    deep=st.booleans(),
)
def test_random_trees_round_trip_exactly(name, total_cost, result, call_sites,
                                         nodes, parents, deep):
    profile = _profile(name, total_cost, result, call_sites, nodes, parents,
                       chain=DEEP if deep else 0)
    assert_exact(profile, unpack_profile(pack_profile(profile)))


def test_deep_chain_round_trips():
    nodes = [{"loop_id": "f.for", "parent_iter": 3, "iter_starts": [5, 9],
              "end_ts": 12, "conflict_pairs": {1: 0}, "max_mem_skew": 2.5,
              "conflict_count": 1, "lcd_values": {"f.for#1:x": [7]},
              "lcd_def_offsets": {"f.for#1:x": [2]},
              "lcd_use_offsets": {"f.for#1:x": [None, 3]}, "exited": True}]
    profile = _profile("deep", 100, 0, {}, nodes, [-1], chain=DEEP)
    decoded = unpack_profile(pack_profile(profile))
    assert len(decoded.all_invocations()) == DEEP + 1
    assert_exact(profile, decoded)


def test_extra_and_regions():
    profile = _profile("p", 1, 0, {}, [], [])
    data = pack_profile(profile, {"output": [1, 2]})
    assert unpack_profile_with_extra(data)[1] == {"output": [1, 2]}
    regions = packed_regions(data)
    assert regions[0][1] == 0 and regions[-1][2] == len(data)
    assert all(a[2] == b[1] for a, b in zip(regions, regions[1:]))


@pytest.mark.parametrize("damage", [
    lambda data: data[:-8],
    lambda data: data + bytes(8),
    lambda data: b"LPPX" + data[4:],
], ids=["short", "long", "magic"])
def test_malformed_input_raises(damage):
    profile = _profile("p", 1, 0, {}, [{
        "loop_id": "l", "parent_iter": -1, "iter_starts": [0, 4],
        "end_ts": 9, "conflict_pairs": {}, "max_mem_skew": 0.0,
        "conflict_count": 0, "lcd_values": {}, "lcd_def_offsets": {},
        "lcd_use_offsets": {}, "exited": True}], [-1])
    with pytest.raises(ValueError):
        unpack_profile(damage(pack_profile(profile)))


def test_other_format_version_raises():
    data = pack_profile(_profile("p", 1, 0, {}, [], []))
    at = data.index(b'"format":1')
    with pytest.raises(FrameworkError, match="format"):
        unpack_profile(data[:at] + b'"format":9' + data[at + 10:])


@pytest.mark.parametrize("field, value", [
    ("iter_starts", [0, 1.5]),
    ("end_ts", True),
    ("max_mem_skew", 0),
    ("conflict_pairs", {1 << 64: 0}),
])
def test_unpackable_structural_values_raise(field, value):
    """Structural columns hold int64 (``max_mem_skew`` float64) exactly or
    the profile is refused; nothing is silently converted."""
    fields = {"loop_id": "l", "parent_iter": -1, "iter_starts": [0],
              "end_ts": 9, "conflict_pairs": {}, "max_mem_skew": 0.0,
              "conflict_count": 0, "lcd_values": {}, "lcd_def_offsets": {},
              "lcd_use_offsets": {}, "exited": True, field: value}
    with pytest.raises((TypeError, OverflowError), match=field):
        pack_profile(_profile("p", 1, 0, {}, [fields], [-1]))


# -- corpus: every bundled program and generated ones, through the store ------

GENERATED = [generate_program(seed) for seed in range(20)]


def _round_trip_through_store(tmp_path, name, profile):
    store = ProfileStore(tmp_path)
    source = f"// {name}"
    assert store.store(source, 1, profile, _NoLoops, [])
    cached = store.load(source, 1)
    assert cached is not None
    return cached.profile


class _NoLoops:
    loops = {}


@pytest.mark.parametrize("program", all_programs(),
                         ids=lambda program: program.full_name)
def test_bundled_profiles_round_trip_through_store(runner, program, tmp_path):
    profile = runner.instance(program).profile()
    assert_same_json(profile, _round_trip_through_store(
        tmp_path, program.full_name, profile))


@pytest.mark.parametrize("generated", GENERATED,
                         ids=lambda generated: generated.name)
def test_generated_profiles_round_trip_through_store(generated, tmp_path):
    profile = Loopapalooza(generated.source, name=generated.name).profile()
    assert_same_json(profile, _round_trip_through_store(
        tmp_path, generated.name, profile))
