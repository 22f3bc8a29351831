"""Plan entries against the frozen index-vector reference.

A section plan keeps a (section ∩ task) overlap as one entry holding,
per axis and side, a basic ``slice`` where that axis' positions are
arithmetic and a read-only int64 position list where they are not.
The construction that expanded every overlap into ``spos`` / ``lflat``
/ ``np.sort(spos)`` is kept here, verbatim, as the reference
(`_reference_entries`): gathered bytes, scattered locals,
redistribution accounting and rebuild-scope intervals must be identical
to it whatever each axis holds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import (
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    GenBlock,
    Indexed,
    Replicated,
    block_distribution,
)
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import StreamingError
from repro.mlck.localized import compute_rebuild_scope
from repro.plancache import NullPlanCache, use_plan_cache
from repro.streaming.partition import partition, piece_offsets
from repro.streaming.serial import _piece_redistribution_bytes, strict_gather, stream_u8
from repro.streaming.vectorized import (
    BoxEntry,
    build_section_index_plan,
    gather_section_flat,
    range_redistribution_bytes,
    scatter_section_flat,
)

pytestmark = pytest.mark.streamvec


# -- the frozen reference: the parent's vector plans ------------------------


def _reference_entries(dist, section, order, kind):
    """``[(task, spos, lflat, spos_sorted)]`` exactly as the parent's
    ``build_section_index_plan`` built them for every overlap."""
    tasks = (
        dist.owner_tasks(section) if kind == "assigned"
        else dist.mapped_tasks(section)
    )
    out = []
    for t in tasks:
        base = dist.assigned(t) if kind == "assigned" else dist.mapped(t)
        sec = base.intersect(section)
        if sec.is_empty:
            continue
        spos = sec.flat_positions_within(
            section, enum_order=order, address_order=order
        )
        lflat = sec.flat_positions_within(
            dist.mapped(t), enum_order=order, address_order="C"
        )
        out.append((t, spos, lflat, np.sort(spos)))
    return out


def _reference_gather(darray, section, order):
    flat = np.zeros(section.size, dtype=darray.dtype)
    for t, spos, lflat, _ in _reference_entries(
        darray.distribution, section, order, "assigned"
    ):
        flat[spos] = np.ascontiguousarray(darray.local(t)).reshape(-1)[lflat]
    return flat


def _reference_scatter(darray, section, flat, order):
    for t, spos, lflat, _ in _reference_entries(
        darray.distribution, section, order, "mapped"
    ):
        np.put(darray.local(t), lflat, flat[spos])


def _reference_redis(entries, lo, hi, io_task, itemsize):
    moved = 0
    for t, _, _, spos_sorted in entries:
        if t != io_task:
            a, b = np.searchsorted(spos_sorted, (lo, hi))
            moved += int(b - a)
    return moved * itemsize


def _reference_intervals(entries, lost, itemsize):
    """The parent's ``_byte_intervals`` per lost entry, then merged."""
    intervals = []
    for t, _, _, sp in entries:
        if t not in lost:
            continue
        breaks = np.flatnonzero(np.diff(sp) != 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [sp.size - 1]))
        intervals += [
            (int(sp[s]) * itemsize, (int(sp[e]) + 1) * itemsize)
            for s, e in zip(starts, ends)
        ]
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _arithmetic(pos):
    """Test-side definition: a constant difference (trivially so for
    fewer than three positions)."""
    return len(set(np.diff(pos).tolist())) <= 1


def _irregular_axes(dist, section, task, kind):
    """Axes whose overlap positions are not arithmetic on some side."""
    base = dist.assigned(task) if kind == "assigned" else dist.mapped(task)
    sec = base.intersect(section)
    return [
        i for i in range(sec.rank)
        if not all(
            _arithmetic(outer[i].positions_of(sec[i]))
            for outer in (section, dist.mapped(task))
        )
    ]


def _list_axes(entry):
    """Axes on which the entry holds a position list on some side."""
    return [
        i for i, (s, lo) in enumerate(zip(entry.sbox, entry.lbox))
        if isinstance(s, np.ndarray) or isinstance(lo, np.ndarray)
    ]


# -- the differential check ---------------------------------------------------


def _filled(dist, seed=0, dtype=np.float64):
    """A consistent array of distinct random values (undefined elements
    zero in every mapped copy), so a misaddressed copy shows."""
    arr = DistributedArray("a", dist.shape, dtype, dist)
    rng = np.random.default_rng(seed)
    for t in range(dist.ntasks):
        arr.local(t)[...] = rng.random(arr.local(t).shape)
    # owners define the values; refresh the mapped copies from them
    arr.set_global(arr.to_global())
    return arr


def _check_case(dist, section, order):
    itemsize = 8
    arr = _filled(dist)

    # representation: box iff arithmetic on every axis, on both sides
    for kind in ("assigned", "mapped"):
        plan = build_section_index_plan(dist, section, order, kind)
        ref = _reference_entries(dist, section, order, kind)
        assert [e.task for e in plan.entries] == [t for t, *_ in ref]
        assert [e.size for e in plan.entries] == [sp.size for _, sp, _, _ in ref]
        for e in plan.entries:
            assert type(e) is BoxEntry and not hasattr(e, "spos")
            axes = _irregular_axes(dist, section, e.task, kind)
            assert _list_axes(e) == axes, (kind, e.task)
            lists = [i for i in e.sbox + e.lbox if isinstance(i, np.ndarray)]
            assert all(i.dtype == np.int64 and not i.flags.writeable for i in lists)
            # O(axis extents): at most one list per side per irregular axis
            extent = sum(dist.shape[i] for i in axes)
            assert e.nbytes <= 88 * section.rank + 16 * extent

    # gather: bytes identical, strictness identical
    plan = build_section_index_plan(dist, section, order, "assigned")
    want = _reference_gather(arr, section, order)
    assert gather_section_flat(arr, section, order=order).tobytes() == want.tobytes()
    if plan.covered < section.size:
        with pytest.raises(StreamingError):
            gather_section_flat(arr, section, order=order, strict=True)
    else:
        got = gather_section_flat(arr, section, order=order, strict=True)
        assert got.tobytes() == want.tobytes()

    # scatter: every local identical, untouched elements included
    values = np.random.default_rng(1).random(section.size)
    a, b = _filled(dist, seed=2), _filled(dist, seed=2)
    scatter_section_flat(a, section, values, order=order)
    _reference_scatter(b, section, values, order)
    for t in range(dist.ntasks):
        assert np.array_equal(a.local(t), b.local(t)), t

    # accounting: closed form == searchsorted reference == slice algebra
    ref = _reference_entries(dist, section, order, "assigned")
    for m in (1, 4):
        pieces = partition(section, m, order)
        offsets = piece_offsets(pieces, 1)
        for piece, lo in zip(pieces, offsets):
            for p in range(dist.ntasks):
                got = range_redistribution_bytes(
                    plan, lo, lo + piece.size, p, itemsize
                )
                assert got == _reference_redis(ref, lo, lo + piece.size, p, itemsize)
                assert got == _piece_redistribution_bytes(arr, piece, p)
    # ... and on intervals that are not pieces
    rng = np.random.default_rng(3)
    for _ in range(6):
        lo, hi = sorted(rng.integers(0, section.size + 2, size=2).tolist())
        for p in (0, dist.ntasks - 1):
            assert range_redistribution_bytes(plan, lo, hi, p, itemsize) == (
                _reference_redis(ref, lo, hi, p, itemsize)
            )


def _check_scope(dist, order):
    """Rebuild scope for every lost rank."""
    section = Slice.full(dist.shape)
    ref = _reference_entries(dist, section, order, "assigned")
    manifest = {
        "prefix": "p",
        "arrays": [{
            "name": "a", "dtype": "float64", "shape": list(dist.shape),
            "nbytes": section.size * 8,
        }],
    }
    placement = {r: r for r in range(dist.ntasks)}
    for lost in range(dist.ntasks):
        scope = compute_rebuild_scope(
            manifest, dist.ntasks, placement, [lost], order=order,
            distribution_overrides={"a": dist},
        ).arrays[0]
        assert scope.lost_intervals == _reference_intervals(ref, {lost}, 8)
        assert scope.rank_bytes == {t: sp.size * 8 for t, sp, _, _ in ref}
        assert scope.lost_bytes == scope.rank_bytes.get(lost, 0)
        assert scope.lost_bytes == sum(hi - lo for lo, hi in scope.lost_intervals)


# -- hypothesis-drawn geometry --------------------------------------------------


@st.composite
def _axis(draw, extent, nprocs):
    """One axis kind legal for ``nprocs`` grid coordinates."""
    kinds = ["block", "cyclic", "blockcyclic", "genblock", "indexed"]
    if nprocs == 1:
        kinds.append("replicated")
    kind = draw(st.sampled_from(kinds))
    if kind == "block":
        return Block()
    if kind == "cyclic":
        return Cyclic()
    if kind == "blockcyclic":
        return BlockCyclic(draw(st.integers(1, 3)))
    if kind == "replicated":
        return Replicated()
    if kind == "genblock":
        cuts = sorted(draw(st.lists(
            st.integers(0, extent), min_size=nprocs - 1, max_size=nprocs - 1
        )))
        bounds = [0] + cuts + [extent]
        return GenBlock([b - a for a, b in zip(bounds, bounds[1:])])
    # INDEXED: every element dealt to a coordinate or to none (a hole);
    # evenly spaced deals (regular after all) come up often at this size
    owner = draw(st.lists(
        st.integers(-1, nprocs - 1), min_size=extent, max_size=extent
    ))
    return Indexed([
        Range([i for i, o in enumerate(owner) if o == c]) for c in range(nprocs)
    ])


@st.composite
def _distribution(draw):
    rank = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 10)) for _ in range(rank))
    grid = []
    for _ in range(rank):
        room = 8 // math.prod(grid) if grid else 8
        grid.append(draw(st.integers(1, min(3, room))))
    axes = [draw(_axis(n, g)) for n, g in zip(shape, grid)]
    shadow = tuple(draw(st.integers(0, 2)) for _ in range(rank))
    return Distribution(shape, axes, math.prod(grid), grid=grid, shadow=shadow)


@st.composite
def _section(draw, shape, order):
    kind = draw(st.sampled_from(["full", "strided", "piece"]))
    full = Slice.full(shape)
    if kind == "full":
        return full
    if kind == "piece":
        m = draw(st.sampled_from([2, 4, 8]))
        return partition(full, m, order)[draw(st.integers(0, m - 1))]
    ranges = []
    for n in shape:
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo, n - 1))
        ranges.append(Range.regular(lo, hi, draw(st.integers(1, 3))))
    return Slice(ranges)


@given(st.data(), st.sampled_from(["F", "C"]))
@settings(max_examples=150, deadline=None)
def test_box_plans_match_vector_reference(data, order):
    dist = data.draw(_distribution())
    section = data.draw(_section(dist.shape, order))
    with use_plan_cache(NullPlanCache()):
        _check_case(dist, section, order)


@given(_distribution(), st.sampled_from(["F", "C"]))
@settings(max_examples=60, deadline=None)
def test_rebuild_scope_matches_vector_reference(dist, order):
    with use_plan_cache(NullPlanCache()):
        _check_scope(dist, order)


# -- which axes are lists ------------------------------------------------------------


def _lists(dist, section=None, kind="assigned"):
    plan = build_section_index_plan(
        dist, section or Slice.full(dist.shape), "F", kind
    )
    return [_list_axes(e) for e in plan.entries]


def test_evenly_spaced_indexed_axis_is_a_box():
    even = Distribution(
        (8, 3), [Indexed([Range([0, 2, 4, 6]), Range([1, 3, 5, 7])]), Replicated()], 2
    )
    assert _lists(even) == [[], []]
    uneven = Distribution(
        (8, 3), [Indexed([Range([0, 1, 4, 6]), Range([2, 3, 5, 7])]), Replicated()], 2
    )
    assert _lists(uneven) == [[0], [0]]
    # the rows' section positions are the list; their local positions
    # (0..3) stay a slice beside it, and the replicated axis is a slice
    e = build_section_index_plan(uneven, Slice.full((8, 3))).entries[0]
    assert e.sbox[0].tolist() == [0, 1, 4, 6] and e.lbox[0] == slice(0, 4, 1)
    assert e.sbox[1] == e.lbox[1] == slice(0, 3, 1)
    # decided per entry: one regular owner beside an irregular one
    mixed = Distribution(
        (8, 3), [Indexed([Range([0, 1, 2, 3]), Range([4, 6, 7])]), Replicated()], 2
    )
    assert _lists(mixed) == [[], [0]]


def test_multi_block_blockcyclic_stays_on_vectors():
    """A BLOCK(k) owner with several blocks keeps that axis on an index
    vector (its position list), not a slice."""
    one_block_each = Distribution((8,), [BlockCyclic(4)], 2)
    assert _lists(one_block_each) == [[], []]
    two_blocks_each = Distribution((8,), [BlockCyclic(2)], 2)
    assert _lists(two_blocks_each) == [[0], [0]]
    # ... yet a section meeting only one block of each owner is a box
    assert _lists(two_blocks_each, Slice([Range.regular(0, 3)])) == [[], []]


def test_irregular_section_over_regular_distribution_is_vectors():
    """An index-list section axis is an index vector over a regular
    distribution too."""
    dist = block_distribution((8, 8), 4, shadow=(1, 1))
    section = Slice([Range([0, 1, 3, 6]), Range.regular(0, 7)])
    assert [0] in _lists(dist, section, "mapped")
    _check_case(dist, section, "F")


def _indexed(extent, nprocs, seed):
    """An INDEXED axis dealing ``extent`` scattered rows over ``nprocs``
    coordinates."""
    owner = np.random.default_rng(seed).permutation(np.arange(extent) % nprocs)
    return Indexed([Range(np.flatnonzero(owner == c)) for c in range(nprocs)])


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize(
    "case",
    ["indexed-block-indexed", "indexed-cyclic-cyclic2", "cyclic2-cyclic3"],
)
def test_list_axes_in_every_position(case, order):
    """Explicit geometries the drawn ones reach only by chance: two list
    axes separated by a slice (numpy moves both to the front, on both
    sides alike), with a shadow on the slice or beside a multi-block
    owner, and multi-block owners on both axes.  Gathered bytes, scattered locals (shadows included), every
    piece's accounting and the rebuild-scope intervals, as above."""
    if case == "indexed-block-indexed":
        dist = Distribution(
            (9, 6, 7),
            [_indexed(9, 2, 1), Block(), _indexed(7, 2, 2)],
            8, grid=(2, 2, 2), shadow=(0, 1, 0),
        )
        want = [0, 2]
    elif case == "indexed-cyclic-cyclic2":
        dist = Distribution(
            (7, 8, 9), [_indexed(7, 2, 3), Cyclic(), BlockCyclic(2)],
            8, grid=(2, 2, 2),
        )
        want = [0, 2]  # CYCLIC is strided: a slice between two lists
    else:
        dist = Distribution(
            (10, 13), [BlockCyclic(2), BlockCyclic(3)], 4, grid=(2, 2)
        )
        want = [0, 1]
    with use_plan_cache(NullPlanCache()):
        for kind in ("assigned", "mapped"):
            assert want in _lists(dist, kind=kind)
        _check_case(dist, Slice.full(dist.shape), order)
        _check_case(dist, partition(Slice.full(dist.shape), 4, order)[1], order)
        _check_scope(dist, order)


# -- the benchmark geometries and the degenerate ones --------------------------------


def _bt(ntasks):
    from repro.arrays.distributions import process_grid

    grid = process_grid(ntasks, 4, fixed=(1, 0, 0, 0))
    shadow = (0,) + tuple(2 if g > 1 else 0 for g in grid[1:])
    return Distribution(
        (5, 32, 32, 32), [Replicated(), Block(), Block(), Block()], ntasks,
        grid=grid, shadow=shadow,
    )


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize(
    "dist",
    [
        block_distribution((1024, 1024), 4, shadow=(1, 1)),
        block_distribution((1024, 1024), 3, shadow=(1, 1)),
        _bt(4),
        _bt(3),
    ],
    ids=["block1024-t4", "block1024-t3", "bt-t4", "bt-t3"],
)
def test_benchmark_geometries(dist, order):
    """All boxes, O(rank) plan memory, identical bytes, accounting and
    scope on the two shapes the end-to-end claim is measured on."""
    section = Slice.full(dist.shape)
    for kind in ("assigned", "mapped"):
        plan = build_section_index_plan(dist, section, order, kind)
        assert all(type(e) is BoxEntry for e in plan.entries)
        assert len(plan.entries) == dist.ntasks
        assert plan.nbytes < 4096
    arr = _filled(dist)
    want = _reference_gather(arr, section, order)
    assert gather_section_flat(arr, section, order=order).tobytes() == want.tobytes()
    fresh = DistributedArray("b", dist.shape, np.float64, dist)
    scatter_section_flat(fresh, section, want, order=order)
    for t in range(dist.ntasks):
        assert np.array_equal(fresh.local(t), arr.local(t))
    plan = build_section_index_plan(dist, section, order, "assigned")
    ref = _reference_entries(dist, section, order, "assigned")
    pieces = partition(section, 8, order)
    for piece, lo in zip(pieces, piece_offsets(pieces, 1)):
        for p in range(dist.ntasks):
            got = range_redistribution_bytes(plan, lo, lo + piece.size, p, 8)
            assert got == _reference_redis(ref, lo, lo + piece.size, p, 8)
            assert got == _piece_redistribution_bytes(arr, piece, p)
    with use_plan_cache(NullPlanCache()):
        _check_scope(dist, order)


@pytest.mark.parametrize("order", ["F", "C"])
def test_zero_extent_and_single_element(order):
    with use_plan_cache(NullPlanCache()):
        zero = block_distribution((0, 4), 2)
        plan = build_section_index_plan(zero, Slice.full((0, 4)), order)
        assert plan.entries == () and plan.nbytes == 0
        _check_case(zero, Slice.full((0, 4)), order)
        _check_scope(zero, order)
        one = block_distribution((1,), 1)
        _check_case(one, Slice.full((1,)), order)
        _check_case(one, Slice([Range.empty()]), order)
        _check_scope(one, order)
        # more tasks than elements: tasks with empty sections
        _check_case(block_distribution((2, 1), 4), Slice.full((2, 1)), order)
        _check_scope(block_distribution((2, 1), 4), order)


@pytest.mark.parametrize("order", ["F", "C"])
def test_non_c_contiguous_local_needs_no_normalisation(order):
    """A box indexes the local array as it is: an F-ordered local is
    read and written in place, not replaced by a C-contiguous copy."""
    dist = block_distribution((6, 8), 4, shadow=(1, 1))
    section = Slice.full(dist.shape)
    arr = _filled(dist)
    want = _reference_gather(arr, section, order)
    held = []
    for t in range(dist.ntasks):
        arr._locals[t] = np.asfortranarray(arr.local(t))
        assert not arr.local(t).flags.c_contiguous
        held.append(arr.local(t))
    assert gather_section_flat(arr, section, order=order).tobytes() == want.tobytes()
    assert bytes(stream_u8(arr, order=order)) == want.tobytes()
    scatter_section_flat(arr, section, want + 1.0, order=order)
    for t in range(dist.ntasks):
        assert arr.local(t) is held[t]
    assert np.array_equal(
        gather_section_flat(arr, section, order=order), want + 1.0
    )


def test_partially_defined_array_under_and_outside_strict_gather():
    dist = Distribution((8,), [Indexed([Range([0, 1, 2]), Range([5, 6])])], 2)
    arr = _filled(dist)
    section = Slice.full((8,))
    plan = build_section_index_plan(dist, section, "F")
    assert [type(e) for e in plan.entries] == [BoxEntry, BoxEntry]
    flat = gather_section_flat(arr, section)
    assert flat.tobytes() == _reference_gather(arr, section, "F").tobytes()
    assert np.all(flat[[3, 4, 7]] == 0.0)  # holes stream as zeros
    with strict_gather():
        with pytest.raises(StreamingError):
            stream_u8(arr)
