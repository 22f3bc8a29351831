"""Task locals are column-major, in the stream's default order.

Every local a :class:`DistributedArray` holds is F-contiguous, however
it was built: by the constructor, by a redistribution or by a restore
from either tier.  So a
default-order (``"F"``) gather or scatter of a whole local is one
contiguous copy per column.  The layout is memory only: the stream a
checkpoint stores is defined by global index order, so gather and
scatter round-trip byte for byte in both stream orders.
"""

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import Block, Distribution, Indexed, block_distribution
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.checkpoint.drms import drms_checkpoint, drms_restart
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.mlck.store import L1Store
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from repro.streaming.order import stream_order_bytes
from repro.streaming.vectorized import gather_section_flat, scatter_section_flat

SHAPE = (13, 11)

GEOMETRIES = {
    "block": lambda t: block_distribution(SHAPE, t),
    "shadowed": lambda t: block_distribution(SHAPE, t, shadow=(1, 2)),
    "indexed": lambda t: Distribution(
        SHAPE,
        [Indexed([Range([0, 3, 4, 9, 12]), Range([1, 2, 5, 6, 7, 8, 10, 11])]),
         Block()],
        t,
        grid=(2, t // 2),
    ),
}


def _values(shape=SHAPE):
    return np.random.default_rng(41).standard_normal(shape)


def _array(dist, values=None, name="u"):
    values = _values(dist.shape) if values is None else values
    a = DistributedArray(name, values.shape, values.dtype, dist)
    a.set_global(values)
    return a


def _assert_column_major(arr):
    for t in range(arr.ntasks):
        local = arr.local(t)
        assert local.flags.f_contiguous, (arr.name, t, local.strides)
        assert local.shape == arr.distribution.mapped(t).shape


def _segment():
    return DataSegment(profile=SegmentProfile(1000, 200, 0), replicated={"it": 2})


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_constructed_and_redistributed_locals_are_column_major(geometry):
    arr = _array(GEOMETRIES[geometry](4))
    _assert_column_major(arr)
    cube = block_distribution((6, 5, 4), 8, shadow=(1, 1, 0))
    _assert_column_major(DistributedArray("w", (6, 5, 4), np.float32, cube))
    moved = arr.redistributed(block_distribution(SHAPE, 3, shadow=(1, 1)))
    _assert_column_major(moved)
    np.testing.assert_array_equal(moved.to_global(), arr.to_global())


@pytest.mark.parametrize("t2", [1, 3, 5])
def test_pfs_restart_locals_are_column_major(t2):
    pfs = PIOFS(machine=Machine(MachineParams(num_nodes=8)))
    arrays = [_array(GEOMETRIES["shadowed"](4)),
              _array(GEOMETRIES["indexed"](4), name="v")]
    drms_checkpoint(pfs, "ck.000001", _segment(), arrays)
    state, _ = drms_restart(pfs, "ck.000001", t2)
    for arr in arrays:
        got = state.arrays[arr.name]
        assert got.ntasks == t2
        _assert_column_major(got)
        np.testing.assert_array_equal(got.to_global(), arr.to_global())


def test_l1_restore_locals_are_column_major():
    store = L1Store(Machine(MachineParams(num_nodes=8)), k=1)
    arr = _array(GEOMETRIES["shadowed"](4))
    store.capture_drms("ck.000001", _segment(), [arr])
    state, _ = store.restore_drms("ck.000001", 3)
    _assert_column_major(state.arrays["u"])
    np.testing.assert_array_equal(state.arrays["u"].to_global(), arr.to_global())


def _sections(mapped, assigned):
    """The whole local, the owned box, rows (first, second, last) of
    the local — positions that are not arithmetic, an index mesh — and
    those rows crossed with columns picked the same way."""
    rows, cols = (Range(r.indices()[[0, 1, -1]]) for r in mapped)
    return (mapped, assigned, mapped.replace(0, rows),
            mapped.replace(0, rows).replace(1, cols))


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_section_copies_keep_the_layout_and_share_no_memory(geometry):
    arr = _array(GEOMETRIES[geometry](4))
    for t in range(arr.ntasks):
        local = arr.local(t)
        mapped = arr.distribution.mapped(t)
        for section in _sections(mapped, arr.distribution.assigned(t)):
            want = local[section.local_index_within(mapped)].copy()
            copy = arr.section_from_task(t, section)
            assert copy.flags.f_contiguous, (t, section)
            assert not np.shares_memory(copy, local)
            np.testing.assert_array_equal(copy, want)
            arr.section_to_task(t, section, 2 * copy)
            np.testing.assert_array_equal(
                local[section.local_index_within(mapped)], 2 * want
            )
            assert arr.local(t) is local


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_gather_scatter_round_trip_is_byte_identical(geometry, order):
    values = _values()
    stream = stream_order_bytes(values, order)
    full = Slice.full(SHAPE)
    src = _array(GEOMETRIES[geometry](4), values)
    assert gather_section_flat(src, full, order).tobytes() == stream
    dst = DistributedArray("u", SHAPE, values.dtype, GEOMETRIES[geometry](4))
    scatter_section_flat(dst, full, np.frombuffer(stream, values.dtype), order)
    _assert_column_major(dst)
    for t in range(4):
        assert dst.local(t).tobytes("A") == src.local(t).tobytes("A")
    assert gather_section_flat(dst, full, order).tobytes() == stream
