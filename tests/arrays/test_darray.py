"""Unit tests for DistributedArray."""

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import Cyclic, Distribution, block_distribution
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import ArrayError


@pytest.fixture
def grid():
    return np.arange(12 * 10, dtype=np.float64).reshape(12, 10)


@pytest.fixture
def arr(grid):
    d = block_distribution((12, 10), 4, shadow=(1, 1))
    a = DistributedArray("u", (12, 10), np.float64, d)
    a.set_global(grid)
    return a


class TestBasics:
    def test_requires_distribution(self):
        with pytest.raises(ArrayError):
            DistributedArray("u", (4, 4), np.float64, None)

    def test_shape_must_match_distribution(self):
        d = block_distribution((4, 4), 2)
        with pytest.raises(ArrayError):
            DistributedArray("u", (4, 5), np.float64, d)

    def test_byte_accounting(self, arr):
        assert arr.nbytes_global == 12 * 10 * 8
        assert arr.nbytes_total_local > arr.nbytes_global  # shadows
        assert sum(arr.nbytes_local(t) for t in range(4)) == arr.nbytes_total_local

    def test_local_shapes_match_mapped(self, arr):
        for t in range(4):
            assert arr.local(t).shape == arr.distribution.mapped(t).shape


class TestGlobalRoundTrip:
    def test_set_get_global(self, arr, grid):
        assert np.array_equal(arr.to_global(), grid)

    def test_set_global_shape_check(self, arr):
        with pytest.raises(ArrayError):
            arr.set_global(np.zeros((3, 3)))

    def test_consistency_after_set_global(self, arr):
        assert arr.is_consistent()

    def test_owner_write_breaks_then_shadow_fix(self, arr):
        arr.set_assigned(0, arr.assigned_view(0) + 100.0)
        assert not arr.is_consistent()  # neighbors hold stale shadows
        arr.update_shadows()
        assert arr.is_consistent()

    def test_defined_mask_full_for_total_distribution(self, arr):
        assert arr.defined_mask().all()

    def test_undefined_elements(self):
        from repro.arrays.distributions import Indexed

        # only even elements assigned; odds are undefined
        d = Distribution((8,), [Indexed([Range.regular(0, 6, 2)])], 1)
        a = DistributedArray("v", (8,), np.float64, d)
        mask = a.defined_mask()
        assert mask[::2].all() and not mask[1::2].any()
        g = a.to_global(fill=-1)
        assert (g[1::2] == -1).all()


class TestSections:
    def test_section_from_task(self, arr, grid):
        sec = Slice([Range([2, 3]), Range([1, 4])])
        got = arr.section_from_task(0, sec)
        assert np.array_equal(got, grid[np.ix_([2, 3], [1, 4])])

    def test_section_outside_mapped_rejected(self, arr):
        sec = Slice([Range([11]), Range([9])])  # belongs to task 3
        with pytest.raises(ArrayError):
            arr.section_from_task(0, sec)

    def test_section_to_task(self, arr):
        sec = Slice([Range([0, 1]), Range([0, 1])])
        arr.section_to_task(0, sec, np.full((2, 2), -5.0))
        assert (arr.assigned_view(0)[:2, :2] == -5.0).all()


def _indexed_rows():
    from repro.arrays.distributions import Indexed, Replicated

    # task 0 owns rows 0, 1, 5 and also maps ghost row 2: its owned rows
    # sit at local positions 0, 1, 3 — no stride describes them
    d = Distribution(
        (8, 3), [Indexed([Range([0, 1, 5]), Range([2, 3, 4, 6, 7])]), Replicated()], 2,
        mapped=[
            Slice([Range([0, 1, 2, 5]), Range.of_size(3)]),
            Slice([Range([2, 3, 4, 6, 7]), Range.of_size(3)]),
        ],
    )
    a = DistributedArray("rows", (8, 3), np.float64, d)
    a.set_global(np.arange(24, dtype=np.float64).reshape(8, 3))
    return a


class TestAliasing:
    """Who owns the memory a local-access call returns: basic slices
    select views, so every documented "copy" must copy on purpose."""

    @pytest.fixture(params=["block", "indexed"])
    def any_arr(self, request, arr):
        return arr if request.param == "block" else _indexed_rows()

    def test_assigned_view_writes_through_when_regular(self, arr):
        view = arr.assigned_view(0)
        assert np.shares_memory(view, arr.local(0))
        view += 100.0
        assert np.array_equal(arr.assigned_view(0), view)
        assert (arr.to_global()[:6, :5] >= 100.0).all()

    def test_assigned_view_is_a_copy_when_irregular(self):
        a = _indexed_rows()
        before = a.local(0).copy()
        a.assigned_view(0)[...] = -1.0
        assert np.array_equal(a.local(0), before)

    def test_task_view_assigned_is_a_copy(self, any_arr):
        from repro.drms.context import TaskArrayView

        u = TaskArrayView(any_arr, 0)
        before = any_arr.local(0).copy()
        kept = u.assigned
        assert np.array_equal(kept, any_arr.assigned_view(0))
        kept += 1.0  # mutate the returned array: the local must not move
        assert np.array_equal(any_arr.local(0), before)
        u.set_assigned(kept)  # ... and a later write does not reach it
        snapshot = kept.copy()
        u.set_assigned(kept * 2.0)
        assert np.array_equal(kept, snapshot)

    def test_section_from_task_is_a_copy(self, any_arr):
        d = any_arr.distribution
        # mapped(0) is the whole local: contiguous as it stands
        for sec in (d.assigned(0), d.mapped(0)):
            before = any_arr.local(0).copy()
            got = any_arr.section_from_task(0, sec)
            assert not np.shares_memory(got, any_arr.local(0))
            got[...] = -7.0
            assert np.array_equal(any_arr.local(0), before)

    def test_update_shadows_with_source_equal_destination(self, arr, grid):
        arr.set_assigned(0, arr.assigned_view(0) + 100.0)
        want = arr.to_global()
        arr.update_shadows()  # apply_schedule(arr, arr, ...)
        assert arr.is_consistent()
        assert np.array_equal(arr.to_global(), want)


class TestRedistribution:
    @pytest.mark.parametrize("nt", [1, 2, 3, 6, 8])
    def test_block_to_block(self, arr, grid, nt):
        b = arr.redistributed(block_distribution((12, 10), nt, shadow=(1, 1)))
        assert np.array_equal(b.to_global(), grid)
        assert b.is_consistent()

    def test_block_to_cyclic(self, arr, grid):
        d = Distribution((12, 10), [Cyclic(), Cyclic()], 4)
        b = arr.redistributed(d)
        assert np.array_equal(b.to_global(), grid)

    def test_shape_preserved(self, arr):
        with pytest.raises(ArrayError):
            arr.redistributed(block_distribution((10, 12), 4))


class TestVirtualMode:
    def test_sizes_without_data(self):
        d = block_distribution((100, 100), 8, shadow=(1, 1))
        a = DistributedArray("big", (100, 100), np.float64, d, store_data=False)
        assert a.nbytes_global == 100 * 100 * 8
        assert a.nbytes_total_local > a.nbytes_global

    def test_data_ops_rejected(self):
        d = block_distribution((10,), 2)
        a = DistributedArray("v", (10,), np.float64, d, store_data=False)
        with pytest.raises(ArrayError):
            a.local(0)
        with pytest.raises(ArrayError):
            a.to_global()

    def test_virtual_redistribution_keeps_virtual(self):
        d = block_distribution((10,), 2)
        a = DistributedArray("v", (10,), np.float64, d, store_data=False)
        b = a.redistributed(block_distribution((10,), 5))
        assert not b.store_data
        assert b.ntasks == 5
