"""Tests for computational steering and inter-application transfer."""

import time

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.drms.steering import app_transfer, steer_read, steer_write
from repro.errors import ArrayError


@pytest.fixture
def arr():
    g = np.arange(100.0).reshape(10, 10)
    a = DistributedArray(
        "u", (10, 10), np.float64, block_distribution((10, 10), 4, shadow=(1, 1))
    )
    a.set_global(g)
    return a, g


def test_steer_read_full(arr):
    a, g = arr
    assert np.array_equal(steer_read(a), g)


def test_steer_read_section_distribution_independent(arr):
    a, g = arr
    sec = Slice([Range([1, 3, 8]), Range.regular(2, 8, 3)])
    expect = g[sec.np_index()]
    assert np.array_equal(steer_read(a, sec), expect)
    b = a.redistributed(block_distribution((10, 10), 7))
    assert np.array_equal(steer_read(b, sec), expect)


def test_steer_write_updates_all_copies(arr):
    a, _ = arr
    sec = Slice([Range.regular(4, 6, 1), Range.regular(4, 6, 1)])
    steer_write(a, np.zeros((3, 3)), sec)
    assert a.is_consistent()
    assert (steer_read(a, sec) == 0).all()


def test_steer_write_shape_checked(arr):
    a, _ = arr
    with pytest.raises(ArrayError):
        steer_write(a, np.zeros((2, 2)), Slice.full((10, 10)))


def test_app_transfer_across_pools(arr):
    a, g = arr
    dst = DistributedArray(
        "v", (10, 10), np.float64, block_distribution((10, 10), 6, shadow=(0, 2))
    )
    wire = app_transfer(dst, a)
    assert np.array_equal(dst.to_global(), g)
    assert dst.is_consistent()
    assert wire > 0


def test_app_transfer_shape_checked(arr):
    a, _ = arr
    dst = DistributedArray("v", (9, 10), np.float64, block_distribution((9, 10), 2))
    with pytest.raises(ArrayError):
        app_transfer(dst, a)


def test_app_transfer_virtual_returns_schedule_volume():
    src = DistributedArray(
        "a", (20, 20), np.float64, block_distribution((20, 20), 4), store_data=False
    )
    dst = DistributedArray(
        "b", (20, 20), np.float64, block_distribution((20, 20), 5), store_data=False
    )
    wire = app_transfer(dst, src)
    assert 0 < wire <= src.nbytes_global


def test_never_serviced_request_raises_named_deadlock():
    from repro.drms.steering import SteeringHub
    from repro.errors import DeadlockError

    hub = SteeringHub()
    sec = Slice([Range.regular(0, 3, 1), Range.regular(0, 3, 1)])
    fut = hub.read_async("pressure", sec)
    # nothing ever services the queue (no steering point in the loop):
    # the error must say WHICH request wedged, not just that one did
    t0 = time.monotonic()
    with pytest.raises(DeadlockError) as exc_info:
        fut.result()
    assert time.monotonic() - t0 < 1.0
    assert f"waits for steering read of 'pressure' section {sec}" in str(exc_info.value)
    assert not fut.done()


def test_never_serviced_write_carries_request_identity():
    from repro.drms.steering import SteeringHub
    from repro.errors import DeadlockError

    hub = SteeringHub()
    fut = hub.write_async("u", np.zeros((2, 2)))
    t0 = time.monotonic()
    with pytest.raises(DeadlockError, match="waits for steering write of 'u'$"):
        fut.result()
    assert time.monotonic() - t0 < 1.0
