"""Live steering of a *running* application at steering points.

The client is one more task of the run: it starts the application with
``SCHED.start`` and waits for each request with a scheduler wait, so
the run advances exactly while the client waits."""

import sys
import time

import numpy as np
import pytest

from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.drms import DRMSApplication
from repro.errors import ArrayError, DeadlockError
from repro.runtime.sched import SCHED

N = 12


def steered_main(ctx, niter):
    """Increments the field each iteration; services steering requests
    at a per-iteration steering point."""
    ctx.initialize()
    d = ctx.create_distribution((N, N))
    u = ctx.distribute("u", d, init_global=np.zeros((N, N)))
    for it in ctx.iterations(1, niter + 1):
        ctx.steering_point()
        u.set_assigned(u.assigned + 1.0)
        ctx.barrier()
    ctx.steering_point()  # final service so late requests complete
    return None


def start(app, ntasks, niter):
    """The application's run, on a scheduled thread of its own."""
    return SCHED.start("steered", lambda: app.start(ntasks, args=(niter,)))


def finish(run):
    """Wait for the run; its report, or its error re-raised."""
    SCHED.wait("the steered run to finish", until=lambda: run.done)
    if run.error is not None:
        raise run.error
    return run.value


def steer(ntasks=4, niter=400):
    """Read, poke a window, read it back, and let the run finish: the
    two snapshots and the final field."""
    app = DRMSApplication(steered_main)
    run = start(app, ntasks, niter)

    # live read: a consistent snapshot of the whole field
    snap = app.steering.read_async("u").result()

    # live write: poke a window and read it back
    window = Slice([Range.regular(0, 2, 1), Range.regular(0, 2, 1)])
    app.steering.write_async("u", np.full((3, 3), 1000.0), window).result()
    snap2 = app.steering.read_async("u", window).result()

    return snap, snap2, finish(run).arrays["u"].to_global()


def test_read_write_while_running():
    snap, snap2, final = steer()
    assert snap.shape == (N, N)
    assert len(np.unique(snap)) == 1  # consistent (between iterations)
    assert snap2.min() >= 1000.0  # the poke landed (then keeps growing)
    # the steered window stayed ahead of the untouched area
    assert final[0, 0] > final[6, 6]


@pytest.mark.determinism
def test_steering_is_deterministic_under_any_switch_interval():
    """Which iteration services each request is a function of the
    simulated clocks alone, never of the host's thread switching."""
    interval = sys.getswitchinterval()
    seen = []
    try:
        for switch in (5e-3, 1e-5, 1e-6):
            sys.setswitchinterval(switch)
            seen.append(steer())
    finally:
        sys.setswitchinterval(interval)
    for other in seen[1:]:
        for a, b in zip(seen[0], other):
            assert np.array_equal(a, b)


def test_unknown_array_completes_with_error():
    app = DRMSApplication(steered_main)
    run = start(app, 2, 200)
    fut = app.steering.read_async("ghost")
    with pytest.raises(ArrayError):
        fut.result()
    finish(run)


def test_unserviced_request_is_a_deadlock():
    app = DRMSApplication(steered_main)  # never started
    fut = app.steering.read_async("u")
    assert not fut.done()
    t0 = time.monotonic()
    with pytest.raises(DeadlockError, match="waits for steering read of 'u'"):
        fut.result()
    assert time.monotonic() - t0 < 1.0


def test_no_client_costs_nothing():
    """steering_point with an empty queue is a plain barrier."""
    app = DRMSApplication(steered_main)
    rep = app.start(3, args=(5,))
    assert rep.sim_elapsed >= 0
    final = rep.arrays["u"].to_global()
    assert np.all(final == 5.0)
