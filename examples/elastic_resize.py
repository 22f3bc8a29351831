#!/usr/bin/env python
"""On-the-fly reconfiguration and live steering of a running job.

The DRMS dynamic-resource-management story (paper §2.2 and §4): a
controller resizes a *healthy* running application from volatile
memory — no checkpoint I/O — while a steering client watches the live
field.  Compare examples/scheduler_reconfiguration.py, which resizes
through checkpoint files (what failures and migration require).

The controller is one more task of the run: it starts the application
on a scheduled thread and, whenever it waits for a steering result,
lets the run advance to its next steering point.

Run:  python examples/elastic_resize.py
"""

import numpy as np

from repro.drms import CheckpointStatus, DRMSApplication, ElasticRunner
from repro.runtime.sched import SCHED

N = 16
NITER = 300


def main(ctx, niter, prefix):
    ctx.initialize()
    dist = ctx.create_distribution((N, N), shadow=(1, 1))
    u = ctx.distribute("u", dist, init_global=np.ones((N, N)))
    for it in ctx.iterations(1, niter + 1):
        status, delta = ctx.reconfig_point()      # on-the-fly SOP
        if status is CheckpointStatus.RESTARTED and delta != 0:
            u = ctx.distribute("u", ctx.adjust("u"))
        ctx.steering_point()                      # service live clients
        u.set_assigned(u.assigned + 1.0)
        ctx.barrier()
    return float(u.assigned.sum())


if __name__ == "__main__":
    app = DRMSApplication(main, name="elastic")
    runner = ElasticRunner(app)

    print(f"starting on 8 tasks ({NITER} iterations)...")
    run = SCHED.start("elastic", lambda: runner.run(8, args=(NITER, "el")))

    # live peek at the running field
    snap = app.steering.read_async("u").result()
    print(f"steering snapshot mid-run: field uniformly {snap[0, 0]:.0f}")

    print("controller: shrink to 3 tasks (in-memory, no checkpoint I/O)")
    runner.request(3)
    snap2 = app.steering.read_async("u").result()
    print(f"steering snapshot after resize request queued: {snap2[0, 0]:.0f}")

    SCHED.wait("the elastic run to finish", until=lambda: run.done)
    if run.error is not None:
        raise run.error
    report = run.value
    print(f"\nsegments (tasks, simulated s): "
          f"{[(n, round(s, 2)) for n, s in report.segments]}")
    print(f"in-memory redistribution cost: "
          f"{report.reconfiguration_seconds * 1000:.1f} simulated ms")
    final = report.final.arrays["u"].to_global()
    print(f"final field: uniformly {final[0, 0]:.0f} "
          f"(correct: {bool(np.all(final == 1 + NITER))})")
    assert np.all(final == 1 + NITER)
    assert report.final.ntasks == 3
