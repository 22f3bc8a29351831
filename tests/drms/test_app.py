"""Integration-grade unit tests for the DRMS programming model."""

import numpy as np
import pytest

from repro.drms import CheckpointStatus, DRMSApplication, SOQSpec
from repro.drms.api import (
    drms_adjust,
    drms_create_distribution,
    drms_distribute,
    drms_initialize,
    drms_reconfig_checkpoint,
)
from repro.errors import CheckpointError, ReconfigurationError

N = 12


def solver_main(ctx, niter, prefix, every=5):
    drms_initialize(ctx)
    dist = drms_create_distribution(ctx, (N, N), shadow=(1, 1))
    u = drms_distribute(
        ctx, "u", dist, dtype=np.float64,
        init_global=lambda s: np.arange(np.prod(s), dtype=float).reshape(s),
    )
    ctx.set_replicated("dt", 0.5)
    for it in ctx.iterations(1, niter + 1):
        if every and it % every == 1:
            status, delta = drms_reconfig_checkpoint(ctx, prefix)
            if status is CheckpointStatus.RESTARTED and delta != 0:
                u = drms_distribute(ctx, "u", drms_adjust(ctx, "u"))
        u.set_assigned(u.assigned * 1.01 + 0.1)
        ctx.barrier()
    return float(u.assigned.sum())


@pytest.fixture
def app():
    return DRMSApplication(solver_main, name="solver")


class TestStart:
    def test_single_task(self, app):
        rep = app.start(1, args=(4, "ck"))
        assert rep.ntasks == 1
        assert len(rep.checkpoints) == 1

    def test_results_independent_of_task_count(self, app):
        totals = []
        for nt in (1, 2, 4, 6):
            rep = DRMSApplication(solver_main).start(nt, args=(6, "ck"))
            totals.append(rep.arrays["u"].to_global())
        for g in totals[1:]:
            assert np.allclose(g, totals[0])

    def test_checkpoints_recorded_with_breakdown(self, app):
        rep = app.start(4, args=(11, "ck"))
        assert len(rep.checkpoints) == 3  # it = 1, 6, 11
        for prefix, bd in rep.checkpoints:
            assert prefix == "ck"
            assert bd.total_seconds > 0

    def test_replicated_in_report(self, app):
        rep = app.start(2, args=(3, "ck"))
        assert rep.replicated["dt"] == 0.5

    def test_sim_time_includes_blocking_checkpoints(self, app):
        with_ck = app.start(6, args=(6, "ck")).sim_elapsed
        no_ck = DRMSApplication(solver_main).start(6, args=(6, "ck", 0)).sim_elapsed
        assert with_ck > no_ck

    def test_soq_resource_range_enforced(self):
        app = DRMSApplication(solver_main, soq=SOQSpec(min_tasks=4, max_tasks=8))
        with pytest.raises(ReconfigurationError):
            app.start(2, args=(3, "ck"))
        with pytest.raises(ReconfigurationError):
            app.start(9, args=(3, "ck"))


class TestRestart:
    @pytest.mark.parametrize("nt2", [2, 4, 6, 8])
    def test_state_identical_after_reconfigured_restart(self, app, nt2):
        ref = app.start(4, args=(12, "ck"))
        rep = app.restart("ck", nt2, args=(12, "ck"))
        assert np.allclose(
            rep.arrays["u"].to_global(), ref.arrays["u"].to_global()
        )
        assert rep.restarted_from == "ck"
        assert rep.restart_breakdown.total_seconds > 0

    def test_restart_resumes_not_restarts(self, app):
        """A restarted run must not redo early iterations: it takes
        fewer checkpoints than a fresh run."""
        app.start(4, args=(12, "ck"))
        rep = app.restart("ck", 4, args=(12, "ck"))
        # resumed at it=11 -> only the it=11 SOP is revisited (no write)
        assert len(rep.checkpoints) == 0 or len(rep.checkpoints) < 3

    def test_restart_same_count_delta_zero(self, app):
        app.start(4, args=(6, "ck"))

        seen = {}

        def probe_main(ctx, niter, prefix):
            drms_initialize(ctx)
            dist = drms_create_distribution(ctx, (N, N), shadow=(1, 1))
            u = drms_distribute(ctx, "u", dist)
            for it in ctx.iterations(1, niter + 1):
                if it % 5 == 1:
                    status, delta = drms_reconfig_checkpoint(ctx, prefix)
                    if ctx.rank == 0 and status is CheckpointStatus.RESTARTED:
                        seen["delta"] = delta
                u.set_assigned(u.assigned)
                ctx.barrier()

        app2 = DRMSApplication(probe_main, pfs=app.pfs, machine=app.machine)
        app2.restart("ck", 4, args=(6, "ck"))
        assert seen["delta"] == 0

    @pytest.mark.parametrize("tier", ["pfs", "memory+pfs"])
    def test_a_state_without_arrays_restarts_with_delta_zero(self, tier):
        """A state checkpointed before any array is distributed records
        the run's task count, so restarting on that count is no
        reconfiguration — on either tier."""
        seen = []

        def bare_main(ctx, prefix):
            drms_initialize(ctx)
            ctx.set_replicated("dt", 0.5)
            status, delta = drms_reconfig_checkpoint(ctx, prefix)
            if ctx.rank == 0:
                seen.append((status, delta))
            ctx.barrier()

        app = DRMSApplication(bare_main, tier=tier, mlck_drain="sync")
        [(prefix, bd)] = app.start(4, args=("ck",)).checkpoints
        assert bd.ntasks == 4
        app.restart(prefix, 4, args=("ck",))
        assert seen[-1] == (CheckpointStatus.RESTARTED, 0)
        app.restart(prefix, 2, args=("ck",))
        assert seen[-1] == (CheckpointStatus.RESTARTED, -2)

    def test_restart_missing_checkpoint(self, app):
        with pytest.raises(CheckpointError):
            app.restart("ghost", 4, args=(3, "ck"))

    def test_multiple_checkpoint_states(self, app):
        def multi_main(ctx, prefix):
            drms_initialize(ctx)
            dist = drms_create_distribution(ctx, (N, N))
            u = drms_distribute(ctx, "u", dist, init_global=np.ones((N, N)))
            for it in ctx.iterations(1, 4):
                drms_reconfig_checkpoint(ctx, f"{prefix}{it}")
                u.set_assigned(u.assigned + 1)
                ctx.barrier()
            return None

        app3 = DRMSApplication(multi_main)
        app3.start(4, args=("st",))
        from repro.checkpoint.restart import list_checkpoints

        assert list_checkpoints(app3.pfs) == ["st1", "st2", "st3"]
        # restart from the middle state
        from repro.checkpoint.drms import drms_restart

        state, _ = drms_restart(app3.pfs, "st2", 3)
        assert state.arrays["u"].to_global()[0, 0] == 2.0  # after it=1


def test_earlier_reports_are_not_retained_by_the_application(app):
    """A long-lived application restarted many times must not keep
    every run's arrays alive (it once appended each RunReport to a
    write-only ``runs`` list, and restart time doubled after a dozen
    restarts of one application)."""
    import gc
    import weakref

    first = app.start(4, args=(6, "ck"))
    refs = [weakref.ref(first.arrays["u"]), weakref.ref(first)]
    del first
    second = app.restart("ck", 3, args=(6, "ck"))
    refs.append(weakref.ref(second.arrays["u"]))
    del second
    app.restart("ck", 2, args=(6, "ck"))
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert not hasattr(app, "runs")


class TestInitializeContract:
    def test_double_initialize_rejected(self):
        def bad(ctx):
            drms_initialize(ctx)
            drms_initialize(ctx)

        with pytest.raises(CheckpointError):
            DRMSApplication(bad).start(2)

    def test_distribute_wrong_ntasks_rejected(self):
        def bad(ctx):
            drms_initialize(ctx)
            d = ctx.create_distribution((8, 8), ntasks=ctx.size + 1)
            ctx.distribute("u", d)

        with pytest.raises(ReconfigurationError):
            DRMSApplication(bad).start(2)
