"""Tests for MPMD applications: SPMD components run as a workflow
coordinator with no couplings, checkpointed together as one line."""

import numpy as np
import pytest

from repro.checkpoint.format import array_name
from repro.drms.mpmd import WorkflowCoordinator
from repro.errors import CheckpointError, ReconfigurationError, WorkflowError
from repro.pfs.faults import flip_stored_bit
from repro.workflow.manifest import workflow_manifest_name

N = 8


def make_component_main(name, every=2):
    """A component that checkpoints with its peers at every ``every``-th
    iteration (1, 1 + every, ...), three iterations in all."""

    def main(ctx):
        ctx.initialize()
        d = ctx.create_distribution((N, N))
        u = ctx.distribute(
            "u", d, init_global=np.full((N, N), float(len(name)))
        )
        for it in ctx.iterations(1, 4):
            if (it - 1) % every == 0:
                _, delta = ctx.workflow_exchange()
                if delta != 0:
                    u = ctx.distribute("u", ctx.adjust("u"))
            u.set_assigned(u.assigned + 1.0)
            ctx.barrier()
        return float(u.assigned.sum())

    return main


def build(base="ck", every=2):
    app = WorkflowCoordinator(base)
    for name in ("flow", "chem"):
        app.add_member(name, make_component_main(name, every))
    return app


@pytest.fixture
def mpmd():
    return build()


def test_components_registered(mpmd):
    assert [mpmd.member(n).name for n in ("flow", "chem")] == ["flow", "chem"]
    assert mpmd.couplings == []
    with pytest.raises(CheckpointError):
        mpmd.add_member("flow", make_component_main("x"))


def test_start_runs_all_components(mpmd):
    rep = mpmd.run({"flow": 4, "chem": 2})
    assert set(rep.members) == {"flow", "chem"}
    assert rep.sim_elapsed == max(r.sim_elapsed for r in rep.members.values())


def test_degenerate_single_task_component(mpmd):
    rep = mpmd.run({"flow": 1, "chem": 1})
    assert rep.members["flow"].ntasks == 1
    assert rep.members["chem"].ntasks == 1


def test_missing_task_counts_rejected(mpmd):
    with pytest.raises(ReconfigurationError, match="chem"):
        mpmd.run({"flow": 2})


def test_coordinated_checkpoint_and_individual_reconfiguration(mpmd):
    ref = mpmd.run({"flow": 4, "chem": 2})
    assert mpmd.committed_generations() == [1, 2]
    assert mpmd.pfs.exists(workflow_manifest_name("ck", 2))
    # restart with each component reconfigured differently
    rep = mpmd.restart_workflow({"flow": 2, "chem": 5})
    for name in ("flow", "chem"):
        assert rep.members[name].restarted_from == f"ck.{name}.000002"
        a = ref.members[name].arrays["u"].to_global()
        b = rep.members[name].arrays["u"].to_global()
        assert np.array_equal(a, b)
    assert rep.members["flow"].ntasks == 2
    assert rep.members["chem"].ntasks == 5


class TestComponentPrefixCollisions:
    """Component names become dotted prefix segments; names that would
    alias another component's checkpoint files are rejected up front."""

    def test_dotted_name_aliases_a_peer_namespace(self, mpmd):
        # "flow.extra" files would live inside component "flow"'s
        # namespace: ck.flow.extra.* matches ck.flow.*'s prefix scan
        with pytest.raises(CheckpointError, match="alias"):
            mpmd.add_member("flow.extra", make_component_main("x"))

    def test_six_digit_name_aliases_a_rotation_generation(self, mpmd):
        with pytest.raises(CheckpointError, match="generation"):
            mpmd.add_member("000002", make_component_main("x"))

    def test_reserved_file_kind_rejected(self, mpmd):
        # older trees may hold <base>.mpmd group files
        with pytest.raises(CheckpointError, match="reserved"):
            mpmd.add_member("mpmd", make_component_main("x"))


class TestJointGenerationRestart:
    """The components restart from one line: when one component's
    newest state is torn, every component falls back to the same older
    line instead of each falling back on its own."""

    @pytest.fixture
    def rotated(self):
        app = build("ck2", every=1)
        ref = app.run({"flow": 4, "chem": 2})
        assert app.committed_generations() == [1, 2, 3]
        return app, ref

    def test_torn_newest_generation_falls_back_jointly(self, rotated):
        app, ref = rotated
        # flow's newest state is silently corrupt; chem's is intact
        flip_stored_bit(app.pfs, array_name("ck2.flow.000003", "u"), 13, 2)
        rep = app.restart_workflow({"flow": 2, "chem": 3})
        # BOTH components restarted from line 2: chem does not keep its
        # (valid) generation 3 next to flow's fallback
        assert rep.members["flow"].restarted_from == "ck2.flow.000002"
        assert rep.members["chem"].restarted_from == "ck2.chem.000002"
        for name in ("flow", "chem"):
            assert np.array_equal(
                rep.members[name].arrays["u"].to_global(),
                ref.members[name].arrays["u"].to_global(),
            )

    def test_no_consistent_generation_raises(self, rotated):
        app, _ = rotated
        for gen in (1, 2, 3):
            flip_stored_bit(
                app.pfs, array_name(f"ck2.chem.{gen:06d}", "u"), 5, 1
            )
        with pytest.raises(WorkflowError, match="every member byte-valid"):
            app.restart_workflow({"flow": 2, "chem": 2})
