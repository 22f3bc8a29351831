"""Tests for checkpoint archiving/migration between file systems."""

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.checkpoint.archive import checkpoint_files, copy_checkpoint, delete_checkpoint
from repro.checkpoint.drms import drms_checkpoint, drms_restart
from repro.checkpoint.format import write_manifest
from repro.checkpoint.incremental import IncrementalCheckpointer
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.checkpoint.spmd import spmd_checkpoint, spmd_restart
from repro.errors import CheckpointError
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams


def _linked(prefix, base):
    """A DRMS manifest without arrays whose ``base`` link is ``base``."""
    return {
        "kind": "drms", "segment_file": f"{prefix}.segment", "arrays": [],
        "base": base,
    }


@pytest.fixture
def env():
    src = PIOFS(machine=Machine(MachineParams(num_nodes=16)))
    dst = PIOFS(machine=Machine(MachineParams(num_nodes=4)))
    g = np.arange(10 * 8, dtype=np.float64).reshape(10, 8)
    arr = DistributedArray(
        "u", (10, 8), np.float64, block_distribution((10, 8), 4)
    )
    arr.set_global(g)
    seg = DataSegment(
        profile=SegmentProfile(30_000, 10_000, 5_000), replicated={"dt": 0.5}
    )
    return src, dst, g, arr, seg


class TestFileEnumeration:
    def test_drms_file_set(self, env):
        src, dst, g, arr, seg = env
        drms_checkpoint(src, "ck", seg, [arr])
        files = checkpoint_files(src, "ck")
        assert set(files) == {"ck.manifest", "ck.segment", "ck.array.u"}

    def test_spmd_file_set(self, env):
        src, *_ = env
        spmd_checkpoint(src, "sp", ntasks=3, segment_bytes=100)
        assert set(checkpoint_files(src, "sp")) == {
            "sp.manifest", "sp.task0", "sp.task1", "sp.task2",
        }

    def test_chain_file_set_includes_base_and_deltas(self, env):
        src, dst, g, arr, seg = env
        ck = IncrementalCheckpointer(src, "inc", target_bytes=256)
        ck.full(seg, [arr])
        arr.set_global(g + 1)
        ck.incremental(seg, [arr])
        # the newest delta names its chain through its ``base`` link
        # (replaces: the files of the ``inc.chain`` manifest)
        files = checkpoint_files(src, "inc.d1")
        assert "inc.base.segment" in files
        assert "inc.d1.segment" in files
        assert any(f.startswith("inc.d1.array.") for f in files)
        assert len(files) == len(set(files))  # no duplicates

    def test_cyclic_chain_manifest_raises(self, env):
        """Regression: a chain whose ``base`` links loop (corrupt or
        hand-edited metadata) used to recurse without bound.  (Replaces
        the same assertion over two ``drms-chain`` manifests.)"""
        src, *_ = env
        write_manifest(src, "c1", _linked("c1", "c2"))
        write_manifest(src, "c2", _linked("c2", "c1"))
        with pytest.raises(CheckpointError, match="cycle"):
            checkpoint_files(src, "c1")

    def test_self_referencing_chain_raises(self, env):
        # replaces: a ``drms-chain`` manifest naming itself as its base
        src, *_ = env
        write_manifest(src, "loop", _linked("loop", "loop"))
        with pytest.raises(CheckpointError, match="cycle"):
            checkpoint_files(src, "loop")

    def test_unknown_prefix(self, env):
        src, *_ = env
        with pytest.raises(CheckpointError):
            checkpoint_files(src, "ghost")


class TestMigration:
    def test_drms_copy_then_reconfigured_restart_elsewhere(self, env):
        """The abstract's claim: migrate the state to a system with a
        different processor count and restart reconfigured."""
        src, dst, g, arr, seg = env
        drms_checkpoint(src, "ck", seg, [arr])
        copied = copy_checkpoint(src, dst, "ck")
        assert copied["ck.segment"] == src.file_size("ck.segment")
        dst.machine.place_tasks(3)
        state, _ = drms_restart(dst, "ck", 3)
        assert np.array_equal(state.arrays["u"].to_global(), g)
        assert state.segment.replicated == {"dt": 0.5}

    def test_sparse_tails_stay_sparse(self, env):
        src, dst, g, arr, seg = env
        drms_checkpoint(src, "ck", seg, [arr])
        copy_checkpoint(src, dst, "ck")
        s, d = src.open("ck.segment"), dst.open("ck.segment")
        assert d.size == s.size
        assert d.stored_bytes == s.stored_bytes  # pad not materialized
        assert d.stored_bytes < d.size

    def test_spmd_copy_restores_payloads(self, env):
        src, dst, *_ = env
        spmd_checkpoint(
            src, "sp", ntasks=2, segment_bytes=10_000, payloads=["a", "b"]
        )
        copy_checkpoint(src, dst, "sp")
        state, _ = spmd_restart(dst, "sp", 2)
        assert state.payloads == ["a", "b"]

    def test_virtual_files_stay_virtual(self, env):
        src, dst, *_ = env
        varr = DistributedArray(
            "big", (32, 32), np.float64,
            block_distribution((32, 32), 4), store_data=False,
        )
        seg = DataSegment(profile=SegmentProfile(1000, 0, 0))
        drms_checkpoint(src, "v", seg, [varr])
        copy_checkpoint(src, dst, "v")
        assert dst.open("v.array.big").virtual
        assert dst.file_size("v.array.big") == 32 * 32 * 8


class TestDeletion:
    def test_delete_frees_all_files(self, env):
        src, dst, g, arr, seg = env
        drms_checkpoint(src, "ck", seg, [arr])
        expect = sum(src.file_size(f) for f in checkpoint_files(src, "ck"))
        freed = delete_checkpoint(src, "ck")
        assert freed == expect
        assert not src.exists("ck.manifest")
        assert not src.exists("ck.array.u")

    def test_other_prefixes_untouched(self, env):
        src, dst, g, arr, seg = env
        drms_checkpoint(src, "keep", seg, [arr])
        drms_checkpoint(src, "drop", seg, [arr])
        delete_checkpoint(src, "drop")
        assert src.exists("keep.manifest")
        state, _ = drms_restart(src, "keep", 2)
        assert np.array_equal(state.arrays["u"].to_global(), g)
