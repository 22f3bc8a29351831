"""Tests for rotating checkpoint prefixes and retention."""

import pathlib
import re

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.checkpoint.drms import drms_checkpoint, drms_restart
from repro.checkpoint.rotation import (
    CheckpointRotation,
    generation_name,
    generations,
    latest_checkpoint,
    parse_generation,
)
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.errors import CheckpointError
from repro.pfs.piofs import PIOFS


@pytest.fixture
def env():
    pfs = PIOFS()
    arr = DistributedArray("u", (8, 8), np.float64, block_distribution((8, 8), 2))
    arr.set_global(np.zeros((8, 8)))
    seg = DataSegment(profile=SegmentProfile(1000, 0, 0), replicated={"it": 0})
    return pfs, arr, seg


def take(pfs, rot, arr, seg, it):
    arr.set_global(np.full((8, 8), float(it)))
    seg.replicated["it"] = it
    prefix = rot.next_prefix()
    drms_checkpoint(pfs, prefix, seg, [arr])
    rot.commit(prefix)
    return prefix


class TestAllocation:
    def test_prefixes_monotone(self, env):
        pfs, arr, seg = env
        rot = CheckpointRotation(pfs, "job", keep=10)
        p1 = take(pfs, rot, arr, seg, 1)
        p2 = take(pfs, rot, arr, seg, 2)
        assert p1 == "job.000001"
        assert p2 == "job.000002"

    def test_numbers_never_reused_after_incomplete_state(self, env):
        pfs, arr, seg = env
        rot = CheckpointRotation(pfs, "job", keep=10)
        take(pfs, rot, arr, seg, 1)
        # simulate a crash mid-checkpoint: files exist, no manifest
        pfs.create("job.000002.segment")
        assert rot.next_prefix() == "job.000003"

    def test_base_cannot_look_like_generation(self, env):
        pfs, *_ = env
        with pytest.raises(CheckpointError):
            CheckpointRotation(pfs, "job.000001")

    def test_keep_validated(self, env):
        pfs, *_ = env
        with pytest.raises(CheckpointError):
            CheckpointRotation(pfs, "job", keep=0)


class TestLatest:
    def test_latest_is_newest_complete(self, env):
        pfs, arr, seg = env
        rot = CheckpointRotation(pfs, "job", keep=10)
        take(pfs, rot, arr, seg, 1)
        take(pfs, rot, arr, seg, 2)
        assert latest_checkpoint(pfs, "job") == "job.000002"

    def test_incomplete_state_invisible(self, env):
        """The crash-mid-checkpoint scenario: the newest complete state
        remains restorable."""
        pfs, arr, seg = env
        rot = CheckpointRotation(pfs, "job", keep=10)
        good = take(pfs, rot, arr, seg, 5)
        # crash while writing generation 2: array file exists, manifest
        # missing
        pfs.create("job.000002.segment")
        pfs.create("job.000002.array.u")
        assert latest_checkpoint(pfs, "job") == good
        state, _ = drms_restart(pfs, good, 3)
        assert state.segment.replicated["it"] == 5
        assert np.all(state.arrays["u"].to_global() == 5.0)

    def test_none_when_empty(self, env):
        pfs, *_ = env
        assert latest_checkpoint(pfs, "job") is None
        assert generations(pfs, "job") == []


class TestRetention:
    def test_prune_keeps_newest_k(self, env):
        pfs, arr, seg = env
        rot = CheckpointRotation(pfs, "job", keep=2)
        for it in range(1, 6):
            take(pfs, rot, arr, seg, it)
        gens = generations(pfs, "job")
        assert gens == ["job.000004", "job.000005"]
        # pruned states are fully gone
        assert not pfs.exists("job.000001.manifest")
        assert not pfs.exists("job.000001.array.u")

    def test_survivors_restorable(self, env):
        pfs, arr, seg = env
        rot = CheckpointRotation(pfs, "job", keep=2)
        for it in range(1, 5):
            take(pfs, rot, arr, seg, it)
        for prefix, expect in [("job.000003", 3.0), ("job.000004", 4.0)]:
            state, _ = drms_restart(pfs, prefix, 4)
            assert np.all(state.arrays["u"].to_global() == expect)

    def test_commit_refuses_stale_prefix(self, env):
        pfs, arr, seg = env
        rot = CheckpointRotation(pfs, "job", keep=2)
        p1 = take(pfs, rot, arr, seg, 1)
        take(pfs, rot, arr, seg, 2)
        with pytest.raises(CheckpointError):
            rot.commit(p1)

    def test_unrelated_prefixes_untouched(self, env):
        pfs, arr, seg = env
        drms_checkpoint(pfs, "other", seg, [arr])
        rot = CheckpointRotation(pfs, "job", keep=1)
        for it in (1, 2, 3):
            take(pfs, rot, arr, seg, it)
        assert pfs.exists("other.manifest")

    def test_commit_and_prune_with_newer_incomplete_generation(self, env):
        """A crash mid-write of generation 3 must not confuse commit(2):
        the incomplete state is not 'newest', is never pruned, and its
        number is not reused."""
        pfs, arr, seg = env
        rot = CheckpointRotation(pfs, "job", keep=1)
        for it in (1, 2):  # two complete generations, no pruning yet
            prefix = rot.next_prefix()
            seg.replicated["it"] = it
            drms_checkpoint(pfs, prefix, seg, [arr])
        p2 = "job.000002"
        # crash mid-generation-3: data files exist, manifest does not
        pfs.create("job.000003.segment")
        pfs.create("job.000003.array.u")
        doomed = rot.commit(p2)
        assert doomed == ["job.000001"]
        assert generations(pfs, "job") == [p2]
        assert pfs.exists("job.000003.segment")  # partial state untouched
        assert rot.next_prefix() == "job.000004"


class TestCorruptManifests:
    def test_latest_skips_corrupt_json_manifest(self, env):
        """A manifest holding garbage bytes (a torn write that slipped
        through, media corruption) must not break the scan: the state is
        treated as incomplete and the previous good state stays latest."""
        pfs, arr, seg = env
        rot = CheckpointRotation(pfs, "job", keep=10)
        good = take(pfs, rot, arr, seg, 1)
        pfs.create("job.000002.manifest")
        pfs.write_at("job.000002.manifest", 0, b'{"version": 3, truncated...')
        assert generations(pfs, "job") == [good]
        assert latest_checkpoint(pfs, "job") == good

    def test_wrong_version_manifest_skipped(self, env):
        pfs, arr, seg = env
        rot = CheckpointRotation(pfs, "job", keep=10)
        good = take(pfs, rot, arr, seg, 1)
        pfs.create("job.000002.manifest")
        pfs.write_at("job.000002.manifest", 0, b'{"version": 1, "kind": "drms"}')
        assert latest_checkpoint(pfs, "job") == good


class TestGenerationNames:
    def test_name_and_parse_round_trip(self):
        assert generation_name("job", 7) == "job.000007"
        assert parse_generation("job.000007") == 7
        assert parse_generation("job.000007", "job") == 7
        assert parse_generation("a.job.000007", "a.job") == 7

    def test_non_generations_parse_to_none(self):
        assert parse_generation("job") is None
        assert parse_generation("job.00007") is None
        assert parse_generation("job.000007.manifest") is None
        assert parse_generation("other.000007", "job") is None
        assert parse_generation("job.000007", "jo") is None

    def test_next_prefix_counts_generation_files_only(self):
        pfs = PIOFS()
        for name in ("job.000002.segment", "job.000005", "job.0000099.x",
                     "job.000009x", "jobs.000011.segment"):
            pfs.create(name)
        assert CheckpointRotation(pfs, "job").next_prefix() == "job.000006"

    def test_only_rotation_builds_or_parses_generation_names(self):
        """``<base>.NNNNNN`` is built and parsed by
        :mod:`repro.checkpoint.rotation` alone: no other checkpoint,
        multi-level, observability, workflow or verify module spells
        the format."""
        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        spelled = re.compile(
            r"_GEN_RE|\\d\{6\}|\[-6:\]|\[:-7\]|\.\{[^{}]*:06d\}"
        )
        offenders = [
            f"{path.relative_to(src)}:{n}"
            for pkg in ("checkpoint", "mlck", "obs", "workflow", "verify")
            for path in sorted((src / pkg).rglob("*.py"))
            if path.name != "rotation.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if spelled.search(line)
        ]
        assert offenders == []
