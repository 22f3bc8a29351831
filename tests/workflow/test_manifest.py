"""Unit tests for the v1 workflow manifest: member-name rules, the
two-phase commit, generation discovery, and the line walk that opens
every member (torn sets rejected as units)."""

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.checkpoint.drms import drms_checkpoint, drms_restart
from repro.checkpoint.format import array_name, manifest_name
from repro.checkpoint.recover import OpenedGeneration
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.errors import CheckpointError, WorkflowError
from repro.pfs.faults import flip_stored_bit
from repro.pfs.piofs import PIOFS
from repro.runtime.clock import SimClock, use_clock
from repro.workflow.manifest import (
    WORKFLOW_VERSION,
    check_member_name,
    next_workflow_generation,
    read_workflow_manifest,
    select_workflow_restart_state,
    workflow_generations,
    workflow_manifest_name,
    write_workflow_manifest,
)

pytestmark = pytest.mark.workflow

N = 6


def take(pfs, prefix, value):
    """One real (byte-validatable) member state at ``prefix``."""
    arr = DistributedArray("u", (N, N), np.float64, block_distribution((N, N), 2))
    arr.set_global(np.full((N, N), float(value)))
    seg = DataSegment(profile=SegmentProfile(1000, 0, 0), replicated={"it": value})
    drms_checkpoint(pfs, prefix, seg, [arr])


def opener(pfs, opened=None):
    """``open_member`` restoring each member state from the PFS onto 2
    tasks; appends every member it opened to ``opened``."""

    def open_member(member, prefix):
        state = OpenedGeneration(prefix, *drms_restart(pfs, prefix, 2))
        if opened is not None:
            opened.append(member)
        return state

    return open_member


class TestMemberNames:
    """Names become dotted prefix segments; anything that would alias
    another namespace is rejected up front."""

    def test_dotted_name_rejected(self):
        with pytest.raises(CheckpointError, match="alias"):
            check_member_name("flow.chem")

    def test_six_digit_name_rejected(self):
        with pytest.raises(CheckpointError, match="generation"):
            check_member_name("000123")

    @pytest.mark.parametrize("name", ["workflow", "mpmd", "manifest", "array"])
    def test_reserved_file_kinds_rejected(self, name):
        with pytest.raises(CheckpointError, match="reserved"):
            check_member_name(name)

    def test_duplicate_rejected(self):
        with pytest.raises(CheckpointError, match="duplicate"):
            check_member_name("flow", taken={"flow": object()})

    @pytest.mark.parametrize("name", ["flow", "m0", "a_b-c", "12345", "1234567"])
    def test_plain_names_pass(self, name):
        assert check_member_name(name) == name


class TestManifestIO:
    def test_round_trip_stamps_version(self, pfs):
        write_workflow_manifest(pfs, "wf", 3, {"members": {"a": {"prefix": "p"}}})
        back = read_workflow_manifest(pfs, "wf", 3)
        assert back["workflow_version"] == WORKFLOW_VERSION
        assert back["base"] == "wf"
        assert back["generation"] == 3
        assert back["members"] == {"a": {"prefix": "p"}}

    def test_unknown_version_rejected(self, pfs):
        write_workflow_manifest(pfs, "wf", 1, {"members": {}})
        name = workflow_manifest_name("wf", 1)
        raw = pfs.read_at(name, 0, pfs.file_size(name))
        doctored = raw.replace(
            f'"workflow_version": {WORKFLOW_VERSION}'.encode(),
            b'"workflow_version": 99',
        )
        pfs.unlink(name)
        pfs.create(name, virtual=False)
        pfs.write_at(name, 0, doctored)
        with pytest.raises(WorkflowError, match="version 99"):
            read_workflow_manifest(pfs, "wf", 1)

    def test_missing_manifest_raises(self, pfs):
        with pytest.raises(WorkflowError, match="no workflow manifest"):
            read_workflow_manifest(pfs, "wf", 7)

    def test_generations_ignore_staged_tmp(self, pfs):
        write_workflow_manifest(pfs, "wf", 1, {"members": {}})
        write_workflow_manifest(pfs, "wf", 2, {"members": {}})
        # a crash mid-commit leaves only the staged .tmp: invisible
        pfs.create(workflow_manifest_name("wf", 3) + ".tmp", virtual=False)
        assert workflow_generations(pfs, "wf") == [1, 2]

    def test_corrupt_manifest_invisible_to_generations(self, pfs):
        write_workflow_manifest(pfs, "wf", 1, {"members": {}})
        name = workflow_manifest_name("wf", 2)
        pfs.create(name, virtual=False)
        pfs.write_at(name, 0, b"{not json")
        assert workflow_generations(pfs, "wf") == [1]


class TestNextGeneration:
    """Generation numbers are never reused, even for lines that lost
    their manifest or never finished committing one."""

    def test_counts_staged_tmp_lines(self, pfs):
        write_workflow_manifest(pfs, "wf", 2, {"members": {}})
        pfs.create(workflow_manifest_name("wf", 5) + ".tmp", virtual=False)
        assert next_workflow_generation(pfs, "wf") == 6

    def test_counts_member_states_without_manifest(self, pfs):
        take(pfs, "wf.a.000004", 4)
        assert next_workflow_generation(pfs, "wf", {"a": "wf.a"}) == 5

    def test_empty_namespace_starts_at_one(self, pfs):
        assert next_workflow_generation(pfs, "wf") == 1


class TestLineValidation:
    """One line, checked by opening every member it names."""

    def commit(self, pfs, members):
        write_workflow_manifest(
            pfs, "wf", 1, {"members": {m: {"prefix": p} for m, p in members.items()}}
        )

    def test_all_members_valid(self, pfs):
        take(pfs, "wf.a.000001", 1)
        take(pfs, "wf.b.000001", 2)
        self.commit(pfs, {"a": "wf.a.000001", "b": "wf.b.000001"})
        decision = select_workflow_restart_state(pfs, "wf", opener(pfs))
        assert decision.generation == 1
        assert decision.member_tiers == {"a": "l2", "b": "l2"}
        # the states the members run on from, opened onto their counts
        assert {m: o.prefix for m, o in decision.opened.items()} == {
            "a": "wf.a.000001", "b": "wf.b.000001",
        }
        assert decision.opened["b"].state.ntasks == 2

    def test_one_torn_member_rejects_the_line(self, pfs):
        take(pfs, "wf.a.000001", 1)
        take(pfs, "wf.b.000001", 2)
        flip_stored_bit(pfs, array_name("wf.b.000001", "u"), 5, 2)
        self.commit(pfs, {"a": "wf.a.000001", "b": "wf.b.000001"})
        opened = []
        decision = select_workflow_restart_state(pfs, "wf", opener(pfs, opened))
        assert decision.generation is None
        ((gen, errors),) = decision.rejected
        assert gen == 1 and len(errors) == 1
        assert errors[0].startswith("b: ") and "checksum mismatch" in errors[0]
        # the intact member opened first (sorted order) — but the line
        # is all-or-nothing: its state is dropped with the line
        assert opened == ["a"]
        assert decision.opened == {} and decision.member_tiers == {}

    def test_empty_member_set_rejected(self, pfs):
        self.commit(pfs, {})
        decision = select_workflow_restart_state(pfs, "wf", opener(pfs))
        assert decision.generation is None
        assert decision.rejected == [(1, ["workflow manifest names no members"])]


class TestRecoveryWalk:
    def commit_line(self, pfs, gen, values):
        for member, value in values.items():
            take(pfs, f"wf.{member}.{gen:06d}", value)
        write_workflow_manifest(
            pfs, "wf", gen,
            {"members": {m: {"prefix": f"wf.{m}.{gen:06d}"} for m in values}},
        )

    def test_newest_fully_valid_line_wins(self, pfs):
        for gen in (1, 2, 3):
            self.commit_line(pfs, gen, {"a": gen, "b": gen + 10})
        decision = select_workflow_restart_state(pfs, "wf", opener(pfs))
        assert decision.generation == 3
        assert not decision.fell_back

    def test_torn_line_rejected_as_a_unit(self, pfs):
        for gen in (1, 2, 3):
            self.commit_line(pfs, gen, {"a": gen, "b": gen + 10})
        flip_stored_bit(pfs, array_name("wf.a.000003", "u"), 9, 1)
        decision = select_workflow_restart_state(pfs, "wf", opener(pfs))
        # member b's gen-3 state is fine, but it must never pair with
        # a's gen-2 state: the whole line falls back together
        assert decision.generation == 2
        assert decision.fell_back
        assert [g for g, _ in decision.rejected] == [3]
        assert decision.manifest["members"]["b"]["prefix"] == "wf.b.000002"

    def test_lost_member_manifest_tears_the_line(self, pfs):
        for gen in (1, 2):
            self.commit_line(pfs, gen, {"a": gen, "b": gen + 10})
        pfs.unlink(manifest_name("wf.b.000002"))
        decision = select_workflow_restart_state(pfs, "wf", opener(pfs))
        assert decision.generation == 1
        assert [g for g, _ in decision.rejected] == [2]

    def test_no_valid_line(self, pfs):
        self.commit_line(pfs, 1, {"a": 1, "b": 2})
        flip_stored_bit(pfs, array_name("wf.b.000001", "u"), 0, 0)
        decision = select_workflow_restart_state(pfs, "wf", opener(pfs))
        assert decision.generation is None
        assert not decision.fell_back
        assert [g for g, _ in decision.rejected] == [1]

    def test_unreadable_manifest_is_a_rejected_line(self, pfs):
        """A committed workflow manifest that no longer parses used to
        be filtered out before the walk: it never reached ``rejected``.
        It is a torn line like any other, with the parse error as its
        reason — and the walk leaves the records every walk leaves."""
        from repro.infra.events import EventLog
        from repro.obs import FlightRecorder, Tracer, use_flight, use_tracer
        from repro.workflow.manifest import workflow_manifest_name

        for gen in (1, 2):
            self.commit_line(pfs, gen, {"a": gen, "b": gen + 10})
        flip_stored_bit(pfs, workflow_manifest_name("wf", 2), 0, 0)
        events = EventLog()
        with use_tracer(Tracer()) as tracer, use_flight(FlightRecorder()) as fr, \
                use_clock(SimClock(3.0)):
            decision = select_workflow_restart_state(
                pfs, "wf", opener(pfs), events=events
            )
        assert decision.generation == 1 and decision.fell_back
        ((gen, errors),) = decision.rejected
        assert gen == 2
        assert "corrupt workflow manifest 'wf.workflow.000002.manifest'" in errors[0]
        assert [e.kind for e in events] == [
            "workflow_line_rejected", "workflow_line_verified",
            "workflow_restart_fallback",
        ]
        assert events.of_kind("workflow_line_rejected")[0].detail["errors"] == errors
        # (between them, the records of the members' restores)
        assert [e.kind for e in fr.events() if e.kind.startswith("workflow_")] == [
            "workflow_recovery_walk_started", "workflow_line_rejected",
            "workflow_line_verified", "workflow_restart_fallback",
            "workflow_recovery_walk_done",
        ]
        flat = tracer.metrics.flat()
        assert flat["workflow.lines.rejected"] == 1
        assert flat["workflow.lines.verified"] == 1
        assert flat["workflow.lines.fallback"] == 1
        (span,) = tracer.find("workflow_recovery_walk")
        assert span.attrs["chosen"] == 1 and span.attrs["rejected"] == 1
        # the committed list still hides it (nothing to restart from there)
        assert workflow_generations(pfs, "wf") == [1]

    def test_each_surviving_manifest_is_parsed_once(self, pfs, monkeypatch):
        from repro.workflow import manifest as wm

        for gen in (1, 2, 3):
            self.commit_line(pfs, gen, {"a": gen})
        flip_stored_bit(pfs, array_name("wf.a.000003", "u"), 9, 1)
        reads = []
        real = wm.read_workflow_manifest
        monkeypatch.setattr(
            wm, "read_workflow_manifest",
            lambda pfs, base, gen: reads.append(gen) or real(pfs, base, gen),
        )
        assert select_workflow_restart_state(pfs, "wf", opener(pfs)).generation == 2
        assert reads == [3, 2]

