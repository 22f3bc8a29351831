"""Regenerate the checked-in seed corpus under ``tests/verify/cases/``.

Run from the repo root::

    PYTHONPATH=src python tests/verify/gen_corpus.py

Every case is constructed deterministically.  Fault cases are written
*after* shrinking, so the files on disk are the minimal reproducers the
harness itself would produce; each one is replayed before it is saved.
The corpus doubles as schema anchors: if the case-file format drifts
incompatibly, ``tests/verify/test_seed_corpus.py`` fails loudly.
"""

from __future__ import annotations

import os
import sys

from repro.checkpoint.format import axis_to_spec
from repro.arrays.distributions import (
    Block,
    BlockCyclic,
    Cyclic,
    GenBlock,
    Indexed,
)
from repro.arrays.ranges import Range
from repro.verify import known_bad_case, replay_case, shrink_case
from repro.verify.case import ArrayCase, Case, FaultEvent
from repro.verify.gen import (
    localized_equivalence_case,
    localized_pfs_fallback_case,
    lost_member_generation_case,
    mid_drain_crash_case,
    node_loss_case,
    torn_workflow_case,
)

CASES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cases")


def _specs(*axes):
    return [axis_to_spec(a) for a in axes]


def _fault_base(events, policy="naive", expect="fail", generations=2,
                note=""):
    """A small, fixed fault-case scaffold: 4x4 float64, block x block on
    two tasks, restarted on one."""
    return Case(
        type="fault",
        engine="drms",
        order="F",
        shape=[4, 4],
        t1=2, p1=2, t2=1, p2=1,
        grid1=[2, 1],
        grid2=[1, 1],
        arrays=[
            ArrayCase(
                name="A0",
                dtype="float64",
                axes1=_specs(Block(), Block()),
                axes2=_specs(Block(), Block()),
                shadow1=[0, 0],
                shadow2=[0, 0],
            )
        ],
        target_bytes=64,
        data_seed=1234,
        seed=0,
        generations=generations,
        events=events,
        policy=policy,
        expect=expect,
        note=note,
    )


def fault_cases():
    """(filename, case) pairs for the fault half of the corpus.  Cases
    with ``expect='fail'`` are shrunk before saving."""
    yield "naive_short_array.json", shrink_case(known_bad_case(seed=0)).shrunk

    yield "naive_short_segment.json", shrink_case(_fault_base(
        events=[
            FaultEvent(kind="write", gen=2, nth=1, match=".segment",
                       mode="short", keep_bytes=9),
            FaultEvent(kind="write", gen=1, nth=5, match=".segment",
                       mode="torn"),  # inert: aborts nothing that exists
        ],
        note="naive recovery trusts a generation whose segment header "
             "took a silent short write",
    )).shrunk

    yield "naive_flip_array.json", shrink_case(_fault_base(
        events=[
            FaultEvent(kind="stored_flip", gen=2, target="array",
                       array_index=0, offset=64, bit=3),
            FaultEvent(kind="stored_flip", gen=2, target="array",
                       array_index=0, offset=5000, bit=1),  # inert: pad
        ],
        note="a single bit rotted in the newest generation's array "
             "stream; only checksum validation notices",
    )).shrunk

    yield "naive_flip_segment.json", shrink_case(_fault_base(
        events=[
            FaultEvent(kind="stored_flip", gen=2, target="segment",
                       offset=10, bit=0),
        ],
        note="bit rot inside the newest generation's segment header",
    )).shrunk

    yield "naive_lost_array.json", shrink_case(_fault_base(
        events=[
            FaultEvent(kind="write", gen=2, nth=1, match=".array",
                       mode="short", keep_bytes=0),
        ],
        note="the newest generation's array stream is a hole: the short "
             "write kept zero bytes but the manifest still committed",
    )).shrunk

    # Localized-recovery equivalence anchors (expect=pass): the
    # differential oracle runs each schedule through BOTH the localized
    # and the full recovery path and requires byte-identical state.
    yield "localized_l1_happy.json", localized_equivalence_case(seed=0)
    yield "localized_pfs_fallback.json", localized_pfs_fallback_case(seed=0)

    # Schema anchors for the multi-level and workflow modes (expect=pass):
    # the canonical schedules their gates run first.
    yield "mlck_node_loss.json", node_loss_case(seed=0)
    yield "mlck_mid_drain_crash.json", mid_drain_crash_case(seed=0)
    yield "workflow_torn_line.json", torn_workflow_case(seed=0)
    yield "workflow_lost_member.json", lost_member_generation_case(seed=0)

    # The same injury the validated policy absorbs: expect=pass, and the
    # oracle asserts recovery lands on the older, intact generation.
    yield "validated_survives_short.json", _fault_base(
        events=[
            FaultEvent(kind="write", gen=2, nth=1, match=".array",
                       mode="short", keep_bytes=5),
        ],
        policy="validated",
        expect="pass",
        note="checksum-validated recovery skips the silently truncated "
             "newest generation and restarts from the previous one",
    )


def reconfig_cases():
    """(filename, case) pairs for the reconfiguration half."""
    # the required (t1 > t2) cyclic-redistribution case: shrink the task
    # pool 4 -> 2 while re-dealing both cyclic axes
    yield "reconfig_cyclic_shrink.json", Case(
        type="reconfig",
        engine="drms",
        order="F",
        shape=[8, 6],
        t1=4, p1=2, t2=2, p2=1,
        grid1=[2, 2],
        grid2=[2, 1],
        arrays=[
            ArrayCase(
                name="A0",
                dtype="float64",
                axes1=_specs(Cyclic(), Cyclic()),
                axes2=_specs(Cyclic(), BlockCyclic(block=2)),
                shadow1=[0, 0],
                shadow2=[0, 0],
            )
        ],
        target_bytes=64,
        data_seed=42,
        note="t1 > t2 shrinking reconfiguration with cyclic "
             "redistribution on both axes",
    )

    yield "reconfig_degenerate_one.json", Case(
        type="reconfig",
        engine="drms",
        order="C",
        shape=[1],
        t1=2, p1=1, t2=3, p2=2,
        grid1=[2],
        grid2=[3],
        arrays=[
            ArrayCase(
                name="A0",
                dtype="int32",
                axes1=_specs(Block()),
                axes2=_specs(Cyclic()),
                shadow1=[0],
                shadow2=[0],
            )
        ],
        target_bytes=64,
        data_seed=7,
        note="1-element array on more tasks than elements: most tasks "
             "hold empty sections on both sides",
    )

    yield "reconfig_indexed_partial.json", Case(
        type="reconfig",
        engine="drms",
        order="F",
        shape=[7],
        t1=3, p1=3, t2=2, p2=2,
        grid1=[3],
        grid2=[2],
        arrays=[
            ArrayCase(
                name="A0",
                dtype="float32",
                axes1=_specs(Indexed([
                    Range.regular(0, 2, 1),
                    Range.empty(),
                    Range.regular(4, 6, 1),
                ])),
                axes2=_specs(Block()),
                shadow1=[0],
                shadow2=[0],
            )
        ],
        target_bytes=64,
        data_seed=9,
        note="partial INDEXED coverage: element 3 is owned by no task "
             "and stays undefined across the reconfiguration",
    )

    yield "reconfig_incremental_growth.json", Case(
        type="reconfig",
        engine="incremental",
        order="F",
        shape=[5, 5],
        t1=1, p1=1, t2=4, p2=2,
        grid1=[1, 1],
        grid2=[2, 2],
        arrays=[
            ArrayCase(
                name="A0",
                dtype="int64",
                axes1=_specs(Block(), Block()),
                axes2=_specs(Cyclic(), Block()),
                shadow1=[0, 0],
                shadow2=[0, 0],
            )
        ],
        target_bytes=256,
        data_seed=11,
        note="full + delta chain taken serially, restored on a 2x2 grid",
    )

    yield "reconfig_spmd_conforming.json", Case(
        type="reconfig",
        engine="spmd",
        order="C",
        shape=[6],
        t1=3, p1=2, t2=3, p2=1,
        grid1=[3],
        grid2=[3],
        arrays=[
            ArrayCase(
                name="A0",
                dtype="int16",
                axes1=_specs(GenBlock([3, 2, 1])),
                axes2=_specs(Block()),
                shadow1=[0],
                shadow2=[0],
            )
        ],
        target_bytes=64,
        data_seed=13,
        segment_bytes=1024,
        note="SPMD round trip on the conforming task count; a "
             "non-conforming restart must be refused",
    )


def main() -> int:
    os.makedirs(CASES_DIR, exist_ok=True)
    names = []
    for name, case in list(fault_cases()) + list(reconfig_cases()):
        if case.type == "fault" and case.policy == "naive":
            case.expect = "fail"
        replay_case(case)  # refuse to write a corpus file that drifts
        path = os.path.join(CASES_DIR, name)
        case.save(path)
        names.append(name)
        print(f"wrote {path} ({case.label()})")
    stale = set(os.listdir(CASES_DIR)) - set(names)
    for extra in sorted(stale):
        print(f"warning: stale corpus file not regenerated: {extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
