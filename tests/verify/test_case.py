"""Case validation: every ``CaseError`` rule rejects its minimal
offending case, and a case's mode decides which events and policies it
may carry (tests/verify)."""

import dataclasses
import json

import pytest

from repro.verify.case import MODE_EVENTS, Case, CaseError, FaultEvent
from repro.verify.gen import (
    GENERATORS,
    CaseGen,
    known_bad_case,
    node_loss_case,
    torn_workflow_case,
)
from repro.verify.oracle import ORACLES

pytestmark = pytest.mark.verify

#: a minimal valid fault case; each row of RULES breaks exactly one rule
BASE = dict(
    type="fault", engine="drms", order="F", shape=[4], t1=2, p1=1, t2=2,
    p2=1, grid1=[2], grid2=[2], arrays=[], target_bytes=64, data_seed=1,
)
MLCK = dict(tier="memory+pfs")
WORKFLOW = dict(workflow=True)

#: (id, case-file text or overrides of BASE, expected message)
RULES = [
    ("not-json", "{", "case file is not JSON"),
    ("not-object", "[]", "case file must hold a JSON object"),
    ("version", dict(version=2), "case schema version 2"),
    ("malformed", dict(bogus=1), "malformed case"),
    ("event-kind", dict(events=[dict(kind="meteor")]),
     "unknown fault-event kind"),
    ("event-gen", dict(events=[dict(kind="write", gen=0)]),
     "1-based generations"),
    ("type", dict(type="replay"), "unknown case type"),
    ("engine", dict(engine="bulk"), "unknown engine"),
    ("policy", dict(policy="lazy"), "unknown recovery policy"),
    ("expect", dict(expect="maybe"), "unknown expectation"),
    ("tier", dict(tier="tape"), "unknown checkpoint tier"),
    ("memory-nodes", dict(MLCK, num_nodes=1), "at least 2 nodes"),
    ("replicas", dict(k=-1), r"k=-1 must be >= 0"),
    ("localized-tier", dict(localized=True),
     "localized cases are fault cases on the memory\\+pfs tier"),
    ("workflow-type", dict(WORKFLOW, type="reconfig"),
     "workflow cases are fault cases on the pfs tier"),
    ("workflow-members", dict(WORKFLOW, members=1), "at least 2 members"),
    ("workflow-task-count", dict(WORKFLOW, member_tasks1=[1]),
     "member_tasks1 has 1 entries for 2 members"),
    ("workflow-task-min", dict(WORKFLOW, member_tasks2=[1, 0]),
     "member_tasks2 entries must be >= 1"),
    ("spmd-conforming", dict(type="reconfig", engine="spmd", t2=1, p2=1),
     "only conforming"),
    ("p1", dict(p1=3), r"p1=3 outside 1..t1=2"),
    ("p2", dict(p2=0), r"p2=0 outside 1..t2=2"),
    ("events-reconfig", dict(type="reconfig", events=[dict(kind="write")]),
     "drms cases do not act on 'write' events"),
    ("events-fault", dict(events=[dict(kind="node_loss")]),
     "fault cases do not act on 'node_loss' events"),
    ("events-mlck", dict(MLCK, events=[dict(kind="gen_loss")]),
     "mlck cases do not act on 'gen_loss' events"),
    ("events-workflow", dict(WORKFLOW, events=[dict(kind="write")]),
     "workflow cases do not act on 'write' events"),
    ("naive-policy", dict(MLCK, localized=True, policy="naive"),
     "localized cases do not act on the 'naive' policy"),
]


def test_base_case_is_valid():
    assert Case.from_dict(BASE).mode == "fault"


@pytest.mark.parametrize(
    "overrides, match", [r[1:] for r in RULES], ids=[r[0] for r in RULES]
)
def test_case_error_rules(overrides, match):
    if not isinstance(overrides, str):
        overrides = json.dumps({**BASE, **overrides})
    with pytest.raises(CaseError, match=match):
        Case.from_json(overrides)


def test_ignored_events_and_policies_are_rejected():
    """Each schedule once passed while its oracle silently dropped the
    event or policy."""
    lost = FaultEvent(kind="node_loss", gen=3, node=1)
    with pytest.raises(CaseError, match="fault cases .* 'node_loss'"):
        dataclasses.replace(known_bad_case(), policy="validated",
                            events=[lost])
    torn = torn_workflow_case()
    with pytest.raises(CaseError, match="workflow cases .* 'write'"):
        dataclasses.replace(
            torn, events=torn.events + [FaultEvent(kind="write", gen=3)]
        )
    with pytest.raises(CaseError, match="mlck cases .* 'naive'"):
        dataclasses.replace(node_loss_case(), policy="naive")


def test_every_generated_mode_has_an_oracle_and_legal_events():
    for suite_mode, draw in GENERATORS.items():
        gen = CaseGen(5)
        for _ in range(10):
            case = draw(gen)
            assert case.mode in ORACLES
            if suite_mode != "reconfig":
                assert case.mode == suite_mode
                assert {ev.kind for ev in case.events} <= set(
                    MODE_EVENTS[case.mode]
                )
