"""The workflow verify-oracle mode: canonical torn-line schedules pass,
the case schema round-trips, and the seeded generator only emits legal
workflow cases."""

import pytest

from repro.verify.case import Case
from repro.verify.gen import (
    CaseGen,
    lost_member_generation_case,
    torn_workflow_case,
)
from repro.verify.oracle import run_case

pytestmark = pytest.mark.workflow


def test_canonical_torn_line_case_passes():
    result = run_case(torn_workflow_case(seed=0))
    d = result.details
    # gen 3 carries the flipped bit: rejected as a unit, line 2 chosen
    assert d["committed"] == [1, 2, 3]
    assert d["rejected"] == [3]
    assert d["chosen"] == 2
    assert result.checked > 0


def test_canonical_lost_member_generation_case_passes():
    result = run_case(lost_member_generation_case(seed=0))
    d = result.details
    assert d["rejected"] == [3]
    assert d["chosen"] == 2


def test_workflow_case_round_trips_through_json():
    case = torn_workflow_case(seed=7)
    back = Case.from_json(case.to_json())
    assert back.workflow
    assert back.members == case.members
    assert back.member_tasks1 == case.member_tasks1
    assert back.events[0].member == case.events[0].member
    assert back.label() == case.label()


def test_generated_workflow_cases_are_legal():
    gen = CaseGen(20260808)
    for _ in range(20):
        case = gen.workflow_case()
        assert case.workflow and case.type == "fault"
        assert case.members >= 2
        assert len(case.workflow_tasks1()) == case.members
        assert all(t >= 1 for t in case.workflow_tasks2())
        assert case.events
        for ev in case.events:
            assert ev.kind in ("stored_flip", "gen_loss")

