"""Oracle behavior: generated cases pass, corrupted setups fail
(tests/verify)."""

import pytest

from repro.verify import (
    CaseGen,
    VerifyFailure,
    known_bad_case,
    replay_case,
    run_case,
    run_suite,
)
from repro.verify.case import Case, FaultEvent

pytestmark = pytest.mark.verify


def test_generated_reconfig_cases_pass_all_engines():
    gen = CaseGen(4242)
    engines = set()
    for _ in range(15):
        case = gen.reconfig_case()
        engines.add(case.engine)
        result = run_case(case)
        assert result.checked > 0
    # 15 draws at the default engine weights covers all three with
    # overwhelming probability for this fixed seed
    assert engines == {"drms", "spmd", "incremental"}


def test_generated_fault_cases_pass_validated_policy():
    gen = CaseGen(777)
    for _ in range(6):
        case = gen.fault_case()
        result = run_case(case)
        assert result.checked > 0


def test_naive_policy_fails_on_silent_truncation():
    case = known_bad_case(seed=0)
    with pytest.raises(VerifyFailure) as exc:
        run_case(case)
    assert exc.value.errors
    assert exc.value.case is case


def test_validated_policy_survives_the_same_schedule():
    case = known_bad_case(seed=0)
    case.policy = "validated"
    case.expect = "pass"
    result = run_case(case)
    assert result.checked > 0


def test_replay_honors_fail_expectation():
    case = known_bad_case(seed=0)  # expect == "fail"
    result = replay_case(case)
    assert "failed_as_expected" in result.details


def test_replay_flags_a_case_that_stops_failing():
    case = known_bad_case(seed=0)
    case.policy = "validated"  # the injury is now caught -> case passes
    with pytest.raises(VerifyFailure):
        replay_case(case)  # but the file still says expect == "fail"


def test_write_fault_on_manifest_aborts_the_generation():
    """A torn manifest write must leave the generation uncommitted, so
    recovery (either policy) falls back to the previous one."""
    case = known_bad_case(seed=0)
    case.events = [
        FaultEvent(kind="write", gen=3, nth=1, match=".manifest",
                   mode="torn", keep_bytes=7),
    ]
    case.policy = "validated"
    case.expect = "pass"
    result = run_case(case)
    assert result.checked > 0


def test_run_suite_aggregates_and_is_deterministic():
    r1 = run_suite(20260806, {"reconfig": 8, "fault": 2})
    r2 = run_suite(20260806, {"reconfig": 8, "fault": 2})
    assert r1.ok and r2.ok
    assert r1.total == r2.total == 10
    assert r1.invariants_checked == r2.invariants_checked
    assert r1.engines == r2.engines


def test_case_json_round_trip_preserves_the_verdict(tmp_path):
    case = known_bad_case(seed=0)
    path = tmp_path / "case.json"
    case.save(path)
    loaded = Case.load(path)
    assert loaded.to_json() == case.to_json()
    assert "failed_as_expected" in replay_case(loaded).details
