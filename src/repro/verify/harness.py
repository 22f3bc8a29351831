"""Suite driver: generate N cases from one seed, run each oracle,
shrink and dump anything that fails.

The harness is the standing correctness gate for later performance
work: ``run_suite(seed, counts)`` is a pure function of its arguments, so
``make verify-reconfig`` (fixed seed, bounded case count) is fully
deterministic, while ``make verify-reconfig-deep`` explores a fresh
seed every run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.verify.case import Case
from repro.verify.gen import GENERATORS, CaseGen
from repro.verify.oracle import VerifyFailure, run_case
from repro.verify.shrink import shrink_case

__all__ = ["SuiteReport", "run_suite"]


@dataclass
class SuiteReport:
    """Aggregate outcome of one harness pass."""

    seed: int
    passed: int = 0
    failed: List[Tuple[Case, VerifyFailure]] = field(default_factory=list)
    engines: Dict[str, int] = field(default_factory=dict)
    invariants_checked: int = 0

    @property
    def total(self) -> int:
        return self.passed + len(self.failed)

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        """One-paragraph human summary (counts, engine mix, first few
        failures)."""
        mix = ", ".join(f"{k}={v}" for k, v in sorted(self.engines.items()))
        line = (
            f"verify: seed={self.seed} cases={self.total} "
            f"passed={self.passed} failed={len(self.failed)} "
            f"invariants={self.invariants_checked} [{mix}]"
        )
        for case, failure in self.failed[:5]:
            line += f"\n  FAIL {case.label()}: {failure.errors[0]}"
        return line


def run_suite(seed: int, counts: Dict[str, int]) -> SuiteReport:
    """Draw ``counts[m]`` cases from ``GENERATORS[m]`` for each suite
    mode ``m``, in ``counts`` order and all from ``seed``, and run each
    case's oracle."""
    gen = CaseGen(seed)
    report = SuiteReport(seed=seed)
    for mode, n in counts.items():
        for _ in range(n):
            case = GENERATORS[mode](gen)
            report.engines[case.mode] = report.engines.get(case.mode, 0) + 1
            try:
                result = run_case(case)
                report.passed += 1
                report.invariants_checked += result.checked
            except VerifyFailure as failure:
                report.failed.append((case, failure))
    return report


def dump_failures(report: SuiteReport, out_dir: str) -> List[str]:
    """Shrink (fault cases) and save every failure of a suite run as a
    replayable JSON case file; returns the written paths."""
    if not report.failed:
        return []
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, (case, _failure) in enumerate(report.failed):
        if case.type == "fault":
            try:
                case = shrink_case(case).shrunk
            except ValueError:
                pass  # flaky failure; dump the original
        case.expect = "fail"
        path = os.path.join(out_dir, f"fail_seed{report.seed}_{i}.json")
        case.save(path)
        paths.append(path)
    return paths
