"""Greedy shrinking of failing fault schedules.

When a fault case fails its oracle, the schedule that produced the
failure is usually noisy: inert events that never fired, generations
that don't matter, write indices larger than needed.  ``shrink_case``
reduces a failing case to a minimal reproducer the same way hypothesis
shrinks a failing example — propose a simpler candidate, keep it iff
the oracle still fails — except the proposal order is deterministic and
purpose-built for fault schedules:

1. **drop events** (one at a time, to a fixpoint) — inert faults vanish;
2. **drop trailing generations** past the last event that matters;
3. **remap events to earlier generations** and shrink the generation
   count further;
4. **normalize numeric fields** (``nth`` → 1, ``keep_bytes`` → 0,
   ``offset``/``bit`` → 0) and **simplify the workload** (single array,
   fewer tasks).

Every accepted candidate still raises
:class:`~repro.verify.oracle.VerifyFailure`, so the shrunk case is a
true reproducer; dump it with ``Case.save`` and it replays forever via
``python -m repro.verify replay``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator, List

from repro.verify.case import Case
from repro.verify.oracle import VerifyFailure, run_case

__all__ = ["ShrinkReport", "shrink_case"]


@dataclass
class ShrinkReport:
    """Outcome of one shrink run."""

    original: Case
    shrunk: Case
    attempts: int = 0
    accepted: int = 0
    steps: List[str] = field(default_factory=list)


def _fails(case: Case) -> bool:
    try:
        run_case(case)
        return False
    except VerifyFailure:
        return True
    except Exception:
        # a candidate that crashes the oracle outright (illegal
        # geometry after simplification) is not a reproducer
        return False


def _without_event(case: Case, i: int) -> Case:
    out = copy.deepcopy(case)
    del out.events[i]
    return out


def _event_candidates(case: Case) -> Iterator[tuple]:
    """(description, candidate) stream of single-step simplifications."""
    # 1. drop one event
    for i in range(len(case.events)):
        yield f"drop event {i}", _without_event(case, i)
    # 2. trailing generations past the last bound event are dead weight
    if case.events:
        last = max(ev.gen for ev in case.events)
        if case.generations > last:
            out = copy.deepcopy(case)
            out.generations = last
            yield f"generations -> {last}", out
    elif case.generations > 1:
        out = copy.deepcopy(case)
        out.generations = 1
        yield "generations -> 1", out
    # 3. remap each event one generation earlier (pulls the schedule
    # toward generation 1, letting step 2 cut the tail again)
    for i, ev in enumerate(case.events):
        if ev.gen > 1:
            out = copy.deepcopy(case)
            out.events[i].gen = ev.gen - 1
            yield f"event {i} gen -> {ev.gen - 1}", out
    # 4. numeric normalization per event
    for i, ev in enumerate(case.events):
        if ev.kind == "write":
            if ev.nth > 1:
                out = copy.deepcopy(case)
                out.events[i].nth = ev.nth - 1
                yield f"event {i} nth -> {ev.nth - 1}", out
            if ev.keep_bytes not in (0, None):
                out = copy.deepcopy(case)
                out.events[i].keep_bytes = 0
                yield f"event {i} keep_bytes -> 0", out
        else:
            if ev.offset:
                out = copy.deepcopy(case)
                out.events[i].offset = 0
                yield f"event {i} offset -> 0", out
            if ev.bit:
                out = copy.deepcopy(case)
                out.events[i].bit = 0
                yield f"event {i} bit -> 0", out
    # 5. workload simplification
    if len(case.arrays) > 1:
        out = copy.deepcopy(case)
        out.arrays = out.arrays[:1]
        yield "single array", out
    if case.t2 > 1:
        out = copy.deepcopy(case)
        out.t2, out.p2 = 1, 1
        out.grid2 = [1] * len(out.shape)
        for arr in out.arrays:
            arr.axes2 = [{"kind": "block"} for _ in out.shape]
            arr.shadow2 = [0] * len(out.shape)
        yield "t2 -> 1", out


def shrink_case(case: Case, max_attempts: int = 400) -> ShrinkReport:
    """Greedy fixpoint shrink of a failing fault case.  ``case`` itself
    must fail its oracle; raises ``ValueError`` otherwise."""
    if not _fails(case):
        raise ValueError("shrink_case needs a case that fails its oracle")
    report = ShrinkReport(original=case, shrunk=copy.deepcopy(case))
    current = report.shrunk
    progress = True
    while progress and report.attempts < max_attempts:
        progress = False
        for desc, candidate in _event_candidates(current):
            if report.attempts >= max_attempts:
                break
            report.attempts += 1
            if _fails(candidate):
                current = candidate
                report.accepted += 1
                report.steps.append(desc)
                progress = True
                break  # restart proposals from the simpler case
    report.shrunk = current
    return report
