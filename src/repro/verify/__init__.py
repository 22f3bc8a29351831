"""repro.verify — the differential reconfiguration harness.

Property-based equivalence checking for the paper's central claim: a
checkpoint taken with ``t1`` tasks is restartable with any ``t2`` tasks
because array state is streamed in a distribution-independent linear
order.  Seeded generators (:mod:`repro.verify.gen`) draw random
geometry — shapes, per-axis distribution kinds, process grids,
``(t1, p1) → (t2, p2)`` pairs — and the oracle
(:mod:`repro.verify.oracle`) runs checkpoint → restart through all
three engines (drms; spmd where conforming, i.e. ``t2 == t1``;
incremental), asserting bit-identical contents, serial-reference stream
equality, and manifest/metrics/span invariants.  The fault modes
compose the generators with :mod:`repro.pfs.faults` schedules and
assert the recovery walk lands on the newest byte-for-byte valid
checkpoint — on the PFS (``fault``), across the memory and PFS tiers
(``mlck``), identically through localized and full recovery
(``localized``), and line by line for a coupled ensemble
(``workflow``).  A case's mode is :attr:`Case.mode`; one table per
consumer is keyed by it (``GENERATORS``, ``ORACLES``, the CLI's
``MODES``).  Failing schedules shrink (:mod:`repro.verify.shrink`) to
minimal reproducers stored as replayable JSON case files::

    python -m repro.verify run --seed 20260806 --cases 220 --fault-cases 40
    python -m repro.verify mlck --cases 40   # also: localized, workflow
    python -m repro.verify replay tests/verify/cases/<case>.json

See DESIGN.md §10 for the harness architecture and how to add a new
invariant.
"""

from repro.verify.case import ArrayCase, Case, CaseError, FaultEvent
from repro.verify.gen import (
    CaseGen,
    known_bad_case,
    random_axis,
    random_distribution,
    random_grid,
    random_range,
    random_shape,
    random_slice,
)
from repro.verify.harness import SuiteReport, dump_failures, run_suite
from repro.verify.oracle import CaseResult, VerifyFailure, replay_case, run_case
from repro.verify.shrink import ShrinkReport, shrink_case

__all__ = [
    "ArrayCase",
    "Case",
    "CaseError",
    "CaseGen",
    "CaseResult",
    "FaultEvent",
    "ShrinkReport",
    "SuiteReport",
    "VerifyFailure",
    "dump_failures",
    "known_bad_case",
    "random_axis",
    "random_distribution",
    "random_grid",
    "random_range",
    "random_shape",
    "random_slice",
    "replay_case",
    "run_case",
    "run_suite",
    "shrink_case",
]
