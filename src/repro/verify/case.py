"""Replayable case files for the differential reconfiguration harness.

A *case* is the complete, JSON-serializable description of one
generated experiment:

* a **reconfig** case checkpoints a randomly distributed workload with
  ``t1`` tasks (``p1`` I/O tasks) through one engine and restarts it
  with ``t2`` tasks (``p2`` I/O tasks) under an independently drawn
  destination distribution, asserting bit-identical contents plus the
  manifest/metrics/span invariants of :mod:`repro.verify.oracle`;
* a **fault** case additionally runs ``generations`` checkpoint
  attempts under a schedule of injected I/O faults
  (:mod:`repro.pfs.faults`) and asserts that the recovery policy lands
  on the newest checkpoint that is *actually* valid byte-for-byte.

:attr:`Case.mode` names the oracle a case runs under, and a case may
only carry the events (and policy) that oracle acts on.

Cases round-trip through JSON (``Case.to_json`` / ``Case.from_json``)
so a failing case shrunk by :mod:`repro.verify.shrink` can be checked
in under ``tests/verify/cases/`` and replayed forever with::

    python -m repro.verify replay tests/verify/cases/<case>.json

Distribution geometry is stored in the same axis-spec vocabulary the
checkpoint manifests use (:func:`repro.checkpoint.format.axis_to_spec`),
so a case file is readable next to a manifest.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List

from repro.arrays.distributions import Distribution
from repro.checkpoint.format import spec_to_axis
from repro.errors import ReproError


class CaseError(ReproError):
    """A malformed or unreadable case file."""


#: bump when the case schema changes incompatibly
CASE_VERSION = 2

ENGINES = ("drms", "spmd", "incremental")
POLICIES = ("validated", "naive")
EXPECTATIONS = ("pass", "fail")
EVENT_KINDS = ("write", "stored_flip", "node_loss", "drain_crash", "gen_loss")
TIERS = ("pfs", "memory+pfs")
#: the event kinds each fault mode's oracle acts on; a reconfig mode
#: (an engine) acts on none
MODE_EVENTS = {
    "fault": ("write", "stored_flip"),
    "mlck": ("write", "stored_flip", "node_loss", "drain_crash"),
    "localized": ("write", "stored_flip", "node_loss", "drain_crash"),
    "workflow": ("stored_flip", "gen_loss"),
}


@dataclass
class ArrayCase:
    """One distributed array of a case: its dtype plus the source
    (checkpoint-time) and destination (restart-time) geometry."""

    name: str
    dtype: str
    #: axis specs (manifest vocabulary), one per array axis
    axes1: List[Dict[str, Any]]
    axes2: List[Dict[str, Any]]
    shadow1: List[int]
    shadow2: List[int]


@dataclass
class FaultEvent:
    """One scheduled fault, bound to checkpoint generation ``gen``
    (1-based).  ``kind == "write"`` arms a
    :class:`~repro.pfs.faults.WriteFault` at stored byte ``offset`` of
    the files matching ``match`` for that generation's checkpoint;
    ``kind == "stored_flip"`` persistently flips a stored bit of one of
    the generation's files after the checkpoint call.  Events that
    never match anything (wrong generation, no matching write covering
    the offset, no stored byte at it) are inert — the shrinker removes
    them.

    Multi-level (``tier="memory+pfs"``) cases add two kinds:
    ``kind == "node_loss"`` kills node ``node`` after generation
    ``gen``'s capture+drain round — its L1 replica memory is gone;
    ``kind == "drain_crash"`` arms a write fault (the write-fault
    fields) against generation ``gen``'s *drain*, so the generation
    stays memory-only (no manifest ever commits — two-phase commit).
    Plain ``write`` events in an mlck case also target the drain:
    silent modes ("short"/"torn") corrupt the durable copy while the
    memory replicas stay good.

    Workflow cases (``workflow=True``) bind events to one *member* of
    the ensemble (``member``, an index into the member list):
    ``stored_flip`` corrupts that member's slice of workflow generation
    ``gen`` after the run, and ``kind == "gen_loss"`` deletes the
    member's generation manifest outright — either way the whole
    workflow line must be rejected as a unit."""

    kind: str
    gen: int = 1
    # write faults: which files, and what the write does
    match: str = ""
    mode: str = "fail"
    # stored flips: which file
    target: str = "array"  # "segment" | "array"
    array_index: int = 0
    # the stored byte a write fault or a stored flip hits
    offset: int = 0
    bit: int = 0
    # node losses (tier="memory+pfs")
    node: int = 0
    # workflow member the event targets (index into the member list)
    member: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise CaseError(f"unknown fault-event kind {self.kind!r}")
        if self.gen < 1:
            raise CaseError("fault events bind to 1-based generations")


@dataclass
class Case:
    """One replayable harness case (see module docstring)."""

    type: str  # "reconfig" | "fault"
    engine: str
    order: str
    shape: List[int]
    t1: int
    p1: int
    t2: int
    p2: int
    grid1: List[int]
    grid2: List[int]
    arrays: List[ArrayCase]
    target_bytes: int
    data_seed: int
    #: per-task SPMD segment size (ignored by the other engines)
    segment_bytes: int = 4096
    #: the generator seed this case came from (informational)
    seed: int = 0
    # -- fault mode ------------------------------------------------------
    generations: int = 0
    events: List[FaultEvent] = field(default_factory=list)
    policy: str = "validated"
    expect: str = "pass"
    note: str = ""
    #: checkpoint store tier ("memory+pfs" routes fault cases through
    #: the multi-level oracle: L1 capture + drain + tier-aware recovery)
    tier: str = "pfs"
    #: simulated node count for tier="memory+pfs" cases
    num_nodes: int = 8
    #: replica count of the L1 store (owner + k partners)
    k: int = 1
    #: route this fault case through the localized-vs-full differential
    #: oracle: both recovery paths must produce byte-identical state
    localized: bool = False
    #: route this fault case through the coupled-workflow oracle: an
    #: ensemble of ``members`` applications checkpointed as workflow
    #: lines, post-run corruption tearing lines that the recovery walk
    #: must reject as units
    workflow: bool = False
    #: ensemble size of a workflow case
    members: int = 2
    #: per-member task counts for the initial run / the ensemble
    #: restart (empty lists fall back to ``t1`` / ``t2`` for all)
    member_tasks1: List[int] = field(default_factory=list)
    member_tasks2: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.type not in ("reconfig", "fault"):
            raise CaseError(f"unknown case type {self.type!r}")
        if self.engine not in ENGINES:
            raise CaseError(f"unknown engine {self.engine!r}")
        if self.policy not in POLICIES:
            raise CaseError(f"unknown recovery policy {self.policy!r}")
        if self.expect not in EXPECTATIONS:
            raise CaseError(f"unknown expectation {self.expect!r}")
        if self.tier not in TIERS:
            raise CaseError(f"unknown checkpoint tier {self.tier!r}")
        if self.tier != "pfs" and self.num_nodes < 2:
            raise CaseError("memory-tier cases need at least 2 nodes")
        if self.k < 0:
            raise CaseError(f"replica count k={self.k} must be >= 0")
        if self.localized and (self.type != "fault" or self.tier != "memory+pfs"):
            raise CaseError(
                "localized cases are fault cases on the memory+pfs tier"
            )
        if self.workflow:
            if self.type != "fault" or self.tier != "pfs" or self.localized:
                raise CaseError(
                    "workflow cases are fault cases on the pfs tier"
                )
            if self.members < 2:
                raise CaseError("workflow cases need at least 2 members")
            for fname, tasks in (
                ("member_tasks1", self.member_tasks1),
                ("member_tasks2", self.member_tasks2),
            ):
                if tasks and len(tasks) != self.members:
                    raise CaseError(
                        f"{fname} has {len(tasks)} entries for "
                        f"{self.members} members"
                    )
                if any(t < 1 for t in tasks):
                    raise CaseError(f"{fname} entries must be >= 1")
        if self.engine == "spmd" and self.t2 != self.t1:
            raise CaseError(
                "SPMD restart is only conforming on the checkpointing "
                f"task count (t1={self.t1}, t2={self.t2})"
            )
        if not 1 <= self.p1 <= self.t1:
            raise CaseError(f"p1={self.p1} outside 1..t1={self.t1}")
        if not 1 <= self.p2 <= self.t2:
            raise CaseError(f"p2={self.p2} outside 1..t2={self.t2}")
        for ev in self.events:
            if ev.kind not in MODE_EVENTS.get(self.mode, ()):
                raise CaseError(
                    f"{self.mode} cases do not act on {ev.kind!r} events"
                )
        if self.policy == "naive" and self.mode != "fault":
            raise CaseError(
                f"{self.mode} cases do not act on the 'naive' policy"
            )

    @property
    def mode(self) -> str:
        """The oracle this case runs under: its engine for a reconfig
        case; ``workflow``, ``localized``, ``mlck`` or ``fault`` for a
        fault case."""
        if self.type == "reconfig":
            return self.engine
        if self.workflow:
            return "workflow"
        if self.localized:
            return "localized"
        return "mlck" if self.tier == "memory+pfs" else "fault"

    # -- workflow geometry ----------------------------------------------

    def workflow_tasks1(self) -> List[int]:
        """Per-member task counts of a workflow case's initial run."""
        return list(self.member_tasks1) or [self.t1] * self.members

    def workflow_tasks2(self) -> List[int]:
        """Per-member task counts of the ensemble restart."""
        return list(self.member_tasks2) or [self.t2] * self.members

    # -- geometry --------------------------------------------------------

    def distribution1(self, arr: ArrayCase) -> Distribution:
        """The checkpoint-time distribution of ``arr`` (t1 tasks)."""
        return Distribution(
            self.shape,
            [spec_to_axis(s) for s in arr.axes1],
            ntasks=self.t1,
            grid=self.grid1,
            shadow=arr.shadow1,
        )

    def distribution2(self, arr: ArrayCase) -> Distribution:
        """The restart-time distribution of ``arr`` (t2 tasks)."""
        return Distribution(
            self.shape,
            [spec_to_axis(s) for s in arr.axes2],
            ntasks=self.t2,
            grid=self.grid2,
            shadow=arr.shadow2,
        )

    # -- JSON ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The case as a version-stamped JSON-able dict."""
        out = asdict(self)
        out["version"] = CASE_VERSION
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, blob: Dict[str, Any]) -> "Case":
        blob = dict(blob)
        version = blob.pop("version", CASE_VERSION)
        if version != CASE_VERSION:
            raise CaseError(
                f"case schema version {version} != supported {CASE_VERSION}"
            )
        try:
            blob["arrays"] = [ArrayCase(**a) for a in blob.get("arrays", [])]
            blob["events"] = [FaultEvent(**e) for e in blob.get("events", [])]
            return cls(**blob)
        except TypeError as exc:
            raise CaseError(f"malformed case: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "Case":
        try:
            blob = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CaseError(f"case file is not JSON: {exc}") from exc
        if not isinstance(blob, dict):
            raise CaseError("case file must hold a JSON object")
        return cls.from_dict(blob)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "Case":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def label(self) -> str:
        """One-line human summary for harness output."""
        core = (
            f"{self.engine} {tuple(self.shape)} "
            f"(t1={self.t1},p1={self.p1})->(t2={self.t2},p2={self.p2}) "
            f"order={self.order}"
        )
        if self.type == "fault":
            core += (
                f" gens={self.generations} events={len(self.events)} "
                f"policy={self.policy} expect={self.expect}"
            )
        if self.tier != "pfs":
            core += f" tier={self.tier} nodes={self.num_nodes} k={self.k}"
        if self.localized:
            core += " localized"
        if self.workflow:
            core += (
                f" workflow members={self.members} "
                f"tasks={self.workflow_tasks1()}->{self.workflow_tasks2()}"
            )
        return core


__all__ = [
    "ArrayCase",
    "Case",
    "CaseError",
    "CASE_VERSION",
    "ENGINES",
    "FaultEvent",
    "MODE_EVENTS",
    "TIERS",
]
