"""The v1 workflow manifest: one record naming a consistent line.

A workflow checkpoint with base ``W`` and generation ``g`` consists of
the member checkpoints themselves (ordinary v3 DRMS states, one per
member under its own prefix) plus one workflow manifest
``W.workflow.NNNNNN.manifest`` recording, for every member, the exact
prefix + task count + iteration captured on the line.  The manifest is
committed **two-phase** exactly like a v3 member manifest (staged to
``.tmp``, read back, renamed) and written only after *every* member
checkpoint of the line succeeded — so its presence marks a complete,
mutually consistent set, and a crash mid-line leaves the previous
committed line untouched.

Recovery inverts this: :func:`select_workflow_restart_state` walks the
committed workflow generations newest-to-oldest and picks the first
whose **every** member state is byte-valid — a torn set (one member's
generation lost or corrupt) is rejected *as a unit*, never mixed with
states from another line.  Member validation is tier-aware: a member
whose L1 memory replicas still hold and verify the generation is served
from memory, the rest from the PFS.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.checkpoint.format import commit_two_phase
from repro.checkpoint.recover import WalkNames, walk_generations
from repro.checkpoint.rotation import _GEN_RE, generations
from repro.checkpoint.validate import validate_checkpoint
from repro.errors import CheckpointError, WorkflowError
from repro.obs import get_tracer
from repro.pfs.piofs import PIOFS

__all__ = [
    "WORKFLOW_VERSION",
    "WorkflowDecision",
    "WorkflowValidation",
    "check_member_name",
    "newest_consistent_generations",
    "read_workflow_manifest",
    "select_workflow_restart_state",
    "validate_workflow_line",
    "workflow_generations",
    "workflow_line_prefix",
    "workflow_manifest_name",
    "write_workflow_manifest",
]

WORKFLOW_VERSION = 1

#: member (and MPMD component) names are path segments of checkpoint
#: prefixes; the separator is ".", so a name containing one would alias
#: another member's namespace, and a six-digit name would alias a
#: rotation generation of the group base
_MEMBER_NAME_RE = re.compile(r"^[A-Za-z0-9_\-]+$")
_GEN_LIKE_RE = re.compile(r"^\d{6}$")
_RESERVED_NAMES = frozenset(
    {"workflow", "mpmd", "manifest", "segment", "array", "task"}
)

#: workflow and MPMD line walks record under this vocabulary
WORKFLOW_WALK = WalkNames(
    "workflow_recovery_walk", "workflow_line", "workflow_restart_fallback",
    "workflow.lines", "generation",
)

_WF_MANIFEST_RE = re.compile(r"\.workflow\.(?P<gen>\d{6})\.manifest$")
_WF_ANY_RE = re.compile(r"\.workflow\.(?P<gen>\d{6})(\..*)?$")
_MEMBER_GEN_RE = re.compile(r"\.(?P<gen>\d{6})(\..*)?$")


def check_member_name(name: str, taken: Mapping[str, Any] = ()) -> str:
    """Validate a workflow-member / MPMD-component name.

    The name becomes a dotted prefix segment, so anything that would
    alias another namespace is rejected: dots (``a.b`` collides with
    member ``a``'s files), six-digit names (collide with rotation
    generations), reserved file-kind words, and duplicates."""
    if not _MEMBER_NAME_RE.match(name):
        raise CheckpointError(
            f"invalid member name {name!r}: use letters, digits, '_' or "
            "'-' only (dots would alias another member's checkpoint "
            "namespace)"
        )
    if _GEN_LIKE_RE.match(name):
        raise CheckpointError(
            f"invalid member name {name!r}: a six-digit name aliases a "
            "rotation generation of the group prefix"
        )
    if name in _RESERVED_NAMES:
        raise CheckpointError(
            f"invalid member name {name!r}: reserved checkpoint file kind"
        )
    if name in taken:
        raise CheckpointError(f"duplicate member name {name!r}")
    return name


# -- names --------------------------------------------------------------------


def workflow_line_prefix(base: str, generation: int) -> str:
    """The dotted prefix naming workflow generation ``generation``."""
    return f"{base}.workflow.{generation:06d}"


def workflow_manifest_name(base: str, generation: int) -> str:
    """Workflow-manifest file name for one generation."""
    return workflow_line_prefix(base, generation) + ".manifest"


# -- manifest I/O -------------------------------------------------------------


def write_workflow_manifest(
    pfs: PIOFS, base: str, generation: int, manifest: Dict[str, Any]
) -> str:
    """Commit a workflow manifest atomically (stamps the workflow
    format version); returns the manifest file name.

    Same two-phase commit as the v3 member manifests
    (:func:`~repro.checkpoint.format.commit_two_phase`): a crash
    anywhere before the rename leaves no workflow manifest, so the
    half-committed line is invisible to :func:`workflow_generations`."""
    manifest = dict(manifest)
    manifest["workflow_version"] = WORKFLOW_VERSION
    manifest["base"] = base
    manifest["generation"] = generation
    data = json.dumps(manifest, sort_keys=True).encode()
    name = workflow_manifest_name(base, generation)
    with get_tracer().span("workflow_manifest_commit", file=name, nbytes=len(data)):
        commit_two_phase(pfs, name, data)
    return name


def read_workflow_manifest(pfs: PIOFS, base: str, generation: int) -> Dict[str, Any]:
    """Read and version-check one workflow manifest."""
    name = workflow_manifest_name(base, generation)
    if not pfs.exists(name):
        raise WorkflowError(f"no workflow manifest {name!r}")
    raw = pfs.read_at(name, 0, pfs.file_size(name))
    try:
        manifest = json.loads(raw.decode())
    except Exception as exc:
        raise WorkflowError(f"corrupt workflow manifest {name!r}: {exc}") from exc
    version = manifest.get("workflow_version")
    if version != WORKFLOW_VERSION:
        raise WorkflowError(
            f"workflow manifest {name!r} has version {version}; this "
            f"library reads version {WORKFLOW_VERSION}"
        )
    return manifest


def _committed_line_numbers(pfs: PIOFS, base: str) -> List[int]:
    """Generation numbers with a workflow manifest under its final
    name, oldest first — from names alone, nothing is parsed."""
    out = []
    for name in pfs.listdir(f"{base}.workflow."):
        m = _WF_MANIFEST_RE.search(name)
        if m is not None and name == workflow_manifest_name(base, int(m.group("gen"))):
            out.append(int(m.group("gen")))
    return sorted(out)


def workflow_generations(pfs: PIOFS, base: str) -> List[int]:
    """Committed workflow generations under ``base``, oldest first.
    Only readable manifests count (the manifest is written last, so a
    half-committed line is invisible here)."""
    out = []
    for gen in _committed_line_numbers(pfs, base):
        try:
            read_workflow_manifest(pfs, base, gen)
        except WorkflowError:
            continue
        out.append(gen)
    return out


def next_workflow_generation(
    pfs: PIOFS, base: str, member_bases: Mapping[str, str] = ()
) -> int:
    """A generation number strictly newer than every existing workflow
    artifact — including incomplete lines (stale ``.tmp`` manifests)
    and every member's own numbered states, whose numbers must not be
    reused even after a manifest is lost."""
    newest = 0
    for name in pfs.listdir(f"{base}.workflow."):
        m = _WF_ANY_RE.search(name)
        if m:
            newest = max(newest, int(m.group("gen")))
    for mbase in dict(member_bases).values():
        for name in pfs.listdir(mbase + "."):
            m = _MEMBER_GEN_RE.match(name[len(mbase):])
            if m:
                newest = max(newest, int(m.group("gen")))
    return newest + 1


# -- validation ---------------------------------------------------------------


@dataclass
class WorkflowValidation:
    """Outcome of auditing one workflow line."""

    generation: int
    #: member -> serving tier ("l1" or "l2") for every valid member
    member_tiers: Dict[str, str] = field(default_factory=dict)
    #: "member: detail" for every member that failed the audit
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True only when *every* member verified — a single torn
        member rejects the whole line."""
        return not self.errors


def _validate_member(pfs: PIOFS, prefix: str, l1=None) -> Tuple[Optional[str], List[str]]:
    """Audit one member state, memory tier first.  Returns the serving
    tier (``"l1"``/``"l2"``) and the accumulated errors when neither
    tier can serve."""
    errors: List[str] = []
    if l1 is not None and l1.has(prefix):
        # dead nodes' memory goes first: audit the machine as it is now
        l1.sync_with_machine()
        report = l1.validate_generation(prefix)
        if report.ok:
            return "l1", []
        errors.extend(f"l1 {prefix}: {e}" for e in report.errors)
    report = validate_checkpoint(pfs, prefix)
    if report.ok:
        return "l2", []
    errors.extend(f"l2 {prefix}: {e}" for e in report.errors)
    return None, errors


def validate_workflow_line(
    pfs: PIOFS,
    manifest: Mapping[str, Any],
    l1_stores: Optional[Mapping[str, Any]] = None,
) -> WorkflowValidation:
    """Audit every member state named by a workflow manifest.  The line
    is ``ok`` only when all members verify; ``member_tiers`` records
    which tier would serve each member (L1 memory replicas preferred,
    per member — a mixed-tier restart is normal)."""
    l1_stores = dict(l1_stores or {})
    result = WorkflowValidation(generation=int(manifest["generation"]))
    for member, entry in sorted(manifest.get("members", {}).items()):
        tier, errors = _validate_member(
            pfs, entry["prefix"], l1=l1_stores.get(member)
        )
        if tier is None:
            result.errors.append(f"{member}: " + "; ".join(errors[:2]))
        else:
            result.member_tiers[member] = tier
    if not manifest.get("members"):
        result.errors.append("workflow manifest names no members")
    return result


# -- recovery walk ------------------------------------------------------------


@dataclass
class WorkflowDecision:
    """Outcome of a workflow recovery walk under ``base``."""

    base: str
    #: the chosen generation, or None when no line verified
    generation: Optional[int]
    #: the chosen line's manifest (None when nothing verified)
    manifest: Optional[Dict[str, Any]] = None
    #: member -> serving tier for the chosen line
    member_tiers: Dict[str, str] = field(default_factory=dict)
    #: (generation, errors) for every newer line rejected as a unit
    rejected: List[Tuple[int, List[str]]] = field(default_factory=list)

    @property
    def fell_back(self) -> bool:
        """True when the chosen line is not the newest committed one."""
        return self.generation is not None and bool(self.rejected)


def select_workflow_restart_state(
    pfs: PIOFS,
    base: str,
    l1_stores: Optional[Mapping[str, Any]] = None,
    events=None,
    clock: float = 0.0,
) -> WorkflowDecision:
    """Pick the newest workflow generation whose every member state is
    byte-valid, walking newest-to-oldest
    (:func:`~repro.checkpoint.recover.walk_generations`) and rejecting
    torn lines *as a unit* — one lost or corrupt member never costs less
    than the whole line, and never mixes with a state from another
    line.  A committed manifest that no longer parses is a rejected
    line like any other, with its parse error as the reason.

    ``l1_stores`` maps member names to their
    :class:`~repro.mlck.store.L1Store` (or None), upgrading per-member
    validation to the tier-aware policy: members whose memory replicas
    verify are served from L1, the rest from the PFS."""
    audited: Dict[int, Tuple[Dict[str, Any], WorkflowValidation]] = {}

    def validate(gen: int, _tier):
        try:
            manifest = read_workflow_manifest(pfs, base, gen)
        except WorkflowError as exc:
            return [str(exc)], {}
        report = validate_workflow_line(pfs, manifest, l1_stores)
        audited[gen] = (manifest, report)
        return list(report.errors), {"tiers": dict(report.member_tiers)}

    lines = [(g, None) for g in reversed(_committed_line_numbers(pfs, base))]
    gen, _, rejected = walk_generations(
        lines, validate, WORKFLOW_WALK, events, clock, base=base
    )
    decision = WorkflowDecision(base=base, generation=gen, rejected=rejected)
    if gen is not None:
        decision.manifest, report = audited[gen]
        decision.member_tiers = dict(report.member_tiers)
        m = get_tracer().metrics
        for tier in report.member_tiers.values():
            m.counter(f"workflow.restore.{tier}").inc()
    return decision


# -- joint rotation walk (MPMD components without workflow manifests) ---------


def newest_consistent_generations(
    pfs: PIOFS,
    bases: Mapping[str, str],
    l1_stores: Optional[Mapping[str, Any]] = None,
) -> Tuple[Optional[Dict[str, str]], List[Tuple[int, List[str]]]]:
    """The newest rotation generation number ``g`` at which *every*
    member has a byte-valid state ``<base>.NNNNNN`` — the consistency
    line of a component group that rotates checkpoints without workflow
    manifests (:meth:`~repro.drms.mpmd.MPMDApplication.restart`).

    Walks the candidate numbers newest-to-oldest; a number where any
    member is missing, lost, or corrupt is rejected **as a unit**, so
    components never silently restart from mixed logical generations.
    Returns ``({member: prefix}, rejected)`` with ``rejected`` the list
    of ``(generation, errors)`` skipped, or ``(None, rejected)`` when no
    number is consistent."""
    l1_stores = dict(l1_stores or {})
    numbers: set = set()
    for mbase in bases.values():
        for prefix in generations(pfs, mbase):
            numbers.add(int(_GEN_RE.match(prefix).group("gen")))
    resolved: Dict[int, Dict[str, str]] = {}

    def validate(g: int, _tier):
        resolved[g] = {}
        errors: List[str] = []
        for member, mbase in sorted(bases.items()):
            prefix = f"{mbase}.{g:06d}"
            tier, errs = _validate_member(
                pfs, prefix, l1=l1_stores.get(member)
            )
            if tier is None:
                errors.append(f"{member}: " + "; ".join(errs[:2]))
            else:
                resolved[g][member] = prefix
        return errors, {"prefixes": resolved[g]}

    g, _, rejected = walk_generations(
        [(n, None) for n in sorted(numbers, reverse=True)],
        validate, WORKFLOW_WALK, bases=dict(bases),
    )
    return (resolved[g] if g is not None else None), rejected
