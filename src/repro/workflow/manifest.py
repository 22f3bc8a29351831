"""The v1 workflow manifest: one record naming a consistent line.

A workflow checkpoint with base ``W`` and generation ``g`` consists of
the member checkpoints themselves (ordinary DRMS states, one per
member under its own prefix) plus one workflow manifest
``W.workflow.NNNNNN.manifest`` recording, for every member, the exact
prefix + task count + iteration captured on the line.  The manifest is
committed **two-phase** exactly like a member manifest (staged to
``.tmp``, read back, renamed) and written only after *every* member
checkpoint of the line succeeded — so its presence marks a complete,
mutually consistent set, and a crash mid-line leaves the previous
committed line untouched.

Recovery inverts this: :func:`select_workflow_restart_state` walks the
committed workflow generations newest-to-oldest and picks the first
whose **every** member state opens — a torn set (one member's
generation lost or corrupt) is rejected *as a unit*, never mixed with
states from another line.  A line is chosen by opening its members
(``open_member``, :meth:`~repro.drms.app.DRMSApplication.open`): each
state is read and hashed once, by the restore that delivers it, from
L1 memory replicas where they verify and from the PFS otherwise, and
the opened states are what the members run on from.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.checkpoint.format import commit_two_phase
from repro.checkpoint.recover import OpenedGeneration, WalkNames, walk_generations
from repro.checkpoint.rotation import (
    committed_prefixes,
    generation_name,
    newest_generation,
    parse_generation,
)
from repro.errors import CheckpointError, PFSError, WorkflowError
from repro.obs import get_tracer
from repro.pfs.piofs import PIOFS

__all__ = [
    "WORKFLOW_VERSION",
    "WorkflowDecision",
    "check_member_name",
    "read_workflow_manifest",
    "select_workflow_restart_state",
    "walk_workflow_lines",
    "workflow_generations",
    "workflow_line_prefix",
    "workflow_manifest_name",
    "write_workflow_manifest",
]

WORKFLOW_VERSION = 1

#: member names are path segments of checkpoint prefixes; the separator
#: is ".", so a name containing one would alias another member's
#: namespace, and a six-digit name would alias a rotation generation of
#: the group base.  The reserved words are file kinds; "mpmd" stays
#: reserved because older trees may hold ``<base>.mpmd`` group files
_MEMBER_NAME_RE = re.compile(r"^[A-Za-z0-9_\-]+$")
_RESERVED_NAMES = frozenset(
    {"workflow", "mpmd", "manifest", "segment", "array", "task"}
)

#: workflow line walks record under this vocabulary
WORKFLOW_WALK = WalkNames(
    "workflow_recovery_walk", "workflow_line", "workflow_restart_fallback",
    "workflow.lines", "generation",
)


def check_member_name(name: str, taken: Mapping[str, Any] = ()) -> str:
    """Validate a workflow-member name.

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
    if parse_generation(f"group.{name}") is not None:
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
    return generation_name(f"{base}.workflow", generation)


def workflow_manifest_name(base: str, generation: int) -> str:
    """Workflow-manifest file name for one generation."""
    return workflow_line_prefix(base, generation) + ".manifest"


# -- manifest I/O -------------------------------------------------------------


def write_workflow_manifest(
    pfs: PIOFS, base: str, generation: int, manifest: Dict[str, Any]
) -> str:
    """Commit a workflow manifest atomically (stamps the workflow
    format version); returns the manifest file name.

    Same two-phase commit as the member manifests
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
    lines = f"{base}.workflow"
    return sorted(parse_generation(p, lines) for p in committed_prefixes(pfs, lines))


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
    bases = [f"{base}.workflow", *dict(member_bases).values()]
    return max(newest_generation(pfs, b) for b in bases) + 1


# -- opening a line -----------------------------------------------------------

#: ``open_member(member, prefix) -> OpenedGeneration``: one member state
#: opened for its relaunch, raising a checkpoint or PFS error when no
#: tier can deliver it
MemberOpener = Callable[[str, str], OpenedGeneration]


def _served_from(opened: OpenedGeneration) -> str:
    """The tier an opened member state came from: ``"l1"`` (memory
    replicas, full or localized) or ``"l2"`` (the PFS copy)."""
    return "l1" if opened.breakdown.kind.startswith("mlck-l1") else "l2"


# -- recovery walk ------------------------------------------------------------


@dataclass
class WorkflowDecision:
    """Outcome of a workflow recovery walk under ``base``."""

    base: str
    #: the chosen generation, or None when no line opened
    generation: Optional[int]
    #: the chosen line's manifest (None when no line opened)
    manifest: Optional[Dict[str, Any]] = None
    #: member -> the tier its state opened from ("l1" or "l2")
    member_tiers: Dict[str, str] = field(default_factory=dict)
    #: (generation, errors) for every newer line rejected as a unit
    rejected: List[Tuple[int, List[str]]] = field(default_factory=list)
    #: member -> its opened state on the chosen line, ready to run on
    opened: Dict[str, OpenedGeneration] = field(default_factory=dict)

    @property
    def fell_back(self) -> bool:
        """True when the chosen line is not the newest committed one."""
        return self.generation is not None and bool(self.rejected)


def walk_workflow_lines(
    pfs: PIOFS,
    base: str,
    lines: Iterable[int],
    open_member: MemberOpener,
    events=None,
) -> WorkflowDecision:
    """The line walk over the workflow generations ``lines``, newest
    first (:func:`~repro.checkpoint.recover.walk_generations`): each
    line's manifest is read once, then every member state it names is
    opened, in member-name order, by ``open_member(member, prefix)``;
    the first line whose every member opens is chosen, with its opened
    states.  A line where any member does not open is rejected *as a
    unit*, its reason ``"<member>: <error>"`` — one lost or corrupt
    member never costs less than the whole line, and never mixes with a
    state from another line.  A manifest that no longer parses is a
    rejected line like any other, with its parse error as the reason."""
    chosen: Dict[str, Any] = {}

    def validate(gen: int, _tier):
        try:
            manifest = read_workflow_manifest(pfs, base, gen)
        except WorkflowError as exc:
            return [str(exc)], {}
        members = manifest.get("members", {})
        if not members:
            return ["workflow manifest names no members"], {}
        opened: Dict[str, OpenedGeneration] = {}
        for member, entry in sorted(members.items()):
            try:
                opened[member] = open_member(member, entry["prefix"])
            except (CheckpointError, PFSError) as exc:
                # the states already opened for this line are dropped
                return [f"{member}: {exc}"], {}
        tiers = {m: _served_from(o) for m, o in opened.items()}
        chosen.update(manifest=manifest, opened=opened, member_tiers=tiers)
        return [], {"tiers": dict(tiers)}

    gen, _, rejected = walk_generations(
        [(g, None) for g in lines], validate, WORKFLOW_WALK, events, base=base
    )
    decision = WorkflowDecision(base=base, generation=gen, rejected=rejected, **chosen)
    m = get_tracer().metrics
    for tier in decision.member_tiers.values():
        m.counter(f"workflow.restore.{tier}").inc()
    return decision


def select_workflow_restart_state(
    pfs: PIOFS,
    base: str,
    open_member: MemberOpener,
    events=None,
) -> WorkflowDecision:
    """Restart a workflow from the newest committed generation whose
    every member state opens: :func:`walk_workflow_lines` over every
    committed line under ``base``, newest first."""
    return walk_workflow_lines(
        pfs, base, reversed(_committed_line_numbers(pfs, base)), open_member, events
    )
