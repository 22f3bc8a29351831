"""Recovery policy: restart from the newest checkpoint that opens.

The paper (Section 3) keeps multiple checkpointed states under rotating
prefixes precisely so that "the application can be restarted from any
of them".  This module turns that flexibility into an automatic
policy: walk the candidate states newest-to-oldest and restart from the
first that opens — so a state corrupted by a torn write or a flipped
bit costs one generation of progress instead of a failed recovery.
*A generation is chosen by opening it* (:func:`open_latest_valid`): the
restore is the validator, and it verifies exactly the bytes it delivers
(structural checks first, then one read and one hash per stored byte);
:func:`select_restart_state` is the audit — every candidate validated,
nothing restored — for the tools and the verify oracle's ground truth.

There is one walk, :func:`walk_generations`; the audit and the open
here and the workflow line walk of :mod:`repro.workflow.manifest` hand
it their candidates and their validator.  Every decision is
observable, the same way for every walk: spans, marks, metrics and
flight records always, and — when an
:class:`~repro.infra.events.EventLog` is supplied —
``checkpoint_rejected`` for each corrupt candidate,
``checkpoint_verified`` for the chosen one, and ``restart_fallback``
whenever the chosen state is not the newest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.checkpoint.format import manifest_name
from repro.checkpoint.rotation import committed_prefixes, parse_generation
from repro.checkpoint.validate import validate_checkpoint
from repro.errors import CheckpointError, PFSError, RestartError
from repro.obs import emit_event, get_tracer
from repro.pfs.piofs import PIOFS

__all__ = [
    "CHECKPOINT_WALK",
    "OpenedGeneration",
    "RecoveryDecision",
    "WalkNames",
    "first_rejections",
    "open_latest_valid",
    "restart_candidates",
    "restart_latest_valid",
    "select_restart_state",
    "walk_checkpoints",
    "walk_generations",
]


def first_rejections(rejected: Sequence[Tuple[Any, List[str]]], label: str = "") -> str:
    """`` (<first candidates passed over>: <first error of each>; ...)``
    for a "nothing validates" message; empty when nothing was rejected."""
    detail = "; ".join(f"{label}{key}: {errs[0]}" for key, errs in rejected[:3])
    return f" ({detail})" if detail else ""


@dataclass
class RecoveryDecision:
    """Outcome of a recovery walk over the states under ``base``."""

    base: str
    #: the chosen state, or None when no candidate verified
    prefix: Optional[str]
    #: (prefix, errors) for every newer candidate that failed the audit
    rejected: List[Tuple[str, List[str]]] = field(default_factory=list)
    #: which tier serves the chosen state: "l1" (memory replicas), "l2"
    #: (PFS), or None for the PFS-only walk / when nothing verified
    tier: Optional[str] = None

    @property
    def fell_back(self) -> bool:
        """True when the chosen state is not the newest candidate."""
        return self.prefix is not None and bool(self.rejected)

    def failure(self) -> str:
        """Why the walk found nothing to restart from: names the first
        rejected candidates and the first error of each, so a failed
        recovery surfaces its root cause."""
        return (
            f"no checkpoint under {self.base!r} passes validation on any tier"
            + first_rejections(self.rejected)
        )


class WalkNames(NamedTuple):
    """The vocabulary one family of walks records under."""

    #: span name; flight records ``<walk>_started`` / ``<walk>_done``
    walk: str
    #: ``<item>_verified`` / ``<item>_rejected`` marks, flight records, events
    item: str
    #: mark, flight record and event when the chosen candidate is not the newest
    fallback: str
    #: counter root: ``<metrics>.verified|rejected|fallback``
    metrics: str
    #: what a candidate is called in every record
    key: str


CHECKPOINT_WALK = WalkNames(
    "recovery_walk", "checkpoint", "restart_fallback", "recover", "prefix"
)


def walk_generations(
    candidates: Sequence[Tuple[Any, Optional[str]]],
    validate: Callable[[Any, Optional[str]], Tuple[List[str], Dict[str, Any]]],
    names: WalkNames = CHECKPOINT_WALK,
    events=None,
    **context: Any,
) -> Tuple[Any, Optional[str], List[Tuple[Any, List[str]]]]:
    """The newest-to-oldest walk: take the first candidate that
    validates, record every one passed over.

    ``candidates`` are ``(key, tier)`` pairs, newest first — within one
    generation the preferred tier first; ``tier`` is None for walks
    that do not distinguish tiers.  ``validate(key, tier)`` returns
    ``(errors, detail)``: no errors accepts the candidate, and
    ``detail`` describes the accepted state in its ``verified`` records.
    ``context`` (``base=``, ``job=``) is attached to every record.

    Returns ``(key, tier, rejected)`` — ``key`` None when nothing
    validated; ``rejected`` lists ``(key, errors)`` for every candidate
    passed over, errors tier-tagged when the walk has tiers.  This is
    the one place a walk emits its marks and metrics; each decision is
    one :func:`~repro.obs.flight.emit_event` (on ``events`` when given,
    on the flight ring always), and the walk's ``_started`` / ``_done``
    are flight records only."""
    obs = get_tracer()
    m = obs.metrics

    def note(kind: str, **detail: Any) -> None:
        obs.mark(kind, **detail)
        emit_event(events, kind, **detail, **context)

    generations_seen = len({key for key, _ in candidates})
    chosen = chosen_tier = None
    rejected: List[Tuple[Any, List[str]]] = []
    with obs.span(names.walk, **context) as sp:
        emit_event(
            None, f"{names.walk}_started",
            candidates=generations_seen, **context,
        )
        for key, tier in candidates:
            where = {names.key: key, **({"tier": tier} if tier else {})}
            errors, detail = validate(key, tier)
            if errors:
                errors = [f"{tier}: {e}" for e in errors] if tier else list(errors)
                rejected.append((key, errors))
                m.counter(f"{names.metrics}.rejected").inc()
                note(f"{names.item}_rejected", errors=errors, **where)
                continue
            chosen, chosen_tier = key, tier
            m.counter(f"{names.metrics}.verified").inc()
            note(f"{names.item}_verified", **where, **detail)
            if rejected:
                m.counter(f"{names.metrics}.fallback").inc()
                note(names.fallback, skipped=[k for k, _ in rejected], **where)
            break
        done = {
            "rejected": len(rejected),
            "chosen": chosen,
            **({"tier": chosen_tier} if chosen_tier else {}),
        }
        sp.set(candidates=generations_seen, **done)
        emit_event(None, f"{names.walk}_done", **done, **context)
    return chosen, chosen_tier, rejected


def restart_candidates(pfs: PIOFS, base: str) -> List[str]:
    """Restartable prefixes under ``base``, newest first: the committed
    rotation generations (``base.NNNNNN``), then ``base`` itself when a
    plain un-rotated state exists — from manifest names alone; whether
    a manifest parses is each candidate's first check."""
    out = committed_prefixes(pfs, base)
    out.sort(key=lambda p: parse_generation(p, base), reverse=True)
    if pfs.exists(manifest_name(base)):
        out.append(base)
    return out


def walk_checkpoints(
    pfs: PIOFS, base: str, validate: Callable, l1=None,
    candidates: Optional[Sequence[Tuple[str, Optional[str]]]] = None,
    events=None, job: Optional[str] = None,
) -> RecoveryDecision:
    """:func:`walk_generations` over the states under ``base`` (or
    ``candidates``) as a :class:`RecoveryDecision`; tier-aware given an
    L1 store ``l1`` (:func:`~repro.mlck.recovery.tiered_candidates`),
    counting ``mlck.recover.<tier>`` and ``mlck.l2.fallbacks``."""
    if candidates is None and l1 is None:
        candidates = [(p, None) for p in restart_candidates(pfs, base)]
    elif candidates is None:
        from repro.mlck.recovery import tiered_candidates

        candidates = [(p, t) for p, ts in tiered_candidates(pfs, base, l1) for t in ts]
    prefix, tier, rejected = walk_generations(
        candidates, validate, CHECKPOINT_WALK, events, base=base, job=job,
    )
    if tier is not None:
        m = get_tracer().metrics
        m.counter(f"mlck.recover.{tier}").inc()
        if tier == "l2" and any(
            err.startswith("l1:") for _, errs in rejected for err in errs
        ):
            # an L1 candidate existed but could not serve
            m.counter("mlck.l2.fallbacks").inc()
    return RecoveryDecision(base=base, prefix=prefix, rejected=rejected, tier=tier)


def select_restart_state(
    pfs: PIOFS,
    base: str,
    events=None,
    job: Optional[str] = None,
    l1=None,
) -> RecoveryDecision:
    """The audit walk: the newest state under ``base`` that passes
    :func:`validate_checkpoint` (``l1`` candidates:
    :meth:`~repro.mlck.store.L1Store.validate_generation`), nothing
    restored.  ``events``/``job`` hook it into a cluster's
    :class:`~repro.infra.events.EventLog`; ``l1`` makes it tier-aware."""

    def audit(prefix: str, tier: Optional[str]):
        if tier == "l1":
            report = l1.validate_generation(prefix)
        else:
            report = validate_checkpoint(pfs, prefix)
        return report.errors, {
            "files": report.files, "bytes_hashed": report.bytes_hashed,
        }

    return walk_checkpoints(pfs, base, audit, l1, None, events, job)


class OpenedGeneration(NamedTuple):
    """A generation a walk chose by opening it, as its restore returned
    it (``scope``: a localized one's RebuildScope) — what the JSA hands
    the application instead of a name to open again."""

    prefix: str
    state: Any
    breakdown: Any
    scope: Any = None


def open_latest_valid(
    pfs: PIOFS, base: str, open_one: Callable, l1=None,
    candidates: Optional[Sequence[Tuple[str, Optional[str]]]] = None,
    events=None, job: Optional[str] = None,
) -> Tuple[Optional[OpenedGeneration], RecoveryDecision]:
    """The walk of a restart: :func:`walk_checkpoints`, each candidate
    *opened* by ``open_one(prefix, tier) -> (state, breakdown[, scope])``
    — an open that raises a checkpoint or PFS error delivered nothing and
    is a rejection.  Returns the opened generation (or None) and the
    decision."""
    opened: List[OpenedGeneration] = []

    def validate(prefix: str, tier: Optional[str]):
        try:
            opened.append(OpenedGeneration(prefix, *open_one(prefix, tier)))
        except (CheckpointError, PFSError) as exc:
            return [str(exc)], {}
        return [], {"seconds": opened[0].breakdown.total_seconds}

    decision = walk_checkpoints(pfs, base, validate, l1, candidates, events, job)
    return (opened[0] if opened else None), decision


def restart_latest_valid(
    pfs: PIOFS, base: str, ntasks: int, l1=None, events=None,
    job: Optional[str] = None, **options: Any,
) -> Tuple[Any, Any, RecoveryDecision]:
    """``(state, breakdown, decision)`` of the newest generation under
    ``base`` that opens onto ``ntasks`` tasks (:func:`open_latest_valid`
    with :func:`~repro.checkpoint.drms.restart_opener`'s ``options``);
    :class:`~repro.errors.RestartError` when nothing opens."""
    from repro.checkpoint.drms import restart_opener

    opened, decision = open_latest_valid(
        pfs, base, restart_opener(pfs, ntasks, l1=l1, **options), l1,
        events=events, job=job,
    )
    if opened is None:
        raise RestartError(decision.failure())
    return opened.state, opened.breakdown, decision
