"""Tier-aware recovery: newest generation satisfiable from any tier.

Extends the PFS recovery walk (:mod:`repro.checkpoint.recover`) to the
two-level store.  Candidates from both tiers merge into one
newest-first sequence; at each generation L1 is tried before L2
(fetching surviving memory replicas over the switch beats re-reading
the PFS by more than an order of magnitude on the simulated machine):

1. an L1 replica set is *checksum-validated* exactly like a manifest —
   every piece must have a surviving, SHA-1-valid replica;
2. a generation whose L1 copy is lost (node failure took both
   replicas, or it was evicted after draining) falls back to its L2
   copy, if the manifest committed and the bytes verify;
3. a generation lost in *both* tiers — e.g. a mid-drain crash left no
   manifest and the L1 copy died with its node — is rejected and the
   walk continues to the older generation.

Deciding never reads checkpoint *data* from the PFS until L1 has
already failed for some generation: L2 candidates are enumerated from
manifest **names** only (the two-phase commit makes name presence imply
a committed manifest), so a recovery fully served by L1 performs zero
PFS reads — the property the verify oracle's node-loss schedules
assert via the ``pfs.read.count`` metric.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.checkpoint.format import manifest_name
from repro.checkpoint.recover import RecoveryDecision, walk_checkpoints
from repro.checkpoint.rotation import _GEN_RE, committed_prefixes
from repro.mlck.store import L1Store
from repro.obs import get_tracer
from repro.pfs.piofs import PIOFS

__all__ = ["tiered_candidates", "select_tiered_restart_state"]


def _gen_number(prefix: str, base: str) -> int:
    """Rotation generation number of ``prefix`` (0 for ``base`` itself,
    so the un-rotated state sorts oldest)."""
    m = _GEN_RE.match(prefix)
    if m is not None and m.group("base") == base:
        return int(m.group("gen"))
    return 0


def tiered_candidates(
    pfs: PIOFS, base: str, l1: L1Store
) -> List[Tuple[str, List[str]]]:
    """Merged candidate list, newest generation first: ``(prefix,
    tiers)`` with tiers ordered ``["l1", "l2"]`` — the preference order
    within one generation."""
    l1_prefixes = {
        p
        for p in l1.generations()
        if p == base or _GEN_RE.match(p) and _GEN_RE.match(p).group("base") == base
    }
    # L2 candidates come from manifest names alone: no PFS read
    l2_prefixes = set(committed_prefixes(pfs, base))
    if pfs.exists(manifest_name(base)):
        l2_prefixes.add(base)
    merged = sorted(
        l1_prefixes | l2_prefixes,
        key=lambda p: _gen_number(p, base),
        reverse=True,
    )
    out = []
    for prefix in merged:
        tiers = []
        if prefix in l1_prefixes:
            tiers.append("l1")
        if prefix in l2_prefixes:
            tiers.append("l2")
        out.append((prefix, tiers))
    return out


def select_tiered_restart_state(
    pfs: PIOFS,
    base: str,
    l1: L1Store,
    events=None,
    clock: float = 0.0,
    job: Optional[str] = None,
) -> RecoveryDecision:
    """Pick the newest generation under ``base`` satisfiable from any
    tier, preferring L1 within a generation.  Returns a
    :class:`~repro.checkpoint.recover.RecoveryDecision` whose ``tier``
    names the serving tier; every rejected (generation, tier) pair is
    recorded with tier-tagged errors, and the walk — the shared
    :func:`~repro.checkpoint.recover.walk_generations` — emits the same
    ``checkpoint_verified`` / ``checkpoint_rejected`` /
    ``restart_fallback`` events as the PFS-only policy."""
    candidates = [
        (prefix, tier)
        for prefix, tiers in tiered_candidates(pfs, base, l1)
        for tier in tiers
    ]
    decision = walk_checkpoints(
        pfs, base, candidates, l1=l1, events=events, clock=clock, job=job
    )
    tier = decision.tier
    if tier is not None:
        m = get_tracer().metrics
        m.counter(f"mlck.recover.{tier}").inc()
        if tier == "l2" and any(
            err.startswith("l1:")
            for _, errs in decision.rejected
            for err in errs
        ):
            # an L1 candidate existed but could not serve
            m.counter("mlck.l2.fallbacks").inc()
    return decision
