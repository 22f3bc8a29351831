"""Tier-aware recovery: newest generation satisfiable from any tier.

Extends the PFS recovery walk (:mod:`repro.checkpoint.recover`) to the
two-level store.  Candidates from both tiers merge into one
newest-first sequence; at each generation L1 is tried before L2
(fetching surviving memory replicas over the switch beats re-reading
the PFS by more than an order of magnitude on the simulated machine):

1. an L1 candidate is *opened* like a PFS one: every piece needs a live
   replica (liveness, O(1), no hashing), then the verifying fetch of
   :class:`~repro.mlck.store.L1ReplicaSource` hashes each piece once on
   the replica that serves it (the audit walk:
   :meth:`~repro.mlck.store.L1Store.validate_generation`);
2. a generation whose L1 copy cannot serve (node failure took both
   replicas, or a piece decayed in every copy) falls back to its L2
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

from repro.checkpoint.recover import (
    RecoveryDecision,
    restart_candidates,
    select_restart_state,
)
from repro.checkpoint.rotation import parse_generation
from repro.mlck.store import L1Store
from repro.pfs.piofs import PIOFS

__all__ = ["tiered_candidates", "select_tiered_restart_state"]


def tiered_candidates(
    pfs: PIOFS, base: str, l1: L1Store
) -> List[Tuple[str, List[str]]]:
    """Merged candidate list, newest generation first: ``(prefix,
    tiers)`` with tiers ordered ``["l1", "l2"]`` — the preference order
    within one generation.  ``base`` itself (un-rotated) sorts oldest."""
    l1_prefixes = {
        p for p in l1.generations()
        if p == base or parse_generation(p, base) is not None
    }
    # L2 candidates come from manifest names alone: no PFS read
    l2_prefixes = set(restart_candidates(pfs, base))
    merged = sorted(
        l1_prefixes | l2_prefixes,
        key=lambda p: -1 if p == base else parse_generation(p, base),
        reverse=True,
    )
    return [
        (p, [t for t, held in (("l1", l1_prefixes), ("l2", l2_prefixes)) if p in held])
        for p in merged
    ]


def select_tiered_restart_state(
    pfs: PIOFS,
    base: str,
    l1: L1Store,
    events=None,
    job: Optional[str] = None,
) -> RecoveryDecision:
    """The tier-aware audit walk —
    :func:`~repro.checkpoint.recover.select_restart_state` with ``l1``:
    rejections tier-tagged, the decision's ``tier`` the serving tier."""
    return select_restart_state(pfs, base, events=events, job=job, l1=l1)
