"""Replica placement over the machine's failure domains.

The SP packs nodes into frames that share power and switch boards, so
correlated failures strike *within* a frame.  L1 replica placement
therefore pairs each piece's owner with ``k`` partner nodes drawn from
**other** failure domains: a whole-frame failure (or any single node
failure) still leaves at least one live copy of every piece.

Selection is deterministic — sorted candidates rotated to start just
past the owner — so capture, tests, and the verify oracle all agree on
where every replica lives without recording placement decisions.

Degenerate clusters (one failure domain, or every other domain down)
cannot satisfy domain disjointness.  Rather than refuse to checkpoint,
:func:`select_partners` falls back to any other up node and emits a
``mlck_partner_fallback`` warning event on the cluster's
:class:`~repro.infra.events.EventLog`: the checkpoint is still
replicated, just without the cross-domain guarantee.
"""

from __future__ import annotations

from typing import List, Optional

from repro.runtime.machine import Machine

__all__ = ["select_partners", "replica_nodes"]


def _rotate_past(candidates: List[int], owner: int) -> List[int]:
    """Sorted candidates, rotated so selection starts just past the
    owner — spreads partner load instead of piling onto node 0."""
    ordered = sorted(candidates)
    return [n for n in ordered if n > owner] + [n for n in ordered if n <= owner]


def select_partners(
    machine: Machine,
    owner: int,
    k: int = 1,
    events=None,
) -> List[int]:
    """The ``k`` partner nodes replicating pieces owned by ``owner``.

    Partners are up nodes outside the owner's failure domain, chosen
    deterministically.  When fewer than ``k`` such nodes exist (single
    domain, mass failure), any other up node fills in and a
    ``mlck_partner_fallback`` event is emitted on ``events``; when the
    owner is the only up node, the (possibly empty) partner list is
    returned with the same warning — the caller keeps the sole copy.
    """
    domain = machine.domain_of(owner)
    pool = _rotate_past(
        [n for n in machine.up_nodes_outside_domain(domain) if n != owner], owner
    )
    partners = pool[:k]
    if len(partners) < k:
        same_domain = _rotate_past(
            [
                n
                for n in machine.up_nodes()
                if n != owner and n not in partners
            ],
            owner,
        )
        partners = partners + same_domain[: k - len(partners)]
        if events is not None:
            events.emit(
                "mlck_partner_fallback",
                owner=owner,
                domain=domain,
                partners=list(partners),
                wanted=k,
                reason=(
                    "no up node outside the owner's failure domain"
                    if machine.num_domains > 1
                    else "cluster has a single failure domain"
                ),
            )
    return partners


def replica_nodes(
    machine: Machine,
    owner: int,
    k: int = 1,
    events=None,
) -> List[int]:
    """Owner-first replica set for one piece: ``[owner, *partners]``."""
    return [owner, *select_partners(machine, owner, k=k, events=events)]
