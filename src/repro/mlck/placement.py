"""Replica placement over the machine's failure domains.

The SP packs nodes into frames that share power and switch boards, so
correlated failures strike *within* a frame.  L1 replica placement
therefore pairs each piece's owner with ``k`` partner nodes drawn from
**other** failure domains: a whole-frame failure (or any single node
failure) still leaves at least one live copy of every piece.

Selection is one deterministic ranking (:func:`ranked_nodes`: sorted
candidates rotated to start just past the owner), so capture, repair,
tests, and the verify oracle all agree on where every replica lives
without recording placement decisions.

Degenerate clusters (one failure domain, or every other domain down)
cannot satisfy domain disjointness.  Rather than refuse to checkpoint,
:func:`select_partners` falls back to any other up node and emits a
``mlck_partner_fallback`` warning event on the cluster's
:class:`~repro.infra.events.EventLog`: the checkpoint is still
replicated, just without the cross-domain guarantee.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.runtime.machine import Machine

__all__ = ["ranked_nodes", "select_partners"]


def ranked_nodes(
    machine: Machine,
    node: int,
    exclude: Iterable[int] = (),
    avoid_domains: Iterable[int] = (),
) -> List[int]:
    """Where copies of ``node``'s data go, best first: the up nodes
    other than ``node`` that are neither excluded nor in an avoided
    domain, those outside ``node``'s failure domain first and its
    domain-mates after, each group in id order rotated to start just
    past ``node`` (spreading partner load instead of piling onto node
    0).  Capture (:func:`select_partners`) and repair
    (:func:`~repro.mlck.localized.rereplicate_after_failure`) both take
    a prefix of this one ranking."""
    excluded, avoid = {node, *exclude}, set(avoid_domains)
    domain = machine.domain_of(node)
    eligible = [
        n for n in machine.up_nodes()
        if n not in excluded and machine.domain_of(n) not in avoid
    ]
    return sorted(
        eligible, key=lambda n: (machine.domain_of(n) == domain, n <= node, n)
    )


def select_partners(
    machine: Machine, owner: int, k: int = 1, events=None
) -> List[int]:
    """The ``k`` partner nodes replicating pieces owned by ``owner``:
    the first ``k`` of :func:`ranked_nodes`.  When fewer than ``k`` of
    them lie outside the owner's failure domain (single domain, mass
    failure), a ``mlck_partner_fallback`` event is emitted on
    ``events``; when the owner is the only up node, the (possibly
    empty) partner list is returned with the same warning — the caller
    keeps the sole copy.
    """
    partners = ranked_nodes(machine, owner)[:k]
    domain = machine.domain_of(owner)
    outside = sum(machine.domain_of(n) != domain for n in partners)
    if outside < k and events is not None:
        events.emit(
            "mlck_partner_fallback", owner=owner, domain=domain,
            partners=list(partners), wanted=k,
            reason="no up node outside the owner's failure domain"
            if machine.num_domains > 1 else "cluster has a single failure domain",
        )
    return partners
