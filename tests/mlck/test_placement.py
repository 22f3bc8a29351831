"""Replica placement over failure domains (repro.mlck.placement)."""

import pytest

from repro.errors import CheckpointError
from repro.infra.events import EventLog
from repro.mlck.placement import ranked_nodes, select_partners
from repro.runtime.clock import SimClock, use_clock
from repro.runtime.machine import Machine, MachineParams

pytestmark = pytest.mark.mlck


def test_partners_land_outside_owner_domain():
    m = Machine(MachineParams(num_nodes=16, failure_domains=4))
    for owner in range(16):
        partners = select_partners(m, owner, k=2)
        assert len(partners) == 2
        for p in partners:
            assert m.domain_of(p) != m.domain_of(owner)
            assert p != owner


def test_selection_is_deterministic_and_spreads():
    m = Machine(MachineParams(num_nodes=16, failure_domains=4))
    assert select_partners(m, 3, k=1) == select_partners(m, 3, k=1)
    # different owners do not all pile onto the same partner
    partners = {select_partners(m, o, k=1)[0] for o in range(16)}
    assert len(partners) > 1


def test_one_ranking_orders_other_domains_first_then_domain_mates():
    """Capture and repair take prefixes of one ranking: other-domain
    nodes, then the node's domain-mates, each rotated past the node."""
    m = Machine(MachineParams(num_nodes=8, failure_domains=4))
    assert ranked_nodes(m, 3) == [4, 5, 6, 7, 0, 1, 2]
    assert ranked_nodes(m, 3, exclude=[5], avoid_domains=[3]) == [4, 0, 1, 2]
    m.fail_node(4)
    assert ranked_nodes(m, 3, exclude=[5], avoid_domains=[3]) == [0, 1, 2]
    assert select_partners(m, 3, k=2) == ranked_nodes(m, 3)[:2] == [5, 6]


def test_down_nodes_are_never_picked():
    m = Machine(MachineParams(num_nodes=8, failure_domains=4))
    picked_before = select_partners(m, 0, k=1)[0]
    m.fail_node(picked_before)
    after = select_partners(m, 0, k=1)
    assert picked_before not in after
    assert m.domain_of(after[0]) != m.domain_of(0)


def test_single_domain_fallback_warns_on_event_log():
    m = Machine(MachineParams(num_nodes=4, failure_domains=1))
    events = EventLog()
    with use_clock(SimClock(7.0)):
        partners = select_partners(m, 0, k=1, events=events)
    # still replicated, just not cross-domain
    assert len(partners) == 1
    assert partners[0] != 0
    warnings = events.of_kind("mlck_partner_fallback")
    assert len(warnings) == 1
    ev = warnings[0]
    assert ev.time == 7.0
    assert ev.detail["owner"] == 0
    assert ev.detail["partners"] == partners


def test_unsatisfiable_replication_returns_short_list_with_warning():
    # only one other node exists: the caller keeps what replication is
    # possible rather than refusing to checkpoint
    m = Machine(MachineParams(num_nodes=2, failure_domains=1))
    events = EventLog()
    partners = select_partners(m, 0, k=2, events=events)
    assert partners == [1]
    ev = events.of_kind("mlck_partner_fallback")[0]
    assert ev.detail["wanted"] == 2


def test_store_rejects_nonpositive_replication():
    from repro.mlck.store import L1Store

    m = Machine(MachineParams(num_nodes=4))
    with pytest.raises(CheckpointError):
        L1Store(m, k=0)
