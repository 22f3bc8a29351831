"""Failure-domain (frame) queries on the machine and the cluster."""

import pytest

from repro.errors import MachineError
from repro.infra import DRMSCluster
from repro.runtime.machine import Machine, MachineParams


def test_domains_partition_nodes_in_contiguous_frames():
    m = Machine(MachineParams(num_nodes=8, failure_domains=4))
    assert m.num_domains == 4
    assert [m.domain_of(n) for n in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert m.domain_nodes(0) == [0, 1]
    assert m.domain_nodes(3) == [6, 7]
    # every node lands in exactly one domain
    assert sorted(sum((m.domain_nodes(d) for d in range(4)), [])) == list(range(8))


def test_uneven_node_count_uses_ceil_frames():
    m = Machine(MachineParams(num_nodes=10, failure_domains=4))
    # ceil(10/4) = 3 nodes per frame: the last frame is short
    assert m.domain_nodes(0) == [0, 1, 2]
    assert m.domain_nodes(3) == [9]
    assert m.num_domains == 4


def test_more_domains_than_nodes_collapses():
    m = Machine(MachineParams(num_nodes=2, failure_domains=4))
    assert m.num_domains == 2
    assert m.domain_of(0) != m.domain_of(1)


def test_domain_of_bounds_checked():
    m = Machine(MachineParams(num_nodes=4))
    with pytest.raises(MachineError):
        m.domain_of(4)


def test_cluster_exposes_domain_queries():
    cluster = DRMSCluster(machine=Machine(MachineParams(num_nodes=8)))
    assert cluster.failure_domain_of(5) == cluster.machine.domain_of(5)
    assert cluster.domain_nodes(1) == cluster.machine.domain_nodes(1)


def test_cluster_partners_are_domain_disjoint():
    cluster = DRMSCluster(machine=Machine(MachineParams(num_nodes=16)))
    for node in range(16):
        partners = cluster.partners_for(node, k=2)
        assert len(partners) == 2
        for p in partners:
            assert cluster.failure_domain_of(p) != cluster.failure_domain_of(node)


def test_single_domain_cluster_falls_back_with_warning():
    cluster = DRMSCluster(
        machine=Machine(MachineParams(num_nodes=4, failure_domains=1))
    )
    partners = cluster.partners_for(0)
    assert partners and partners[0] != 0
    warnings = cluster.events.of_kind("mlck_partner_fallback")
    assert len(warnings) == 1
    assert warnings[0].detail["owner"] == 0
