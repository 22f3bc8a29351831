"""The simulated parallel machine.

Models the paper's testbed: an IBM RS/6000 SP with 16 "thin nodes"
(model 390, 67 MHz, 128 MB memory), a multistage switch interconnect,
and PIOFS servers co-resident on every node.  Nodes can be failed and
repaired, which drives the Section 4 failure/recovery experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import MachineError

__all__ = ["MachineParams", "Node", "Machine"]


@dataclass(frozen=True)
class MachineParams:
    """Hardware constants of the simulated machine.

    Defaults model the paper's SP: per-link MPL bandwidth of ~35 MB/s
    and ~40 microseconds point-to-point latency are representative of
    the SP switch with MPL in 1995-97; memory per node is 128 MB.
    """

    num_nodes: int = 16
    mem_mb_per_node: float = 128.0
    cpu_mhz: float = 67.0
    link_bandwidth_mbps: float = 35.0
    link_latency_s: float = 40e-6
    #: aggregate bisection cap as a multiple of one link (switch fabric)
    bisection_links: float = 8.0
    #: number of failure domains (SP frames): nodes sharing a frame share
    #: power and switch boards, so correlated failures strike within a
    #: domain.  Replica placement avoids the owner's domain.
    failure_domains: int = 4
    #: node-local memory copy rate for in-memory checkpoint capture
    #: (MB/s); far above the link and PFS rates, as on real hardware
    mem_copy_mbps: float = 400.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise MachineError("machine needs at least one node")
        if self.mem_mb_per_node <= 0 or self.link_bandwidth_mbps <= 0:
            raise MachineError("machine parameters must be positive")
        if self.failure_domains < 1:
            raise MachineError("machine needs at least one failure domain")
        if self.mem_copy_mbps <= 0:
            raise MachineError("machine parameters must be positive")


@dataclass
class Node:
    """One processing element (the paper uses processor/PE/node
    interchangeably)."""

    node_id: int
    mem_mb: float
    up: bool = True
    #: task ranks currently placed on this node
    tasks: List[int] = field(default_factory=list)
    #: bumped on every repair: a repaired node is a *new* machine whose
    #: memory is empty, so volatile tiers must not trust state recorded
    #: against an earlier incarnation (see L1Store)
    incarnation: int = 0

    @property
    def busy(self) -> bool:
        """True when application tasks share this node (relevant for
        compute/PIOFS-server interference)."""
        return bool(self.tasks)


class Machine:
    """A collection of nodes plus placement and failure state."""

    def __init__(self, params: Optional[MachineParams] = None):
        self.params = params or MachineParams()
        self.nodes: List[Node] = [
            Node(i, self.params.mem_mb_per_node)
            for i in range(self.params.num_nodes)
        ]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def up_nodes(self) -> List[int]:
        """Ids of nodes currently available for task execution."""
        return [n.node_id for n in self.nodes if n.up]

    def node(self, node_id: int) -> Node:
        """The Node object for ``node_id``."""
        if not 0 <= node_id < len(self.nodes):
            raise MachineError(f"no node {node_id}")
        return self.nodes[node_id]

    # -- failure domains -----------------------------------------------------

    @property
    def num_domains(self) -> int:
        """Number of distinct failure domains (frames) actually present."""
        return min(self.params.failure_domains, self.num_nodes)

    def domain_of(self, node_id: int) -> int:
        """The failure domain (frame) a node belongs to.  Nodes are
        assigned in contiguous blocks, matching the SP's physical frame
        packing (nodes 0..3 in frame 0, 4..7 in frame 1, ...)."""
        self.node(node_id)  # bounds check
        frame = -(-self.num_nodes // self.num_domains)  # ceil division
        return node_id // frame

    def domain_nodes(self, domain: int) -> List[int]:
        """Ids of all nodes in ``domain`` (up or down)."""
        return [
            n.node_id for n in self.nodes if self.domain_of(n.node_id) == domain
        ]

    def up_nodes_outside_domain(self, domain: int) -> List[int]:
        """Up nodes whose failure domain differs from ``domain`` — the
        candidate pool for partner-replica placement."""
        return [
            n.node_id
            for n in self.nodes
            if n.up and self.domain_of(n.node_id) != domain
        ]

    # -- placement ----------------------------------------------------------

    def place_tasks(
        self, ntasks: int, nodes: Optional[Sequence[int]] = None
    ) -> Dict[int, int]:
        """Place ``ntasks`` ranks one-to-one onto nodes (the paper's
        mapping); returns ``{rank: node_id}``.  Uses the first ``ntasks``
        up nodes unless ``nodes`` is given."""
        if nodes is None:
            avail = self.up_nodes()
            if len(avail) < ntasks:
                raise MachineError(
                    f"need {ntasks} up nodes, only {len(avail)} available"
                )
            nodes = avail[:ntasks]
        else:
            nodes = list(nodes)
            if len(nodes) != ntasks:
                raise MachineError(
                    f"{ntasks} tasks but {len(nodes)} placement nodes"
                )
            for nd in nodes:
                if not self.node(nd).up:
                    raise MachineError(f"cannot place task on failed node {nd}")
        placement: Dict[int, int] = {}
        for rank, nd in enumerate(nodes):
            self.node(nd).tasks.append(rank)
            placement[rank] = nd
        return placement

    def release_tasks(self, placement: Dict[int, int]) -> None:
        """Remove exactly the placements of one :meth:`place_tasks`."""
        for rank, nd in placement.items():
            if rank in self.node(nd).tasks:  # unless cleared meanwhile
                self.node(nd).tasks.remove(rank)

    def clear_tasks(self) -> None:
        for n in self.nodes:
            n.tasks.clear()

    def busy_fraction(self) -> float:
        """Fraction of nodes running application tasks — the paper's
        compute/file-server interference driver."""
        if not self.nodes:
            return 0.0
        return sum(1 for n in self.nodes if n.busy) / len(self.nodes)

    # -- failure ---------------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Mark a node failed (the paper's basic failure event)."""
        self.node(node_id).up = False

    def repair_node(self, node_id: int) -> None:
        """Bring a failed node back up under a new incarnation — its
        memory was wiped, so anything stored under the old epoch is
        stale (the L1 store refuses it; see DESIGN.md section 14)."""
        node = self.node(node_id)
        if not node.up:
            node.incarnation += 1
        node.up = True

    def __repr__(self) -> str:
        up = len(self.up_nodes())
        return f"Machine({up}/{self.num_nodes} nodes up)"
