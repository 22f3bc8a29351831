"""repro.mlck — multi-level (memory + PFS) checkpoint store.

The paper's recovery path always round-trips through the parallel file
system, and its own Table 6 shows PFS write/read time dominating both
checkpoint and restart.  This package adds the tier the paper's
hardware could not afford: **L1**, an in-memory checkpoint store that
keeps each generation's stream pieces in simulated node memory with
partner replication across failure domains (so a single node failure
loses no data), and **L2**, the existing crash-consistent PFS path,
populated by an *asynchronous drain* that promotes an L1 generation to
a durable manifest on a scheduled thread of its own — without blocking
the application's next SOP.

* :mod:`repro.mlck.placement` — partner selection over the machine's
  failure domains (owner + k partners, domains disjoint);
* :mod:`repro.mlck.store`     — the replicated L1 tier: capture,
  checksum validation, fetch, node-loss handling (every L1 generation
  is a DRMS generation: segment + one stream per array);
* :mod:`repro.mlck.drain`     — the L1->L2 drain state machine;
* :mod:`repro.mlck.recovery`  — tier-aware restart-state selection
  (newest generation satisfiable from *any* tier, L1 preferred);
* :mod:`repro.mlck.checkpointer` — :class:`MultiLevelCheckpointer`,
  the rotation-integrated façade applications use;
* :mod:`repro.mlck.localized`  — localized recovery: rebuild only the
  dead nodes' sections from surviving replicas, then restore the
  replication factor outside the replacement's failure domain.

The tier has one entrance, :class:`MultiLevelCheckpointer` (what
``DRMSApplication(tier="memory+pfs")`` builds per checkpoint base);
``drms_checkpoint``, ``spmd_checkpoint``, ``drms_restart`` and
``spmd_restart`` (:mod:`repro.checkpoint`) read and write the PFS only.

Quickstart::

    from repro.checkpoint import restart_latest_valid
    from repro.mlck import MultiLevelCheckpointer

    ck = MultiLevelCheckpointer(pfs, "app.ck", machine=machine)
    prefix, capture = ck.checkpoint(segment, arrays)  # drain scheduled
    ck.wait_for_drains()                              # durable on the PFS
    state, bd, decision = restart_latest_valid(       # L1 when it survives
        pfs, "app.ck", ntasks, l1=ck.store
    )
"""

from repro.mlck.checkpointer import MultiLevelCheckpointer
from repro.mlck.drain import DrainController, DrainState
from repro.mlck.localized import (
    ArrayScope,
    RebuildScope,
    ReplicationRepair,
    compute_rebuild_scope,
    localized_restart,
    localized_restore_drms,
    rereplicate_after_failure,
)
from repro.mlck.placement import select_partners
from repro.mlck.recovery import select_tiered_restart_state
from repro.mlck.store import (
    L1Generation,
    L1Piece,
    L1ReplicaSink,
    L1ReplicaSource,
    L1Store,
)

__all__ = [
    "ArrayScope",
    "DrainController",
    "DrainState",
    "L1Generation",
    "L1Piece",
    "L1ReplicaSink",
    "L1ReplicaSource",
    "L1Store",
    "MultiLevelCheckpointer",
    "RebuildScope",
    "ReplicationRepair",
    "compute_rebuild_scope",
    "localized_restart",
    "localized_restore_drms",
    "rereplicate_after_failure",
    "select_partners",
    "select_tiered_restart_state",
]
