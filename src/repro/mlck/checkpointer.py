"""MultiLevelCheckpointer: the application-facing two-tier façade.

One object owns the whole multi-level pipeline for one application:

* a :class:`~repro.checkpoint.rotation.CheckpointRotation` allocating
  generation prefixes and applying retention on the durable tier;
* an :class:`~repro.mlck.store.L1Store` capturing each generation into
  replicated node memory at memory/switch speed;
* a :class:`~repro.mlck.drain.DrainController` promoting generations
  to the PFS in the background.

It is the one entrance to the memory tier (``DRMSApplication(tier=
"memory+pfs")`` builds one per checkpoint base): ``drms_checkpoint``,
``spmd_checkpoint``, ``drms_restart`` and ``spmd_restart`` know nothing
about L1.  ``checkpoint()`` returns after the L1 capture — the
application's next SOP proceeds while the drain writes the PFS.
Recovery walks the tiers itself: ``open_latest_valid`` (or
``restart_latest_valid``) with ``l1=ck.store``
(:mod:`repro.checkpoint.recover`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.arrays.darray import DistributedArray
from repro.checkpoint.drms import CheckpointBreakdown
from repro.checkpoint.rotation import (
    CheckpointRotation,
    generation_name,
    parse_generation,
)
from repro.checkpoint.segment import DataSegment
from repro.mlck.drain import DrainController
from repro.mlck.store import L1Store
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine

__all__ = ["MultiLevelCheckpointer"]


class MultiLevelCheckpointer:
    """Two-tier checkpointing for one application under one base prefix.

    Each generation's drain runs on a scheduled thread of its own; a
    caller that needs it durable calls :meth:`wait_for_drains`.  ``k``
    is the L1 partner-replica count; ``keep`` the retention budget of
    both tiers.
    """

    def __init__(
        self,
        pfs: PIOFS,
        base: str,
        machine: Optional[Machine] = None,
        k: int = 1,
        keep: int = 2,
        order: str = "F",
        target_bytes: int = 1 << 20,
        io_tasks: Optional[int] = None,
        app_name: str = "",
        events=None,
    ):
        self.base = base
        self.order = order
        self.app_name = app_name
        self.rotation = CheckpointRotation(pfs, base, keep=keep)
        self.store = L1Store(
            machine or pfs.machine, k=k, events=events, target_bytes=target_bytes
        )
        self.drainer = DrainController(
            self.store,
            pfs,
            rotation=self.rotation,
            io_tasks=io_tasks,
            target_bytes=target_bytes,
        )

    # -- prefix allocation ---------------------------------------------------

    def next_prefix(self) -> str:
        """A prefix strictly newer than every generation on *either*
        tier — an L1 generation whose drain has not yet written a single
        PFS byte must still reserve its number."""
        newest = parse_generation(self.rotation.next_prefix()) - 1
        for prefix in self.store.generations():
            gen = parse_generation(prefix, self.base)
            if gen is not None:
                newest = max(newest, gen)
        return generation_name(self.base, newest + 1)

    # -- checkpoint ----------------------------------------------------------

    def checkpoint(
        self,
        segment: DataSegment,
        arrays: Sequence[DistributedArray],
        ntasks: Optional[int] = None,
    ) -> Tuple[str, CheckpointBreakdown]:
        """Capture a new generation of a run on ``ntasks`` tasks
        (default: the arrays') into L1 and schedule its drain.  Returns
        ``(prefix, capture breakdown)``: the application pays only the
        capture."""
        prefix = self.next_prefix()
        _, capture_bd = self.store.capture_drms(
            prefix, segment, arrays, order=self.order,
            app_name=self.app_name, ntasks=ntasks,
        )
        self.drainer.schedule(prefix)
        return prefix, capture_bd

    # -- failure handling ----------------------------------------------------

    def on_node_failure(self, node_id: int) -> int:
        """A node died: drop its (volatile) L1 memory.  Returns the
        number of replica copies lost with it."""
        return self.store.drop_node(node_id)

    # -- drain control -------------------------------------------------------

    def wait_for_drains(self) -> None:
        self.drainer.wait()
