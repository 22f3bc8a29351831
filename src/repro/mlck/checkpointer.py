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
about L1.  ``checkpoint()`` returns after the L1 capture — the application's next
SOP proceeds while the drain writes the PFS — and ``restart()`` runs
the tier-aware recovery walk, choosing a generation by opening it:
from surviving memory replicas when they serve, else from the newest
PFS state whose bytes verify as they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.arrays.darray import DistributedArray
from repro.checkpoint.drms import CheckpointBreakdown, RestartBreakdown, RestoredState
from repro.checkpoint.recover import (
    RecoveryDecision,
    open_latest_valid,
    restart_latest_valid,
)
from repro.checkpoint.rotation import (
    CheckpointRotation,
    generation_name,
    parse_generation,
)
from repro.checkpoint.segment import DataSegment
from repro.errors import RestartError
from repro.mlck.drain import DrainController, DrainState
from repro.mlck.localized import localized_opener
from repro.mlck.recovery import select_tiered_restart_state
from repro.mlck.store import L1Store
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine

__all__ = ["MLCKBreakdown", "MultiLevelCheckpointer"]


@dataclass
class MLCKBreakdown:
    """What one multi-level checkpoint cost the *application*: the L1
    capture only — the drain runs behind its back."""

    prefix: str
    capture: CheckpointBreakdown
    drain_state: str = DrainState.PENDING

    @property
    def blocking_seconds(self) -> float:
        """Simulated seconds the application was stalled."""
        return self.capture.total_seconds


class MultiLevelCheckpointer:
    """Two-tier checkpointing for one application under one base prefix.

    ``drain="async"`` (default) promotes generations on the shared
    drain pool; ``drain="sync"`` drains inline before
    :meth:`checkpoint` returns — deterministic, used by the verify
    oracle and the benchmarks.  ``k`` is the L1 partner-replica count;
    ``keep`` the retention budget of both tiers.
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
        drain: str = "async",
    ):
        if drain not in ("async", "sync"):
            raise ValueError(f"drain mode must be 'async' or 'sync', not {drain!r}")
        self.pfs = pfs
        self.base = base
        self.machine = machine or pfs.machine
        self.order = order
        self.io_tasks = io_tasks
        self.app_name = app_name
        self.events = events
        self.rotation = CheckpointRotation(pfs, base, keep=keep)
        self.store = L1Store(
            self.machine, k=k, events=events, target_bytes=target_bytes
        )
        self.drainer = DrainController(
            self.store,
            pfs,
            rotation=self.rotation,
            synchronous=(drain == "sync"),
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
    ) -> MLCKBreakdown:
        """Capture a new generation of a run on ``ntasks`` tasks
        (default: the arrays') into L1 and queue its drain.  The
        returned breakdown charges the application only the capture."""
        prefix = self.next_prefix()
        _, capture_bd = self.store.capture_drms(
            prefix, segment, arrays, order=self.order,
            app_name=self.app_name, ntasks=ntasks,
        )
        self.drainer.schedule(prefix)
        return MLCKBreakdown(
            prefix=prefix,
            capture=capture_bd,
            drain_state=self.store.gen(prefix).drain_state,
        )

    # -- failure handling ----------------------------------------------------

    def on_node_failure(self, node_id: int) -> int:
        """A node died: drop its (volatile) L1 memory.  Returns the
        number of replica copies lost with it."""
        return self.store.drop_node(node_id)

    # -- restart -------------------------------------------------------------

    def select_restart_state(self, job: Optional[str] = None) -> RecoveryDecision:
        """The tier-aware audit walk over this application's states — a
        decision, nothing restored (:meth:`restart` opens instead)."""
        self.store.sync_with_machine()
        return select_tiered_restart_state(
            self.pfs, self.base, self.store, events=self.events, job=job
        )

    def restart(
        self,
        ntasks: int,
        distribution_overrides: Optional[Dict[str, object]] = None,
        job: Optional[str] = None,
    ) -> Tuple[RestoredState, RestartBreakdown, RecoveryDecision]:
        """Restore the newest generation satisfiable from any tier onto
        ``ntasks`` tasks — the tier-aware walk, each candidate chosen by
        opening it.  L1-served restores still charge the fixed restart
        initialization (program text loads from the PFS regardless of
        which tier serves the checkpoint data)."""
        self.store.sync_with_machine()
        return restart_latest_valid(
            self.pfs, self.base, ntasks, self.store, self.events, job,
            order=self.order, io_tasks=self.io_tasks,
            distribution_overrides=distribution_overrides,
        )

    def restart_localized(
        self,
        ntasks: int,
        placement: Dict[int, int],
        failed_nodes: Sequence[int],
        replacements: Optional[Dict[int, int]] = None,
        distribution_overrides: Optional[Dict[str, object]] = None,
        job: Optional[str] = None,
    ):
        """Localized recovery: the same walk, each candidate opened with
        survivor-local cost accounting and the dead nodes' replicas
        re-placed outside the replacement nodes' failure domains once an
        L1 candidate opens; an L2 candidate is a full, correctly-metered
        PFS read (:func:`~repro.mlck.localized.localized_opener`).
        Returns ``(state, breakdown, decision, scope)``."""
        self.store.sync_with_machine()
        opened, decision = open_latest_valid(
            self.pfs, self.base,
            localized_opener(
                self.pfs, ntasks, placement, failed_nodes, replacements,
                self.store, self.order, self.io_tasks,
                distribution_overrides=distribution_overrides,
            ),
            self.store, events=self.events, job=job,
        )
        if opened is None:
            raise RestartError(decision.failure())
        return opened.state, opened.breakdown, decision, opened.scope

    # -- drain control -------------------------------------------------------

    def wait_for_drains(self) -> None:
        self.drainer.wait()

    def drain_states(self) -> Dict[str, str]:
        """Drain state of every resident L1 generation."""
        return {
            p: self.store.gen(p).drain_state for p in self.store.generations()
        }
