"""MPMD applications: coordinated collections of SPMD structures.

The paper (Section 2.2) views an MPMD computation as a small collection
of SPMD control structures, each with its own distributed data set; the
components reconfigure individually or collectively, and a globally
consistent checkpoint is a *set* of SOPs — one per component.

Such an application runs as a
:class:`~repro.workflow.coordinator.WorkflowCoordinator` with no
``couple`` edges: each component is a member (``add_member``) on its
own task count, the components checkpoint together at
``ctx.workflow_exchange()``, each line's workflow manifest names the
set of SOPs, and ``restart_workflow`` brings every component back,
each on its own (possibly new) task count, from the newest line whose
every state opens.
"""

from repro.workflow.coordinator import WorkflowCoordinator

__all__ = ["WorkflowCoordinator"]
