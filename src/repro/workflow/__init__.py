"""Coupled multi-application workflows with consistent snapshots.

A *workflow snapshot* (muscle3's glossary) is a set of per-member
checkpoints that is mutually consistent across peer applications.  This
package drives N coupled :class:`~repro.drms.app.DRMSApplication`
members to a common quiescent exchange boundary, checkpoints each one
there, and tags the set as one **workflow generation** recorded in a v1
workflow manifest; restart selects the newest generation whose *every*
member state opens and relaunches the whole ensemble from the opened
states — each member free to come back at a different task count, some
served from L1 memory replicas and others from the PFS.  The paper's
MPMD application (Section 2.2) is a coordinator with no couplings
(:mod:`repro.drms.mpmd`).
"""

from repro.workflow.coordinator import (
    WorkflowCoordinator,
    WorkflowLine,
    WorkflowRunReport,
)
from repro.workflow.manifest import (
    WORKFLOW_VERSION,
    WorkflowDecision,
    check_member_name,
    read_workflow_manifest,
    select_workflow_restart_state,
    workflow_generations,
    workflow_manifest_name,
    write_workflow_manifest,
)

__all__ = [
    "WORKFLOW_VERSION",
    "WorkflowCoordinator",
    "WorkflowDecision",
    "WorkflowLine",
    "WorkflowRunReport",
    "check_member_name",
    "read_workflow_manifest",
    "select_workflow_restart_state",
    "workflow_generations",
    "workflow_manifest_name",
    "write_workflow_manifest",
]
