"""The DRMS programming model and run-time API (the paper's core).

The model extends SPMD with schedulable-and-observable quanta and
points (SOQs/SOPs): applications declare their distributed arrays and
replicated variables, mark reconfiguration points, and in return the
runtime can capture their state in a task-count-independent form —
enabling checkpoint, reconfigured restart, migration, and steering.

Public surface:

* :class:`~repro.drms.app.DRMSApplication` — build/run/checkpoint/
  restart an SPMD application written against the DRMS API;
* :class:`~repro.drms.context.DRMSContext` — the per-task handle whose
  methods mirror the paper's Fortran API (``drms_initialize``,
  ``drms_create_distribution``, ``drms_distribute``, ``drms_adjust``,
  ``drms_reconfig_checkpoint``, ``drms_reconfig_chkenable``);
* :mod:`~repro.drms.nonconforming` — the checkpoint API for
  applications that do not conform to the DRMS model (per-task SPMD
  checkpointing; no reconfigured restart);
* :mod:`~repro.drms.steering` — steering and app-to-app transfer, built
  on the array-assignment primitive;
* :mod:`~repro.drms.mpmd` — MPMD applications, which run as a
  :class:`~repro.workflow.coordinator.WorkflowCoordinator` with no
  couplings.
"""

from repro.drms.context import CheckpointStatus, DRMSContext
from repro.drms.app import AppRuntime, DRMSApplication, RunReport
from repro.drms.elastic import ElasticReport, ElasticRunner
from repro.drms.soq import SOQSpec
from repro.drms.api import (
    drms_initialize,
    drms_create_distribution,
    drms_distribute,
    drms_adjust,
    drms_reconfig_checkpoint,
    drms_reconfig_chkenable,
)

__all__ = [
    "CheckpointStatus",
    "DRMSContext",
    "AppRuntime",
    "DRMSApplication",
    "RunReport",
    "ElasticRunner",
    "ElasticReport",
    "SOQSpec",
    "drms_initialize",
    "drms_create_distribution",
    "drms_distribute",
    "drms_adjust",
    "drms_reconfig_checkpoint",
    "drms_reconfig_chkenable",
]
