"""The DRMS controlling infrastructure (paper Section 4).

One master daemon — the Resource Coordinator (RC) — plus one Task
Coordinator (TC) per processor, a Job Scheduler and Analyzer (JSA) that
assigns processors and drives checkpoint-based rescheduling, and a thin
User Interface Coordinator (UIC).  The basic failure event is a
processor failure, detected as the loss of the TC connection; recovery
kills the application, returns surviving TCs to the pool, and restarts
the application from its latest checkpoint on an equal, larger, or
smaller pool — without waiting for the failed node to be repaired.
"""

from repro.infra.events import Event, EventLog
from repro.infra.tc import TaskCoordinator, TCState
from repro.infra.rc import ResourceCoordinator
from repro.infra.jsa import Job, JobSchedulerAnalyzer, JobState
from repro.infra.uic import UserInterfaceCoordinator
from repro.infra.failure import FailurePlan, NodeFailure
from repro.infra.cluster import DRMSCluster, RecoveryOutcome
from repro.infra.fleet import (
    FleetResult,
    FleetSimulation,
    JobSpec,
    storm_schedule,
    synthetic_stream,
)

__all__ = [
    "Event",
    "EventLog",
    "TaskCoordinator",
    "TCState",
    "ResourceCoordinator",
    "Job",
    "JobSchedulerAnalyzer",
    "JobState",
    "UserInterfaceCoordinator",
    "FailurePlan",
    "NodeFailure",
    "DRMSCluster",
    "RecoveryOutcome",
    "JobSpec",
    "FleetResult",
    "FleetSimulation",
    "storm_schedule",
    "synthetic_stream",
]
