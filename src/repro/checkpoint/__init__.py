"""Checkpoint/restart engines.

Two checkpointing disciplines, matching the paper's comparison:

* **DRMS checkpointing** (:mod:`repro.checkpoint.drms`): save the data
  segment of *one* representative task plus each distributed array in a
  distribution-independent stream.  State size is independent of the
  number of tasks, and restart may use a different task count.
* **SPMD checkpointing** (:mod:`repro.checkpoint.spmd`): every task
  saves its whole data segment (the conventional scheme of refs
  [6, 10, 18]).  State grows linearly with tasks, and restart requires
  exactly the original task count.
"""

from repro.checkpoint.segment import SegmentProfile, ExecutionContext, DataSegment
from repro.checkpoint.format import (
    CHECKPOINT_VERSION,
    distribution_to_spec,
    spec_to_distribution,
    manifest_name,
    manifest_tmp_name,
    segment_name,
    array_name,
    task_segment_name,
    sha1_hex,
    commit_two_phase,
)
from repro.checkpoint.validate import (
    ValidationReport,
    validate_checkpoint,
    verify_checkpoint,
    verify_stored_sha1,
)
from repro.checkpoint.recover import (
    RecoveryDecision,
    restart_candidates,
    restart_latest_valid,
    select_restart_state,
    walk_generations,
)
from repro.checkpoint.drms import (
    CheckpointBreakdown,
    RestartBreakdown,
    RestoredState,
    PFSCheckpointSource,
    drms_checkpoint,
    drms_restart,
    restore,
)
from repro.checkpoint.spmd import spmd_checkpoint, spmd_restart
from repro.checkpoint.restart import checkpoint_kind, list_checkpoints, saved_state_bytes
from repro.checkpoint.incremental import IncrementalCheckpointer, excluded_segment_bytes
from repro.checkpoint.archive import checkpoint_files, copy_checkpoint, delete_checkpoint
from repro.checkpoint.rotation import CheckpointRotation, generations, latest_checkpoint

__all__ = [
    "SegmentProfile",
    "ExecutionContext",
    "DataSegment",
    "CHECKPOINT_VERSION",
    "distribution_to_spec",
    "spec_to_distribution",
    "manifest_name",
    "manifest_tmp_name",
    "segment_name",
    "array_name",
    "task_segment_name",
    "sha1_hex",
    "commit_two_phase",
    "ValidationReport",
    "validate_checkpoint",
    "verify_checkpoint",
    "verify_stored_sha1",
    "RecoveryDecision",
    "restart_candidates",
    "restart_latest_valid",
    "select_restart_state",
    "walk_generations",
    "CheckpointBreakdown",
    "RestartBreakdown",
    "RestoredState",
    "PFSCheckpointSource",
    "drms_checkpoint",
    "drms_restart",
    "restore",
    "spmd_checkpoint",
    "spmd_restart",
    "checkpoint_kind",
    "list_checkpoints",
    "saved_state_bytes",
    "IncrementalCheckpointer",
    "excluded_segment_bytes",
    "checkpoint_files",
    "copy_checkpoint",
    "delete_checkpoint",
    "CheckpointRotation",
    "generations",
    "latest_checkpoint",
]
