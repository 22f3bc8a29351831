"""Exception hierarchy for the DRMS reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class RangeError(ReproError):
    """An invalid range specification (non-monotone, empty stride, ...)."""


class SliceError(ReproError):
    """An invalid slice specification or rank mismatch."""


class DistributionError(ReproError):
    """An illegal distribution: overlapping assigned sections, assigned
    sections not contained in mapped sections, task-count mismatch, ..."""


class ArrayError(ReproError):
    """Distributed-array misuse: shape mismatch, undefined elements,
    access outside the local section."""


class StreamingError(ReproError):
    """Array-section streaming failure (bad partition, seek on a
    non-seekable stream, short read/write)."""


class CheckpointError(ReproError):
    """Checkpoint could not be taken or is malformed on disk."""


class CheckpointIntegrityError(CheckpointError):
    """A checkpointed state failed integrity validation: a checksum
    mismatch, a truncated file, or a component whose size disagrees
    with the manifest."""


class RestartError(CheckpointError):
    """Restart from a checkpointed state failed (missing files, version
    mismatch, incompatible task count for SPMD checkpoints)."""


class MemoryTierError(CheckpointError):
    """The in-memory (L1) checkpoint tier cannot serve a generation: a
    replica set lost every copy of some piece, a surviving replica
    failed its checksum, or the generation was never captured."""


class WorkflowError(CheckpointError):
    """A coupled-workflow operation failed: a member never reached its
    exchange boundary, a workflow line could not be committed, or no
    workflow generation has every member byte-valid."""


class ReconfigurationError(ReproError):
    """A reconfiguration request cannot be satisfied (task count outside
    the SOQ resource range, no distribution for the new task count)."""


class CommunicationError(ReproError):
    """Message-passing failure inside the simulated machine."""


class DeadlockError(CommunicationError):
    """Nobody was runnable while someone waited: names every waiter."""


class TaskFailure(ReproError):
    """Raised inside a task that has been killed by the runtime (e.g.,
    because its node failed or a sibling task crashed)."""


class GroupKilled(TaskFailure):
    """A crash's echo: raised at the waits of the crashed thread's group."""


class MachineError(ReproError):
    """Invalid machine configuration or node-level fault."""


class PFSError(ReproError):
    """Parallel-file-system failure: unknown file, bad offset, write to
    a read-only handle."""


class IOFaultError(PFSError):
    """An *injected* I/O fault fired (see :mod:`repro.pfs.faults`):
    a failed or torn write produced by the fault-injection harness."""


class SchedulerError(ReproError):
    """Job scheduler (JSA) error: unknown job, no feasible allocation."""
