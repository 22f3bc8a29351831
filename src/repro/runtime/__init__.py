"""Simulated message-passing machine: the substrate under DRMS.

The paper ran on a 16-node IBM RS/6000 SP with MPL message passing.
Here each task is a Python thread; :class:`~repro.runtime.comm.TaskComm`
gives every task an MPI-like interface (blocking send/recv plus the
collectives DRMS needs), and per-task simulated clocks advance by a
latency/bandwidth cost model so experiments report 1997-scale times
deterministically regardless of host speed.
"""

from repro.runtime.clock import SimClock
from repro.runtime.machine import Machine, MachineParams, Node
from repro.runtime.message import Message
from repro.runtime.comm import CommWorld, TaskComm
from repro.runtime.executor import run_spmd, SPMDResult

__all__ = [
    "SimClock",
    "Machine",
    "MachineParams",
    "Node",
    "Message",
    "CommWorld",
    "TaskComm",
    "run_spmd",
    "SPMDResult",
]
