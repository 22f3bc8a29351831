"""The PIOFS namespace: open/read/write/unlink plus phase accounting.

:class:`PIOFS` glues the striped files (:mod:`repro.pfs.file`) to the
phase timing model (:mod:`repro.pfs.phase`).  Task code performs real
reads and writes at any time; to get *timed* I/O, the caller brackets a
group of transfers in ``begin_phase(kind)`` / ``end_phase()``, which
returns the phase's simulated duration.  Phases make the timing
deterministic under thread scheduling: duration depends only on the set
of transfers, never on their interleaving.

Thread safety: all mutating entry points take one internal lock; task
threads of an SPMD run may call concurrently.  A phase is its opener's:
only that thread's transfers are charged to it, and another thread's
``begin_phase`` waits (a scheduler wait, :mod:`repro.runtime.sched`)
until it closes.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.errors import IOFaultError, PFSError
from repro.obs import get_tracer
from repro.pfs.file import PFSFile, byte_view
from repro.pfs.params import PIOFSParams
from repro.pfs.phase import IOKind, IOPhaseResult, PhaseTransfer, solve_phase
from repro.runtime.machine import Machine
from repro.runtime.sched import SCHED

__all__ = ["PIOFS", "TimedPhase"]


class TimedPhase:
    """What :meth:`PIOFS.phase` yields: once the block has exited
    cleanly, ``result`` is the closed phase."""

    result: Optional[IOPhaseResult] = None

    @property
    def seconds(self) -> float:
        """The closed phase's simulated duration."""
        return self.result.seconds


class PIOFS:
    """A simulated parallel file system instance."""

    def __init__(
        self,
        machine: Optional[Machine] = None,
        params: Optional[PIOFSParams] = None,
    ):
        self.machine = machine or Machine()
        self.params = params or PIOFSParams(num_servers=self.machine.num_nodes)
        self._files: Dict[str, PFSFile] = {}
        self._lock = threading.Lock()
        self._phase_owner: Optional[int] = None
        #: the open phase's opener is not a scheduled thread (SCHED.hold)
        self._phase_held = False
        self._phase_kind: Optional[IOKind] = None
        self._phase_transfers: List[PhaseTransfer] = []
        self._phase_server_bytes: Dict[int, int] = {}
        self.phase_log: List[IOPhaseResult] = []
        #: armed I/O fault injector (see repro.pfs.faults); None = healthy
        self.faults = None

    # -- namespace ---------------------------------------------------------

    def create(self, name: str, virtual: bool = False, overwrite: bool = True) -> PFSFile:
        """Create (or, by default, replace) a logical file."""
        with self._lock:
            if name in self._files and not overwrite:
                raise PFSError(f"file exists: {name!r}")
            f = PFSFile(
                name,
                num_servers=self.params.num_servers,
                stripe_kb=self.params.stripe_kb,
                virtual=virtual,
            )
            self._files[name] = f
            get_tracer().metrics.counter("pfs.create.count").inc()
            return f

    def open(self, name: str) -> PFSFile:
        """The PFSFile for ``name``; raises PFSError when missing."""
        with self._lock:
            return self._get(name)

    def _get(self, name: str) -> PFSFile:
        # caller holds the lock
        f = self._files.get(name)
        if f is None:
            raise PFSError(f"no such file: {name!r}")
        return f

    def exists(self, name: str) -> bool:
        with self._lock:
            return name in self._files

    def listdir(self, prefix: str = "") -> List[str]:
        with self._lock:
            return sorted(n for n in self._files if n.startswith(prefix))

    def unlink(self, name: str) -> None:
        """Remove a file from the namespace."""
        with self._lock:
            if name not in self._files:
                raise PFSError(f"no such file: {name!r}")
            del self._files[name]
        get_tracer().metrics.counter("pfs.unlink.count").inc()

    def rename(self, old: str, new: str) -> None:
        """Atomically rename ``old`` to ``new``, replacing any existing
        ``new`` (POSIX rename).  This is the primitive behind the
        two-phase manifest commit: ``new`` observably holds either its
        previous content or the complete new content, never a prefix."""
        with self._lock:
            f = self._files.get(old)
            if f is None:
                raise PFSError(f"no such file: {old!r}")
            del self._files[old]
            f.name = new
            self._files[new] = f
        get_tracer().metrics.counter("pfs.rename.count").inc()

    def file_size(self, name: str) -> int:
        return self.open(name).size

    def total_bytes(self, prefix: str = "") -> int:
        """Sum of file sizes under a name prefix (checkpoint state size)."""
        with self._lock:
            return sum(f.size for n, f in self._files.items() if n.startswith(prefix))

    # -- fault injection ----------------------------------------------------

    def attach_faults(self, injector) -> None:
        """Arm a :class:`~repro.pfs.faults.FaultInjector` on this file
        system (pass ``None`` to disarm).  Hooks run under the namespace
        lock, so a plan fires exactly once under concurrent task threads."""
        with self._lock:
            self.faults = injector

    def _faulted_write(self, name, offset, data, nbytes):
        # caller holds the lock; returns (data, nbytes, deferred_error)
        if self.faults is None:
            return data, nbytes, None
        if data is not None:
            data = byte_view(data)  # sized and torn in bytes, not elements
        intended = len(data) if data is not None else int(nbytes or 0)
        plan = self.faults.match_write(name, offset, intended)
        if plan is None:
            return data, nbytes, None
        if plan.mode == "fail":
            raise IOFaultError(f"injected write failure on {name!r}")
        keep = plan.kept
        if data is not None:
            data = data[:keep]
            nbytes = None
        else:
            nbytes = keep
        err = None
        if plan.mode == "torn":
            err = IOFaultError(
                f"injected torn write on {name!r} ({keep}/{intended} bytes)"
            )
        return data, nbytes, err

    # -- timed I/O ----------------------------------------------------------

    def begin_phase(self, kind: IOKind) -> None:
        """Open a timed I/O phase of the given operation kind.

        Phases are file-system-wide critical sections: a thread opening
        a phase while it already owns one is a programming error
        (phases do not nest), but a phase opened by *another* thread —
        a concurrent workflow member checkpointing, a drain in flight —
        is waited for, the way independent jobs share a real PFS's
        service capacity."""
        me = threading.get_ident()
        if self._phase_kind is not None and self._phase_owner == me:
            raise PFSError(
                f"phase {self._phase_kind} already open; phases do not nest"
            )
        while True:
            SCHED.wait(f"a {kind.value} phase behind the open one",
                       until=lambda: self._phase_kind is None)
            with self._lock:
                if self._phase_kind is None:
                    self._phase_owner = me
                    self._phase_kind = kind
                    self._phase_held = SCHED.hold()
                    return

    def end_phase(self) -> IOPhaseResult:
        """Close the phase: solve its simulated duration and log it."""
        with self._lock:
            if self._phase_kind is None:
                raise PFSError("no phase open")
            kind = self._phase_kind
            transfers = self._phase_transfers
            server_bytes = self._phase_server_bytes
            file_sizes = {
                t.filename: self._files[t.filename].size
                for t in transfers
                if t.filename in self._files
            }
            held = self._close_phase()
        if held:
            SCHED.release()
        result = self._solve(kind, transfers, server_bytes, file_sizes)
        self.phase_log.append(result)
        m = get_tracer().metrics
        m.counter("pfs.phase.count").inc()
        m.counter("pfs.phase.bytes").inc(result.total_bytes)
        m.counter("pfs.phase.seconds").inc(result.seconds)
        m.histogram(f"pfs.phase.seconds.{kind.value}").observe(result.seconds)
        if result.pressured:
            m.counter("pfs.phase.pressured").inc()
        return result

    def _solve(self, kind, transfers, server_bytes, file_sizes) -> IOPhaseResult:
        """The closed phase's simulated duration (the PIOFS model)."""
        busy = sum(1 for n in self.machine.nodes if n.busy)
        return solve_phase(
            kind, transfers, self.params, busy_nodes=busy,
            server_bytes=server_bytes, file_sizes=file_sizes,
        )

    def _close_phase(self) -> bool:
        # caller holds the lock; True when the phase was a counted hold
        held = self._phase_held
        self._phase_kind = None
        self._phase_owner = None
        self._phase_held = False
        self._phase_transfers = []
        self._phase_server_bytes = {}
        return held

    @contextmanager
    def phase(self, kind: IOKind) -> Iterator[TimedPhase]:
        """One timed phase around a block: :meth:`begin_phase` on
        entry, :meth:`end_phase` on a clean exit (the yielded
        :class:`TimedPhase` then holds its result), :meth:`abort_phase`
        when the block raises — a failed operation never leaves its
        phase open behind the next ``begin_phase``."""
        self.begin_phase(kind)
        timed = TimedPhase()
        try:
            yield timed
        except BaseException:
            self.abort_phase()
            raise
        timed.result = self.end_phase()

    def abort_phase(self) -> None:
        """Discard an open phase without timing it — cleanup after an
        I/O fault aborted the operation that opened the phase.  A no-op
        when no phase is open."""
        with self._lock:
            held = self._close_phase()
        if held:
            SCHED.release()

    def _meter(self, op: str, fname: str, nbytes: int, t0: Optional[float]) -> None:
        """Per-operation observability: global and per-file counters
        plus a wall-clock latency histogram (real I/O shows up for
        HostFS; the in-memory PIOFS measures bookkeeping cost).  The
        per-file series and latency histogram only exist when a real
        tracer is active."""
        m = get_tracer().metrics
        m.counter(f"pfs.{op}.count").inc()
        m.counter(f"pfs.{op}.bytes").inc(nbytes)
        if m.enabled:
            m.counter(f"pfs.{op}.count[{fname}]").inc()
            m.counter(f"pfs.{op}.bytes[{fname}]").inc(nbytes)
            if t0 is not None:
                m.histogram(f"pfs.{op}.wall_seconds").observe(
                    time.perf_counter() - t0
                )

    def _record(self, client: int, f: PFSFile, offset: int, nbytes: int) -> None:
        # caller holds the lock; only the phase's opener is charged
        if self._phase_kind is not None and self._phase_owner == threading.get_ident():
            self._phase_transfers.append(
                PhaseTransfer(client, f.name, offset, nbytes)
            )
            for srv, b in f.server_byte_spans(offset, nbytes).items():
                self._phase_server_bytes[srv] = (
                    self._phase_server_bytes.get(srv, 0) + b
                )

    def write_at(
        self,
        name: str,
        offset: int,
        data: Optional[bytes],
        nbytes: Optional[int] = None,
        client: int = 0,
    ) -> int:
        """Write into a file (recorded against the caller's open phase, if any)."""
        t0 = time.perf_counter() if get_tracer().enabled else None
        with self._lock:
            f = self._get(name)
            data, nbytes, fault = self._faulted_write(name, offset, data, nbytes)
            n = f.write_at(offset, data, nbytes)
            self._record(client, f, offset, n)
            self._meter("write", name, n, t0)
            if fault is not None:
                raise fault
            return n

    def read_at(self, name: str, offset: int, nbytes: int, client: int = 0) -> bytes:
        """Read from a file (recorded against the caller's open phase, if any)."""
        t0 = time.perf_counter() if get_tracer().enabled else None
        with self._lock:
            f = self._get(name)
            out = f.read_at(offset, nbytes)
            if self.faults is not None:
                out = self.faults.apply_read(name, offset, out)
            self._record(client, f, offset, nbytes)
            self._meter("read", name, nbytes, t0)
            return out

    def read_virtual(self, name: str, offset: int, nbytes: int, client: int = 0) -> None:
        """Account a read without returning data (virtual files)."""
        with self._lock:
            self._record(client, self._get(name), offset, nbytes)
            self._meter("read", name, nbytes, None)

    # -- statistics ------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Cumulative phase statistics: counts/bytes/seconds by
        operation kind, plus how many phases hit the buffer-memory
        pressure regime — the quick health readout of an experiment."""
        by_kind: Dict[str, Dict[str, float]] = {}
        pressured = 0
        for res in self.phase_log:
            k = res.kind.value
            agg = by_kind.setdefault(
                k, {"phases": 0, "bytes": 0, "seconds": 0.0}
            )
            agg["phases"] += 1
            agg["bytes"] += res.total_bytes
            agg["seconds"] += res.seconds
            pressured += bool(res.pressured)
        with self._lock:
            nfiles = len(self._files)
            stored = sum(f.size for f in self._files.values())
        return {
            "files": nfiles,
            "bytes_stored": stored,
            "phases": len(self.phase_log),
            "pressured_phases": pressured,
            "by_kind": by_kind,
        }

    def __repr__(self) -> str:
        return f"PIOFS({len(self._files)} files, {self.params.num_servers} servers)"
