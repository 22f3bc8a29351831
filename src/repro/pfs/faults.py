"""I/O fault injection for the simulated parallel file system.

The node-failure plans of :mod:`repro.infra.failure` model *processor*
faults; this module models the *storage* faults that motivate
checkpoint rotation and restart-time validation: a checkpoint is only
useful if it survives the failure it guards against, and a failure may
strike the I/O path itself while the checkpoint is being written.

A plan names the *stored byte* it hits — a file-name pattern and a byte
offset in the file — never the ordinal of a call, so it hits the same
byte whichever sequence of writes or reads stores or returns it (the
bulk parstream's one call per I/O task, or one call per piece).  Three
fault families, all deterministic:

* **failed write** — the first write to a matching file whose byte
  range covers the offset raises :class:`~repro.errors.IOFaultError`
  before any byte of it lands (a node crash between ``create`` and
  ``write``);
* **torn / short writes** — that write persists only its bytes below
  the offset, then either raises (*torn*: the crash is observed) or
  silently reports success (*short*: latent corruption only a checksum
  can catch);
* **bit-flip on read** — the first read of a matching file that
  returns the byte at the offset returns it with one bit flipped
  (media/transfer corruption on the restart path).

An armed :class:`FaultInjector` is attached to a PIOFS instance with
:meth:`~repro.pfs.piofs.PIOFS.attach_faults`; the hooks run under the
file-system lock, so a plan fires exactly once even under concurrent
SPMD task threads.  :func:`flip_stored_bit` complements the transient
read fault with *persistent* corruption of a stored byte.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import PFSError
from repro.obs import emit_event, get_tracer

__all__ = ["WriteFault", "ReadFault", "FaultInjector", "flip_stored_bit"]

_WRITE_MODES = ("fail", "torn", "short")


def _covers(start: int, nbytes: int, offset: int) -> bool:
    return start <= offset < start + nbytes


@dataclass
class WriteFault:
    """One armed write fault: fires on the first write to a file whose
    name contains ``match`` (every file matches an empty pattern) and
    whose byte range covers stored byte ``offset``.

    ``mode``:

    * ``"fail"``  — raise :class:`IOFaultError`; nothing of the write
      is stored;
    * ``"torn"``  — store the write's bytes below ``offset``, then raise;
    * ``"short"`` — store them and silently return the short count
      (POSIX short write; no exception).
    """

    match: str = ""
    offset: int = 0
    mode: str = "fail"
    fired: bool = False
    #: filled in when the fault fires: the write's full payload size and
    #: how many bytes actually landed (fail: 0) — ground truth for the
    #: verification harness, which must know whether a short write
    #: really dropped bytes
    intended: Optional[int] = None
    kept: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in _WRITE_MODES:
            raise PFSError(f"unknown write-fault mode {self.mode!r}")
        if self.offset < 0:
            raise PFSError("write fault must target a byte offset >= 0")


@dataclass
class ReadFault:
    """One armed read fault: the first read of a file whose name
    contains ``match`` that returns stored byte ``offset`` has bit
    ``bit`` of that byte flipped (the stored file is untouched)."""

    match: str = ""
    offset: int = 0
    bit: int = 0
    fired: bool = False

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise PFSError("read fault must target a byte offset >= 0")
        if not 0 <= self.bit <= 7:
            raise PFSError("bit index must be within 0..7")


class FaultInjector:
    """Deterministic I/O fault plans for one PIOFS instance.

    The injector is passive until attached
    (:meth:`~repro.pfs.piofs.PIOFS.attach_faults`); each plan fires at
    most once.  ``log`` records every fired fault as
    ``(kind, file, detail)`` so tests can assert what actually
    happened.
    """

    def __init__(self):
        self.write_faults: List[WriteFault] = []
        self.read_faults: List[ReadFault] = []
        #: fired faults, as (kind, filename, human detail)
        self.log: List[Tuple[str, str, str]] = []
        # a library caller's own thread arms and reads plans without the baton
        self._lock = threading.Lock()

    # -- arming -----------------------------------------------------------

    def fail_write(
        self, match: str = "", offset: int = 0, mode: str = "fail"
    ) -> WriteFault:
        """Arm a write fault; returns the plan for later inspection."""
        plan = WriteFault(match=match, offset=offset, mode=mode)
        with self._lock:
            self.write_faults.append(plan)
        return plan

    def flip_read(
        self, match: str = "", offset: int = 0, bit: int = 0
    ) -> ReadFault:
        """Arm a bit-flip-on-read fault; returns the plan."""
        plan = ReadFault(match=match, offset=offset, bit=bit)
        with self._lock:
            self.read_faults.append(plan)
        return plan

    @property
    def pending(self) -> int:
        """Armed plans that have not fired yet."""
        with self._lock:
            return sum(
                1
                for p in self.write_faults + self.read_faults
                if not p.fired
            )

    # -- hooks (called by PIOFS under its namespace lock) ------------------

    def match_write(
        self, name: str, offset: int, nbytes: int
    ) -> Optional[WriteFault]:
        """The plan that fires on a write of ``nbytes`` at ``offset`` of
        ``name`` (or None); a fired plan records the write's size and
        the bytes it keeps."""
        with self._lock:
            for plan in self.write_faults:
                if (
                    plan.fired
                    or plan.match not in name
                    or not _covers(offset, nbytes, plan.offset)
                ):
                    continue
                plan.fired = True
                plan.intended = nbytes
                plan.kept = 0 if plan.mode == "fail" else plan.offset - offset
                self.log.append(("write", name, plan.mode))
                get_tracer().metrics.counter(
                    f"pfs.faults.write.{plan.mode}"
                ).inc()
                emit_event(
                    None, "pfs_fault", op="write", file=name, mode=plan.mode
                )
                return plan
        return None

    def apply_read(self, name: str, offset: int, data: bytes) -> bytes:
        """``data``, read at ``offset`` of ``name``, with the flip of
        the plan that fires on it applied (or untouched)."""
        with self._lock:
            for plan in self.read_faults:
                if (
                    plan.fired
                    or plan.match not in name
                    or not _covers(offset, len(data), plan.offset)
                ):
                    continue
                plan.fired = True
                self.log.append(
                    ("read", name, f"bit {plan.bit} of byte {plan.offset} flipped")
                )
                get_tracer().metrics.counter("pfs.faults.read.bitflip").inc()
                emit_event(
                    None, "pfs_fault", op="read", file=name,
                    mode="bitflip", offset=plan.offset, bit=plan.bit,
                )
                buf = bytearray(data)
                buf[plan.offset - offset] ^= 1 << plan.bit
                return bytes(buf)
        return data


def flip_stored_bit(pfs, name: str, offset: int, bit: int = 0) -> None:
    """Persistently flip one bit of a *stored* byte of ``name`` — silent
    media corruption that every subsequent read observes.  Raises
    :class:`PFSError` for virtual files or offsets past the stored
    content (there is no byte to corrupt there)."""
    if not 0 <= bit <= 7:
        raise PFSError("bit index must be within 0..7")
    f = pfs.open(name)
    f.flip_bit(offset, bit)
    get_tracer().metrics.counter("pfs.faults.stored_bitflip").inc()
