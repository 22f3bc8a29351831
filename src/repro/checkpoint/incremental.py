"""Incremental checkpointing and memory exclusion (paper Section 6).

Plank et al.'s [13] incremental checkpointing "can be equally applied
to DRMS checkpointing": through the one capture and restore
(:mod:`repro.checkpoint.drms`), with the ``target_bytes`` spans of an
array's distribution-independent stream as its pages.  A delta links
the previous generation as its ``base``, and the newest opens as its
chain on any task count.  :func:`excluded_segment_bytes` models memory
exclusion on the data segment (§6).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.checkpoint.drms import (CheckpointBreakdown, PFSCheckpointSink, RestartBreakdown,
                                   RestoredState, capture, drms_restart)
from repro.checkpoint.segment import DataSegment
from repro.errors import CheckpointError
from repro.pfs.phase import IOKind
from repro.pfs.piofs import PIOFS
from repro.streaming.order import stream_sha1, stream_spans
from repro.streaming.serial import stream_u8

__all__ = ["IncrementalCheckpointer", "excluded_segment_bytes"]


def excluded_segment_bytes(segment: DataSegment, clean_private_fraction: float) -> int:
    """Segment bytes once exclusion skips ``clean_private_fraction`` of
    the private component; sections, buffers and the header still go out."""
    if not 0.0 <= clean_private_fraction <= 1.0:
        raise CheckpointError("clean fraction must be within [0, 1]")
    p = segment.profile
    return p.local_section_bytes + p.system_bytes + int(
        p.private_bytes * (1.0 - clean_private_fraction))


def _geometry(a: DistributedArray) -> str:
    return f"{tuple(a.shape)} {np.dtype(a.dtype)}" + ("" if a.store_data else " virtual")


class _DeltaSink(PFSCheckpointSink):
    """Sink of a delta (see :func:`~repro.checkpoint.drms.capture`): the
    segment header alone (the bulk is the base's); per array one gather,
    one hash pass, one write phase of the spans whose digest differs from
    ``previous``'s (a virtual array: its ``dirty`` fraction of its bytes),
    in stream order.  The commit adds ``base`` and the span indices."""

    kind = "drms-delta"
    spans = ("segment_write", "delta")

    def __init__(self, pfs, io_tasks, target_bytes, base: str, previous, dirty):
        super().__init__(pfs, io_tasks, target_bytes)
        self.base, self.previous, self.dirty = base, previous, dirty
        self.stored: Dict[str, List[int]] = {}

    def segment(self, file: str, header: bytes, pad: int) -> Tuple[float, int, str]:
        return super().segment(file, header, 0)

    def array(self, a: DistributedArray, file: str, order: str):
        span, P, idx, sha1 = self.target_bytes, self.io_tasks or a.ntasks, [], None
        if a.store_data:
            u8 = stream_u8(a, order=order)
            _, digests = stream_sha1(u8, span)
            idx = [i for i, d in enumerate(digests) if d != self.previous[a.name][i]]
            cut = stream_spans(len(u8), span)
            runs = [(i, u8[off:off + n], n) for i in idx for off, n in (cut[i],)]
            # what stream_sha1 of the stored spans, one after another, gives
            sha1 = hashlib.sha1(b"".join(bytes.fromhex(digests[i]) for i in idx)).hexdigest()
            self.span_sha1s[a.name] = digests
        else:
            charged = round(self.dirty.get(a.name, 1.0) * a.nbytes_global)
            runs = [(i, None, n) for i, (_, n) in enumerate(stream_spans(charged, span)) if n]
        self.pfs.create(file, virtual=not a.store_data)
        pos = 0
        with self.pfs.phase(IOKind.WRITE_PARALLEL) as res:
            for i, data, n in runs:
                self.pfs.write_at(file, pos, data, nbytes=n, client=i % P)
                pos += n
        self.stored[a.name] = idx
        return res.seconds, pos, sha1, span if sha1 else None, {"spans": len(runs)}

    def commit(self, manifest: Dict, bd: CheckpointBreakdown) -> None:
        manifest["base"] = self.base
        for spec in manifest["arrays"]:
            spec["spans"] = self.stored[spec["name"]]
        super().commit(manifest, bd)


class IncrementalCheckpointer:
    """Base + delta checkpoints over the stream's byte spans."""

    def __init__(self, pfs: PIOFS, prefix: str, order: str = "F", target_bytes: int = 1 << 20,
                 io_tasks: Optional[int] = None, app_name: str = ""):
        self.pfs, self.prefix, self.order = pfs, prefix, order
        self.target_bytes, self.io_tasks, self.app_name = target_bytes, io_tasks, app_name
        self.version = -1  # -1: no base yet; 0: base; k: k-th delta
        self._geometry: Dict[str, str] = {}  # the base's arrays' shape, dtype
        self._digests: Dict[str, List[str]] = {}  # newest stored span digests
        self.declared_dirty: Dict[str, float] = {}  # of virtual arrays, by name

    def _generation(self, k: int) -> str:
        return f"{self.prefix}.base" if k == 0 else f"{self.prefix}.d{k}"

    def _capture(self, sink, k: int, segment, arrays) -> CheckpointBreakdown:
        bd = capture(sink, self._generation(k), segment, arrays, self.order, self.app_name, None)
        self._digests, self.version = {**self._digests, **sink.span_sha1s}, k
        return bd

    def declare_dirty(self, name: str, fraction: float) -> None:
        """Declare the fraction of virtual array ``name``'s bytes changed (page-table model)."""
        if not 0.0 <= fraction <= 1.0:
            raise CheckpointError("dirty fraction must be within [0, 1]")
        self.declared_dirty[name] = fraction

    def full(self, segment: DataSegment,
             arrays: Sequence[DistributedArray]) -> CheckpointBreakdown:
        """Write the base: a plain DRMS generation."""
        sink = PFSCheckpointSink(self.pfs, self.io_tasks, self.target_bytes)
        bd = self._capture(sink, 0, segment, arrays)
        self._geometry = {a.name: _geometry(a) for a in arrays}
        return bd

    def incremental(self, segment: DataSegment,
                    arrays: Sequence[DistributedArray]) -> CheckpointBreakdown:
        """Write the spans that changed since the previous generation,
        every array checked against the base before a byte is stored."""
        if self.version < 0:
            raise CheckpointError("incremental checkpoint requires a base; call full()")
        for a in arrays:
            base = self._geometry.get(a.name, "no such array")
            if _geometry(a) != base:
                raise CheckpointError(f"array {a.name!r} is {_geometry(a)}; the base has {base}")
        sink = _DeltaSink(self.pfs, self.io_tasks, self.target_bytes,
                          self._generation(self.version), self._digests, self.declared_dirty)
        return self._capture(sink, self.version + 1, segment, arrays)

    def restore(self, ntasks: int) -> Tuple[RestoredState, RestartBreakdown]:
        """Restart the newest generation (its chain) on ``ntasks`` tasks."""
        newest = self._generation(self.version)
        return drms_restart(self.pfs, newest, ntasks, self.order, self.io_tasks, self.target_bytes)

    def chain_state_bytes(self) -> Dict[str, int]:
        """Total on-disk state of base + deltas (the size ablation)."""
        sizes = [self.pfs.total_bytes(self._generation(k)) for k in range(self.version + 1)]
        return {"base": sum(sizes[:1]), "deltas": sum(sizes[1:]), "total": sum(sizes)}
