"""Incremental checkpointing and memory exclusion (paper Section 6).

The paper notes that state-of-the-art optimizations — "data compression,
incremental checkpointing that saves only modified pages, ... detection
of killed variables" (Plank et al. [13]) — were not applied to either
scheme, and that "these optimizations can be equally applied to DRMS
checkpointing".  This module implements them for the DRMS scheme, at
the natural DRMS granularity: the *stream pieces* of the Fig. 5a
partition play the role of pages.

* :class:`IncrementalCheckpointer` writes a **base** checkpoint (a plain
  DRMS checkpoint plus per-piece content hashes) and then **delta**
  checkpoints containing only the pieces whose content changed; restart
  reconstructs the arrays from the base plus the delta chain, on any
  task count — incrementality does not cost reconfigurability.
* For arrays without materialized data (bench-scale virtual payloads),
  dirtiness is declared per array as a fraction, modeling the page-level
  dirty tracking of [13].
* :func:`excluded_segment_bytes` models memory exclusion on the data
  segment (dead/clean private pages are skipped), which is what lets a
  compiler-optimized *task-based* checkpoint approach the DRMS state
  size (the §6 discussion) — the shadow-region overhead of
  :mod:`repro.perfmodel.shadow_ratio` is what remains.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.checkpoint.drms import (
    CheckpointBreakdown,
    RestartBreakdown,
    RestoredState,
    _publish_breakdown,
    drms_checkpoint,
    drms_restart,
)
from repro.checkpoint.format import (
    distribution_to_spec,
    read_manifest,
    sha1_hex,
    spec_to_distribution,
    write_manifest,
)
from repro.checkpoint.segment import DataSegment
from repro.checkpoint.validate import verify_stored_sha1
from repro.errors import CheckpointError, RestartError
from repro.obs import get_tracer
from repro.pfs.phase import IOKind
from repro.pfs.piofs import PIOFS
from repro.streaming.order import bytes_to_section
# cached front-ends: repeated full/incremental checkpoints of the same
# arrays replan the piece partition only once (see repro.plancache)
from repro.plancache.plans import partition_for_target, piece_offsets
from repro.streaming.serial import scatter_piece, stream_u8
from repro.arrays.slices import Slice

__all__ = ["IncrementalCheckpointer", "excluded_segment_bytes"]


def excluded_segment_bytes(
    segment: DataSegment, clean_private_fraction: float
) -> int:
    """Segment bytes after memory exclusion: clean/dead private pages
    are skipped; local sections, system buffers, and the exact header
    still go out.  ``clean_private_fraction`` is the fraction of the
    private/replicated component that exclusion proves unmodified."""
    if not 0.0 <= clean_private_fraction <= 1.0:
        raise CheckpointError("clean fraction must be within [0, 1]")
    p = segment.profile
    kept_private = int(p.private_bytes * (1.0 - clean_private_fraction))
    return p.local_section_bytes + p.system_bytes + kept_private


@dataclass
class _ArrayPlan:
    """Partition plan + current piece hashes for one array."""

    pieces: List[Slice]
    offsets: List[int]
    hashes: List[Optional[str]]


class IncrementalCheckpointer:
    """Base + delta checkpoints over the DRMS stream-piece granularity."""

    def __init__(
        self,
        pfs: PIOFS,
        prefix: str,
        order: str = "F",
        target_bytes: int = 1 << 20,
        io_tasks: Optional[int] = None,
        app_name: str = "",
    ):
        self.pfs = pfs
        self.prefix = prefix
        self.order = order
        self.target_bytes = target_bytes
        self.io_tasks = io_tasks
        self.app_name = app_name
        self.version = -1  # -1: no base yet; 0: base; k: k-th delta
        self._plans: Dict[str, _ArrayPlan] = {}
        #: declared dirty fractions for virtual arrays, by name
        self.declared_dirty: Dict[str, float] = {}

    # -- planning ----------------------------------------------------------

    def _plan_for(self, arr: DistributedArray) -> _ArrayPlan:
        pieces = partition_for_target(
            Slice.full(arr.shape),
            arr.itemsize,
            target_bytes=self.target_bytes,
            min_pieces=self.io_tasks or arr.ntasks,
            order=self.order,
        )
        return _ArrayPlan(
            pieces=pieces,
            offsets=piece_offsets(pieces, arr.itemsize),
            hashes=[None] * len(pieces),
        )

    def declare_dirty(self, name: str, fraction: float) -> None:
        """For virtual arrays: declare what fraction of the array's
        pieces changed since the last checkpoint (page-table model)."""
        if not 0.0 <= fraction <= 1.0:
            raise CheckpointError("dirty fraction must be within [0, 1]")
        self.declared_dirty[name] = fraction

    # -- base checkpoint ------------------------------------------------------

    def full(
        self, segment: DataSegment, arrays: Sequence[DistributedArray]
    ) -> CheckpointBreakdown:
        """Write the base: a regular DRMS checkpoint plus piece hashes."""
        bd = drms_checkpoint(
            self.pfs,
            f"{self.prefix}.base",
            segment,
            arrays,
            order=self.order,
            io_tasks=self.io_tasks,
            target_bytes=self.target_bytes,
            app_name=self.app_name,
        )
        self._plans = {}
        for arr in arrays:
            plan = self._plan_for(arr)
            if arr.store_data:
                u8 = stream_u8(arr, order=self.order)
                for i, piece in enumerate(plan.pieces):
                    if piece.is_empty:
                        continue
                    off = plan.offsets[i]
                    plan.hashes[i] = sha1_hex(u8[off:off + piece.size * arr.itemsize])
            self._plans[arr.name] = plan
        self.version = 0
        self._write_chain_manifest(arrays, deltas=[])
        return bd

    # -- delta checkpoints ---------------------------------------------------------

    def incremental(
        self, segment: DataSegment, arrays: Sequence[DistributedArray]
    ) -> CheckpointBreakdown:
        """Write only the pieces that changed since the previous base or
        delta.  The data segment's exact header always goes out; its
        bulk is re-used from the base (the [13] clean-page model)."""
        if self.version < 0:
            raise CheckpointError("incremental checkpoint requires a base; call full()")
        self.version += 1
        k = self.version
        bd = CheckpointBreakdown(kind="drms-delta", prefix=f"{self.prefix}.d{k}", ntasks=arrays[0].ntasks if arrays else 1)
        obs = get_tracer()
        with obs.span(
            "checkpoint",
            kind="drms-delta",
            prefix=bd.prefix,
            ntasks=bd.ntasks,
            delta_index=k,
        ) as op:
            # Segment header (exact state: replicated vars, context).
            header, _pad = segment.serialize()
            seg_name = f"{self.prefix}.d{k}.segment"
            self.pfs.create(seg_name)
            with obs.span("segment_write", file=seg_name) as sp:
                with self.pfs.phase(IOKind.WRITE_SERIAL) as res:
                    self.pfs.write_at(seg_name, 0, header, client=0)
                obs.advance(res.seconds)
                sp.set(nbytes=len(header), seconds=res.seconds)
            bd.segment_seconds = res.seconds
            bd.segment_bytes = len(header)

            delta_arrays = []
            for arr in arrays:
                plan = self._plans.get(arr.name)
                if plan is None:
                    raise CheckpointError(
                        f"array {arr.name!r} was not part of the base checkpoint"
                    )
                dirty = self._dirty_pieces(arr, plan)
                fname = f"{self.prefix}.d{k}.array.{arr.name}"
                self.pfs.create(fname, virtual=not arr.store_data)
                entries = []
                u8 = stream_u8(arr, order=self.order) if arr.store_data else None
                with obs.span(f"delta:{arr.name}", file=fname) as sp:
                    pos = 0
                    written = 0
                    file_hash = hashlib.sha1()  # intended bytes, in file order
                    P = self.io_tasks or arr.ntasks
                    with self.pfs.phase(IOKind.WRITE_PARALLEL) as res:
                        for j in dirty:
                            piece = plan.pieces[j]
                            nbytes = piece.size * arr.itemsize
                            if u8 is not None:
                                off = plan.offsets[j]
                                data = u8[off:off + nbytes]
                                self.pfs.write_at(fname, pos, data, client=j % P)
                                plan.hashes[j] = sha1_hex(data)
                                file_hash.update(data)
                            else:
                                self.pfs.write_at(fname, pos, None, nbytes=nbytes, client=j % P)
                            entries.append({"piece": j, "offset": pos, "nbytes": nbytes})
                            pos += nbytes
                            written += nbytes
                    obs.advance(res.seconds)
                    sp.set(
                        nbytes=written,
                        dirty_pieces=len(dirty),
                        total_pieces=len(plan.pieces),
                        seconds=res.seconds,
                    )
                bd.arrays_seconds += res.seconds
                bd.arrays_bytes += written
                bd.per_array.append((arr.name, res.seconds, written))
                delta_arrays.append(
                    {
                        "name": arr.name,
                        "file": fname,
                        "entries": entries,
                        "nbytes": written,
                        "sha1": file_hash.hexdigest() if arr.store_data else None,
                    }
                )
            op.set(nbytes=bd.total_bytes, seconds=bd.total_seconds)

        _publish_breakdown("checkpoint", bd)
        write_manifest(
            self.pfs,
            f"{self.prefix}.d{k}",
            {
                "kind": "drms-delta",
                "app_name": self.app_name,
                "base": f"{self.prefix}.base",
                "delta_index": k,
                "segment_file": seg_name,
                "segment_bytes": len(header),
                "segment_sha1": sha1_hex(header),
                "arrays": delta_arrays,
            },
        )
        self._write_chain_manifest(arrays, deltas=list(range(1, k + 1)))
        return bd

    def _dirty_pieces(self, arr: DistributedArray, plan: _ArrayPlan) -> List[int]:
        nonempty = [j for j, p in enumerate(plan.pieces) if not p.is_empty]
        if arr.store_data:
            u8 = stream_u8(arr, order=self.order)
            out = []
            for j in nonempty:
                off = plan.offsets[j]
                nb = plan.pieces[j].size * arr.itemsize
                if sha1_hex(u8[off:off + nb]) != plan.hashes[j]:
                    out.append(j)
            return out
        fraction = self.declared_dirty.get(arr.name, 1.0)
        count = int(round(fraction * len(nonempty)))
        return nonempty[:count]

    # -- chain manifest -----------------------------------------------------------

    def _write_chain_manifest(
        self, arrays: Sequence[DistributedArray], deltas: List[int]
    ) -> None:
        write_manifest(
            self.pfs,
            f"{self.prefix}.chain",
            {
                "kind": "drms-chain",
                "app_name": self.app_name,
                "base": f"{self.prefix}.base",
                "deltas": [f"{self.prefix}.d{k}" for k in deltas],
                "order": self.order,
                "arrays": [
                    {
                        "name": a.name,
                        "shape": list(a.shape),
                        "dtype": np.dtype(a.dtype).str,
                        "virtual": not a.store_data,
                        "distribution": distribution_to_spec(a.distribution),
                    }
                    for a in arrays
                ],
            },
        )

    # -- restore ------------------------------------------------------------------

    def restore(self, ntasks: int) -> Tuple[RestoredState, RestartBreakdown]:
        """Rebuild from base + delta chain on ``ntasks`` tasks (any
        count): restore the base, then overlay each delta's pieces."""
        chain = read_manifest(self.pfs, f"{self.prefix}.chain")
        obs = get_tracer()
        with obs.span(
            "restart",
            kind="drms-chain",
            prefix=f"{self.prefix}.chain",
            ntasks=ntasks,
            deltas=len(chain["deltas"]),
        ) as op:
            state, bd = drms_restart(
                self.pfs,
                chain["base"],
                ntasks,
                order=self.order,
                io_tasks=self.io_tasks,
                target_bytes=self.target_bytes,
            )
            for delta_prefix in chain["deltas"]:
                dm = read_manifest(self.pfs, delta_prefix)
                with obs.span(f"overlay:{delta_prefix}") as dsp:
                    # the most recent segment header wins (exact state)
                    seg_file = dm["segment_file"]
                    head = self.pfs.read_at(
                        seg_file, 0, self.pfs.file_size(seg_file), client=0
                    )
                    verify_stored_sha1(
                        self.pfs, seg_file, dm.get("segment_sha1"),
                        dm.get("segment_bytes"), head=head,
                    )
                    state.segment = DataSegment.deserialize(head)
                    overlay_bytes = 0
                    for spec in dm["arrays"]:
                        verify_stored_sha1(
                            self.pfs, spec["file"], spec.get("sha1"), spec.get("nbytes")
                        )
                        arr = state.arrays[spec["name"]]
                        plan = self._plan_for(arr)
                        P = self.io_tasks or ntasks
                        applied = 0
                        with self.pfs.phase(IOKind.READ_PARALLEL) as res:
                            for e in spec["entries"]:
                                piece = plan.pieces[e["piece"]]
                                if arr.store_data:
                                    data = self.pfs.read_at(
                                        spec["file"], e["offset"], e["nbytes"],
                                        client=e["piece"] % P,
                                    )
                                    scatter_piece(
                                        arr,
                                        piece,
                                        bytes_to_section(data, piece.shape, arr.dtype, self.order),
                                        order=self.order,
                                    )
                                else:
                                    self.pfs.read_virtual(
                                        spec["file"], e["offset"], e["nbytes"],
                                        client=e["piece"] % P,
                                    )
                                applied += e["nbytes"]
                        obs.advance(res.seconds)
                        bd.arrays_seconds += res.seconds
                        bd.arrays_bytes += applied
                        overlay_bytes += applied
                    dsp.set(nbytes=overlay_bytes)
            op.set(nbytes=bd.total_bytes, seconds=bd.total_seconds)
        return state, bd

    # -- accounting ---------------------------------------------------------------

    def chain_state_bytes(self) -> Dict[str, int]:
        """Total on-disk state of base + deltas (the size ablation)."""
        base = self.pfs.total_bytes(f"{self.prefix}.base")
        deltas = sum(
            self.pfs.total_bytes(f"{self.prefix}.d{k}")
            for k in range(1, max(self.version, 0) + 1)
        )
        return {"base": base, "deltas": deltas, "total": base + deltas}
