"""Conventional (non-reconfigurable) SPMD checkpointing.

Every task saves its *entire* data segment — stack, replicated and
private data, and the storage for its mapped array sections — to a
separate file, then all tasks synchronize (the approach of refs
[6, 10, 18]).  Saved state therefore grows linearly with the task
count, and restart is only possible on exactly the checkpointing task
count; both properties are what the paper's DRMS scheme removes.

Per-task payloads (exact Python state of non-conforming applications)
are stored verbatim; the bulk of the segment is a sized sparse span,
like the DRMS segment file.  This is the paper's baseline and lives on
the PFS only: the memory tier (:mod:`repro.mlck`) holds DRMS
generations.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checkpoint.drms import (
    CheckpointBreakdown,
    RestartBreakdown,
    _charge_restart_init,
    _publish_breakdown,
)
from repro.checkpoint.format import (
    read_manifest,
    sha1_hex,
    task_segment_name,
    write_manifest,
)
from repro.checkpoint.segment import DataSegment
from repro.checkpoint.validate import verify_stored_sha1
from repro.errors import CheckpointError, RestartError
from repro.obs import get_tracer
from repro.pfs.phase import IOKind
from repro.pfs.piofs import PIOFS

__all__ = ["spmd_checkpoint", "spmd_restart", "SPMDRestoredState"]


@dataclass
class SPMDRestoredState:
    """Per-task state recovered from an SPMD checkpoint."""

    ntasks: int
    payloads: List[Any]
    segment_bytes: List[int]
    manifest: Dict


def _encode_task_file(payload: Any, segment_bytes: int) -> Tuple[bytes, int]:
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = len(body).to_bytes(8, "little") + body
    pad = max(0, segment_bytes - len(header))
    return header, pad


def _decode_task_file(data: bytes) -> Any:
    if len(data) < 8:
        raise CheckpointError("task segment too short")
    n = int.from_bytes(data[:8], "little")
    if len(data) < 8 + n:
        raise CheckpointError("task segment header truncated")
    return pickle.loads(data[8 : 8 + n])


def spmd_checkpoint(
    pfs: PIOFS,
    prefix: str,
    ntasks: int,
    segment_bytes: int,
    payloads: Optional[Sequence[Any]] = None,
    app_name: str = "",
) -> CheckpointBreakdown:
    """Write one segment file per task in one distinct-file phase (the
    simulated clock charges the tasks as concurrent clients).

    ``segment_bytes`` is the per-task data-segment size — fixed at
    compile time (for the minimum task count) in the Fortran codes the
    paper measures, hence identical for every task and every run size.
    ``payloads`` carries exact per-task state for functional round
    trips; omitted for size/timing studies.
    """
    if ntasks < 1:
        raise CheckpointError("SPMD checkpoint needs at least one task")
    if payloads is not None and len(payloads) != ntasks:
        raise CheckpointError(
            f"{len(payloads)} payloads for {ntasks} tasks"
        )
    bd = CheckpointBreakdown(kind="spmd", prefix=prefix, ntasks=ntasks)
    obs = get_tracer()
    with obs.span(
        "checkpoint", kind="spmd", prefix=prefix, ntasks=ntasks, app=app_name
    ) as op:
        sizes = []
        shas: List[str] = []
        sha_bytes: List[int] = []
        with obs.span("segment_write", files=ntasks) as sp:
            with pfs.phase(IOKind.WRITE_DISTINCT) as res:
                # create every file first, then write them in task order:
                # a deterministic namespace, manifest order and write sequence
                encoded = []
                for t in range(ntasks):
                    fname = task_segment_name(prefix, t)
                    pfs.create(fname, virtual=False)
                    payload = payloads[t] if payloads is not None else None
                    header, pad = _encode_task_file(payload, segment_bytes)
                    encoded.append((t, fname, header, pad))
                    sizes.append(len(header) + pad)
                    # hash the *intended* exact header (the sparse bulk is sized,
                    # not stored), so a torn write of the file is caught at restart
                    shas.append(sha1_hex(header))
                    sha_bytes.append(len(header))
                for t, fname, header, pad in encoded:
                    pfs.write_at(fname, 0, header, client=t)
                    if pad:
                        pfs.write_at(fname, len(header), None, nbytes=pad, client=t)
            obs.advance(res.seconds)
            sp.set(nbytes=sum(sizes), seconds=res.seconds)
        bd.segment_seconds = res.seconds
        bd.segment_bytes = sum(sizes)
        write_manifest(
            pfs,
            prefix,
            {
                "kind": "spmd",
                "app_name": app_name,
                "ntasks": ntasks,
                "task_files": [task_segment_name(prefix, t) for t in range(ntasks)],
                "segment_bytes": sizes,
                "task_sha1": shas,
                "task_sha1_bytes": sha_bytes,
            },
        )
        op.set(nbytes=bd.total_bytes, seconds=bd.total_seconds)
    _publish_breakdown("checkpoint", bd)
    return bd


def spmd_restart(
    pfs: PIOFS, prefix: str, ntasks: int
) -> Tuple[SPMDRestoredState, RestartBreakdown]:
    """Restore an SPMD checkpoint.  ``ntasks`` must equal the
    checkpointing task count — the defining limitation of conventional
    checkpointing (paper Section 2.2): the application state lives in
    per-task segments, so no reconfiguration is possible.

    Each task file's header is checked against the manifest's recorded
    SHA-1 before the payload is decoded, raising
    :class:`~repro.errors.CheckpointIntegrityError` on corruption."""
    manifest = read_manifest(pfs, prefix)
    if manifest.get("kind") != "spmd":
        raise RestartError(
            f"checkpoint {prefix!r} is kind {manifest.get('kind')!r}, not spmd"
        )
    saved = manifest["ntasks"]
    if ntasks != saved:
        raise RestartError(
            f"SPMD checkpoint was taken with {saved} tasks; restart "
            f"requested {ntasks}. Reconfigured restart requires a DRMS "
            "checkpoint."
        )
    bd = RestartBreakdown(kind="spmd", prefix=prefix, ntasks=ntasks)
    bd.other_seconds = pfs.params.restart_init_s
    obs = get_tracer()
    payloads: List[Any] = []
    sizes: List[int] = []
    heads: List[bytes] = []
    with obs.span(
        "restart", kind="spmd", prefix=prefix, ntasks=ntasks,
        checkpoint_ntasks=saved,
    ) as op:
        _charge_restart_init(obs, bd.other_seconds)
        with obs.span("segment_read", files=ntasks) as sp:
            with pfs.phase(IOKind.READ_DISTINCT) as res:
                for t, fname in enumerate(manifest["task_files"]):
                    size = pfs.file_size(fname)
                    head = pfs.read_at(fname, 0, min(size, DataSegment.header_prefix_bytes()), client=t)
                    if size > len(head):
                        pfs.read_virtual(fname, len(head), size - len(head), client=t)
                    heads.append(head)
                    sizes.append(size)
            obs.advance(res.seconds)
            sp.set(nbytes=sum(sizes), seconds=res.seconds)
        shas = manifest.get("task_sha1") or []
        sha_bytes = manifest.get("task_sha1_bytes") or []
        with obs.span("validate:task_files", files=len(heads)):
            for t, (fname, head) in enumerate(zip(manifest["task_files"], heads)):
                if t < len(shas):
                    verify_stored_sha1(
                        pfs, fname, shas[t],
                        sha_bytes[t] if t < len(sha_bytes) else None,
                        head=head,
                    )
                payloads.append(_decode_task_file(head))
        bd.segment_seconds = res.seconds
        bd.segment_bytes = sum(sizes)
        op.set(nbytes=bd.total_bytes, seconds=bd.total_seconds)
    _publish_breakdown("restart", bd)
    return (
        SPMDRestoredState(
            ntasks=ntasks, payloads=payloads, segment_bytes=sizes, manifest=manifest
        ),
        bd,
    )
