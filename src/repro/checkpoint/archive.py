"""Checkpoint archiving and migration between file systems.

The paper's abstract: "the reconfigurable checkpointed states can be
migrated from one parallel system to another even if they do not have
the same number of processors."  Migration means physically moving the
checkpoint file set; this module copies a complete checkpointed state
(either kind) between two PIOFS instances — e.g., from a machine's
parallel file system to an archive server and on to a different
machine — preserving every file byte-for-byte, so a reconfigured
restart on the destination behaves exactly like a local one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.checkpoint.format import manifest_name, read_manifest
from repro.errors import CheckpointError

from repro.pfs.piofs import PIOFS

__all__ = ["checkpoint_files", "copy_checkpoint", "delete_checkpoint"]

_COPY_CHUNK = 4 << 20


def checkpoint_files(
    pfs: PIOFS, prefix: str, _seen: Optional[set] = None
) -> List[str]:
    """Every file belonging to the checkpointed state under ``prefix``
    (manifest included): an incremental delta's ``base`` chain too.  A
    chain whose ``base`` links loop back on themselves (a corrupt or
    hostile manifest) raises :class:`~repro.errors.CheckpointError`
    instead of recursing forever."""
    seen = _seen if _seen is not None else set()
    if prefix in seen:
        raise CheckpointError(
            f"checkpoint chain cycle: {prefix!r} references itself"
        )
    seen.add(prefix)
    manifest = read_manifest(pfs, prefix)
    files = [manifest_name(prefix)]
    kind = manifest.get("kind")
    if kind == "drms":
        files.append(manifest["segment_file"])
        files.extend(a["file"] for a in manifest["arrays"])
        if "base" in manifest:
            files.extend(checkpoint_files(pfs, manifest["base"], _seen=seen))
    elif kind == "spmd":
        files.extend(manifest["task_files"])
    else:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    return files


def copy_checkpoint(src: PIOFS, dst: PIOFS, prefix: str) -> Dict[str, int]:
    """Copy a complete checkpointed state from ``src`` to ``dst``.

    Virtual files stay virtual and sparse tails stay sparse (sizes
    preserved without materializing the content-free spans); stored
    bytes are copied exactly.  Returns per-file byte counts.
    """
    copied: Dict[str, int] = {}
    for name in checkpoint_files(src, prefix):
        f = src.open(name)
        dst.create(name, virtual=f.virtual, overwrite=True)
        stored = 0 if f.virtual else f.stored_bytes
        pos = 0
        while pos < stored:
            chunk = src.read_at(name, pos, min(_COPY_CHUNK, stored - pos))
            dst.write_at(name, pos, chunk)
            pos += len(chunk)
        if f.size > stored:
            dst.write_at(name, stored, None, nbytes=f.size - stored)
        copied[name] = f.size
    return copied


def delete_checkpoint(pfs: PIOFS, prefix: str) -> int:
    """Remove every file of a checkpointed state; returns bytes freed."""
    freed = 0
    for name in checkpoint_files(pfs, prefix):
        freed += pfs.file_size(name)
        pfs.unlink(name)
    return freed
