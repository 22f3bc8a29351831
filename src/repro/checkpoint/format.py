"""On-"disk" checkpoint formats: names, manifests, distribution specs.

A checkpoint with prefix ``P`` consists of:

* ``P.manifest``           — JSON metadata (this module);
* DRMS kind: ``P.segment`` — one data segment, plus ``P.array.<name>``
  per distributed array (distribution-independent streams);
* SPMD kind: ``P.task<i>`` — one data segment per task.

Manifests record enough to restart *without* the original program
object: the checkpoint kind, task count, stream order, and — per array —
shape, dtype, and a declarative distribution spec that
:func:`spec_to_distribution` can re-instantiate and ``adjust`` to a new
task count.  Different prefixes coexist, so an application can keep
multiple checkpointed states concurrently (paper Section 3).

Crash consistency: a manifest is committed in **two phases** — the JSON
is written to ``<prefix>.manifest.tmp``, read back and validated, and
only then atomically renamed to ``<prefix>.manifest``.  Since the
manifest is written last and its presence marks a complete state, a
crash (or injected I/O fault) at *any* point of a checkpoint leaves
either the previous committed manifest or none — never a zero-byte or
half-written one.

Integrity (format version 4): a DRMS manifest records the plain SHA-1
of the segment header (``segment_sha1`` over ``segment_sha1_bytes``)
and, per data-bearing array, ``sha1`` over its stream in
``span_bytes`` spans: the SHA-1 of the concatenated raw SHA-1 digests
of the stream's consecutive spans
(:func:`~repro.streaming.order.stream_sha1`).  ``span_bytes`` is the
capturing sink's ``target_bytes``, so the capture's one hash pass
yields both the L1 piece digests and the stream digest.  Restart and
:func:`~repro.checkpoint.validate.validate_checkpoint` verify them; a
data-bearing entry without them is a corrupt manifest.  Only version 4
is read.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

import numpy as np

from repro.arrays.distributions import (
    AxisDistribution,
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    GenBlock,
    Indexed,
    Replicated,
)
from repro.arrays.ranges import Range
from repro.errors import CheckpointError, CheckpointIntegrityError
from repro.obs import get_tracer
from repro.pfs.piofs import PIOFS
from repro.streaming.order import sha1_hex

__all__ = [
    "CHECKPOINT_VERSION",
    "manifest_name",
    "manifest_tmp_name",
    "segment_name",
    "array_name",
    "task_segment_name",
    "axis_to_spec",
    "spec_to_axis",
    "distribution_to_spec",
    "spec_to_distribution",
    "sha1_hex",
    "commit_two_phase",
    "write_manifest",
    "read_manifest",
]

CHECKPOINT_VERSION = 4


def manifest_name(prefix: str) -> str:
    """Manifest file name for a checkpoint prefix."""
    return f"{prefix}.manifest"


def manifest_tmp_name(prefix: str) -> str:
    """Staging name of an uncommitted manifest (phase one of
    :func:`commit_two_phase`); never matches the ``.manifest`` suffix
    scans."""
    return manifest_name(prefix) + ".tmp"


def segment_name(prefix: str) -> str:
    """Data-segment file name for a DRMS checkpoint."""
    return f"{prefix}.segment"


def array_name(prefix: str, array: str) -> str:
    """Array stream file name for a DRMS checkpoint."""
    return f"{prefix}.array.{array}"


def task_segment_name(prefix: str, task: int) -> str:
    """Per-task segment file name for an SPMD checkpoint."""
    return f"{prefix}.task{task}"


# -- distribution specs ------------------------------------------------------


def _range_to_spec(r: Range) -> Any:
    if r.is_empty:
        return {"kind": "empty"}
    if r.is_regular:
        return {"kind": "regular", "lo": r.first, "hi": r.last, "step": r.step}
    return {"kind": "indexed", "indices": [int(i) for i in r.indices()]}


def _spec_to_range(spec: Dict[str, Any]) -> Range:
    kind = spec["kind"]
    if kind == "empty":
        return Range.empty()
    if kind == "regular":
        return Range.regular(spec["lo"], spec["hi"], spec["step"])
    if kind == "indexed":
        return Range(spec["indices"])
    raise CheckpointError(f"unknown range spec kind {kind!r}")


def axis_to_spec(ax: AxisDistribution) -> Dict[str, Any]:
    """Serialize one axis distribution to a JSON-able spec."""
    if isinstance(ax, Block):
        return {"kind": "block"}
    if isinstance(ax, Cyclic):
        return {"kind": "cyclic"}
    if isinstance(ax, BlockCyclic):
        return {"kind": "block_cyclic", "block": ax.block}
    if isinstance(ax, GenBlock):
        return {"kind": "gen_block", "sizes": list(ax.sizes)}
    if isinstance(ax, Indexed):
        return {"kind": "indexed", "ranges": [_range_to_spec(r) for r in ax.ranges]}
    if isinstance(ax, Replicated):
        return {"kind": "replicated"}
    raise CheckpointError(f"cannot serialize axis distribution {ax!r}")


def spec_to_axis(spec: Dict[str, Any]) -> AxisDistribution:
    """Inverse of axis_to_spec."""
    kind = spec["kind"]
    if kind == "block":
        return Block()
    if kind == "cyclic":
        return Cyclic()
    if kind == "block_cyclic":
        return BlockCyclic(block=int(spec["block"]))
    if kind == "gen_block":
        return GenBlock(spec["sizes"])
    if kind == "indexed":
        return Indexed([_spec_to_range(r) for r in spec["ranges"]])
    if kind == "replicated":
        return Replicated()
    raise CheckpointError(f"unknown axis spec kind {kind!r}")


def _slice_to_spec(s) -> Any:
    return [_range_to_spec(r) for r in s.ranges]


def _spec_to_slice(spec) -> Any:
    from repro.arrays.slices import Slice

    return Slice([_spec_to_range(r) for r in spec])


def distribution_to_spec(d: Distribution) -> Dict[str, Any]:
    """Serialize a full Distribution to a JSON-able spec."""
    out = {
        "shape": list(d.shape),
        "axes": [axis_to_spec(a) for a in d.axes],
        "ntasks": d.ntasks,
        "grid": list(d.grid),
        "shadow": list(d.shadow),
    }
    if getattr(d, "mapped_overridden", False):
        out["mapped"] = [_slice_to_spec(d.mapped(t)) for t in range(d.ntasks)]
    return out


def spec_to_distribution(
    spec: Dict[str, Any], ntasks: Optional[int] = None
) -> Distribution:
    """Re-instantiate a distribution; with ``ntasks`` given and different
    from the stored count, the distribution is *adjusted* to the new
    task count (the ``drms_adjust`` path of a reconfigured restart)."""
    mapped = spec.get("mapped")
    stored = Distribution(
        spec["shape"],
        [spec_to_axis(a) for a in spec["axes"]],
        spec["ntasks"],
        grid=spec.get("grid"),
        shadow=spec.get("shadow"),
        mapped=[_spec_to_slice(m) for m in mapped] if mapped else None,
    )
    if ntasks is None or ntasks == stored.ntasks:
        return stored
    # A different task count invalidates explicit mapped overrides;
    # adjust() re-derives a shadow-based analogue (the application may
    # supply its own irregular distribution via drms_distribute).
    return stored.adjust(ntasks)


# -- manifests ------------------------------------------------------------------


def commit_two_phase(pfs: PIOFS, name: str, data: bytes) -> None:
    """Commit ``data`` as file ``name`` atomically — the one two-phase
    commit every manifest (checkpoint and workflow) goes through.

    The bytes are staged to ``<name>.tmp``, read back and compared
    byte-for-byte (catching torn and short writes), then renamed onto
    the final name.  A crash — or an injected I/O fault — anywhere
    before the rename leaves no ``name`` at all, so the half-written
    state is invisible to every scan for committed manifests; the stale
    ``.tmp`` still reserves the generation number against reuse.
    """
    tmp = name + ".tmp"
    pfs.create(tmp, virtual=False)
    pfs.write_at(tmp, 0, data)
    back = pfs.read_at(tmp, 0, pfs.file_size(tmp))
    if back != data:
        raise CheckpointIntegrityError(
            f"manifest {name!r} failed write validation: staged "
            f"{len(back)} bytes, expected {len(data)} (torn write?)"
        )
    pfs.rename(tmp, name)


def write_manifest(pfs: PIOFS, prefix: str, manifest: Dict[str, Any]) -> None:
    """Commit a checkpoint manifest atomically (stamps the format
    version) through :func:`commit_two_phase`, so a crash mid-commit is
    invisible to :func:`~repro.checkpoint.rotation.latest_checkpoint`."""
    manifest = dict(manifest)
    manifest["version"] = CHECKPOINT_VERSION
    data = json.dumps(manifest, sort_keys=True).encode()
    name = manifest_name(prefix)
    with get_tracer().span("manifest_commit", file=name, nbytes=len(data)):
        commit_two_phase(pfs, name, data)


def read_manifest(pfs: PIOFS, prefix: str) -> Dict[str, Any]:
    """Read and version-check a checkpoint manifest."""
    name = manifest_name(prefix)
    if not pfs.exists(name):
        raise CheckpointError(f"no checkpoint manifest {name!r}")
    raw = pfs.read_at(name, 0, pfs.file_size(name))
    try:
        manifest = json.loads(raw.decode())
    except Exception as exc:
        raise CheckpointError(f"corrupt manifest {name!r}: {exc}") from exc
    version = manifest.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"manifest {name!r} has version {version}; this library "
            f"reads version {CHECKPOINT_VERSION}.  Older states cannot "
            "be read in place: restart them under the library version "
            "that wrote them, take a fresh checkpoint, and migrate it "
            "with repro.checkpoint.archive.copy_checkpoint (see "
            "DESIGN.md, 'Checkpoint on-disk format')."
        )
    return manifest


def np_dtype_name(dtype) -> str:
    return np.dtype(dtype).str  # endianness-explicit, e.g. '<f8'
