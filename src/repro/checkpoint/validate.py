"""Checkpoint integrity validation: the audit.

A crash — or a silently misbehaving I/O path — can leave a checkpointed
state whose manifest committed but whose data files are torn, short, or
bit-flipped.  The manifest's version-3 checksums (SHA-1 over the
*intended* bytes, recorded at write time) make such states detectable:

* :func:`file_problem` — one file missing or not its recorded size, no
  data read (a PFS restore's first check, too);
* :func:`verify_stored_sha1` checks one stored file (or the ``head`` a
  restore just read of it) against its recorded digest, raising
  :class:`~repro.errors.CheckpointIntegrityError` on a truncation or
  mismatch;
* :func:`validate_checkpoint` audits a complete state (either
  checkpoint kind, including incremental chains) and returns a
  :class:`ValidationReport` instead of raising, so the decision-only
  walk, the workflow line check and the tools can rank candidates;
* :func:`verify_checkpoint` is the raising form of the audit.

A DRMS restart does not audit: it verifies the bytes it delivers as it
reads them (:mod:`repro.checkpoint.recover`).  Validation reads are
untimed (no I/O phase is opened): they model an out-of-band scrub.
States written by format version 2 carry no checksums; their files are
only checked for existence and size, which keeps old states readable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.checkpoint.format import read_manifest, sha1_hex
from repro.errors import CheckpointError, CheckpointIntegrityError, PFSError
from repro.obs import get_tracer
from repro.pfs.piofs import PIOFS

__all__ = [
    "ValidationReport",
    "file_problem",
    "validate_checkpoint",
    "verify_checkpoint",
    "verify_stored_sha1",
]

_CHUNK = 4 << 20


def file_problem(pfs: PIOFS, name: str, expected_bytes: Optional[int]) -> Optional[str]:
    """Why a component file is unusable before a byte of it is read —
    missing, or not ``expected_bytes`` long (None: unchecked) — or None."""
    if not pfs.exists(name):
        return f"missing file {name!r}"
    size = pfs.file_size(name)
    if expected_bytes is not None and size != expected_bytes:
        return f"file {name!r} is {size} bytes; manifest records {expected_bytes}"
    return None


def verify_stored_sha1(
    pfs: PIOFS,
    name: str,
    sha1: Optional[str],
    nbytes: Optional[int],
    head: Optional[bytes] = None,
) -> int:
    """Check the first ``nbytes`` stored bytes of ``name`` against the
    recorded ``sha1`` digest.

    Skips silently (returns 0) when the manifest recorded no digest —
    pre-v3 states and virtual files.  ``head``, when given, is data the
    caller already read from offset 0 (a restart's header read), reused
    to avoid a second pass.  Raises
    :class:`~repro.errors.CheckpointIntegrityError` if the file is
    shorter than ``nbytes`` (torn/short write) or hashes differently
    (corruption).  Returns the number of bytes hashed.
    """
    if not sha1 or not nbytes:
        return 0
    size = pfs.file_size(name)
    if size < nbytes:
        raise CheckpointIntegrityError(
            f"file {name!r} is {size} bytes; checksum covers {nbytes} "
            "(torn or short write)"
        )
    if head is not None and len(head) >= nbytes:
        digest = sha1_hex(head[:nbytes])
    else:
        h = hashlib.sha1()
        pos = 0
        while pos < nbytes:
            chunk = pfs.read_at(name, pos, min(_CHUNK, nbytes - pos))
            h.update(chunk)
            pos += len(chunk)
        digest = h.hexdigest()
    if digest != sha1:
        raise CheckpointIntegrityError(
            f"file {name!r} checksum mismatch: stored bytes hash to "
            f"{digest}, manifest records {sha1}"
        )
    return int(nbytes)


@dataclass
class ValidationReport:
    """Outcome of auditing one checkpointed state."""

    prefix: str
    errors: List[str] = field(default_factory=list)
    files: int = 0
    bytes_hashed: int = 0

    @property
    def ok(self) -> bool:
        """True when every component verified."""
        return not self.errors

    def __bool__(self) -> bool:
        return self.ok


def _check_file(
    pfs: PIOFS,
    report: ValidationReport,
    name: str,
    expected_bytes: Optional[int],
    sha1: Optional[str],
    sha_bytes: Optional[int],
) -> None:
    """Audit one component file into ``report`` (never raises)."""
    problem = file_problem(pfs, name, expected_bytes)
    if problem is not None:
        report.errors.append(problem)
        return
    report.files += 1
    try:
        report.bytes_hashed += verify_stored_sha1(pfs, name, sha1, sha_bytes)
    except (CheckpointIntegrityError, PFSError) as exc:
        report.errors.append(str(exc))


def validate_checkpoint(
    pfs: PIOFS, prefix: str, _seen: Optional[Set[str]] = None
) -> ValidationReport:
    """Audit the complete checkpointed state under ``prefix``.

    Every component file is checked for presence, manifest-recorded
    size, and (v3 states) SHA-1 digest; incremental chains recurse into
    their base and deltas.  All problems are *collected* — the returned
    :class:`ValidationReport` lists them in ``errors`` and is truthy
    exactly when the state is sound — so callers can rank candidate
    states rather than stop at the first bad one.
    """
    if _seen is None:
        # Top-level audit: one span covering the whole walk (chain
        # recursion folds into it rather than nesting per member).
        obs = get_tracer()
        with obs.span("validate", prefix=prefix) as sp:
            report = validate_checkpoint(pfs, prefix, _seen=set())
            sp.set(
                files=report.files,
                bytes_hashed=report.bytes_hashed,
                ok=report.ok,
            )
        m = obs.metrics
        m.counter("validate.count").inc()
        m.counter("validate.files").inc(report.files)
        m.counter("validate.bytes_hashed").inc(report.bytes_hashed)
        if not report.ok:
            m.counter("validate.failed").inc()
        return report
    report = ValidationReport(prefix=prefix)
    seen = _seen
    if prefix in seen:
        report.errors.append(f"checkpoint chain cycles back to {prefix!r}")
        return report
    seen.add(prefix)
    try:
        manifest = read_manifest(pfs, prefix)
    except CheckpointError as exc:
        report.errors.append(str(exc))
        return report
    report.files += 1
    kind = manifest.get("kind")
    if kind in ("drms", "drms-delta"):
        # a delta's segment digest covers the whole (unpadded) file
        _check_file(
            pfs, report, manifest["segment_file"], manifest.get("segment_bytes"),
            manifest.get("segment_sha1"),
            manifest.get("segment_sha1_bytes" if kind == "drms" else "segment_bytes"),
        )
        for spec in manifest["arrays"]:
            _check_file(
                pfs, report, spec["file"], spec.get("nbytes"),
                None if spec.get("virtual") else spec.get("sha1"),
                spec.get("nbytes"),
            )
    elif kind == "spmd":
        sizes = manifest.get("segment_bytes") or []
        shas = manifest.get("task_sha1") or []
        sha_bytes = manifest.get("task_sha1_bytes") or []
        for i, fname in enumerate(manifest["task_files"]):
            _check_file(
                pfs,
                report,
                fname,
                sizes[i] if i < len(sizes) else None,
                shas[i] if i < len(shas) else None,
                sha_bytes[i] if i < len(sha_bytes) else None,
            )
    elif kind == "drms-chain":
        for sub in [manifest["base"], *manifest["deltas"]]:
            inner = validate_checkpoint(pfs, sub, _seen=seen)
            report.errors.extend(inner.errors)
            report.files += inner.files
            report.bytes_hashed += inner.bytes_hashed
    else:
        report.errors.append(f"unknown checkpoint kind {kind!r}")
    return report


def verify_checkpoint(pfs: PIOFS, prefix: str) -> ValidationReport:
    """Raising form of :func:`validate_checkpoint`: returns the report
    when the state is sound, raises
    :class:`~repro.errors.CheckpointIntegrityError` listing every
    problem otherwise."""
    report = validate_checkpoint(pfs, prefix)
    if not report.ok:
        raise CheckpointIntegrityError(
            f"checkpoint {prefix!r} failed validation: "
            + "; ".join(report.errors)
        )
    return report
