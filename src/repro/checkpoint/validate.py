"""Checkpoint integrity validation: the audit.

A crash — or a silently misbehaving I/O path — can leave a checkpointed
state whose manifest committed but whose data files are torn, short, or
bit-flipped.  The manifest's version-4 digests (taken over the
*intended* bytes at write time: the plain SHA-1 of a segment header,
the span digest of an array's stream) make such states detectable:

* :func:`file_problem` — one file missing or not its recorded size, no
  data read (a PFS restore's first check, too);
* :func:`recorded_digests` — what a DRMS manifest says each stored
  stream hashes to; a data-bearing entry without its digest is a
  corrupt manifest;
* :func:`verify_stored_sha1` checks one stored file (or the ``head`` a
  restore just read of it) against its recorded digest, raising
  :class:`~repro.errors.CheckpointIntegrityError` on a truncation or
  mismatch;
* :func:`validate_checkpoint` audits a complete state (either
  checkpoint kind; an incremental delta with its ``base`` chain) and
  returns a :class:`ValidationReport` instead of raising, so the
  decision-only walk, the workflow line check and the tools can rank
  candidates;
* :func:`verify_checkpoint` is the raising form of the audit.

A DRMS restart does not audit: it verifies the bytes it delivers as it
reads them (:mod:`repro.checkpoint.recover`).  Validation reads are
untimed (no I/O phase is opened): they model an out-of-band scrub.
Only the current format version is read
(:func:`~repro.checkpoint.format.read_manifest`), and it records a
digest for every stored byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.checkpoint.format import read_manifest, sha1_hex
from repro.errors import CheckpointError, CheckpointIntegrityError, PFSError
from repro.obs import get_tracer
from repro.pfs.piofs import PIOFS
from repro.streaming.order import stream_sha1

__all__ = [
    "ValidationReport",
    "file_problem",
    "recorded_digests",
    "validate_checkpoint",
    "verify_checkpoint",
    "verify_stored_sha1",
]


def file_problem(pfs: PIOFS, name: str, expected_bytes: Optional[int]) -> Optional[str]:
    """Why a component file is unusable before a byte of it is read —
    missing, or not ``expected_bytes`` long (None: unchecked) — or None."""
    if not pfs.exists(name):
        return f"missing file {name!r}"
    size = pfs.file_size(name)
    if expected_bytes is not None and size != expected_bytes:
        return f"file {name!r} is {size} bytes; manifest records {expected_bytes}"
    return None


def recorded_digests(manifest: Dict) -> Dict[str, Tuple[str, int, Optional[int]]]:
    """What a DRMS manifest says each stored stream hashes to: file ->
    ``(sha1, nbytes, span_bytes)``, the arguments of
    :func:`verify_stored_sha1` — the segment header's plain SHA-1
    (``span_bytes`` None) and each data-bearing array's stream digest.
    A virtual array stores nothing and has no entry.  A stored stream
    whose digest or span size is missing makes the manifest corrupt:
    raises :class:`~repro.errors.CheckpointIntegrityError`, so nothing
    is trusted unverified."""
    out = {}
    seg_sha1, seg_bytes = manifest.get("segment_sha1"), manifest.get("segment_sha1_bytes")
    if not seg_sha1 or seg_bytes is None:
        raise CheckpointIntegrityError(
            f"corrupt manifest: segment {manifest.get('segment_file')!r} "
            "records no digest"
        )
    out[manifest["segment_file"]] = (seg_sha1, seg_bytes, None)
    for spec in manifest["arrays"]:
        if spec.get("virtual"):
            continue
        sha1, span = spec.get("sha1"), spec.get("span_bytes")
        if not sha1 or not span:
            raise CheckpointIntegrityError(
                f"corrupt manifest: array {spec.get('name')!r} records no "
                "stream digest and span size"
            )
        out[spec["file"]] = (sha1, spec["nbytes"], span)
    return out


def verify_stored_sha1(
    pfs: PIOFS,
    name: str,
    sha1: Optional[str],
    nbytes: Optional[int],
    span_bytes: Optional[int] = None,
    head: Optional[bytes] = None,
) -> int:
    """Check the first ``nbytes`` stored bytes of ``name`` against the
    recorded ``sha1``: the stream digest over ``span_bytes`` spans
    (:func:`~repro.streaming.order.stream_sha1`) of an array file, the
    plain SHA-1 (:func:`~repro.checkpoint.format.sha1_hex`) of anything
    else — a segment header, an SPMD task file.

    Returns 0 when there is nothing to check: no digest (a virtual
    file) or no bytes.  ``head``, when given, is data the caller
    already read from offset 0 (a restart's header read), reused to
    avoid a second pass.  Raises
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
        data = head[:nbytes]
    else:
        data = pfs.read_at(name, 0, nbytes)
    digest = sha1_hex(data) if span_bytes is None else stream_sha1(data, span_bytes)[0]
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
    span_bytes: Optional[int] = None,
) -> None:
    """Audit one component file into ``report`` (never raises)."""
    problem = file_problem(pfs, name, expected_bytes)
    if problem is not None:
        report.errors.append(problem)
        return
    report.files += 1
    try:
        report.bytes_hashed += verify_stored_sha1(
            pfs, name, sha1, sha_bytes, span_bytes
        )
    except (CheckpointIntegrityError, PFSError) as exc:
        report.errors.append(str(exc))


def validate_checkpoint(
    pfs: PIOFS, prefix: str, _seen: Optional[Set[str]] = None
) -> ValidationReport:
    """Audit the complete checkpointed state under ``prefix``.

    Every component file is checked for presence, manifest-recorded
    size, and recorded digest; an incremental delta recurses into its
    ``base`` link.  All problems are *collected* — the returned
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
    if kind == "drms":
        try:
            digests = recorded_digests(manifest)
        except CheckpointIntegrityError as exc:
            report.errors.append(str(exc))
            digests = {}
        for name, nbytes in [
            (manifest["segment_file"], manifest.get("segment_bytes"))
        ] + [(spec["file"], spec.get("nbytes")) for spec in manifest["arrays"]]:
            _check_file(
                pfs, report, name, nbytes, *digests.get(name, (None, None, None))
            )
        if "base" in manifest:  # an incremental delta: its chain too
            inner = validate_checkpoint(pfs, manifest["base"], _seen=seen)
            report.errors.extend(inner.errors)
            report.files += inner.files
            report.bytes_hashed += inner.bytes_hashed
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
