"""Rotating checkpoint prefixes: multiple concurrent states, safely.

The paper (Section 3): "A different prefix can be used each time,
allowing the application to maintain multiple checkpointed states
concurrently ... If multiple checkpointed states are available, the
application can be restarted from any of them."

Beyond flexibility, rotation is a *correctness* requirement: a failure
striking mid-checkpoint must not destroy the only good state, so a new
checkpoint must never overwrite its predecessor in place.
:class:`CheckpointRotation` hands out monotonically numbered prefixes
(``base.000001``, ``base.000002``, ...), identifies the newest *complete*
state (a manifest is written last, so its presence marks completion),
and prunes states beyond a retention budget.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.checkpoint.archive import delete_checkpoint
from repro.checkpoint.format import manifest_name, read_manifest
from repro.errors import CheckpointError
from repro.pfs.piofs import PIOFS

__all__ = [
    "CheckpointRotation",
    "committed_prefixes",
    "generation_name",
    "generations",
    "latest_checkpoint",
    "newest_generation",
    "parse_generation",
]

_GEN_RE = re.compile(r"^(?P<base>.+)\.(?P<gen>\d{6})$")


def generation_name(base: str, gen: int) -> str:
    """The prefix of rotation generation ``gen`` under ``base``:
    ``base.NNNNNN``."""
    return f"{base}.{gen:06d}"


def parse_generation(prefix: str, base: Optional[str] = None) -> Optional[int]:
    """The generation number of a rotation prefix ``base.NNNNNN``; None
    when ``prefix`` is not one — or, given ``base``, not one under it."""
    m = _GEN_RE.match(prefix)
    if m is None or base is not None and m.group("base") != base:
        return None
    return int(m.group("gen"))


def newest_generation(pfs: PIOFS, base: str) -> int:
    """The newest generation number any file under ``base`` names,
    complete or not (a generation's files are ``<prefix>`` and
    ``<prefix>.<kind>``); 0 when none does."""
    newest = 0
    cut = len(generation_name(base, 0))
    for name in pfs.listdir(base + "."):
        gen = parse_generation(name[:cut], base)
        if gen is not None and name[cut:cut + 1] in ("", "."):
            newest = max(newest, gen)
    return newest


def committed_prefixes(pfs: PIOFS, base: str) -> List[str]:
    """Rotation prefixes under ``base`` with a manifest under its final
    name, from *names* alone — nothing is read.  Sound because the
    manifest two-phase commit renames ``.manifest.tmp`` to ``.manifest``
    only after read-back validation: a listed name is a committed
    manifest."""
    suffix = ".manifest"
    out = []
    for name in pfs.listdir(base + "."):
        if not name.endswith(suffix):
            continue
        prefix = name[: -len(suffix)]
        if parse_generation(prefix, base) is not None:
            out.append(prefix)
    return out


def generations(pfs: PIOFS, base: str) -> List[str]:
    """Complete checkpoint prefixes under ``base``, oldest first.  Only
    states with a readable manifest count (the manifest is written last,
    so a half-written state is invisible here)."""
    out = []
    for prefix in committed_prefixes(pfs, base):
        try:
            read_manifest(pfs, prefix)
        except CheckpointError:
            continue
        out.append(prefix)
    return sorted(out, key=lambda p: parse_generation(p, base))


def latest_checkpoint(pfs: PIOFS, base: str) -> Optional[str]:
    """The newest complete state under ``base`` (None when none exist)."""
    gens = generations(pfs, base)
    return gens[-1] if gens else None


class CheckpointRotation:
    """Prefix allocator + retention policy for one application."""

    def __init__(self, pfs: PIOFS, base: str, keep: int = 2):
        if keep < 1:
            raise CheckpointError("retention must keep at least one state")
        if parse_generation(base) is not None:
            raise CheckpointError(
                f"base prefix {base!r} already looks like a generation"
            )
        self.pfs = pfs
        self.base = base
        self.keep = keep
        #: generations an in-flight drain still depends on; prune()
        #: never deletes these (see repro.mlck.drain)
        self._pinned: set = set()

    def pin(self, prefix: str) -> None:
        """Protect ``prefix`` from pruning until :meth:`unpin`.  An
        asynchronous L1->L2 drain pins the newest durable generation
        while it runs: until the draining generation commits, that state
        is the only durable fallback and must survive retention."""
        self._pinned.add(prefix)

    def unpin(self, prefix: str) -> None:
        """Release a :meth:`pin`; unknown prefixes are ignored."""
        self._pinned.discard(prefix)

    @property
    def pinned(self) -> frozenset:
        return frozenset(self._pinned)

    def next_prefix(self) -> str:
        """A fresh prefix, strictly newer than every existing state —
        including incomplete ones, whose numbers must not be reused."""
        return generation_name(self.base, newest_generation(self.pfs, self.base) + 1)

    def latest(self) -> Optional[str]:
        """Newest complete state (what a restart should use)."""
        return latest_checkpoint(self.pfs, self.base)

    def prune(self) -> List[str]:
        """Delete complete states beyond the retention budget (oldest
        first); never touches the newest ones, nor any generation pinned
        by an in-flight drain (a pinned state is the newest durable
        fallback until the draining generation supersedes it).  Returns
        what was deleted."""
        gens = generations(self.pfs, self.base)
        doomed = [
            p
            for p in gens[: max(0, len(gens) - self.keep)]
            if p not in self._pinned
        ]
        for prefix in doomed:
            delete_checkpoint(self.pfs, prefix)
        return doomed

    def commit(self, prefix: str) -> List[str]:
        """Called after a checkpoint completes under ``prefix``: applies
        retention and returns the pruned prefixes."""
        if latest_checkpoint(self.pfs, self.base) != prefix:
            raise CheckpointError(
                f"{prefix!r} is not the newest complete state under "
                f"{self.base!r}; refusing to prune"
            )
        return self.prune()
