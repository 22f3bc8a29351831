"""Host-directory-backed PIOFS: durable checkpoints.

:class:`HostFS` keeps the full PIOFS interface (namespace, phases, the
calibrated timing model) but stores file contents in a real directory,
so checkpointed states survive the Python process — a second process
(or a later session) can open the same directory and perform a
reconfigured restart.  Sparse spans use real OS sparse files
(seek + truncate); virtual files keep only their size, in a sidecar
metadata file.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Optional

from repro.errors import PFSError
from repro.obs import get_tracer
from repro.pfs.file import PFSFile
from repro.pfs.params import PIOFSParams
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine

__all__ = ["HostFile", "HostFS"]

_META = "__piofs_meta__.json"


class HostFile(PFSFile):
    """A striped logical file stored at a real path."""

    def __init__(self, name: str, num_servers: int, stripe_kb: int,
                 virtual: bool, path: pathlib.Path, size: int = 0):
        if os.sep in name or (os.altsep and os.altsep in name):
            raise PFSError(f"file name {name!r} may not contain path separators")
        self.name = name
        self.num_servers = num_servers
        self.stripe_bytes = int(stripe_kb) * 1024
        if self.stripe_bytes < 1:
            raise PFSError("stripe size must be positive")
        self.virtual = bool(virtual)
        self._data = None  # contents live on disk, not in memory
        self._path = path
        if self.virtual:
            self._size = int(size)
        else:
            self._size = path.stat().st_size if path.exists() else 0
            if not path.exists():
                path.touch()

    @property
    def size(self) -> int:
        return self._size

    @property
    def stored_bytes(self) -> int:
        # on-disk files cannot distinguish sparse tails portably
        return 0 if self.virtual else self._size

    def _store(self, offset: int, data: memoryview) -> None:
        with open(self._path, "r+b") as fh:
            fh.seek(offset)
            fh.write(data)

    def _grow_sparse(self, end: int) -> None:
        if end > self._size:
            with open(self._path, "r+b") as fh:
                fh.truncate(end)  # OS sparse extension

    def flip_bit(self, offset: int, bit: int = 0) -> None:
        """Flip one bit of the on-disk file (fault-injection support)."""
        if self.virtual:
            raise PFSError(f"file {self.name!r} is virtual; nothing stored to corrupt")
        if not 0 <= offset < self._size:
            raise PFSError(
                f"offset {offset} outside file {self.name!r} of size {self._size}"
            )
        with open(self._path, "r+b") as fh:
            fh.seek(offset)
            b = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([(b[0] if b else 0) ^ (1 << (bit & 7))]))

    def read_at(self, offset: int, nbytes: int) -> bytes:
        """Read from the on-disk file; sparse tails read as zeros."""
        if self.virtual:
            raise PFSError(f"file {self.name!r} is virtual; no data to read")
        if offset < 0 or offset + nbytes > self._size:
            raise PFSError(
                f"read [{offset}, {offset + nbytes}) outside file "
                f"{self.name!r} of size {self._size}"
            )
        with open(self._path, "rb") as fh:
            fh.seek(offset)
            out = fh.read(nbytes)
        if len(out) < nbytes:  # sparse tail past EOF-of-content
            out += b"\x00" * (nbytes - len(out))
        return out


class HostFS(PIOFS):
    """PIOFS persisted in ``root`` on the host file system."""

    def __init__(
        self,
        root,
        machine: Optional[Machine] = None,
        params: Optional[PIOFSParams] = None,
    ):
        super().__init__(machine=machine, params=params)
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._load_namespace()

    # -- persistence -----------------------------------------------------------

    def _meta_path(self) -> pathlib.Path:
        return self.root / _META

    def _save_meta(self) -> None:
        meta = {
            name: {"virtual": f.virtual, "size": f.size}
            for name, f in self._files.items()
            if f.virtual
        }
        self._meta_path().write_text(json.dumps(meta, sort_keys=True))

    def _load_namespace(self) -> None:
        meta = {}
        if self._meta_path().exists():
            meta = json.loads(self._meta_path().read_text())
        for name, info in meta.items():
            self._files[name] = HostFile(
                name, self.params.num_servers, self.params.stripe_kb,
                virtual=True, path=self.root / name, size=info["size"],
            )
        for path in self.root.iterdir():
            if path.name == _META or path.name in self._files:
                continue
            self._files[path.name] = HostFile(
                path.name, self.params.num_servers, self.params.stripe_kb,
                virtual=False, path=path,
            )

    # -- namespace overrides ------------------------------------------------------

    def create(self, name: str, virtual: bool = False, overwrite: bool = True):
        """Create/replace a file under the root directory."""
        with self._lock:
            if name in self._files and not overwrite:
                raise PFSError(f"file exists: {name!r}")
            path = self.root / name
            if path.exists():
                path.unlink()
            f = HostFile(
                name, self.params.num_servers, self.params.stripe_kb,
                virtual=virtual, path=path,
            )
            self._files[name] = f
        get_tracer().metrics.counter("pfs.create.count").inc()
        if virtual:
            self._save_meta()
        return f

    def unlink(self, name: str) -> None:
        """Remove the file from the namespace and the disk."""
        with self._lock:
            if name not in self._files:
                raise PFSError(f"no such file: {name!r}")
            f = self._files.pop(name)
        path = self.root / name
        if path.exists():
            path.unlink()
        get_tracer().metrics.counter("pfs.unlink.count").inc()
        if f.virtual:
            self._save_meta()

    def rename(self, old: str, new: str) -> None:
        """Atomic rename via ``os.replace`` plus namespace update."""
        with self._lock:
            f = self._files.get(old)
            if f is None:
                raise PFSError(f"no such file: {old!r}")
            newpath = self.root / new
            if not f.virtual:
                os.replace(f._path, newpath)
            elif newpath.exists():
                newpath.unlink()
            f._path = newpath
            del self._files[old]
            f.name = new
            self._files[new] = f
        get_tracer().metrics.counter("pfs.rename.count").inc()
        self._save_meta()

    def write_at(self, name, offset, data, nbytes=None, client=0):
        n = super().write_at(name, offset, data, nbytes=nbytes, client=client)
        if self._files[name].virtual:
            self._save_meta()
        return n
