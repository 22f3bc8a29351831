"""Shared fixtures."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.obs import Tracer, use_tracer
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from repro.streaming import parallel


@pytest.fixture
def machine16():
    return Machine(MachineParams(num_nodes=16))


@pytest.fixture
def machine8():
    return Machine(MachineParams(num_nodes=8))


@pytest.fixture
def pfs(machine16):
    return PIOFS(machine=machine16)


@pytest.fixture
def rng():
    return np.random.default_rng(20260707)


@pytest.fixture
def on_path():
    """``with on_path(path):`` runs its block on parstream path
    ``path``: "bulk", the path every data array takes, or "per-piece",
    forced on data arrays through its one seam, ``parallel._is_bulk``."""

    @contextmanager
    def enter(path):
        with pytest.MonkeyPatch.context() as mp:
            if path == "per-piece":
                mp.setattr(parallel, "_is_bulk", lambda darray, jobs: False)
            yield

    return enter


@pytest.fixture
def bulk_only():
    """Run the test under a :class:`Tracer`; every parstream span it
    records must then report the bulk path (use it where every array
    streamed is a data array)."""
    with use_tracer(Tracer()) as tracer:
        yield tracer
    paths = [
        s.attrs["path"]
        for s in tracer.spans
        if s.name in ("stream.out.parallel", "stream.in.parallel")
    ]
    assert paths and set(paths) == {"bulk"}, paths
