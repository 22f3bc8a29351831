"""A warm parstream's plan budget, held so it cannot creep back.

Once an array's geometry is cached, a bulk stream-out of the whole
array makes one plan-cache lookup (kind ``"parstream"``) and no
redistribution accounting: the runs and their bytes are in the entry.
A stream-in makes the same lookup plus the scatter's own ``"mapped"``
index plan, which the schedule deliberately does not hold.

The rulers: ``PlanCache.get_or_compute`` wrapped on its class, and
``range_redistribution_bytes`` wrapped in every loaded ``repro.*``
module that holds it.
"""

import sys

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.plancache import PlanCache, use_plan_cache
from repro.streaming.parallel import stream_in_parallel, stream_out_parallel
from repro.streaming.streams import MemorySink, MemorySource
from repro.streaming.vectorized import range_redistribution_bytes

SHAPE = (64, 64)
TARGET = 4096  # eight pieces per array


@pytest.fixture
def lookups(monkeypatch):
    """``(kind, coverage)`` of every plan-cache lookup; ``coverage`` is
    an index plan's ``"assigned"`` / ``"mapped"``, None otherwise."""
    seen = []
    real = PlanCache.get_or_compute

    def spy(self, kind, key, compute):
        seen.append((kind, key[-1] if kind == "indexplan" else None))
        return real(self, kind, key, compute)

    monkeypatch.setattr(PlanCache, "get_or_compute", spy)
    return seen


@pytest.fixture
def accounting(monkeypatch):
    """Every ``range_redistribution_bytes`` call."""
    calls = []

    def spy(*args, _fn=range_redistribution_bytes):
        calls.append(args)
        return _fn(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro."):
            for attr, held in list(vars(module).items()):
                if held is range_redistribution_bytes:
                    monkeypatch.setattr(module, attr, spy)
    return calls


def _array(ntasks):
    dist = block_distribution(SHAPE, ntasks, shadow=(1, 1))
    a = DistributedArray("a", SHAPE, np.float64, dist)
    a.set_global(np.arange(float(np.prod(SHAPE))).reshape(SHAPE))
    return a


def _out(cache, a):
    with use_plan_cache(cache):
        return stream_out_parallel(a, MemorySink(), target_bytes=TARGET)


def _in(cache, a, stream):
    with use_plan_cache(cache):
        return stream_in_parallel(a, MemorySource(stream), target_bytes=TARGET)


def test_a_warm_stream_out_is_one_lookup(lookups, accounting):
    # arrays are built before the measured window: set_global is a
    # scatter, with its own "mapped" plan lookup
    a, b = _array(4), _array(4)
    cache = PlanCache()
    cold = _out(cache, a)
    assert cold.pieces == 8 and cold.redistribution_bytes > 0
    lookups.clear()
    accounting.clear()
    assert _out(cache, b) == cold
    assert lookups == [("parstream", None)]
    assert accounting == []


def test_a_warm_stream_in_is_one_lookup_and_its_scatter(lookups, accounting):
    sink = MemorySink()
    stream_out_parallel(_array(4), sink, target_bytes=TARGET)
    a, b = _array(3), _array(3)
    cache = PlanCache()
    cold = _in(cache, a, sink.getvalue())
    assert cold.redistribution_bytes > 0
    lookups.clear()
    accounting.clear()
    assert _in(cache, b, sink.getvalue()) == cold
    assert lookups == [("parstream", None), ("indexplan", "mapped")]
    assert accounting == []

