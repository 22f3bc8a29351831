"""The memory tier's hash budget, in passes per stored byte, held so it
cannot creep back: a byte is hashed when it is captured (piece digest +
the v3 stream digest: 2) and when it is handed to someone — the drain
(1), a restore (1), a new replica (1 per piece re-replicated) — and
never to answer a question about a replica.

The ruler is the one ``benchmarks/e2e/layers.py`` uses for
``checkpoint.sha1_bytes``: ``sha1_hex`` wrapped in every loaded
``repro.*`` module that holds it.  ``mlck.l1.verified.bytes`` is the
same number published from inside."""

import sys

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.checkpoint.format import sha1_hex
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.mlck.drain import DrainController, DrainState
from repro.mlck.localized import localized_restart, rereplicate_after_failure
from repro.mlck.store import L1Store
from repro.obs import Tracer, use_tracer
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams

pytestmark = [pytest.mark.mlck, pytest.mark.localized]

PREFIX = "ck.000001"
NTASKS = 4
#: what a drain hashes beside the stored bytes: the segment header
#: (twice) and nothing else — far below one piece
SMALL = 4096


class _Meter:
    """Bytes through the wrapped ``sha1_hex`` and through the tier's own
    counter, read as deltas."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.wrapped = 0
        self._seen = (0, 0)

    def take(self):
        """(wrapped bytes, ``mlck.l1.verified.bytes``) since the last take."""
        now = (
            self.wrapped,
            self.tracer.metrics.flat().get("mlck.l1.verified.bytes", 0),
        )
        delta = (now[0] - self._seen[0], now[1] - self._seen[1])
        self._seen = now
        return delta


@pytest.fixture
def meter(monkeypatch):
    with use_tracer(Tracer()) as tracer:
        m = _Meter(tracer)

        def spy(data, _fn=sha1_hex):
            m.wrapped += len(data)
            return _fn(data)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro."):
                for attr, held in list(vars(module).items()):
                    if held is sha1_hex:
                        monkeypatch.setattr(module, attr, spy)
        yield m


def _state(ntasks=NTASKS):
    """Two 512x512 float64 BLOCK arrays (2 MiB each) and a segment."""
    rng = np.random.default_rng(20)
    arrays = []
    for name in ("u", "v"):
        a = DistributedArray(
            name, (512, 512), np.float64, block_distribution((512, 512), ntasks)
        )
        a.set_global(rng.random((512, 512)))
        arrays.append(a)
    segment = DataSegment(profile=SegmentProfile(1000, 200, 0), replicated={"it": 3})
    return segment, arrays, sum(a.nbytes_global for a in arrays)


def _lose(machine, store, node):
    machine.fail_node(node)
    store.drop_node(node)


def test_passes_per_stored_byte(meter):
    machine = Machine(MachineParams(num_nodes=8))
    pfs = PIOFS(machine=machine)
    store = L1Store(machine, k=1)
    segment, arrays, stored = _state()
    header = len(segment.serialize()[0])

    # capture: one pass for the piece digests, one for the stream digest
    store.capture_drms(PREFIX, segment, arrays, nodes=range(NTASKS))
    wrapped, published = meter.take()
    assert wrapped == published == 2 * (stored + header)

    # the sync drain replays the stored streams: each piece verified as
    # it is fetched, the capture-time digest reused, nothing re-gathered
    DrainController(store, pfs, synchronous=True).schedule(PREFIX)
    assert store.gen(PREFIX).drain_state == DrainState.DURABLE
    wrapped, published = meter.take()
    assert published == stored + header
    assert stored <= wrapped <= stored + SMALL

    # a full restart from memory: the verifying fetch, and that is all
    store.restore_drms(PREFIX, ntasks=3)
    wrapped, published = meter.take()
    assert wrapped == published == stored + header

    # localized: the same fetch, plus the source of every piece that
    # gets a new replica — the degraded fraction, not the resident state
    lost, spare = 1, 5
    _lose(machine, store, lost)
    localized_restart(
        pfs, PREFIX, NTASKS, {r: r for r in range(NTASKS)}, [lost],
        replacements={lost: spare}, l1=store,
    )
    wrapped, published = meter.take()
    repaired = meter.tracer.metrics.flat()["mlck.localized.rereplicate.bytes"]
    assert 0 < repaired < stored
    assert wrapped == published == stored + header + repaired


def _repair_bytes(meter, num_nodes):
    """Bytes hashed by the repair after one of ``num_nodes`` nodes —
    all of which hold pieces — is lost."""
    machine = Machine(MachineParams(num_nodes=num_nodes))
    store = L1Store(machine, k=1, target_bytes=64 << 10)
    segment, arrays, stored = _state()
    gen, _ = store.capture_drms(PREFIX, segment, arrays)
    assert sum(len(e.pieces) for e in gen.arrays) >= 32
    _lose(machine, store, 1)
    meter.take()
    repair = rereplicate_after_failure(store, [1])
    wrapped, published = meter.take()
    assert wrapped == published == repair.nbytes > 0
    return wrapped, stored


def test_repair_follows_the_lost_fraction(meter):
    """Every rank rolls back, so the reload is the whole state by
    construction; what scales with the loss is the repair."""
    of_eight, stored = _repair_bytes(meter, 8)
    of_four, _ = _repair_bytes(meter, 4)
    assert of_eight <= 0.6 * of_four
    assert of_four < stored  # nowhere near (1 + k) x resident
