"""The recovery's read and hash budget, in passes per stored byte, held
so it cannot creep back.

The memory tier: a byte is hashed when it is captured (piece digest +
the v3 stream digest: 2) and when it is handed to someone — the drain
(1), a restore (1), a new replica (1 per piece re-replicated) — and
never to answer a question about a replica.  A recovery: a generation
is chosen by opening it, so the walk and the restore are one pass — a
PFS recovery reads every stored byte once and hashes it once, a memory
recovery hashes it once, and a rejected newer generation costs at most
its own bytes once more.

The rulers are the ones ``benchmarks/e2e/layers.py`` uses for
``checkpoint.sha1_bytes`` and ``pfs.read_bytes``: ``sha1_hex`` wrapped
in every loaded ``repro.*`` module that holds it, ``PIOFS.read_at``
wrapped on its class.  ``mlck.l1.verified.bytes`` is the memory tier's
number published from inside."""

import sys

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.checkpoint.drms import drms_checkpoint
from repro.checkpoint.format import array_name, manifest_name, segment_name, sha1_hex
from repro.checkpoint.recover import restart_latest_valid
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.mlck.drain import DrainController, DrainState
from repro.mlck.localized import localized_restart, rereplicate_after_failure
from repro.mlck.store import L1Store
from repro.obs import Tracer, use_tracer
from repro.pfs.faults import flip_stored_bit
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams

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


@pytest.fixture
def reads(monkeypatch):
    """Bytes ``PIOFS.read_at`` returned, read as deltas by ``take()``."""

    class Reads:
        total = 0
        seen = 0

        def take(self):
            delta, self.seen = self.total - self.seen, self.total
            return delta

    r = Reads()
    real = PIOFS.read_at

    def spy(self, name, offset, nbytes, client=0):
        out = real(self, name, offset, nbytes, client=client)
        r.total += len(out)
        return out

    monkeypatch.setattr(PIOFS, "read_at", spy)
    return r


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


@pytest.mark.mlck
@pytest.mark.localized
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


@pytest.mark.mlck
@pytest.mark.localized
def test_repair_follows_the_lost_fraction(meter):
    """Every rank rolls back, so the reload is the whole state by
    construction; what scales with the loss is the repair."""
    of_eight, stored = _repair_bytes(meter, 8)
    of_four, _ = _repair_bytes(meter, 4)
    assert of_eight <= 0.6 * of_four
    assert of_four < stored  # nowhere near (1 + k) x resident


# -- a recovery: the walk opens, so walk + restore is one pass ------------------


def _pfs_generations(count):
    """``count`` PFS generations of the same state on NTASKS tasks, and
    what one of them is: (stored, header, segment file, manifest) bytes."""
    pfs = PIOFS(machine=Machine(MachineParams(num_nodes=8)))
    segment, arrays, stored = _state()
    for g in range(1, count + 1):
        drms_checkpoint(pfs, f"ck.{g:06d}", segment, arrays)
    return pfs, (
        stored,
        len(segment.serialize()[0]),
        pfs.file_size(segment_name(PREFIX)),
        pfs.file_size(manifest_name(PREFIX)),
    )


@pytest.mark.crash_consistency
def test_a_pfs_recovery_reads_and_hashes_each_stored_byte_once(meter, reads):
    pfs, (stored, header, segment_file, manifest) = _pfs_generations(1)
    meter.take()
    reads.take()
    state, _, decision = restart_latest_valid(pfs, "ck", 3)
    assert (decision.prefix, state.ntasks) == (PREFIX, 3)
    # the manifest, the segment, every array byte: once each
    assert reads.take() == stored + segment_file + manifest
    # the segment header as it is read, each stream-in buffer: once each
    wrapped, _ = meter.take()
    assert wrapped == stored + header


@pytest.mark.crash_consistency
def test_a_rejected_newest_generation_costs_its_own_bytes_once(meter, reads):
    pfs, (stored, header, segment_file, manifest) = _pfs_generations(2)
    one_read, one_hash = stored + segment_file + manifest, stored + header
    flip_stored_bit(pfs, array_name("ck.000002", "v"), 1000)
    meter.take()
    reads.take()
    state, _, decision = restart_latest_valid(pfs, "ck", 3)
    assert decision.prefix == PREFIX
    assert [p for p, _ in decision.rejected] == ["ck.000002"]
    assert one_read < reads.take() <= 2 * one_read
    wrapped, _ = meter.take()
    assert one_hash < wrapped <= 2 * one_hash


@pytest.mark.crash_consistency
@pytest.mark.mlck
def test_a_tiered_recovery_from_memory_hashes_each_stored_byte_once(meter, reads):
    machine = Machine(MachineParams(num_nodes=8))
    pfs = PIOFS(machine=machine)
    store = L1Store(machine, k=1)
    segment, arrays, stored = _state()
    header = len(segment.serialize()[0])
    store.capture_drms(PREFIX, segment, arrays, nodes=range(NTASKS))
    DrainController(store, pfs, synchronous=True).schedule(PREFIX)
    meter.take()
    reads.take()
    # the tiered walk opens the L1 candidate: liveness, then the one
    # verifying fetch — no audit pass before it, no PFS byte read
    state, bd, decision = restart_latest_valid(pfs, "ck", 3, l1=store)
    assert (decision.prefix, decision.tier, bd.kind) == (PREFIX, "l1", "mlck-l1")
    wrapped, published = meter.take()
    assert wrapped == published == stored + header
    assert reads.take() == 0
