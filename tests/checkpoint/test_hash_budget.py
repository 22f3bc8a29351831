"""The recovery's read and hash budget, in passes per stored byte, held
so it cannot creep back.

A checkpoint: a byte is hashed once when it is captured, on either
tier — the memory tier's piece digests are the span digests the
stream digest is made of.  The memory tier then hashes a byte when it
is handed to someone — the drain (1, so a sync-drained checkpoint is
2), a restore (1), a new replica (1 per piece re-replicated) — and
never to answer a question about a replica.  The audit
(``verify_stored_sha1``) hashes a stored file once, through the same
ruler.  A recovery: a generation
is chosen by opening it, so the walk and the restore are one pass — a
PFS recovery reads every stored byte once and hashes it once, a memory
recovery hashes it once, and a rejected newer generation costs at most
its own bytes once more.  A workflow restart is the same: every member
state is opened once, and the opened states are what the members run
on from.  An incremental base or delta is a capture, one
gather and one hash pass whatever its dirty fraction, and a chain
restore reads and hashes every stored byte of the chain once.

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
from repro.checkpoint.format import (
    array_name,
    manifest_name,
    read_manifest,
    segment_name,
    sha1_hex,
)
from repro.checkpoint.recover import restart_latest_valid
from repro.checkpoint.validate import verify_stored_sha1
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.drms.context import CheckpointStatus
from repro.mlck.drain import DrainController, DrainState
from repro.mlck.localized import localized_restart, rereplicate_after_failure
from repro.mlck.store import L1Store
from repro.obs import Tracer, use_tracer
from repro.pfs.faults import flip_stored_bit
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from repro.workflow import WorkflowCoordinator
from repro.workflow.manifest import workflow_manifest_name

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

    # capture: one pass yields the piece digests and the stream digest
    store.capture_drms(PREFIX, segment, arrays, nodes=range(NTASKS))
    captured, published = meter.take()
    assert captured == published == stored + header

    # the drain replays the stored streams: each piece verified as it
    # is fetched, the capture-time digest reused, nothing re-gathered
    drainer = DrainController(store, pfs)
    drainer.schedule(PREFIX)
    drainer.wait()
    assert store.gen(PREFIX).drain_state == DrainState.DURABLE
    wrapped, published = meter.take()
    assert published == stored + header
    assert stored <= wrapped <= stored + SMALL
    # so a drained checkpoint is two passes
    assert 2 * stored <= captured + wrapped <= 2 * stored + SMALL

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
    assert sum(len(gen.files[s["file"]]) for s in gen.manifest["arrays"]) >= 32
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


def test_a_pfs_checkpoint_hashes_each_stored_byte_once(meter):
    pfs = PIOFS(machine=Machine(MachineParams(num_nodes=8)))
    segment, arrays, stored = _state()
    meter.take()
    drms_checkpoint(pfs, PREFIX, segment, arrays)
    wrapped, _ = meter.take()
    assert wrapped == stored + len(segment.serialize()[0])


def test_the_audit_hashes_an_array_file_once_through_the_ruler(meter):
    pfs, (stored, *_) = _pfs_generations(1)
    spec = read_manifest(pfs, PREFIX)["arrays"][0]
    meter.take()
    hashed = verify_stored_sha1(
        pfs, spec["file"], spec["sha1"], spec["nbytes"], spec["span_bytes"]
    )
    wrapped, _ = meter.take()
    assert wrapped == hashed == spec["nbytes"] == stored // 2


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
    drainer = DrainController(store, pfs)
    drainer.schedule(PREFIX)
    drainer.wait()
    meter.take()
    reads.take()
    # the tiered walk opens the L1 candidate: liveness, then the one
    # verifying fetch — no audit pass before it, no PFS byte read
    state, bd, decision = restart_latest_valid(pfs, "ck", 3, l1=store)
    assert (decision.prefix, decision.tier, bd.kind) == (PREFIX, "l1", "mlck-l1")
    wrapped, published = meter.take()
    assert wrapped == published == stored + header
    assert reads.take() == 0


# -- a line restart: every member opened once, the line chosen by the opens -----

LINE_TASKS = {"a": 3, "b": 2}
LINE_TASKS2 = {"a": 2, "b": 3}


def _line_main(ctx, value):
    """Two 256x256 float64 arrays (512 KiB each), a checkpoint at the top
    of iterations 1 and 2; a restarted run stops at its first
    checkpoint call, so what a restart reads and hashes is its open."""
    ctx.initialize()
    d = ctx.create_distribution((256, 256))
    arrays = [
        ctx.distribute(name, d, init_global=np.full((256, 256), value + i))
        for i, name in enumerate(("u", "v"))
    ]
    for it in ctx.iterations(1, 3):
        status, _ = ctx.workflow_exchange()
        if status is CheckpointStatus.RESTARTED:
            return
        for arr in arrays:
            arr.set_assigned(arr.assigned + 1.0)


def _member_cost(pfs, prefix, upto=None):
    """(bytes read, bytes hashed) opening the PFS state ``prefix``: its
    manifest, the segment header prefix, then every array — or only
    up to and including the array ``upto``, whose digest fails."""
    m = read_manifest(pfs, prefix)
    seg = m["segment_file"]
    read = pfs.file_size(manifest_name(prefix)) + min(
        pfs.file_size(seg), DataSegment.header_prefix_bytes()
    )
    hashed = m["segment_sha1_bytes"]
    for spec in m["arrays"]:
        read += spec["nbytes"]
        hashed += spec["nbytes"]
        if spec["file"] == upto:
            break
    return read, hashed


def _line_cost(pfs, gen, upto=None):
    """:func:`_member_cost` summed over workflow line ``gen`` of
    :func:`_workflow`, its manifest included."""
    costs = [
        _member_cost(pfs, f"wf.{m}.{gen:06d}", upto) for m in sorted(LINE_TASKS)
    ]
    read = pfs.file_size(workflow_manifest_name("wf", gen))
    return read + sum(r for r, _ in costs), sum(h for _, h in costs)


def _workflow():
    machine = Machine(MachineParams(num_nodes=12))
    coord = WorkflowCoordinator("wf", machine=machine, pfs=PIOFS(machine=machine))
    for i, member in enumerate(sorted(LINE_TASKS)):
        coord.add_member(member, _line_main, args=(10.0 * i,))
    coord.run(LINE_TASKS)
    assert coord.committed_generations() == [1, 2]
    return coord


@pytest.mark.crash_consistency
@pytest.mark.workflow
def test_a_line_restart_reads_and_hashes_each_stored_byte_once(meter, reads):
    coord = _workflow()
    read, hashed = _line_cost(coord.pfs, 2)
    meter.take()
    reads.take()
    report = coord.restart_workflow(LINE_TASKS2)
    assert report.decision.generation == 2
    # the line's manifest, then per member its manifest, the segment
    # header prefix and every array byte: once each, nothing audited
    assert reads.take() == read
    wrapped, _ = meter.take()
    assert wrapped == hashed


@pytest.mark.crash_consistency
@pytest.mark.workflow
def test_a_torn_line_costs_what_opened_before_the_tear(meter, reads):
    coord = _workflow()
    older = _line_cost(coord.pfs, 1)
    # the second member's first array is torn: the first member opened
    # whole, the second up to that array, and nothing after it
    torn = array_name("wf.b.000002", "u")
    flip_stored_bit(coord.pfs, torn, 1000)
    a_read, a_hashed = _member_cost(coord.pfs, "wf.a.000002")
    b_read, b_hashed = _member_cost(coord.pfs, "wf.b.000002", upto=torn)
    line = coord.pfs.file_size(workflow_manifest_name("wf", 2))
    meter.take()
    reads.take()
    report = coord.restart_workflow(LINE_TASKS2)
    assert report.decision.generation == 1
    assert older[0] < reads.take() <= older[0] + line + a_read + b_read
    wrapped, _ = meter.take()
    assert older[1] < wrapped <= older[1] + a_hashed + b_hashed



# -- an incremental chain: a delta is a capture, a chain is one open -------------

#: 64 KiB spans over a 1 MiB array: 16 spans
SPAN = 64 << 10


@pytest.fixture
def gathers(monkeypatch):
    """Calls of ``stream_u8`` (one bulk gather each) and of
    ``scatter_section_flat``, each wrapped in every loaded ``repro.*``
    module that holds it."""
    from repro.streaming.serial import stream_u8
    from repro.streaming.vectorized import scatter_section_flat

    counts = {"gather": 0, "scatter": 0}

    def spy(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    spies = {stream_u8: spy("gather", stream_u8),
             scatter_section_flat: spy("scatter", scatter_section_flat)}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro."):
            for attr, held in list(vars(module).items()):
                if callable(held) and held in spies:
                    monkeypatch.setattr(module, attr, spies[held])
    return counts


def _incremental():
    """A 1 MiB float64 array, its segment and a checkpointer over 64 KiB
    spans; the base not yet taken."""
    from repro.checkpoint.incremental import IncrementalCheckpointer

    pfs = PIOFS(machine=Machine(MachineParams(num_nodes=8)))
    a = DistributedArray("u", (128, 1024), np.float64, block_distribution((128, 1024), NTASKS))
    a.set_global(np.random.default_rng(7).random((128, 1024)))
    segment = DataSegment(profile=SegmentProfile(1000, 200, 0), replicated={"it": 0})
    return pfs, a, segment, IncrementalCheckpointer(pfs, "inc", target_bytes=SPAN)


def _dirty(a, f, k):
    """Change the first ``f`` of ``a``'s stream (F order): ceil(16 f) spans."""
    g = a.to_global()
    flat = g.reshape(-1, order="F")
    flat[: int(f * flat.size)] += k
    a.set_global(flat.reshape(a.shape, order="F"))


def test_an_incremental_base_is_one_gather_and_one_hash_pass(meter, gathers):
    pfs, a, segment, ck = _incremental()
    header = len(segment.serialize()[0])
    meter.take()
    ck.full(segment, [a])
    wrapped, _ = meter.take()
    assert gathers["gather"] == 1
    assert wrapped == a.nbytes_global + header


@pytest.mark.parametrize("f", [0, 0.1, 1])
def test_a_delta_is_one_gather_and_one_hash_pass(meter, gathers, f):
    pfs, a, segment, ck = _incremental()
    ck.full(segment, [a])
    _dirty(a, f, 1.0)
    header = len(segment.serialize()[0])
    meter.take()
    gathers["gather"] = 0
    bd = ck.incremental(segment, [a])
    wrapped, _ = meter.take()
    assert gathers["gather"] == 1
    assert wrapped == a.nbytes_global + header
    assert bd.arrays_bytes == -(-int(f * a.nbytes_global) // SPAN) * SPAN


def test_a_chain_restore_reads_and_hashes_each_stored_byte_once(meter, reads, gathers):
    pfs, a, segment, ck = _incremental()
    ck.full(segment, [a])
    for k, f in enumerate((0.1, 0.25, 0.5), start=1):
        _dirty(a, f, k)
        segment.replicated["it"] = k
        ck.incremental(segment, [a])
    prefixes = ["inc.base", "inc.d1", "inc.d2", "inc.d3"]
    stored = sum(pfs.file_size(array_name(p, "u")) for p in prefixes)
    manifests = sum(pfs.file_size(manifest_name(p)) for p in prefixes)
    header = pfs.file_size(segment_name("inc.d3"))  # a delta's segment is its header
    meter.take()
    reads.take()
    gathers["scatter"] = 0
    state, bd = ck.restore(3)
    assert np.array_equal(state.arrays["u"].to_global(), a.to_global())
    assert state.segment.replicated["it"] == 3
    # every manifest of the chain, the newest header, every stored
    # array byte of the chain: once each
    assert reads.take() == manifests + header + stored <= 1.06 * stored
    # each stored array file as it is read, and the header: once each
    wrapped, _ = meter.take()
    assert wrapped == stored + header
    assert gathers["scatter"] == 1
