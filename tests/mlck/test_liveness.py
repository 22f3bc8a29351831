"""The L1 tier's one liveness rule: a copy serves iff its node is up and
holds it (repro.mlck.store, repro.runtime.machine).

A replica lives in its node's memory (``Node.memory``), so it dies and
comes back with its processor: a failed node's copies are unreachable,
a repaired node is empty, and the store, the repair scrub and the
health gauges all ask the one predicate ``L1Store.replica_live``."""

import random

import pytest

from repro.mlck.localized import rereplicate_after_failure
from repro.mlck.store import L1Store
from repro.obs import FlightRecorder, HealthRegistry, use_flight
from repro.runtime.machine import Machine, MachineParams

pytestmark = [pytest.mark.mlck, pytest.mark.localized]


def _machine():
    return Machine(MachineParams(num_nodes=8, failure_domains=4))


def _health(store):
    health = HealthRegistry()
    health.sample_store(store)
    return health.snapshot()


def test_health_counts_only_the_copies_the_store_serves(workload):
    """Reproducer: the owners of a generation's pieces fail and are
    repaired, and nobody drops their memory.  The repaired nodes are up
    but empty, so the health gauges must not count their copies."""
    machine = _machine()
    store = L1Store(machine, k=1)
    seg, arrays = workload(ntasks=2)
    gen, _ = store.capture_drms("ck.000001", seg, arrays)
    pieces = list(gen.pieces())
    wiped = {pieces[0].owner}
    for node in wiped:
        machine.fail_node(node)
        machine.repair_node(node)
    served = [[n for n in p.replicas if n not in wiped] for p in pieces]
    assert min(map(len, served)) == 1  # every node is up, some are empty

    snap = _health(store)
    assert snap["health.l1.min_live_replicas"] == 1.0
    for domain in range(machine.num_domains):
        copies = sum(machine.domain_of(n) == domain for s in served for n in s)
        assert snap[f"health.l1.replicas[{domain}]"] == copies
    # the gauge and the store agree copy by copy
    for piece, nodes in zip(pieces, served):
        assert [n for n in piece.replicas if store.replica_live(piece, n)] == nodes


class _Model:
    """What a copy is: written to a node, alive until that node is
    repaired or this store drops, discards or scrubs it."""

    def __init__(self, machine):
        self.up = [True] * machine.num_nodes
        #: (store index, piece key, node) of every copy in node memory
        self.held = set()
        #: (store index, piece key) -> its bytes
        self.nbytes = {}

    def serves(self, s, key, node):
        return self.up[node] and (s, key, node) in self.held

    def resident(self, s):
        return sum(self.nbytes[s, key] for t, key, _ in self.held if t == s)

    def forget(self, keep):
        self.held = {c for c in self.held if keep(*c)}


def _check(model, machine, stores):
    # node memory holds exactly the model's copies: nothing unlisted lingers
    assert {
        (s, key, node.node_id)
        for node in machine.nodes
        for s in range(len(stores))
        for key in node.memory
        if (s, key) in model.nbytes
    } == model.held
    for s, store in enumerate(stores):
        for prefix in store.generations():
            for piece in store.gen(prefix).pieces():
                for node in range(machine.num_nodes):
                    assert store.replica_live(piece, node) == model.serves(
                        s, piece.key, node
                    ), (s, piece.key, node)
        assert store.resident_bytes() == model.resident(s)
        newest = store.latest()
        if newest is not None:
            live = [
                sum(model.serves(s, p.key, n) for n in range(machine.num_nodes))
                for p in store.gen(newest).pieces()
            ]
            assert _health(store)["health.l1.min_live_replicas"] == min(live)


@pytest.mark.parametrize("seed", range(12))
def test_one_liveness_rule_over_random_failures(workload, seed):
    """Seeded random capture / fail / repair / drop / discard / repair-
    pass sequences over two stores sharing one machine, judged after
    every step against the model: a copy serves iff its node is up and
    was not repaired, dropped or discarded since the copy was written."""
    rng = random.Random(seed)
    machine = _machine()
    stores = [
        L1Store(machine, k=1, target_bytes=256),
        L1Store(machine, k=2, target_bytes=512),
    ]
    model = _Model(machine)
    captured = [0, 0]
    for step in range(40):
        up = [n for n in range(machine.num_nodes) if model.up[n]]
        down = [n for n in range(machine.num_nodes) if not model.up[n]]
        s = rng.randrange(len(stores))
        store = stores[s]
        op = rng.choice(
            ["capture", "capture", "fail", "repair", "drop", "discard", "rereplicate"]
        )
        if op == "capture":
            captured[s] += 1
            seg, arrays = workload(ntasks=2, iteration=step, fill=float(step))
            gen, _ = store.capture_drms(f"s{s}.{captured[s]:06d}", seg, arrays)
            for piece in gen.pieces():
                model.nbytes[s, piece.key] = piece.nbytes
                model.held |= {(s, piece.key, n) for n in piece.replicas}
        elif op == "fail" and len(up) > 3:
            node = rng.choice(up)
            machine.fail_node(node)
            model.up[node] = False
        elif op == "repair" and down:
            node = rng.choice(down)
            machine.repair_node(node)
            model.up[node] = True
            model.forget(lambda t, key, n: n != node)
        elif op == "drop":
            node = rng.choice(down or up)
            mine = {c for c in model.held if c[0] == s and c[2] == node}
            assert store.drop_node(node) == len(mine)
            model.held -= mine
        elif op == "discard" and store.generations():
            prefix = rng.choice(store.generations())
            keys = {p.key for p in store.gen(prefix).pieces()}
            store.discard(prefix)
            model.forget(lambda t, key, n: not (t == s and key in keys))
        elif op == "rereplicate":
            failed = rng.sample(down, rng.randint(0, len(down)))
            # the scrub takes every copy it cannot serve off its lists
            model.forget(lambda t, key, n: t != s or model.up[n])
            with use_flight(FlightRecorder()) as fr:
                repair = rereplicate_after_failure(store, failed)
            placed = [e.detail for e in fr.events() if e.kind == "replica_replaced"]
            assert len(placed) == repair.copies
            for copy in placed:
                assert model.up[copy["node"]]
                assert (s, copy["key"], copy["node"]) not in model.held
                model.held.add((s, copy["key"], copy["node"]))
        _check(model, machine, stores)
