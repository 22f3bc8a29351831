"""Flight recorder: ring bounds, black-box dumps, scoping.  Records
reach a ring only through ``emit_event`` under the active recorder."""

import json
import sys
import threading

import pytest

from repro.infra.events import EventLog
from repro.obs import (
    GLOBAL_NODE,
    NULL_FLIGHT,
    Event,
    FlightRecorder,
    NullFlightRecorder,
    emit_event,
    get_flight,
    set_flight,
    use_flight,
)
from repro.obs.flight import BLACKBOX_SCHEMA
from repro.runtime.clock import SimClock, use_clock


class TestRecording:
    def test_ring_is_bounded_and_counts_drops(self):
        fr = FlightRecorder(capacity=4)
        with use_flight(fr):
            for i in range(10):
                emit_event(None, "tick", node=1, i=i)
        ring = fr.ring(1)
        assert len(ring) == 4
        # oldest events fell off the back; the newest four remain
        assert [e.detail["i"] for e in ring] == [6, 7, 8, 9]
        assert fr.recorded(1) == 10
        box = fr.blackbox(1)
        assert box["recorded"] == 10 and box["dropped"] == 6

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_rings_are_per_node_with_a_global_default(self):
        fr = FlightRecorder()
        with use_flight(fr):
            emit_event(None, "global_thing")
            emit_event(None, "node_thing", node=2)
        assert fr.nodes() == [GLOBAL_NODE, 2]
        assert [e.kind for e in fr.ring()] == ["global_thing"]
        assert [e.kind for e in fr.ring(2)] == ["node_thing"]

    def test_events_interleave_rings_in_sequence_order(self):
        fr = FlightRecorder()
        with use_flight(fr):
            emit_event(None, "a", node=1)
            emit_event(None, "b", node=2)
            emit_event(None, "c", node=1)
        assert [e.kind for e in fr.events()] == ["a", "b", "c"]
        seqs = [e.seq for e in fr.events()]
        assert seqs == sorted(seqs)

    def test_the_log_and_a_ring_hold_one_record(self):
        log, fr = EventLog(), FlightRecorder()
        with use_flight(fr):
            ev = log.emit("tc_disconnected", node=3)
            emit_event(None, "job_restarted", job="j")
        (on_ring,) = fr.ring(3)
        assert on_ring is ev and log.events == [ev]
        assert ev.node == 3 and ev.detail == {"node": 3}
        assert fr.ring(GLOBAL_NODE)[0].node == GLOBAL_NODE
        # a dump row is the record's to_dict, read back by from_dict
        (row,) = fr.blackbox(3)["events"][:1]
        assert row == ev.to_dict() and Event.from_dict(row) == ev

    def test_record_is_safe_under_threads(self):
        fr = FlightRecorder(capacity=10_000)
        threads = [
            threading.Thread(
                target=lambda n=n: [
                    emit_event(None, "t", node=n) for _ in range(500)
                ]
            )
            for n in range(4)
        ]
        with use_flight(fr):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sum(fr.recorded(n) for n in range(4)) == 2000
        assert len({e.seq for e in fr.events()}) == 2000

    def test_threads_sharing_one_ring_lose_no_counts(self):
        """The SPMD task threads all write the global ring: a black
        box's ``recorded`` / ``dropped`` must count every record."""
        fr = FlightRecorder(capacity=16)
        threads, per_thread = 8, 20_000

        def spin():
            for _ in range(per_thread):
                emit_event(None, "t", node=1)

        workers = [threading.Thread(target=spin) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave as hard as the host allows
        try:
            with use_flight(fr):
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        total = threads * per_thread
        assert fr.recorded(1) == total
        assert fr.blackbox(1)["dropped"] == total - 16
        assert [e.seq for e in fr.ring(1)] == sorted(e.seq for e in fr.ring(1))


class TestBlackboxes:
    def test_blackbox_merges_node_and_global_rings(self):
        fr = FlightRecorder()
        with use_flight(fr):
            emit_event(None, "scheduler_decision")  # global
            emit_event(None, "sop_crossed", node=3, sop=1)
            emit_event(None, "pool_formed")  # global
        with use_clock(SimClock(4.0)):
            box = fr.blackbox(3, reason="killed")
        assert box["schema"] == BLACKBOX_SCHEMA and box["time"] == 4.0
        assert box["node"] == 3 and box["reason"] == "killed"
        kinds = [e["kind"] for e in box["events"]]
        assert kinds == ["scheduler_decision", "sop_crossed", "pool_formed"]
        # another node's ring does not leak in
        with use_flight(fr):
            emit_event(None, "other", node=5)
        assert "other" not in [e["kind"] for e in fr.blackbox(3)["events"]]

    def test_auto_blackbox_dedupes_per_incident(self):
        fr = FlightRecorder()
        with use_flight(fr):
            emit_event(None, "x", node=1)
        first = fr.auto_blackbox(1, reason="rc saw it")
        second = fr.auto_blackbox(1, reason="store saw it")
        assert first is not None and second is None
        assert len(fr.blackboxes) == 1
        assert fr.blackboxes[0]["reason"] == "rc saw it"
        fr.reset_incident()
        assert fr.auto_blackbox(1, reason="next incident") is not None
        assert len(fr.blackboxes) == 2

    def test_write_blackboxes_emits_json_files(self, tmp_path):
        fr = FlightRecorder()
        with use_flight(fr):
            emit_event(None, "last_words", node=7, nbytes=800)
        fr.blackbox(7, reason="dropped")
        (path,) = fr.write_blackboxes(tmp_path / "boxes")
        assert path.name == "blackbox_node7.json"
        box = json.loads(path.read_text())
        assert box["schema"] == BLACKBOX_SCHEMA
        # the row's detail is what the emitter passed, node included
        assert box["events"][0]["node"] == 7
        assert box["events"][0]["detail"] == {"node": 7, "nbytes": 800}

    def test_to_dict_round_trips_through_json(self):
        fr = FlightRecorder()
        with use_flight(fr):
            emit_event(None, "e", node=1, k="v")
        fr.blackbox(1)
        doc = json.loads(json.dumps(fr.to_dict()))
        assert doc["rings"]["1"][0]["kind"] == "e"
        assert doc["blackboxes"][0]["node"] == 1


class TestScoping:
    def test_default_is_the_null_recorder(self):
        assert get_flight() is NULL_FLIGHT
        assert not get_flight().enabled

    def test_use_flight_scopes_and_restores(self):
        fr = FlightRecorder()
        with use_flight(fr) as active:
            assert active is fr and get_flight() is fr
            assert get_flight().enabled
        assert get_flight() is NULL_FLIGHT

    def test_set_flight_none_restores_null(self):
        fr = FlightRecorder()
        set_flight(fr)
        try:
            assert get_flight() is fr
        finally:
            assert set_flight(None) is NULL_FLIGHT

    def test_null_recorder_is_inert(self):
        null = NullFlightRecorder()
        with use_flight(null):
            emit_event(None, "anything", node=1, payload=object())
        assert null.nodes() == [] and null.events() == []
        assert null.recorded(1) == 0
        assert null.auto_blackbox(1) is None
        box = null.blackbox(1, reason="r")
        assert box["events"] == [] and box["schema"] == BLACKBOX_SCHEMA
        null.reset_incident()
        assert null.to_dict()["rings"] == {}

    def test_an_unkept_record_is_never_written(self):
        """With no log and the null recorder nothing keeps a record:
        ``emit_event`` returns None before it draws a ``seq``, so the
        next kept record's ``seq`` follows the last one's."""
        assert get_flight() is NULL_FLIGHT
        log = EventLog()
        before = emit_event(log, "kept")
        assert emit_event(None, "unkept", node=1, payload=object()) is None
        after = emit_event(log, "kept")
        assert after.seq == before.seq + 1

    def test_publish_metrics_exports_volume_gauges(self):
        from repro.obs import Tracer, use_tracer

        fr = FlightRecorder()
        with use_flight(fr):
            emit_event(None, "a", node=1)
            emit_event(None, "b", node=1)
        fr.blackbox(1)
        with use_tracer(Tracer()) as tracer:
            fr.publish_metrics()
            flat = tracer.metrics.flat()
        assert flat["flight.recorded"] == 2.0
        assert flat["flight.blackboxes"] == 1.0
