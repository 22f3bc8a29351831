"""Coverage for the event log and the exception hierarchy."""

import pytest

from repro import errors
from repro.infra.events import EventLog, emit_event
from repro.obs import FlightRecorder, use_flight
from repro.runtime.clock import SimClock, use_clock


def emit_at(log, t, kind, **detail):
    """One record stamped ``t``: the log takes no time, the clock does."""
    with use_clock(SimClock(t)):
        return log.emit(kind, **detail)


class TestEventLog:
    def test_emit_and_iter(self):
        log = EventLog()
        log.emit("a", x=1)
        log.emit("b")
        log.emit("a", x=2)
        assert len(log) == 3
        assert [e.kind for e in log] == ["a", "b", "a"]

    def test_of_kind_and_last(self):
        log = EventLog()
        assert log.last() is None
        log.emit("a", x=1)
        log.emit("b")
        assert log.last().kind == "b"
        assert log.last("a").detail == {"x": 1}
        assert log.of_kind("c") == []

    def test_of_kind_detail_filter(self):
        log = EventLog()
        emit_at(log, 1.0, "checkpoint_rejected", prefix="ck.3", job="bt")
        emit_at(log, 2.0, "checkpoint_rejected", prefix="ck.2", job="lu")
        hits = log.of_kind("checkpoint_rejected", prefix="ck.2")
        assert [e.time for e in hits] == [2.0]
        assert log.of_kind("checkpoint_rejected", prefix="ck.2", job="bt") == []
        # filtering on an absent key matches nothing
        assert log.of_kind("checkpoint_rejected", node=7) == []

    def test_between_window_is_closed(self):
        log = EventLog()
        for t in (0.0, 1.0, 2.0, 3.0):
            emit_at(log, t, "tick")
        emit_at(log, 2.5, "tock")
        assert [e.time for e in log.between(1.0, 2.5)] == [1.0, 2.0, 2.5]
        assert [e.time for e in log.between(1.0, 2.5, kind="tick")] == [1.0, 2.0]
        assert log.between(10.0, 20.0) == []

    def test_where_predicate(self):
        log = EventLog()
        log.emit("a", node=1)
        log.emit("b", node=2)
        assert [e.kind for e in log.where(lambda e: e.detail.get("node") == 2)] == ["b"]

    def test_to_json_round_trips(self):
        import json

        log = EventLog()
        emit_at(log, 1.5, "pool_formed", pool=[0, 1], job="bt")
        emit_at(log, 2.0, "odd_detail", payload=object())  # falls back to repr
        doc = json.loads(log.to_json(indent=2))
        assert doc[0] == {
            "seq": log.events[0].seq,
            "time": 1.5,
            "kind": "pool_formed",
            "node": -1,
            "detail": {"pool": [0, 1], "job": "bt"},
        }
        assert isinstance(doc[1]["detail"]["payload"], str)

    def test_repr_compact(self):
        with use_clock(SimClock(1.5)), use_flight(FlightRecorder()):
            ev = emit_event(None, "boom", node=3)
        assert "boom" in repr(ev)
        assert "node=3" in repr(ev)

    def test_empty_log_is_falsy_but_usable(self):
        # regression guard for the `events or EventLog()` bug: daemons
        # must share an injected (possibly still-empty) log
        log = EventLog()
        assert not len(log)
        picked = log if log is not None else EventLog()
        assert picked is log


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        leaves = [
            errors.RangeError,
            errors.SliceError,
            errors.DistributionError,
            errors.ArrayError,
            errors.StreamingError,
            errors.CheckpointError,
            errors.RestartError,
            errors.ReconfigurationError,
            errors.CommunicationError,
            errors.TaskFailure,
            errors.MachineError,
            errors.PFSError,
            errors.SchedulerError,
        ]
        for cls in leaves:
            assert issubclass(cls, errors.ReproError)

    def test_restart_error_is_checkpoint_error(self):
        assert issubclass(errors.RestartError, errors.CheckpointError)

    def test_node_failure_is_task_failure(self):
        from repro.infra.failure import NodeFailure

        assert issubclass(NodeFailure, errors.TaskFailure)

    def test_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.PFSError("x")
