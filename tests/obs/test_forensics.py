"""Forensics: incident dumps, the timeline reconstructor, and the
flight-marked end-to-end acceptance scenario."""

import json

import numpy as np
import pytest

from repro.drms.api import (
    drms_adjust,
    drms_create_distribution,
    drms_distribute,
    drms_initialize,
    drms_reconfig_checkpoint,
)
from repro.drms.context import CheckpointStatus
from repro.infra import DRMSCluster, FailurePlan
from repro.infra.events import EventLog, emit_event
from repro.obs import (
    INCIDENT_SCHEMA,
    FlightRecorder,
    diff_incidents,
    load_events,
    load_incident,
    make_incident,
    reconstruct_timeline,
    render_diff,
    render_timeline,
    use_flight,
    write_incident,
)
from repro.runtime.clock import SimClock, use_clock
from repro.runtime.machine import Machine, MachineParams


def emit_at(log, t, kind, **detail):
    """One record stamped ``t``: the clock, not the emitter, sets it."""
    with use_clock(SimClock(t)):
        return emit_event(log, kind, **detail)


def _incident_log(restart_seconds: float = 4.5) -> EventLog:
    """A hand-built recovery: inject at 10s, detect at 12s, protocol
    done at 17s, selection instantaneous, rebuild 4.5s."""
    log = EventLog()
    emit_at(log, 10.0, "failure_injected", node=3, job="j")
    emit_at(log, 12.0, "tc_disconnected", node=3)
    emit_at(log, 12.0, "application_killed", job="j")
    emit_at(log, 17.0, "tcs_restarted", job="j", healthy=7)
    emit_at(log, 17.0, "recovery_started", job="j")
    emit_at(log, 17.0, "checkpoint_rejected", prefix="ck.000003", tier="l1", errors=2)
    emit_at(log, 17.0, "checkpoint_verified", prefix="ck.000002", tier="l1")
    emit_at(
        log, 17.0, "job_restarted", job="j", ntasks=8,
        restart_seconds=restart_seconds, restart_kind="mlck-l1",
        prefix="ck.000002",
    )
    return log


def assert_each_record_once(tl, events):
    """The timeline lists every log record, and no record twice (one
    ``seq``, one row)."""
    seqs = [e.seq for e in tl.entries]
    assert len(set(seqs)) == len(seqs)
    logged = {e.seq for e in events}
    assert [e for e in tl.entries if e.seq in logged] == sorted(
        events, key=lambda e: (e.time, e.seq)
    )


def ring_only(tl, events):
    """Kinds of the timeline's records that are not the log's."""
    logged = {e.seq for e in events}
    return [e.kind for e in tl.entries if e.seq not in logged]


class TestLoadEvents:
    def test_round_trips_event_log_to_json(self):
        log = _incident_log()
        restored = load_events(log.to_json())
        assert restored == log.events

    def test_accepts_parsed_rows_and_live_logs(self):
        log = _incident_log()
        assert load_events(log) == log.events
        rows = json.loads(log.to_json())
        assert load_events(rows) == log.events

    def test_empty_and_partial_rows(self):
        assert load_events("[]") == []
        (ev,) = load_events([{"kind": "x"}])
        assert ev.time == 0.0 and ev.kind == "x" and ev.detail == {}


class TestTimeline:
    def test_phase_attribution_sums_to_recovery_latency(self):
        tl = reconstruct_timeline(_incident_log().events)
        assert [p.name for p in tl.phases] == [
            "detection", "failure_protocol", "state_selection", "rebuild",
        ]
        assert tl.phase("detection").seconds == pytest.approx(2.0)
        assert tl.phase("failure_protocol").seconds == pytest.approx(5.0)
        assert tl.phase("state_selection").seconds == pytest.approx(0.0)
        assert tl.phase("rebuild").seconds == pytest.approx(4.5)
        assert tl.total_seconds == pytest.approx(11.5)
        assert tl.failed_node == 3 and tl.job == "j"
        assert tl.chosen_prefix == "ck.000002" and tl.chosen_tier == "l1"
        assert tl.rejections == [
            {"prefix": "ck.000003", "tier": "l1", "errors": 2}
        ]
        assert tl.resumed_at == pytest.approx(21.5)
        assert tl.phase("nonexistent") is None

    def test_anchors_on_the_last_incident(self):
        log = _incident_log()
        # a later, second incident: only its window should be analyzed
        emit_at(log, 100.0, "failure_injected", node=5, job="j")
        emit_at(log, 101.0, "tc_disconnected", node=5)
        emit_at(log, 106.0, "tcs_restarted", job="j", healthy=6)
        tl = reconstruct_timeline(log.events)
        assert tl.failed_node == 5
        assert tl.phase("detection").seconds == pytest.approx(1.0)
        # no verified/restart events in the second window
        assert tl.chosen_prefix is None
        assert tl.phase("rebuild").seconds == 0.0

    def test_falls_back_to_disconnect_without_injection_event(self):
        log = EventLog()
        emit_at(log, 5.0, "tc_disconnected", node=2)
        emit_at(log, 9.0, "tcs_restarted", job="j", healthy=3)
        tl = reconstruct_timeline(log.events)
        assert tl.failed_node == 2
        assert tl.phase("detection").seconds == 0.0
        assert tl.phase("failure_protocol").seconds == pytest.approx(4.0)

    def test_no_failure_means_no_phases(self):
        log = EventLog()
        emit_at(log, 1.0, "pool_formed", job="j")
        tl = reconstruct_timeline(log.events)
        assert tl.phases == [] and tl.total_seconds == 0.0
        assert "forensic timeline" in render_timeline(tl)

    def test_blackbox_events_merge_into_the_entry_stream(self):
        log = _incident_log()
        with use_flight(FlightRecorder()) as fr:
            emit_at(None, 11.0, "sop_crossed", node=3, sop=2)
        fr.blackbox(3, reason="killed")
        incident = make_incident(log, flight=fr, job="j")
        tl = reconstruct_timeline(incident)
        assert ring_only(tl, log) == ["sop_crossed"]
        # merged stream stays time-ordered
        times = [e.time for e in tl.entries]
        assert times == sorted(times)
        text = render_timeline(tl)
        assert "sop_crossed" in text and "phases (failure -> resume):" in text

    def test_a_logged_record_on_a_ring_is_listed_once(self):
        with use_flight(FlightRecorder()) as fr:
            emit_at(None, 11.0, "sop_crossed", node=3, sop=2)
            log = _incident_log()  # tc_disconnected lands on node 3's ring
        box = fr.blackbox(3, reason="killed")
        assert "tc_disconnected" in [row["kind"] for row in box["events"]]
        tl = reconstruct_timeline(make_incident(log, flight=fr, job="j"))
        assert ring_only(tl, log) == ["sop_crossed"]
        assert_each_record_once(tl, log.events)

    def test_a_ring_only_record_of_a_logged_kind_is_listed(self):
        """A ring row is dropped only when it is a log record, not when
        the log merely carries its kind: a walk without a log still
        reaches the timeline."""
        log = EventLog()
        with use_flight(FlightRecorder()) as fr:
            emit_at(log, 1.0, "checkpoint_rejected", prefix="ck.000002", node=1)
            emit_at(None, 2.0, "checkpoint_rejected", prefix="ck.000001", node=1)
        tl = reconstruct_timeline(log, [fr.blackbox(1)])
        assert [e.detail["prefix"] for e in tl.entries] == [
            "ck.000002", "ck.000001",
        ]
        assert [e.time for e in tl.entries] == [1.0, 2.0]

    def test_tracer_spans_stitch_into_the_entry_stream(self):
        from repro.obs import Tracer

        tr = Tracer(sim_start=13.0)
        with tr.span("restart", prefix="ck.000002"):
            tr.advance(4.5)
        incident = make_incident(_incident_log(), tracer=tr, job="j")
        assert incident["spans"][0]["name"] == "restart"
        tl = reconstruct_timeline(incident)
        (row,) = tl.spans
        assert row["name"] == "restart" and row["sim_start"] == 13.0
        assert row["sim_seconds"] == pytest.approx(4.5)
        assert "span restart" in render_timeline(tl)
        # span stitching does not perturb the phase attribution
        assert tl.total_seconds == pytest.approx(11.5)

    def test_entry_stream_is_tail_truncated(self):
        log = EventLog()
        for i in range(100):
            emit_at(log, float(i), "tick", i=i)
        text = render_timeline(reconstruct_timeline(log.events), max_entries=10)
        assert "90 earlier entries elided" in text


class TestIncidentDumps:
    def test_write_load_round_trip(self, tmp_path):
        incident = make_incident(_incident_log(), job="j")
        assert incident["schema"] == INCIDENT_SCHEMA
        assert incident["created"] == 17.0
        path = write_incident(tmp_path / "deep" / "incident.json", incident)
        loaded = load_incident(path)
        assert loaded["events"] == incident["events"]
        tl = reconstruct_timeline(loaded)
        assert tl.total_seconds == pytest.approx(11.5)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "not_incident.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ValueError, match="not an incident dump"):
            load_incident(path)

    def test_empty_incident_is_well_formed(self):
        incident = make_incident(EventLog())
        assert incident["created"] == 0.0 and incident["events"] == []
        tl = reconstruct_timeline(incident)
        assert tl.phases == [] and tl.entries == []

    def test_diff_reports_phase_deltas(self):
        a = make_incident(_incident_log(), job="j")
        # same story, but the rebuild got cheaper
        b = make_incident(_incident_log(restart_seconds=2.0), job="j")
        diff = diff_incidents(a, b)
        assert diff["phases"]["rebuild"]["delta"] == pytest.approx(-2.5)
        assert diff["total"]["delta"] == pytest.approx(-2.5)
        assert diff["failed_node"] == {"a": 3, "b": 3}
        text = render_diff(diff)
        assert "rebuild" in text and "delta" in text


# -- the acceptance scenario -------------------------------------------------

N = 10
NITER = 12


def _main(ctx, base):
    drms_initialize(ctx)
    dist = drms_create_distribution(ctx, (N, N), shadow=(1, 1))
    u = drms_distribute(ctx, "u", dist, init_global=np.ones((N, N)))
    for it in ctx.iterations(1, NITER + 1):
        if it % 4 == 1:
            status, delta = drms_reconfig_checkpoint(ctx, base)
            if status is CheckpointStatus.RESTARTED and delta != 0:
                u = drms_distribute(ctx, "u", drms_adjust(ctx, "u"))
        u.set_assigned(u.assigned + 1.0)
        ctx.barrier()
    return float(u.assigned.sum())


@pytest.mark.flight
def test_killed_node_leaves_a_blackbox_and_a_reconstructible_timeline(tmp_path):
    """ISSUE acceptance: a FailurePlan-killed node in an mlck memory+pfs
    run produces a black-box dump, and the forensic timeline
    reconstructs failure -> tiered restart with phase latencies summing
    to the cluster's reported recovery latency."""
    cluster = DRMSCluster(
        machine=Machine(MachineParams(num_nodes=8)), node_repair_s=600.0
    )
    app = cluster.build_app(_main, tier="memory+pfs", mlck_drain="sync")
    with use_flight(FlightRecorder()) as fr:
        out = cluster.run_with_recovery(
            "j", app, 8, args=("ck",), prefix="ck",
            failure=FailurePlan(iteration=7, node_id=3),
        )
    assert out.failed_node == 3

    # the dead node left exactly one black box, with its last acts inside
    boxes = [b for b in fr.blackboxes if b["node"] == 3]
    assert len(boxes) == 1
    kinds = {e["kind"] for e in boxes[0]["events"]}
    assert "sop_crossed" in kinds
    assert "replica_placed" in kinds or "l1_captured" in kinds
    (path,) = fr.write_blackboxes(tmp_path)
    assert json.loads(path.read_text())["node"] == 3

    # the incident dump + reconstructor tell the tiered-restart story
    incident = make_incident(out.events, flight=fr, outcome=out, job="j")
    tl = reconstruct_timeline(incident)
    assert tl.failed_node == 3 and tl.job == "j"
    assert tl.chosen_prefix == "ck.000002" and tl.chosen_tier == "l1"
    assert [p.name for p in tl.phases] == [
        "detection", "failure_protocol", "state_selection", "rebuild",
    ]
    assert tl.phase("detection").seconds == pytest.approx(cluster.detection_s)
    assert tl.phase("failure_protocol").seconds == pytest.approx(
        cluster.rc.tc_restart_s
    )
    assert tl.phase("rebuild").detail["kind"] == "mlck-l1"
    # the headline property: phase attribution sums to the reported latency
    assert tl.total_seconds == pytest.approx(out.recovery_latency_s, rel=1e-6)
    assert_each_record_once(tl, out.events)

    # and the rendered report carries the story end to end
    text = render_timeline(tl)
    assert "node 3 failed" in text
    assert "chose ck.000002 (tier l1)" in text


@pytest.mark.flight
def test_forensics_cli_round_trip(tmp_path, capsys):
    """dump -> timeline/health/diff over the written incident file."""
    from repro.tools.forensics import main

    out = tmp_path / "fx"
    assert main(["dump", "--out", str(out)]) == 0
    dumped = capsys.readouterr().out
    assert "phases (failure -> resume):" in dumped
    names = {p.name for p in out.iterdir()}
    assert names == {"incident.json", "blackbox_node3.json", "metrics.om"}

    incident = str(out / "incident.json")
    assert main(["timeline", incident]) == 0
    assert "chose ck.000002 (tier l1)" in capsys.readouterr().out

    assert main(["health", incident]) == 0
    assert "health.nodes.down" in capsys.readouterr().out

    assert main(["diff", incident, incident]) == 0
    diffed = capsys.readouterr().out
    assert "incident diff (A vs B)" in diffed and "delta +0.000s" in diffed


@pytest.mark.localized
def test_localized_timeline_phases_sum_and_blackbox_has_last_sop(tmp_path):
    """Regression pins for the localized protocol's forensics: the four
    reconstructed phase latencies sum exactly to the cluster's reported
    recovery latency, the rebuild phase carries the rebuild scope, and
    the dead node's black box records the quiesce anchor — the last SOP
    crossing the group made before the drop."""
    from repro.obs import FlightRecorder, use_flight

    cluster = DRMSCluster(
        machine=Machine(MachineParams(num_nodes=8)), node_repair_s=600.0
    )
    app = cluster.build_app(_main, tier="memory+pfs", mlck_drain="sync")
    with use_flight(FlightRecorder()) as fr:
        out = cluster.run_with_localized_recovery(
            "j", app, 6, args=("ck",), prefix="ck",
            failure=FailurePlan(iteration=7, node_id=0),
        )
    assert out.failed_nodes == [0]
    assert out.final_report.restart_breakdown.kind == "mlck-l1-localized"

    incident = make_incident(out.events, flight=fr, outcome=out, job="j")
    tl = reconstruct_timeline(incident)
    assert tl.failed_node == 0 and tl.job == "j"
    assert [p.name for p in tl.phases] == [
        "detection", "failure_protocol", "state_selection", "rebuild",
    ]
    assert tl.phase("detection").seconds == pytest.approx(cluster.detection_s)
    assert tl.phase("failure_protocol").seconds == pytest.approx(
        cluster.rc.tc_restart_s
    )
    # the invariant this test pins: phase attribution sums exactly to
    # the reported recovery latency, localized path included
    assert tl.total_seconds == pytest.approx(out.recovery_latency_s, rel=1e-9)
    assert_each_record_once(tl, out.events)
    rebuild = tl.phase("rebuild")
    assert rebuild.detail["kind"] == "mlck-l1-localized"
    scope = rebuild.detail["rebuild_scope"]
    assert scope["lost_ranks"] == [0]
    assert scope["failed_nodes"] == [0]
    assert 0 < scope["lost_bytes"] < scope["total_bytes"]

    # the dead node left one black box whose last recorded SOP crossing
    # is the quiesce anchor the survivors paused at
    (box,) = [b for b in fr.blackboxes if b["node"] == 0]
    sops = [e for e in box["events"] if e["kind"] == "sop_crossed"]
    assert sops
    (quiesced,) = [e for e in out.events if e.kind == "survivors_quiesced"]
    assert sops[-1]["detail"]["sop"] == quiesced.detail["sop"]
    assert sops[-1]["detail"]["iteration"] == quiesced.detail["iteration"]


@pytest.mark.flight
def test_flight_recorder_sees_a_healthy_run_too():
    """Without a failure the rings still carry the checkpoint story —
    SOP crossings, captures, placements — and no black box is emitted."""
    cluster = DRMSCluster(machine=Machine(MachineParams(num_nodes=8)))
    app = cluster.build_app(_main, tier="memory+pfs", mlck_drain="sync")
    with use_flight(FlightRecorder()) as fr:
        out = cluster.run_with_recovery("j", app, 8, args=("ck",), prefix="ck")
    assert out.failed_node is None
    assert fr.blackboxes == []
    kinds = {e.kind for e in fr.events()}
    assert {"sop_crossed", "l1_captured", "replica_placed",
            "checkpoint_taken", "job_completed"} <= kinds
    # per-node rings exist for the compute nodes that crossed SOPs
    assert any(n >= 0 for n in fr.nodes())
