"""One simulated timeline for every record of the demo incident: the
daemons stamp RC time, a rank launch time plus its task time, a drain
its schedule time — so every ring reads forward, the failure sits after
the work it interrupted, and the health cadence gauges measure the
intervals between the captures' records."""

import pytest

from repro.obs.forensics import reconstruct_timeline
from repro.tools.forensics import run_demo_incident


@pytest.fixture(scope="module")
def demo():
    return run_demo_incident()


def test_every_ring_is_non_decreasing_in_time(demo):
    _, recorder, _ = demo
    assert len(recorder.nodes()) > 1
    for node in recorder.nodes():
        times = [e.time for e in recorder.ring(node)]
        assert times == sorted(times), f"ring {node} goes backward"


def test_the_failure_follows_the_failed_nodes_last_sop(demo):
    _, recorder, _ = demo
    events = recorder.events()
    (fired,) = [e for e in events if e.kind == "failure_plan_fired"]
    (injected,) = [e for e in events if e.kind == "failure_injected"]
    node = fired.detail["node"]
    sops = [e for e in events if e.kind == "sop_crossed" and e.node == node]
    assert sops and sops[-1].seq < fired.seq
    assert sops[-1].time <= fired.time <= injected.time
    assert fired.time > 0.0


def test_no_record_after_recovery_started_is_earlier(demo):
    _, recorder, cluster = demo
    (started,) = cluster.events.of_kind("recovery_started")
    later = [e for e in recorder.events() if e.seq > started.seq]
    assert later
    assert [e for e in later if e.time < started.time] == []


def test_forensic_phases_keep_their_seconds(demo):
    incident, _, _ = demo
    tl = reconstruct_timeline(incident)
    seconds = {p.name: p.seconds for p in tl.phases}
    assert seconds == pytest.approx(
        {
            "detection": 2.0,
            "failure_protocol": 5.0,
            "state_selection": 0.0,
            "rebuild": incident["recovery"]["restart_seconds"],
        },
        abs=1e-12,
    )
    assert seconds["rebuild"] == pytest.approx(3.5004, abs=1e-4)
    assert tl.total_seconds == pytest.approx(
        incident["recovery"]["latency_s"], abs=1e-12
    )


def test_health_cadence_is_measured_on_the_capture_records(demo):
    """Each L1 generation's ``captured_at`` is its ``l1_captured``
    record's time, and the cadence gauges are the intervals between
    those times.  With task-local capture times, a restarted job's
    captures restarted at 0: the gauges read the cluster clock minus a
    task-local time (7.0 s, drift 1.0)."""
    _, recorder, cluster = demo
    (started,) = cluster.events.of_kind("recovery_started")
    captured = {
        e.detail["prefix"]: e for e in recorder.events() if e.kind == "l1_captured"
    }
    store = cluster.jsa.jobs["demo"].app.l1_store_for("ck")
    resident = store.generations()
    assert len(resident) >= 2
    for prefix in resident:
        assert store.gen(prefix).captured_at == captured[prefix].time
    # the restarted job's captures sit after the recovery began
    restarted = [e for e in captured.values() if e.seq > started.seq]
    assert restarted and all(e.time >= started.time for e in restarted)

    times = sorted(captured[p].time for p in resident)
    intervals = [b - a for a, b in zip(times, times[1:])]
    mean = sum(intervals) / len(intervals)
    last = max(intervals[-1], cluster.rc.clock - times[-1])
    gauges = cluster.health.snapshot()
    assert gauges["health.checkpoint.interval_mean_s"] == pytest.approx(mean)
    assert gauges["health.checkpoint.interval_last_s"] == pytest.approx(last)
    assert gauges["health.checkpoint.cadence_drift"] == pytest.approx(
        last / mean - 1.0
    )
    # the job ended right after its last capture: the last interval is
    # the gap between the last two captures, on cadence
    assert last == intervals[-1]
    assert gauges["health.checkpoint.cadence_drift"] == pytest.approx(0.0)


def test_a_pool_is_released_at_its_jobs_end(demo):
    """The JSA advances the RC to the job's end before releasing its
    pool, so the release follows every record of the job."""
    _, recorder, cluster = demo
    (released,) = cluster.events.of_kind("pool_released")
    (restarted,) = cluster.events.of_kind("job_restarted")
    before = [e for e in recorder.events() if e.seq < released.seq]
    assert max(e.time for e in before) <= released.time == restarted.time
    assert released.time == cluster.rc.clock
