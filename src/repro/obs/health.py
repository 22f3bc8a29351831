"""Fleet health: per-node and fleet-level gauges over the live system.

The ROADMAP's localized-recovery and fleet-scale-study directions both
need to know, at any instant, *how exposed the system is*: which
failure domains still hold valid checkpoint replicas, how deep and how
old the drain backlog is, how far the newest durable generation lags
the newest captured one, and whether the checkpoint cadence is
drifting.  :class:`HealthRegistry` computes those gauges on demand from
the live objects (L1 store, drain controller, RC, JSA, machine) and
stores them in a plain :class:`~repro.obs.metrics.MetricsRegistry`, so
they export through every existing channel — the flat JSON dump, and
the OpenMetrics/Prometheus text exporter
(:func:`~repro.obs.export.openmetrics_text`).

Sampling is *pull-based*: ``sample_*`` methods read the object they are
given and never mutate it.  The JSA, RC, and
:class:`~repro.mlck.drain.DrainController` re-sample automatically at
their interesting moments (job transitions, the failure protocol,
drain completion) when a registry is attached to their ``health``
attribute — :class:`~repro.infra.cluster.DRMSCluster` wires one up for
the whole installation.

Gauge catalog (all names under ``health.``; DESIGN.md §13):

* ``health.nodes.up`` / ``health.nodes.down`` — machine liveness;
* ``health.l1.replicas[<domain>]`` — live replica copies in each
  failure domain, by the store's own rule
  (:meth:`~repro.mlck.store.L1Store.replica_live`; the
  replica-coverage view);
* ``health.l1.min_live_replicas`` — worst-case surviving copies over
  all pieces of the newest generation (0 means that state is lost);
* ``health.l1.resident_bytes`` — memory-tier footprint;
* ``health.drain.backlog`` / ``health.drain.oldest_age_s`` — queued
  promotions and the age of the oldest still-pending one;
* ``health.durable.lag`` — newest captured generation number minus
  newest durable one;
* ``health.checkpoint.interval_last_s`` / ``interval_mean_s`` /
  ``cadence_drift`` — drift is ``last/mean - 1`` (0 = on cadence);
* ``health.jobs.<state>`` — jobs per lifecycle state;
* ``health.fleet.running`` / ``queued`` / ``utilization`` /
  ``down_nodes`` / ``lost_work_node_s`` — fleet-simulation occupancy
  (sampled by :mod:`repro.infra.fleet`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.runtime.clock import now

__all__ = ["HealthRegistry"]


class HealthRegistry:
    """On-demand health gauges over the live checkpoint/recovery stack."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- machine / daemons ----------------------------------------------------

    def sample_machine(self, machine) -> None:
        """Node liveness."""
        up = len(machine.up_nodes())
        self.metrics.gauge("health.nodes.up").set(up)
        self.metrics.gauge("health.nodes.down").set(machine.num_nodes - up)

    def sample_rc(self, rc) -> None:
        """RC view: liveness plus pending repairs and busy pools."""
        self.sample_machine(rc.machine)
        self.metrics.gauge("health.nodes.repairing").set(len(rc.repair_done_at))
        self.metrics.gauge("health.pools.active").set(len(rc.pools))

    def sample_jsa(self, jsa) -> None:
        """Jobs per lifecycle state."""
        from repro.infra.jsa import JobState

        counts = {state: 0 for state in JobState}
        for job in jsa.jobs.values():
            counts[job.state] += 1
        for state, n in counts.items():
            self.metrics.gauge(f"health.jobs.{state.value}").set(n)

    # -- the memory tier ------------------------------------------------------

    def sample_store(self, store) -> None:
        """L1 replica coverage: live copies (the copies the store would
        serve) per failure domain, worst-case surviving replica depth of
        the newest generation, footprint,
        and checkpoint cadence from capture times up to ``now()``."""
        machine = store.machine
        domain_copies: Dict[int, int] = {
            d: 0 for d in range(machine.num_domains)
        }
        newest = store.latest()
        min_live: Optional[int] = None
        if newest is not None:
            for piece in store.gen(newest).pieces():
                live = [n for n in piece.replicas if store.replica_live(piece, n)]
                for node in live:
                    domain_copies[machine.domain_of(node)] += 1
                min_live = len(live) if min_live is None else min(min_live, len(live))
        for domain, copies in sorted(domain_copies.items()):
            self.metrics.gauge(f"health.l1.replicas[{domain}]").set(copies)
        self.metrics.gauge("health.l1.min_live_replicas").set(
            min_live if min_live is not None else 0
        )
        self.metrics.gauge("health.l1.generations").set(len(store.generations()))
        self.metrics.gauge("health.l1.resident_bytes").set(store.resident_bytes())
        captures = sorted(store.gen(p).captured_at for p in store.generations())
        if len(captures) < 2:
            self.metrics.gauge("health.checkpoint.cadence_drift").set(0.0)
            return
        intervals = [b - a for a, b in zip(captures, captures[1:])]
        mean = sum(intervals) / len(intervals)
        last = max(intervals[-1], max(0.0, now() - captures[-1]))
        self.metrics.gauge("health.checkpoint.interval_mean_s").set(mean)
        self.metrics.gauge("health.checkpoint.interval_last_s").set(last)
        self.metrics.gauge("health.checkpoint.cadence_drift").set(
            last / mean - 1.0 if mean > 0 else 0.0
        )

    def sample_drainer(self, drainer) -> None:
        """Drain backlog depth and age (to ``now()``), and durable lag."""
        self.metrics.gauge("health.drain.backlog").set(drainer.pending)
        clock = now()
        ages = [
            clock - t for t in drainer.scheduled_at.values() if clock >= t
        ]
        self.metrics.gauge("health.drain.oldest_age_s").set(
            max(ages) if ages else 0.0
        )
        store = drainer.store
        from repro.checkpoint.rotation import parse_generation
        from repro.mlck.drain import DrainState

        newest_num = durable_num = 0
        for prefix in store.generations():
            num = parse_generation(prefix) or 0
            newest_num = max(newest_num, num)
            if store.gen(prefix).drain_state == DrainState.DURABLE:
                durable_num = max(durable_num, num)
        self.metrics.gauge("health.durable.lag").set(
            max(0, newest_num - durable_num)
        )

    def sample_mlck(self, checkpointer) -> None:
        """One multi-level checkpointer: store + drainer together."""
        self.sample_store(checkpointer.store)
        self.sample_drainer(checkpointer.drainer)

    # -- fleet simulation -----------------------------------------------------

    def sample_fleet(
        self,
        running: int,
        queued: int,
        utilization: float,
        down: int,
        lost_work: float,
    ) -> None:
        """Occupancy snapshot from a fleet simulation: jobs running and
        queued, node occupancy, dark nodes and cumulative
        failure-destroyed work."""
        self.metrics.gauge("health.fleet.running").set(running)
        self.metrics.gauge("health.fleet.queued").set(queued)
        self.metrics.gauge("health.fleet.utilization").set(utilization)
        self.metrics.gauge("health.fleet.down_nodes").set(down)
        self.metrics.gauge("health.fleet.lost_work_node_s").set(lost_work)

    # -- convenience ----------------------------------------------------------

    def sample_cluster(self, cluster, apps=()) -> None:
        """Sample a whole :class:`~repro.infra.cluster.DRMSCluster` —
        RC, JSA, and the mlck pipelines of the given applications."""
        self.sample_rc(cluster.rc)
        self.sample_jsa(cluster.jsa)
        for app in apps:
            for ck in getattr(app, "_mlck", {}).values():
                self.sample_mlck(ck)

    def snapshot(self) -> Dict[str, float]:
        """All health gauges as a flat, deterministically ordered dict."""
        return {
            name: gauge.value
            for name, gauge in sorted(self.metrics.gauges.items())
            if name.startswith("health.")
        }

    def report(self) -> str:
        """Human-readable one-gauge-per-line health summary."""
        lines = ["fleet health"]
        for name, value in self.snapshot().items():
            lines.append(f"  {name:<40} {value:g}")
        return "\n".join(lines)
