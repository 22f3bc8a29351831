"""Table 6 — component breakdown of DRMS checkpoint and restart.

For each (application, partition size): total time and aggregate rate,
plus the data-segment and distributed-array components as a percentage
of the total and their own I/O rates — demonstrating the paper's two
asymmetries: writes are server-limited (rates fall with more busy
nodes), reads are client-limited (rates rise with more clients).

The numbers come from the observability layer: each cell runs under its
own live :class:`repro.obs.Tracer` and every assertion reads the flat
metrics dump (the ``checkpoint.drms.*`` / ``restart.drms.*`` series the
engines publish) rather than the breakdown objects threaded through
return values — exercising the exact series external dashboards see.
The committed metrics dump leaves out the wall-clock series, so that
regenerating it from one tree writes the same bytes.
"""

import json
import re

import pytest

from repro.obs import Tracer, use_tracer
from repro.perfmodel.experiments import measure_checkpoint_restart
from repro.perfmodel.reportgen import table6

MB = 1e6

#: wall-clock series: the time this host took, not the model's
WALL_CLOCK_KEY = re.compile(r"\.wall_seconds\.|^plancache\.saved_seconds$")


def _measure_with_metrics():
    """All six Table 6 cells, each traced in isolation."""
    cells, metrics = {}, {}
    for name in ("bt", "lu", "sp"):
        for pes in (8, 16):
            with use_tracer(Tracer()) as tr:
                cells[(name, pes)] = measure_checkpoint_restart(name, pes)
            metrics[(name, pes)] = tr.metrics.flat()
    return cells, metrics


def test_table6(benchmark, report):
    cells, metrics = benchmark.pedantic(_measure_with_metrics, rounds=2, iterations=1)
    text, _ = table6(cells)
    report("table6_breakdown", text)
    simulated = {
        f"{n}/{p}pe": {k: v for k, v in m.items() if not WALL_CLOCK_KEY.search(k)}
        for (n, p), m in metrics.items()
    }
    report("table6_metrics", json.dumps(simulated, indent=1))

    def rate(m, series):
        return m[f"{series}.bytes"] / MB / m[f"{series}.seconds"]

    for name in ("bt", "lu", "sp"):
        m8, m16 = metrics[(name, 8)], metrics[(name, 16)]
        # reads client-limited: segment restore rate scales with clients
        assert rate(m16, "restart.drms.segment") > 1.5 * rate(m8, "restart.drms.segment")
        # writes server-limited: segment save rate does not improve
        assert rate(m16, "checkpoint.drms.segment") <= rate(m8, "checkpoint.drms.segment")
        # restart components sum to less than total (the 'other' band)
        assert (
            m8["restart.drms.segment.seconds"] + m8["restart.drms.arrays.seconds"]
            < m8["restart.drms.total.seconds"]
        )
        # the published series agree with the engine's returned breakdowns
        cell = cells[(name, 8)]
        assert m8["checkpoint.drms.total.seconds"] == pytest.approx(
            cell.drms_ckpt.total_seconds
        )
        assert m8["restart.drms.total.seconds"] == pytest.approx(
            cell.drms_restart.total_seconds
        )
        assert m8["checkpoint.drms.arrays.bytes"] == cell.drms_ckpt.arrays_bytes
        # the SPMD variants publish under their own kind
        assert m8["checkpoint.spmd.count"] == 1.0
        # array bytes move through the streaming engines exactly once
        # each way, and that traffic lands in the same registry
        assert m8["stream.out.bytes"] == cell.drms_ckpt.arrays_bytes
