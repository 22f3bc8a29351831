"""Simulated time is a function of the simulated clocks alone.

The same ensemble, and the same verify-gate cases, under any host
thread switch interval give the same simulated numbers: each member's
``sim_elapsed``, the PIOFS phase log in order, and each node's sequence
of flight records (kind and time).  Before one scheduler owned every
wait, the host decided who ran next: phase admission, and so the phase
log's order, changed with the switch interval.
"""

import sys

import numpy as np
import pytest

from repro.obs import FlightRecorder, use_flight
from repro.pfs import piofs as piofs_mod
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from repro.verify.__main__ import MODES
from repro.verify.gen import GENERATORS, CaseGen
from repro.verify.oracle import run_case
from repro.workflow import WorkflowCoordinator

pytestmark = pytest.mark.determinism

INTERVALS = (5e-3, 1e-5, 1e-6)
N = 96
NITER = 4
TASKS = {"stencil": 4, "consumer": 2}
#: the seed and case counts of ``make verify-gates``, one suite per mode
#: (``determinism_gates.py``, run by ``make verify-determinism``), and a
#: tenth of them here
SEED = 20260806
GATES = (
    {"reconfig": 220, "fault": 40}, {"mlck": 40}, {"localized": 40}, {"workflow": 40},
)
TENTH = tuple({mode: n // 10 for mode, n in counts.items()} for counts in GATES)


def _member(ctx):
    ctx.initialize()
    dist = ctx.create_distribution((N, N))
    u = ctx.distribute("u", dist, init_global=np.ones((N, N)))
    inbox = ctx.distribute("inbox", dist, init_global=np.zeros((N, N)))
    for it in ctx.iterations(1, NITER + 1):
        ctx.workflow_exchange(final=(it == NITER))
        u.set_assigned(u.assigned + inbox.assigned.mean())
        ctx.barrier()
    return float(u.assigned.sum())


def _records(fr):
    return {
        node: [(e.kind, e.time) for e in fr.ring(node)] for node in fr.nodes()
    }


def _ensemble():
    machine = Machine(MachineParams(num_nodes=12))
    pfs = PIOFS(machine=machine)
    coord = WorkflowCoordinator("wf", machine=machine, pfs=pfs)
    for name in TASKS:
        coord.add_member(name, _member)
    coord.couple("stencil", "u", "consumer", "inbox")
    with use_flight(FlightRecorder(capacity=1 << 16)) as fr:
        rep = coord.run(TASKS)
    return {
        "sim_elapsed": {n: r.sim_elapsed for n, r in rep.members.items()},
        "returns": {n: r.returns for n, r in rep.members.items()},
        "phase_log": [
            (p.kind, p.seconds, p.total_bytes, sorted(p.files)) for p in pfs.phase_log
        ],
        "records": _records(fr),
    }


_SOLVE = piofs_mod.solve_phase


def _gates(monkeypatch, gates):
    """Every verify-gate mode's canonical schedules and seeded cases,
    run in-process: each case's result, every solved phase and every
    flight record."""
    phases = []

    def logged(*args, **kwargs):
        result = _SOLVE(*args, **kwargs)
        phases.append((result.kind, result.seconds, result.total_bytes))
        return result

    monkeypatch.setattr(piofs_mod, "solve_phase", logged)
    cases = [factory(seed=SEED) for _, schedules, _ in MODES.values() for _, factory in schedules]
    for counts in gates:
        gen = CaseGen(SEED)
        cases += [GENERATORS[mode](gen) for mode, n in counts.items() for _ in range(n)]
    with use_flight(FlightRecorder(capacity=1 << 16)) as fr:
        results = [repr(run_case(case).details) for case in cases]
    return {"results": results, "phases": phases, "records": _records(fr)}


def _under_each_interval(run):
    previous = sys.getswitchinterval()
    outs = []
    try:
        for interval in INTERVALS:
            sys.setswitchinterval(interval)
            outs.append(run())
    finally:
        sys.setswitchinterval(previous)
    return outs


def test_the_ensemble_repeats_under_any_switch_interval():
    first, *rest = _under_each_interval(_ensemble)
    assert len(first["phase_log"]) > 2 * NITER
    for out in rest:
        assert out["sim_elapsed"] == first["sim_elapsed"]
        assert out["returns"] == first["returns"]
        assert out["phase_log"] == first["phase_log"]
        assert out["records"] == first["records"]


def test_the_verify_gates_repeat_under_any_switch_interval(monkeypatch, gates=TENTH):
    first, *rest = _under_each_interval(lambda: _gates(monkeypatch, gates))
    assert first["phases"] and first["records"]
    for out in rest:
        assert out == first
