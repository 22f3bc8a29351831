"""The Fig. 1 checkpoint cadence of the applications: BT, LU, SP and
the stencil checkpoint at iterations 1, 1 + every, 1 + 2 * every, ...;
``every = 0`` never checkpoints, a negative ``every`` is an error, and a
restarted run reports RESTARTED at its first SOP whatever the cadence."""

import pytest

from repro.apps import make_proxy
from repro.apps.stencil import StencilApp
from repro.obs import FlightRecorder
from repro.obs.flight import use_flight

NITER = 12


def checkpoint_iterations(app, ntasks, args, kwargs=None, restart=None):
    """Run (or restart from ``restart``) and list the iterations whose
    SOP wrote a checkpoint, from the ``checkpoint_taken`` records."""
    with use_flight(FlightRecorder(capacity=4096)) as fr:
        if restart is None:
            rep = app.start(ntasks, args=args, kwargs=kwargs)
        else:
            rep = app.restart(restart, ntasks, args=args, kwargs=kwargs)
    taken = [e.detail["iteration"] for e in fr.events()
             if e.kind == "checkpoint_taken"]
    assert len(taken) == len(rep.checkpoints)
    return taken, rep


def run_app(name, every):
    if name == "stencil":
        app = StencilApp(shape=(12, 12), checkpoint_every=every).build_application()
        return checkpoint_iterations(app, 2, (NITER, "st.ck"))[0]
    app = make_proxy(name, "toy").build_application()
    return checkpoint_iterations(
        app, 2, (NITER, f"{name}.ck"), {"checkpoint_every": every}
    )[0]


#: checkpoint iterations of a NITER-iteration run, per ``every``
EXPECTED = {
    0: [],
    # every iteration: a literal ``it % every == 1`` never fires for 1
    1: list(range(1, NITER + 1)),
    3: [1, 4, 7, 10],
    10: [1, 11],
}


@pytest.mark.parametrize("name", ["bt", "lu", "sp", "stencil"])
@pytest.mark.parametrize("every", sorted(EXPECTED))
def test_checkpoint_iterations(name, every):
    assert run_app(name, every) == EXPECTED[every]


def test_negative_interval_rejected():
    proxy = make_proxy("sp", "toy").build_application()
    with pytest.raises(ValueError, match="negative checkpoint interval"):
        proxy.start(2, args=(3, "sp.ck"), kwargs={"checkpoint_every": -1})
    stencil = StencilApp(shape=(12, 12), checkpoint_every=-1)
    with pytest.raises(ValueError, match="negative checkpoint interval"):
        stencil.build_application().start(2, args=(3, "st.ck"))


def test_restart_off_the_cadence_keeps_its_checkpoint():
    """A run checkpointed every 3 iterations resumes at iteration 7
    under a cadence of 4 (1, 5, 9, ...).  Iteration 7 is off the new
    cadence, yet it is the first SOP of the restarted run and reports
    RESTARTED there; iteration 9 then writes a checkpoint."""
    app = make_proxy("bt", "toy").build_application()
    taken, _ = checkpoint_iterations(
        app, 2, (8, "bt.ck"), {"checkpoint_every": 3}
    )
    assert taken == [1, 4, 7]
    taken, rep = checkpoint_iterations(
        app, 3, (12, "bt.ck"), {"checkpoint_every": 4}, restart="bt.ck"
    )
    assert rep.restarted_from == "bt.ck"
    assert taken == [9]
