"""The package's public surface: everything advertised imports and the
README quickstart runs verbatim."""

import importlib

import numpy as np
import pytest

import repro


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


@pytest.mark.parametrize(
    "module",
    [
        "repro.arrays",
        "repro.runtime",
        "repro.pfs",
        "repro.streaming",
        "repro.checkpoint",
        "repro.drms",
        "repro.drms.api",
        "repro.drms.elastic",
        "repro.drms.mpmd",
        "repro.drms.nonconforming",
        "repro.drms.steering",
        "repro.infra",
        "repro.infra.fleet",
        "repro.apps",
        "repro.apps.unstructured",
        "repro.apps.verify",
        "repro.perfmodel",
        "repro.perfmodel.reportgen",
        "repro.perfmodel.sensitivity",
        "repro.reporting",
        "repro.tools.forensics",
        "repro.tools.report",
        "repro.verify",
    ],
)
def test_submodule_all_exports(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


def test_readme_quickstart_verbatim():
    from repro import CheckpointStatus, DRMSApplication
    from repro.drms.api import (
        drms_adjust,
        drms_create_distribution,
        drms_distribute,
        drms_initialize,
        drms_reconfig_checkpoint,
    )

    N = 32

    def main(ctx, niter, prefix):
        drms_initialize(ctx)
        dist = drms_create_distribution(ctx, (N, N), shadow=(1, 1))
        u = drms_distribute(ctx, "u", dist, init_global=np.ones((N, N)))
        for it in ctx.iterations(1, niter + 1):
            if it % 10 == 1:
                status, delta = drms_reconfig_checkpoint(ctx, prefix)
                if status is CheckpointStatus.RESTARTED and delta != 0:
                    u = drms_distribute(ctx, "u", drms_adjust(ctx, "u"))
            u.set_assigned(u.assigned + 1.0)
            ctx.barrier()

    app = DRMSApplication(main)
    rep1 = app.start(8, args=(30, "ckpt"))  # 100 iters in the README; 30 here
    rep2 = app.restart("ckpt", 12, args=(30, "ckpt"))
    assert np.allclose(
        rep1.arrays["u"].to_global(), rep2.arrays["u"].to_global()
    )


def test_py_typed_marker_ships():
    import pathlib

    pkg = pathlib.Path(repro.__file__).parent
    assert (pkg / "py.typed").exists()
