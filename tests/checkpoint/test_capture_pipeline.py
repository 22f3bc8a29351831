"""The one capture pipeline: ``capture(sink, ...)`` assembles a
generation's manifest once, whatever the tier, and checks its inputs
before the first byte is stored."""

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.checkpoint.drms import drms_checkpoint
from repro.checkpoint.format import read_manifest
from repro.checkpoint.segment import DataSegment, ExecutionContext, SegmentProfile
from repro.errors import StreamingError
from repro.mlck.drain import DrainController
from repro.mlck.store import L1Store
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams

PREFIX = "ck.000001"
NTASKS = 4


def _segment():
    return DataSegment(
        profile=SegmentProfile(
            local_section_bytes=9000, system_bytes=2000, private_bytes=300
        ),
        replicated={"it": 5},
        context=ExecutionContext(sop_id=1, iteration=5),
    )


def _arrays(kinds):
    """A block-distributed float64 data array and a float32 virtual
    one, as ``kinds`` asks."""
    rng = np.random.default_rng(11)
    arrays = []
    if "data" in kinds:
        a = DistributedArray(
            "u", (24, 18), np.float64, block_distribution((24, 18), NTASKS)
        )
        a.set_global(rng.standard_normal((24, 18)))
        arrays.append(a)
    if "virtual" in kinds:
        arrays.append(
            DistributedArray(
                "w", (40, 9), np.float32,
                block_distribution((40, 9), NTASKS), store_data=False,
            )
        )
    return arrays


def _tiers():
    machine = Machine(MachineParams(num_nodes=8))
    return PIOFS(machine=machine), L1Store(machine, k=1, target_bytes=1024)


def _same(manifest):
    return {k: v for k, v in manifest.items() if k not in ("version", "tier")}


@pytest.mark.mlck
@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize(
    "kinds", [("data", "virtual"), ("data",), ("virtual",), ()],
    ids=["data+virtual", "data", "virtual", "none"],
)
def test_one_manifest_across_tiers(order, kinds):
    """The manifest an L1 capture records, the one its drain commits and
    the one a direct PFS checkpoint writes are one manifest."""
    pfs, store = _tiers()
    gen, _ = store.capture_drms(
        PREFIX, _segment(), _arrays(kinds), order=order, app_name="m",
        ntasks=NTASKS,
    )
    drainer = DrainController(store, pfs, target_bytes=1024)
    drainer.schedule(PREFIX)
    drainer.wait()
    drained = read_manifest(pfs, PREFIX)
    direct_pfs, _ = _tiers()
    drms_checkpoint(
        direct_pfs, PREFIX, _segment(), _arrays(kinds), order=order,
        target_bytes=1024, app_name="m", ntasks=NTASKS,
    )
    direct = read_manifest(direct_pfs, PREFIX)
    assert _same(gen.manifest) == _same(drained) == _same(direct)
    assert direct["ntasks"] == NTASKS
    assert [s["name"] for s in direct["arrays"]] == [a.name for a in _arrays(kinds)]


@pytest.mark.parametrize(
    "kinds", [("data", "virtual"), ()], ids=["arrays", "none"]
)
@pytest.mark.parametrize("tier", ["pfs", "l1"])
def test_a_bad_order_is_refused_before_the_first_byte(tier, kinds):
    pfs, store = _tiers()
    with pytest.raises(StreamingError):
        if tier == "pfs":
            drms_checkpoint(pfs, PREFIX, _segment(), _arrays(kinds), order="X")
        else:
            store.capture_drms(PREFIX, _segment(), _arrays(kinds), order="X")
    assert pfs.listdir("") == []
    assert store.generations() == []
    assert store.resident_bytes() == 0
