"""The one restore pipeline: ``restore(source, ntasks, ...)`` knows
nothing about tiers, and the three generation sources (PFS copy, L1
replicas, localized L1) restore the same state at the cost recorded
from the three separate routines this pipeline replaced."""

import pathlib
import re

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.checkpoint.drms import drms_restart, restore
from repro.checkpoint.format import distribution_to_spec, sha1_hex
from repro.checkpoint.segment import DataSegment, ExecutionContext, SegmentProfile
from repro.errors import RestartError
from repro.mlck.drain import DrainController
from repro.mlck.localized import localized_restore_drms
from repro.mlck.store import L1Store
from repro.obs import Tracer, use_tracer
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from repro.streaming.order import stream_order_bytes

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
PREFIX = "fx.000001"


def _segment():
    return DataSegment(
        profile=SegmentProfile(
            local_section_bytes=20000, system_bytes=3000, private_bytes=500
        ),
        replicated={"it": 3, "dt": 0.125},
        context=ExecutionContext(sop_id=2, iteration=3, control={"k": 1}),
    )


# -- (i) a source that is neither a file system nor a replica store -----------


class DictSource:
    """A generation held in a dict: no PFS, no L1Store, made-up costs."""

    kind = "fake"
    prefix = "mem"
    init_seconds = 2.0
    spans = ("fake_segment", "fake_array")

    def __init__(self, segment, globals_by_name, ntasks):
        self.header, pad = segment.serialize()
        self.streams = {
            n: stream_order_bytes(g, "F") for n, g in globals_by_name.items()
        }
        self.manifest = {
            "kind": "drms",
            "ntasks": ntasks,
            "order": "F",
            "segment_file": "mem.segment",
            "segment_bytes": len(self.header) + pad,
            "arrays": [
                {
                    "name": n,
                    "shape": list(g.shape),
                    "dtype": g.dtype.str,
                    "file": f"mem.array.{n}",
                    "nbytes": g.nbytes,
                    "virtual": False,
                    "distribution": distribution_to_spec(
                        block_distribution(g.shape, ntasks)
                    ),
                }
                for n, g in globals_by_name.items()
            ],
        }

    def fetch_segment(self, ntasks):
        return self.header, 0.25, self.manifest["segment_bytes"] * ntasks

    def load_array(self, arr, spec, order):
        data = self.streams[spec["name"]]
        arr.set_global(
            np.frombuffer(data, spec["dtype"]).reshape(spec["shape"], order=order)
        )
        return 0.5, len(data), {"note": 1}


def test_pipeline_runs_over_a_source_that_is_no_tier():
    globals_by_name = {
        "a": np.arange(48.0).reshape(8, 6),
        "b": np.arange(30, dtype=np.int32).reshape(5, 6),
    }
    source = DictSource(_segment(), globals_by_name, ntasks=4)
    with use_tracer(Tracer()) as tracer:
        state, bd = restore(source, 3)
    assert state.ntasks == 3 and state.checkpoint_ntasks == 4 and state.delta == -1
    assert state.manifest is source.manifest
    assert state.segment.serialize() == _segment().serialize()
    for name, want in globals_by_name.items():
        assert state.arrays[name].ntasks == 3
        np.testing.assert_array_equal(state.arrays[name].to_global(), want)
    # the pipeline, not the source, fills the breakdown and opens the spans
    assert (bd.kind, bd.other_seconds, bd.segment_seconds) == ("fake", 2.0, 0.25)
    assert bd.segment_bytes == 3 * source.manifest["segment_bytes"]
    assert bd.per_array == [("a", 0.5, 384), ("b", 0.5, 120)]
    assert bd.total_seconds == 2.0 + 0.25 + 1.0
    (root,) = tracer.roots()
    assert root.name == "restart" and root.attrs["kind"] == "fake"
    assert [s.name for s in tracer.children(root)] == [
        "restart_init", "fake_segment", "fake_array:a", "fake_array:b",
    ]
    assert root.sim_seconds == bd.total_seconds
    assert tracer.metrics.flat()["restart.fake.total.seconds"] == bd.total_seconds


def test_pipeline_rejects_non_drms_kinds_and_empty_pools():
    source = DictSource(_segment(), {"a": np.zeros((4, 4))}, ntasks=2)
    with pytest.raises(RestartError, match="cannot restart on 0 tasks"):
        restore(source, 0)
    source.manifest["kind"] = "spmd"
    with pytest.raises(RestartError, match="needs a DRMS checkpoint"):
        restore(source, 2)


# -- (ii) one captured generation, three sources -------------------------------

#: RestartBreakdown of the fixed case below, recorded at the parent
#: commit (91103dc) from drms_restart / L1Store.restore_drms /
#: localized_restore_drms when each still had its own body:
#: (segment_seconds, segment_bytes, arrays_seconds, per_array)
RECORDED = {
    ("pfs", 4, 3): (0.10661971830985915, 70500, 0.3422555555555556, [
        ("u", 0.116, 15360), ("v", 0.10350000000000001, 3360),
        ("w", 0.12275555555555556, 32768)]),
    ("pfs", 4, 4): (0.10661971830985915, 94000, 0.3268166666666667, [
        ("u", 0.10800000000000001, 15360), ("v", 0.10175000000000001, 3360),
        ("w", 0.11706666666666668, 32768)]),
    ("pfs", 3, 5): (0.10661971830985915, 117500, 0.3234033333333334, [
        ("u", 0.10800000000000001, 15360), ("v", 0.10175000000000001, 3360),
        ("w", 0.11365333333333334, 32768)]),
    ("l1", 4, 3): (0.0021874357142857145, 70500, 0.001269257142857143, [
        ("u", 0.00015702857142857143, 15360), ("v", 0.000136, 3360),
        ("w", 0.0009762285714285714, 32768)]),
    ("l1", 4, 4): (0.0028988642857142857, 94000, 0.001269257142857143, [
        ("u", 0.00015702857142857143, 15360), ("v", 0.000136, 3360),
        ("w", 0.0009762285714285714, 32768)]),
    ("l1", 3, 5): (0.0036102928571428573, 117500, 0.001269257142857143, [
        ("u", 0.00015702857142857143, 15360), ("v", 0.000136, 3360),
        ("w", 0.0009762285714285714, 32768)]),
    ("localized", 4, 3): (0.0007701785714285714, 70500, 0.0006341485714285715, [
        ("u", 0.00019606857142857143, 15360), ("v", 6.400000000000001e-05, 3360),
        ("w", 0.00037408, 32768)]),
    ("localized", 4, 4): (0.0007701785714285714, 94000, 0.0005144228571428572, [
        ("u", 0.00015931428571428573, 15360), ("v", 6.0571428571428576e-05, 3360),
        ("w", 0.0002945371428571429, 32768)]),
    ("localized", 3, 5): (0.0007701785714285714, 117500, 0.00044498285714285714, [
        ("u", 0.00013545142857142856, 15360), ("v", 6.400000000000001e-05, 3360),
        ("w", 0.00024553142857142857, 32768)]),
}
KINDS = {"pfs": "drms", "l1": "mlck-l1", "localized": "mlck-l1-localized"}


def _captured(t1):
    """One generation captured into L1 on ``t1`` tasks and drained to
    the PFS: two real arrays, one virtual, a padded segment."""
    machine = Machine(MachineParams(num_nodes=8))
    pfs = PIOFS(machine=machine)
    store = L1Store(machine, k=1, target_bytes=4096)
    rng = np.random.default_rng(7)
    arrays = []
    for name, shape, dtype in (
        ("u", (48, 40), np.float64), ("v", (30, 7, 4), np.float32),
    ):
        a = DistributedArray(
            name, shape, dtype, block_distribution(shape, t1), store_data=True
        )
        a.set_global(rng.standard_normal(shape).astype(dtype))
        arrays.append(a)
    arrays.append(
        DistributedArray(
            "w", (64, 64), np.float64, block_distribution((64, 64), t1),
            store_data=False,
        )
    )
    store.capture_drms(PREFIX, _segment(), arrays, order="F", app_name="fx")
    drainer = DrainController(store, pfs, target_bytes=4096)
    drainer.schedule(PREFIX)
    drainer.wait()
    return machine, pfs, store, arrays


def _restore_through(how, t1, t2, **kwargs):
    machine, pfs, store, arrays = _captured(t1)
    init = pfs.params.restart_init_s
    if how == "pfs":
        state, bd = drms_restart(pfs, PREFIX, t2, target_bytes=4096, **kwargs)
    elif how == "l1":
        state, bd = store.restore_drms(PREFIX, t2, init_seconds=init, **kwargs)
    else:
        machine.fail_node(1)
        store.sync_with_machine()
        state, bd, _ = localized_restore_drms(
            store, PREFIX, t2, {r: r for r in range(t2)}, [1],
            replacements={1: 7}, init_seconds=init, **kwargs
        )
    return state, bd, arrays


@pytest.mark.parametrize("t1,t2", [(4, 3), (4, 4), (3, 5)])
def test_three_sources_one_state_and_the_recorded_costs(t1, t2):
    restored = {how: _restore_through(how, t1, t2) for how in KINDS}
    _, _, arrays = restored["pfs"]
    want = {a.name: a.to_global() for a in arrays if a.store_data}
    for how, (state, bd, _) in restored.items():
        assert bd.kind == KINDS[how]
        assert (state.ntasks, state.checkpoint_ntasks) == (t2, t1)
        assert state.segment.serialize() == _segment().serialize()
        assert list(state.arrays) == ["u", "v", "w"]
        for name, ref in want.items():
            got = state.arrays[name]
            assert got.ntasks == t2
            assert sha1_hex(got.to_global().tobytes()) == sha1_hex(ref.tobytes())
        assert not state.arrays["w"].store_data
        seg_s, seg_b, arr_s, per_array = RECORDED[how, t1, t2]
        assert bd.segment_seconds == seg_s
        assert bd.segment_bytes == seg_b
        assert bd.arrays_seconds == arr_s
        assert bd.arrays_bytes == 51488
        assert bd.per_array == per_array
        assert bd.other_seconds == 3.5
    # every source surfaces the same manifest shape (the PFS file also
    # carries its format version, the replicas their tier)
    pfs_m, l1_m, loc_m = (restored[how][0].manifest for how in KINDS)
    assert loc_m == l1_m
    assert set(pfs_m) - {"version"} == set(l1_m) - {"tier"}
    for key in set(pfs_m) - {"version"}:
        assert pfs_m[key] == l1_m[key], key


# -- (iii) the override check is the pipeline's --------------------------------


@pytest.mark.parametrize("how", list(KINDS))
def test_wrong_ntasks_override_is_the_same_error_from_every_source(how):
    wrong = {"u": block_distribution((48, 40), 2)}
    with pytest.raises(RestartError) as exc:
        _restore_through(how, 4, 3, distribution_overrides=wrong)
    assert str(exc.value) == (
        "override distribution for 'u' targets 2 tasks; restart uses 3"
    )


# -- static: each mechanism has one home under src/repro -----------------------


def _files_matching(pattern, skip=()):
    """``relative/path.py`` once per matching line under src/repro."""
    rx = re.compile(pattern)
    return [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] not in skip
        for line in path.read_text().splitlines()
        if rx.search(line)
    ]


def test_restore_walk_and_commit_each_occur_once():
    # the fixed-initialization span every restart charges
    assert _files_matching(r"""span\(\s*["']restart_init["']""") == [
        "checkpoint/drms.py"
    ]
    # the override-targets-N-tasks check
    assert _files_matching(r"override distribution for") == ["checkpoint/drms.py"]
    assert _files_matching(r"dist\.ntasks\s*!=") == ["checkpoint/drms.py"]
    # staging a manifest and renaming it into place (the file systems
    # implement rename; nobody but the one commit calls it)
    assert _files_matching(r"\.rename\(", skip=("pfs",)) == ["checkpoint/format.py"]
    # one builder of a checkpoint's RestoredState (drms/elastic.py
    # synthesizes one for an in-memory resize, which restores nothing)
    assert _files_matching(r"\bRestoredState\(") == [
        "checkpoint/drms.py", "drms/elastic.py",
    ]
    # one walk: verified/rejected records are written under the walk's
    # vocabulary by walk_generations, never under a literal name
    assert _files_matching(
        r"""^\s*(\w+, )?["'](checkpoint|workflow_line)_(verified|rejected)["'],"""
    ) == []
    assert set(_files_matching(r"\{names\.item\}_(verified|rejected)")) == {
        "checkpoint/recover.py"
    }
