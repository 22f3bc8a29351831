"""One writer into task locals: every path that fills them from a stream
or a global leaves the same locals.

A PFS restore, a full and a localized L1 restore, an incremental chain's
restore, ``set_global`` from a column- and a row-major global and
``steer_write`` all deliver through ``scatter_section_flat``.  Each is
judged here against the scalar delivery loop the kernel replaced
(``_scalar_scatter_piece``, kept in ``test_vectorized.py``) and by
``to_global`` — never by the kernel itself: every mapped copy, shadows
included, byte for byte, on a task count other than the checkpoint's.
"""

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import (
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    Indexed,
    Replicated,
    block_distribution,
    process_grid,
)
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.checkpoint.drms import drms_checkpoint, drms_restart
from repro.checkpoint.incremental import IncrementalCheckpointer
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.drms.steering import steer_write
from repro.mlck.localized import localized_restore_drms
from repro.mlck.store import L1Store
from repro.plancache import PlanCache, use_plan_cache
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from tests.streaming.test_vectorized import _scalar_scatter_piece

#: small pieces and spans, so every stream is several of each
TARGET = 512

SHAPE = (13, 11)
BT_SHAPE = (5, 12, 10, 9)


def _bt(t):
    grid = process_grid(t, 4, fixed=(1, 0, 0, 0))
    shadow = (0,) + tuple(2 if g > 1 else 0 for g in grid[1:])
    return Distribution(
        BT_SHAPE, [Replicated(), Block(), Block(), Block()], t,
        grid=grid, shadow=shadow,
    )


#: name -> (distribution on t tasks, checkpoint tasks, restart tasks)
GEOMETRIES = {
    "block_shadow": (lambda t: block_distribution(SHAPE, t, shadow=(1, 2)), 4, 3),
    "cyclic": (lambda t: Distribution(SHAPE, [Cyclic(), Cyclic()], t), 3, 4),
    "block_k": (lambda t: Distribution(SHAPE, [BlockCyclic(3), Block()], t), 4, 3),
    "indexed": (
        lambda t: Distribution(
            SHAPE,
            [Indexed([Range([0, 3, 4, 9, 12]), Range([1, 2, 5, 6, 7, 8, 10, 11])]),
             Block()],
            t, grid=(2, t // 2),
        ),
        4, 2,
    ),
    "bt": (_bt, 4, 3),
}


def _segment():
    return DataSegment(profile=SegmentProfile(256, 64, 0), replicated={"it": 1})


def _source(dist, values):
    a = DistributedArray("u", values.shape, values.dtype, dist)
    a.set_global(values)
    return a


def _pfs_restore(pfs, prefix, t2, order, dist2):
    state, _ = drms_restart(pfs, prefix, t2, order, None, TARGET, {"u": dist2})
    return state.arrays["u"]


def _l1_store(src, order):
    store = L1Store(Machine(MachineParams(num_nodes=8)), k=1, target_bytes=TARGET)
    store.capture_drms("ck.000001", _segment(), [src], order=order)
    return store


def _restored_by_every_writer(dist1, dist2, values, order):
    """``{path: array on dist2}`` filled with ``values`` by each path."""
    t2 = dist2.ntasks
    src = _source(dist1, values)
    out = {}

    pfs = PIOFS()
    drms_checkpoint(pfs, "ck", _segment(), [src], order=order, target_bytes=TARGET)
    out["pfs"] = _pfs_restore(pfs, "ck", t2, order, dist2)

    store = _l1_store(src, order)
    out["l1"] = store.restore_drms("ck.000001", t2, order, {"u": dist2})[0].arrays["u"]
    out["l1_localized"] = localized_restore_drms(
        store, "ck.000001", t2, {r: r for r in range(t2)}, [1],
        order=order, distribution_overrides={"u": dist2},
    )[0].arrays["u"]

    # a chain whose delta rewrites part of the stream: base then delta
    chain = PIOFS()
    ck = IncrementalCheckpointer(chain, "inc", order=order, target_bytes=TARGET)
    old = _source(dist1, values - 1.0)
    ck.full(_segment(), [old])
    old.set_global(values)
    ck.incremental(_segment(), [old])
    out["chain"] = _pfs_restore(chain, "inc.d1", t2, order, dist2)

    for layout in ("F", "C"):
        a = DistributedArray("u", values.shape, values.dtype, dist2)
        a.set_global(np.array(values, order=layout))
        out[f"set_global_{layout}"] = a

    a = DistributedArray("u", values.shape, values.dtype, dist2)
    steer_write(a, values)
    out["steer_write"] = a
    return out


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_every_writer_leaves_the_scalar_reference_locals(geometry, order):
    make, t1, t2 = GEOMETRIES[geometry]
    dist1, dist2 = make(t1), make(t2)
    shape = dist1.shape
    values = np.random.default_rng(44).standard_normal(shape)
    ref = DistributedArray("u", shape, values.dtype, dist2)
    _scalar_scatter_piece(ref, Slice.full(shape), values)
    arrays = _restored_by_every_writer(dist1, dist2, values, order)
    assert len(arrays) == 7
    for path, a in arrays.items():
        assert a.ntasks == t2 != t1
        np.testing.assert_array_equal(a.to_global(), values, err_msg=path)
        for t in range(t2):
            local = a.local(t)
            assert local.flags.f_contiguous, (path, t)
            assert local.tobytes("F") == ref.local(t).tobytes("F"), (path, t)


@pytest.mark.parametrize("order", ["F", "C"])
def test_an_l1_restore_reuses_the_pfs_restore_plan(monkeypatch, order):
    """The L1 restore scatters through the stream-in's own ``"mapped"``
    plan: once a PFS restore of the geometry planned it, the L1 restore
    of the same generation misses no ``"indexplan"``."""
    make, t1, t2 = GEOMETRIES["bt"]
    dist1, dist2 = make(t1), make(t2)
    values = np.random.default_rng(45).standard_normal(dist1.shape)
    misses = []
    real = PlanCache.get_or_compute

    def spy(self, kind, key, compute):
        def counted():
            misses.append(kind)
            return compute()
        return real(self, kind, key, counted)

    monkeypatch.setattr(PlanCache, "get_or_compute", spy)
    with use_plan_cache(PlanCache()):
        src = _source(dist1, values)
        pfs = PIOFS()
        drms_checkpoint(pfs, "ck", _segment(), [src], order=order, target_bytes=TARGET)
        store = _l1_store(src, order)
        _pfs_restore(pfs, "ck", t2, order, dist2)
        assert "indexplan" in misses
        misses.clear()
        state, _ = store.restore_drms("ck.000001", t2, order, {"u": dist2})
    assert misses == []
    np.testing.assert_array_equal(state.arrays["u"].to_global(), values)
