"""Legality is checked per axis, and the per-axis check accepts exactly
what the per-task check accepted.

A distribution's sections are products of one range per axis, so the
paper's per-task condition ``a_t ⊆ m_t ⊆ array`` is the per-axis
condition ``assigned ⊆ mapped ⊆ [0, n)`` for every axis and grid
coordinate; only mapped overrides are checked task by task.  The
per-task construction and check that stood before are frozen below as
the reference, as ``tests/streaming/test_box_plans.py`` freezes the
section plans' index-vector reference.  Over seeded random distributions
of every axis kind, with shadows and perturbed overrides, both accept
and reject the same cases and build the same geometry, fingerprint and
analogues."""

import hashlib
import math

import numpy as np
import pytest

from repro.arrays.distributions import (
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    GenBlock,
    Indexed,
    Replicated,
    block_distribution,
    process_grid,
)
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import DistributionError


# -- the reference: per-task construction and check ----------------------------


def _range_canon(r):
    if r.is_empty:
        return ("e",)
    if r.is_regular:
        return ("r", r.first, r.last, r.step)
    return ("i", r.indices().tobytes())


def _slice_canon(s):
    return tuple(_range_canon(r) for r in s.ranges)


class Reference:
    """The distribution as built and checked task by task: each task's
    assigned slice from its grid coordinates, its mapped slice by
    expanding that slice by the shadow, then the per-task legality loop
    and the per-axis disjoint/tiling loop."""

    def __init__(self, shape, axes, ntasks, grid=None, shadow=None, mapped=None):
        self.shape = tuple(int(n) for n in shape)
        if len(axes) != len(self.shape):
            raise DistributionError("axis count")
        self.axes = tuple(axes)
        self.ntasks = int(ntasks)
        if self.ntasks < 1:
            raise DistributionError("ntasks must be >= 1")
        if grid is None:
            fixed = [1 if isinstance(a, Replicated) else 0 for a in self.axes]
            self.grid = process_grid(self.ntasks, len(self.shape), fixed)
        else:
            self.grid = tuple(int(g) for g in grid)
            if math.prod(self.grid) != self.ntasks:
                raise DistributionError("grid")
        self.shadow = (
            tuple(int(s) for s in shadow) if shadow is not None else (0,) * len(self.shape)
        )
        if len(self.shadow) != len(self.shape):
            raise DistributionError("shadow rank mismatch")
        if any(s < 0 for s in self.shadow):
            raise DistributionError("shadow widths must be >= 0")
        self.per_axis = [
            ax.assigned(self.grid[i], self.shape[i]) for i, ax in enumerate(self.axes)
        ]
        if mapped is not None and len(mapped) != self.ntasks:
            raise DistributionError("mapped count")
        self.assigned, self.mapped = [], []
        for t in range(self.ntasks):
            coords, rest = [], t
            for g in reversed(self.grid):
                coords.append(rest % g)
                rest //= g
            coords.reverse()
            a = Slice(self.per_axis[i][c] for i, c in enumerate(coords))
            self.assigned.append(a)
            self.mapped.append(mapped[t] if mapped is not None else self._expand(a))
        self.validate()

    def _expand(self, a):
        rs = []
        for i, r in enumerate(a.ranges):
            w = self.shadow[i]
            if w == 0 or r.is_empty or not r.is_contiguous:
                rs.append(r)
            else:
                rs.append(
                    Range.regular(
                        max(0, r.first - w), min(self.shape[i] - 1, r.last + w), 1
                    )
                )
        return Slice(rs)

    def validate(self):
        rank = len(self.shape)
        full_slice = Slice.full(self.shape)
        for t in range(self.ntasks):
            a, m = self.assigned[t], self.mapped[t]
            if m.rank != rank:
                raise DistributionError("mapped rank")
            if not m.issubset(full_slice):
                raise DistributionError("mapped outside")
            if a.intersect(m) != a:
                raise DistributionError("assigned not in mapped")
        for i in range(rank):
            total = 0
            full = Range.of_size(self.shape[i])
            for c in range(self.grid[i]):
                r = self.per_axis[i][c]
                if not r.issubset(full):
                    raise DistributionError("axis range outside")
                total += r.size
                for c2 in range(c + 1, self.grid[i]):
                    if not r.intersect(self.per_axis[i][c2]).is_empty:
                        raise DistributionError("overlap")
            if total != self.shape[i] and not isinstance(
                self.axes[i], (Replicated, Indexed)
            ):
                raise DistributionError("cover")

    def adjust(self, ntasks):
        fixed = [1 if g == 1 else 0 for g in self.grid]
        try:
            grid = process_grid(ntasks, len(self.shape), fixed)
        except DistributionError:
            grid = None
        return Reference(
            self.shape,
            [ax.adjust(ntasks) for ax in self.axes],
            ntasks,
            grid=grid,
            shadow=self.shadow,
        )

    def fingerprint(self):
        canon = (
            self.shape,
            self.grid,
            self.shadow,
            tuple(_slice_canon(s) for s in self.assigned),
            tuple(_slice_canon(s) for s in self.mapped),
        )
        return hashlib.sha1(repr(canon).encode()).hexdigest()


# -- comparing the two ---------------------------------------------------------


def _outcome(build):
    """``(object, None)`` or ``(None, exception type)``."""
    try:
        return build(), None
    except Exception as exc:  # the type is what is compared
        return None, type(exc)


def _geometry(d, assigned, mapped):
    return (
        d.shape,
        d.grid,
        d.shadow,
        d.ntasks,
        [_slice_canon(s) for s in assigned],
        [_slice_canon(s) for s in mapped],
    )


def assert_same(args, kwargs):
    """The distribution and the reference accept or reject alike and, when
    both accept, agree on every section, the fingerprint and ``adjust(t)``
    for t in 1..6."""
    d, d_err = _outcome(lambda: Distribution(*args, **kwargs))
    ref, ref_err = _outcome(lambda: Reference(*args, **kwargs))
    assert d_err is ref_err, (args, kwargs, d_err, ref_err)
    if d is None:
        return False
    tasks = range(d.ntasks)
    assert _geometry(d, [d.assigned(t) for t in tasks], [d.mapped(t) for t in tasks]) == (
        _geometry(ref, ref.assigned, ref.mapped)
    )
    assert d.fingerprint() == ref.fingerprint()
    for t in range(1, 7):
        a, a_err = _outcome(lambda: d.adjust(t))
        r, r_err = _outcome(lambda: ref.adjust(t))
        assert a_err is r_err, (args, kwargs, t, a_err, r_err)
        if a is not None:
            ts = range(a.ntasks)
            assert _geometry(a, [a.assigned(k) for k in ts], [a.mapped(k) for k in ts]) == (
                _geometry(r, r.assigned, r.mapped)
            )
            assert a.axes == r.axes
            assert a.fingerprint() == r.fingerprint()
    return True


# -- seeded random distributions -----------------------------------------------


def _axis(rng, p, n):
    """A random axis kind for grid extent ``p`` and extent ``n``; about one
    in five GenBlock / Indexed kinds is deliberately illegal."""
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return Block()
    if kind == 1:
        return Cyclic()
    if kind == 2:
        return BlockCyclic(int(rng.integers(0 if rng.random() < 0.05 else 1, 4)))
    if kind == 3:
        sizes = list(rng.multinomial(n, np.ones(p) / p)) if p else []
        if rng.random() < 0.2 and sizes:
            sizes[int(rng.integers(0, len(sizes)))] += int(rng.choice([-1, 1]))
        return GenBlock(sizes)
    if kind == 4:
        owner = rng.integers(-1, p, n)  # -1: assigned to no coordinate
        cols = [sorted(np.flatnonzero(owner == c).tolist()) for c in range(p)]
        if rng.random() < 0.2 and p > 1 and n:
            extra = int(rng.integers(0, n + 2))  # overlap, or out of bounds
            c = int(rng.integers(0, p))
            cols[c] = sorted(set(cols[c]) | {extra})
        return Indexed([Range(col) for col in cols])
    return Replicated()


def _perturbed(rng, mapped, shape):
    """A copy of the mapped sections with one task's section changed: a
    range widened or narrowed by one, or the rank changed, or left as is."""
    out = list(mapped)
    t = int(rng.integers(0, len(out)))
    rs = list(out[t].ranges)
    move = int(rng.integers(0, 5))
    i = int(rng.integers(0, len(rs)))
    r = rs[i]
    if move == 0 and not r.is_empty:
        rs[i] = Range(sorted(set(r.indices().tolist()) | {r.last + 1}))
    elif move == 1 and not r.is_empty:
        rs[i] = Range(sorted(set(r.indices().tolist()) | {r.first - 1}))
    elif move == 2 and not r.is_empty:
        rs[i] = r.take(1, r.size)
    elif move == 3:
        rs = rs + [Range.of_size(1)] if len(rs) < 3 else rs[:-1]
    out[t] = Slice(rs)
    return out


def _random_case(rng):
    rank = int(rng.integers(1, 4))
    shape = tuple(int(n) for n in rng.integers(0, 10, rank))
    ntasks = int(rng.integers(1, 7))
    # the grid the kinds are drawn for; the case passes it, a shuffled
    # copy, or nothing
    grid = list(process_grid(ntasks, rank))
    axes = [_axis(rng, grid[i], shape[i]) for i in range(rank)]
    pick = rng.random()
    kwargs = {"shadow": tuple(int(w) for w in rng.integers(0, 3, rank))}
    if pick < 0.4:
        kwargs["grid"] = tuple(grid)
    elif pick < 0.6:
        kwargs["grid"] = tuple(int(g) for g in rng.permutation(grid))
    if rng.random() < 0.3:
        base, err = _outcome(lambda: Reference(shape, axes, ntasks, **kwargs))
        if base is not None:
            kwargs["mapped"] = _perturbed(rng, base.mapped, shape)
    return (shape, axes, ntasks), kwargs


@pytest.mark.parametrize("seed", range(8))
def test_random_distributions_match_the_per_task_reference(seed):
    rng = np.random.default_rng(20261017 + seed)
    accepted = 0
    for _ in range(150):
        args, kwargs = _random_case(rng)
        accepted += assert_same(args, kwargs)
    # both outcomes are exercised
    assert 0 < accepted < 150


# -- every DistributionError branch, by hand ------------------------------------


def _raises_on_both(*args, **kwargs):
    with pytest.raises(DistributionError):
        Distribution(*args, **kwargs)
    with pytest.raises(DistributionError):
        Reference(*args, **kwargs)


def test_overlapping_indexed_ranges_are_rejected():
    _raises_on_both((10,), [Indexed([Range([0, 1, 2]), Range([2, 3])])], 2)


def test_genblock_sizes_must_sum_to_the_extent():
    _raises_on_both((10,), [GenBlock([4, 4])], 2)


def test_an_override_must_contain_its_assigned_section():
    mapped = [Slice([Range.regular(0, 2)]), Slice([Range.regular(4, 7)])]
    _raises_on_both((8,), [Block()], 2, mapped=mapped)


def test_an_override_must_lie_inside_the_array():
    mapped = [Slice([Range.regular(0, 4)]), Slice([Range.regular(3, 8)])]
    _raises_on_both((8,), [Block()], 2, mapped=mapped)


def test_an_override_must_have_the_array_rank():
    mapped = [
        Slice([Range.regular(0, 4), Range.regular(0, 0)]),
        Slice([Range.regular(3, 7), Range.regular(0, 0)]),
    ]
    _raises_on_both((8,), [Block()], 2, mapped=mapped)


@pytest.mark.parametrize("grid", [(2,), (1, 2, 1)])
def test_a_grid_must_have_the_array_rank(grid):
    """Tasks are the product of the grid's columns, so a grid of another
    rank is rejected outright (the per-task reference failed on indexing
    the missing or extra axis)."""
    with pytest.raises(DistributionError):
        Distribution((8, 8), [Block(), Block()], 2, grid=grid)
    with pytest.raises((DistributionError, IndexError)):
        Reference((8, 8), [Block(), Block()], 2, grid=grid)


def test_a_legal_override_is_accepted_as_given():
    mapped = [Slice([Range([0, 1, 2, 3, 6])]), Slice([Range.regular(2, 7)])]
    d = Distribution((8,), [Block()], 2, mapped=mapped)
    assert [d.mapped(t) for t in range(2)] == mapped
    assert assert_same(((8,), [Block()], 2), {"mapped": mapped})


# -- edge geometry ----------------------------------------------------------------


def test_an_extent_zero_axis():
    args = ((0, 8), [Block(), Block()], 2)
    assert assert_same(args, {"grid": (1, 2), "shadow": (1, 1)})
    d = Distribution(*args, grid=(1, 2), shadow=(1, 1))
    assert all(d.assigned(t).is_empty and d.mapped(t).is_empty for t in range(2))


@pytest.mark.parametrize("kind", [Block(), Cyclic(), BlockCyclic(2)])
def test_more_tasks_than_elements(kind):
    assert assert_same(((3,), [kind], 5), {"shadow": (1,)})
    d = Distribution((3,), [kind], 5, shadow=(1,))
    assert sum(d.assigned(t).size for t in range(5)) == 3
    assert any(d.mapped(t).is_empty for t in range(5))


@pytest.mark.parametrize("kind", [Cyclic(), BlockCyclic(2), BlockCyclic(3)])
def test_strided_axes_with_a_shadow(kind):
    """A shadow widens a contiguous assigned range only: a strided or
    indexed range is its own mapped range."""
    args = ((11, 6), [kind, Block()], 4)
    assert assert_same(args, {"grid": (2, 2), "shadow": (2, 1)})
    d = Distribution(*args, grid=(2, 2), shadow=(2, 1))
    for t in range(4):
        a, m = d.assigned(t), d.mapped(t)
        if not a[0].is_contiguous:
            assert m[0] == a[0]
        assert m[1].size > a[1].size


def test_the_fingerprint_implies_equality_not_the_converse():
    """Equal distributions with an extent-0 axis may carry different
    fingerprints; equal fingerprints always mean equal distributions."""
    a = Distribution((0, 8), [Block(), Block()], 2, grid=(1, 2))
    b = Distribution((0, 8), [Block(), GenBlock([2, 6])], 2, grid=(1, 2))
    assert a == b and a.fingerprint() != b.fingerprint()
    c = Distribution((8,), [GenBlock([4, 4])], 2)
    assert c.fingerprint() == block_distribution((8,), 2).fingerprint()
    assert c == block_distribution((8,), 2)
