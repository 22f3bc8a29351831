"""Property-based tests (hypothesis) for the range/slice/distribution
algebra — the invariants in DESIGN.md §6."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import (
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    block_distribution,
)
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import SliceError


# -- strategies ---------------------------------------------------------------

regular_ranges = st.builds(
    Range.regular,
    st.integers(-20, 20),
    st.integers(-20, 60),
    st.integers(1, 7),
)

indexed_ranges = st.lists(
    st.integers(-30, 70), min_size=0, max_size=12, unique=True
).map(sorted).map(Range)

ranges = st.one_of(regular_ranges, indexed_ranges)

slices2d = st.builds(lambda a, b: Slice([a, b]), ranges, ranges)


# -- range algebra --------------------------------------------------------------


@given(ranges, ranges)
def test_intersection_commutative(q, r):
    assert q * r == r * q


@given(ranges, ranges, ranges)
@settings(max_examples=60)
def test_intersection_associative(q, r, s):
    assert (q * r) * s == q * (r * s)


@given(ranges)
def test_intersection_idempotent(r):
    assert r * r == r


@given(ranges, ranges)
def test_intersection_size_bound(q, r):
    assert (q * r).size <= min(q.size, r.size)


@given(ranges, ranges)
def test_intersection_matches_numpy(q, r):
    expect = np.intersect1d(q.indices(), r.indices())
    assert np.array_equal((q * r).indices(), expect)


@given(ranges)
def test_lo_hi_partition(r):
    lo, hi = r.lo(), r.hi()
    assert list(lo) + list(hi) == list(r)
    assert lo.size - hi.size in (0, 1)


subset_operands = st.one_of(
    ranges,
    st.integers(-20, 60).map(Range),  # singletons
    st.just(Range.empty()),
)


@given(subset_operands, subset_operands)
@settings(max_examples=300)
def test_issubset_is_its_definition(q, r):
    """``issubset`` decides from bounds and strides where it can; it must
    still equal ``|q * r| == |q|`` — strided operands whose offsets are
    not congruent to the stride included — and hold for ``q is q``."""
    assert q.issubset(r) == (q.intersect(r).size == q.size)
    assert q.issubset(q)
    assert q.issubset(Range(q)) and Range(q).issubset(q)


#: two per-axis range lists of one rank, 1 to 3
slice_pairs = st.integers(1, 3).flatmap(lambda rank: st.tuples(
    st.lists(subset_operands, min_size=rank, max_size=rank),
    st.lists(subset_operands, min_size=rank, max_size=rank),
))


@given(slice_pairs)
@settings(max_examples=300)
def test_slice_issubset_is_the_intersect_form(pair):
    """``Slice.issubset`` asks each axis' ``Range.issubset``; it must
    equal the form it replaced, ``s * t == s`` (an empty ``s`` inside
    any ``t``), over regular, INDEXED and empty ranges, and refuse a
    rank mismatch."""
    s, t = Slice(pair[0]), Slice(pair[1])
    assert s.issubset(t) == (s.is_empty or s.intersect(t) == s)
    assert s.issubset(s)
    with pytest.raises(SliceError):
        s.issubset(Slice(list(pair[1]) + [Range.of_size(3)]))


def test_issubset_is_its_definition_on_strided_pairs():
    """Seeded strided pairs, drawn so that many are subsets: inner
    offsets on and off the outer stride, inner strides multiples of the
    outer one or not, and indexed inners cut from the outer range."""
    rng = np.random.default_rng(20261017)
    hits = 0
    for _ in range(3000):
        step = int(rng.integers(1, 6))
        lo = int(rng.integers(-10, 10))
        outer = Range.regular(lo, lo + int(rng.integers(0, 40)), step)
        first = lo + step * int(rng.integers(-1, 6)) + int(rng.integers(0, 2))
        inner = Range.regular(
            first,
            first + int(rng.integers(0, 30)),
            step * int(rng.integers(1, 4)) + int(rng.random() < 0.2),
        )
        if rng.random() < 0.3 and outer.size > 2:
            keep = rng.random(outer.size) < 0.5
            inner = Range(outer.indices()[keep])
        for q, r in ((inner, outer), (outer, inner)):
            expect = q.intersect(r).size == q.size
            assert q.issubset(r) == expect, (q, r)
            hits += expect
    assert 1000 < hits < 5000  # both answers, often


@given(ranges, ranges)
def test_union_size(q, r):
    assert q.union(r).size == q.size + r.size - (q * r).size


@given(ranges, st.integers(-50, 50))
def test_shift_preserves_structure(r, off):
    s = r.shift(off)
    assert s.size == r.size
    assert np.array_equal(s.indices(), r.indices() + off)


# -- slice algebra -----------------------------------------------------------------


@given(slices2d, slices2d)
def test_slice_intersection_commutative(s, t):
    assert s * t == t * s


@given(slices2d)
def test_slice_size_is_product(s):
    assert s.size == s[0].size * s[1].size


@given(slices2d)
def test_slice_lo_hi_tile(s):
    lo, hi = s.lo(), s.hi()
    assert lo.size + hi.size == s.size
    if not s.is_empty and s.size > 1:
        assert (lo * hi).is_empty


# -- distribution legality -------------------------------------------------------------

axis_kinds = st.sampled_from([Block(), Cyclic(), BlockCyclic(2), BlockCyclic(3)])


@given(
    st.integers(4, 25),
    st.integers(4, 25),
    st.integers(1, 8),
    axis_kinds,
    axis_kinds,
    st.integers(0, 2),
)
@settings(max_examples=60)
def test_distribution_always_legal(nx, ny, ntasks, kx, ky, shadow):
    d = Distribution((nx, ny), [kx, ky], ntasks, shadow=(shadow, shadow))
    d.validate()  # raises on any violation
    # assigned sections tile the array
    total = sum(d.assigned(t).size for t in range(ntasks))
    assert total == nx * ny


@given(st.integers(2, 20), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2))
@settings(max_examples=50)
def test_redistribution_preserves_content(n, t1, t2, shadow):
    g = np.arange(n * n, dtype=np.float64).reshape(n, n)
    a = DistributedArray(
        "a", (n, n), np.float64, block_distribution((n, n), t1, shadow=(shadow, shadow))
    )
    a.set_global(g)
    b = a.redistributed(block_distribution((n, n), t2, shadow=(shadow, shadow)))
    assert np.array_equal(b.to_global(), g)
    assert b.is_consistent()
