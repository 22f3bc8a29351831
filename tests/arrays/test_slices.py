"""Unit tests for Slice: the paper's array-section descriptor."""

import numpy as np
import pytest

from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import SliceError


@pytest.fixture
def paper_slice():
    """The Figure 2 example: s = ((8,9,10,12), (16,18,19,20,22))."""
    return Slice([Range([8, 9, 10, 12]), Range([16, 18, 19, 20, 22])])


class TestBasics:
    def test_paper_example_size(self, paper_slice):
        assert paper_slice.rank == 2
        assert paper_slice.size == 4 * 5
        assert paper_slice.shape == (4, 5)

    def test_full(self):
        s = Slice.full((3, 4))
        assert s.size == 12
        assert s[0] == Range.of_size(3)

    def test_empty(self):
        assert Slice.empty(3).is_empty
        assert Slice.empty(3).size == 0

    def test_needs_a_range(self):
        with pytest.raises(SliceError):
            Slice([])

    def test_accepts_mixed_specs(self):
        s = Slice([slice(0, 3), [5, 9], 7])
        assert s.shape == (3, 2, 1)

    def test_equality_and_hash(self):
        a = Slice([Range([1, 2]), Range([3])])
        b = Slice([slice(1, 3), 3])
        assert a == b
        assert hash(a) == hash(b)
        # all empties of same rank are equal regardless of axis ranges
        e1 = Slice([Range.empty(), Range([1])])
        e2 = Slice([Range([5]), Range.empty()])
        assert e1 == e2

    def test_contains_point(self, paper_slice):
        assert paper_slice.contains_point((9, 19))
        assert not paper_slice.contains_point((11, 19))
        with pytest.raises(SliceError):
            paper_slice.contains_point((1, 2, 3))


class TestAlgebra:
    def test_intersection_rangewise(self, paper_slice):
        window = Slice([slice(0, 10), slice(18, 21)])
        got = paper_slice * window
        assert got == Slice([Range([8, 9]), Range([18, 19, 20])])

    def test_intersection_rank_mismatch(self, paper_slice):
        with pytest.raises(SliceError):
            paper_slice * Slice.full((4,))

    def test_issubset(self, paper_slice):
        sub = Slice([Range([9, 12]), Range([16, 22])])
        assert sub.issubset(paper_slice)
        assert not paper_slice.issubset(sub)
        assert Slice.empty(2).issubset(paper_slice)

    def test_replace_and_shift_and_clip(self):
        s = Slice([slice(0, 4), slice(2, 6)])
        assert s.replace(1, Range([9]))[1] == Range([9])
        assert s.shift((10, -2)) == Slice([slice(10, 14), slice(0, 4)])
        assert s.clip((3, 3)) == Slice([slice(0, 3), slice(2, 3)])


class TestStreamSplit:
    def test_f_order_splits_last_axis_first(self):
        s = Slice.full((4, 6))
        assert s.split_axis("F") == 1
        assert s.lo("F") == Slice([slice(0, 4), slice(0, 3)])
        assert s.hi("F") == Slice([slice(0, 4), slice(3, 6)])

    def test_c_order_splits_first_axis_first(self):
        s = Slice.full((4, 6))
        assert s.split_axis("C") == 0
        assert s.lo("C") == Slice([slice(0, 2), slice(0, 6)])

    def test_split_skips_singleton_axes(self):
        s = Slice([slice(0, 5), 3])
        assert s.split_axis("F") == 0

    def test_singleton_slice_does_not_split(self):
        s = Slice([2, 3])
        assert s.split_axis("F") == -1
        assert s.lo("F") == s
        assert s.hi("F").is_empty

    def test_lo_hi_tile_the_slice(self, paper_slice):
        lo, hi = paper_slice.lo(), paper_slice.hi()
        assert lo.size + hi.size == paper_slice.size
        assert (lo * hi).is_empty


class TestNumpyInterop:
    def test_np_index_selects_section(self, paper_slice):
        a = np.arange(30 * 30).reshape(30, 30)
        sel = a[paper_slice.np_index()]
        assert sel.shape == (4, 5)
        assert sel[0, 0] == 8 * 30 + 16
        assert sel[3, 4] == 12 * 30 + 22

    def test_local_index_within(self, paper_slice):
        local = np.arange(20).reshape(4, 5)
        sub = Slice([Range([9, 12]), Range([18, 22])])
        picked = local[sub.local_index_within(paper_slice)]
        # rows 9,12 -> positions 1,3; cols 18,22 -> positions 1,4
        assert picked.tolist() == [[6, 9], [16, 19]]

    def test_regular_sections_index_with_basic_slices(self):
        """Regular-in-regular selects through a tuple of ``slice``s (a
        strided view), anything irregular through an ``np.ix_`` mesh —
        and both forms select the same elements."""
        a = np.arange(30 * 30).reshape(30, 30)
        outer = Slice([Range.regular(2, 29), Range.regular(1, 28, 3)])
        local = a[np.ix_(outer[0].indices(), outer[1].indices())]
        cases = [
            # stride-3 range inside a stride-1 outer, stride 6 inside stride 3
            (Slice([Range.regular(5, 26, 3), Range.regular(4, 28, 6)]), True),
            (Slice([Range(7), Range.regular(1, 28, 3)]), True),
            (Slice([Range([3, 5, 7]), Range([1, 28])]), True),  # regular after all
            (Slice([Range([3, 4, 9]), Range.regular(4, 28, 6)]), False),
            (Slice([Range.regular(5, 26, 3), Range([1, 4, 13])]), False),
            (Slice([Range.empty(), Range.regular(4, 28, 6)]), True),
            (Slice.empty(2), True),
        ]
        for sec, regular in cases:
            mesh = np.ix_(*[r.indices() for r in sec])
            for index, source in (
                (sec.np_index(), a),
                (sec.local_index_within(outer), local),
            ):
                assert all(isinstance(i, slice) for i in index) == regular, sec
                assert any(isinstance(i, np.ndarray) for i in index) != regular
                if sec.is_empty:  # selects nothing, whatever the other axes say
                    assert source[index].size == 0
                else:
                    assert np.array_equal(source[index], a[mesh])
            box = sec.box_within(outer)
            assert (box == sec.local_index_within(outer)) if regular else box is None

    def test_arithmetic_slice_rule(self):
        from repro.arrays.slices import arithmetic_slice
        from repro.errors import RangeError

        assert arithmetic_slice(Range.empty(), Range.regular(0, 9)) == slice(0, 0, 1)
        assert arithmetic_slice(Range(4)) == slice(4, 5, 1)
        assert arithmetic_slice(Range([2, 9])) == slice(2, 10, 7)
        assert arithmetic_slice(Range([0, 1, 3])) is None
        # two triplets, closed form: positions of 5:26:6 within 2:29:3
        assert arithmetic_slice(
            Range.regular(5, 26, 6), Range.regular(2, 29, 3)
        ) == slice(1, 8, 2)
        # an index-list outer: checked on the positions themselves
        outer = Range([0, 2, 3, 4, 8, 9])
        assert arithmetic_slice(Range.regular(2, 4), outer) == slice(1, 4, 1)
        assert arithmetic_slice(Range([0, 3, 8]), outer) == slice(0, 5, 2)
        assert arithmetic_slice(Range([0, 2, 8]), outer) is None
        # same end points and count as 0:8:2, but not evenly spaced
        assert arithmetic_slice(Range([0, 2, 3, 4, 8]), Range.regular(0, 9)) is None
        for sub, within in (
            (Range.regular(0, 4), Range.regular(1, 9)),      # starts before
            (Range.regular(5, 12), Range.regular(1, 9)),     # ends after
            (Range.regular(2, 8, 2), Range.regular(1, 9, 2)),  # off the lattice
            (Range.regular(1, 7, 3), Range.regular(1, 9, 2)),  # stride not a multiple
            (Range([0, 5]), Range([0, 2, 3])),
        ):
            with pytest.raises(RangeError):
                arithmetic_slice(sub, within)

    def test_enumerate_stream_f_order(self):
        s = Slice([Range([0, 1]), Range([5, 7])])
        pts = s.enumerate_stream("F").tolist()
        assert pts == [[0, 5], [1, 5], [0, 7], [1, 7]]

    def test_enumerate_stream_c_order(self):
        s = Slice([Range([0, 1]), Range([5, 7])])
        pts = s.enumerate_stream("C").tolist()
        assert pts == [[0, 5], [0, 7], [1, 5], [1, 7]]
