"""Unit tests for stream orderings and the stream digest."""

import hashlib

import numpy as np
import pytest

from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import StreamingError
from repro.streaming.order import (
    check_order,
    section_stream_positions,
    stream_order_bytes,
    stream_sha1,
    stream_spans,
)


def test_check_order():
    assert check_order("F") == "F"
    assert check_order("C") == "C"
    with pytest.raises(StreamingError):
        check_order("Z")


def test_stream_order_bytes_roundtrip():
    a = np.arange(24.0).reshape(2, 3, 4)
    for order in ("F", "C"):
        data = stream_order_bytes(a, order)
        back = np.frombuffer(data, np.float64).reshape((2, 3, 4), order=order)
        assert np.array_equal(back, a)


def test_f_vs_c_differ():
    a = np.arange(6.0).reshape(2, 3)
    assert stream_order_bytes(a, "F") != stream_order_bytes(a, "C")




def test_stream_positions_identity():
    s = Slice([Range([3, 5]), Range([0, 9])])
    pos = section_stream_positions(s, s, "F")
    assert pos.tolist() == [0, 1, 2, 3]


def test_stream_positions_of_subsection():
    s = Slice.full((3, 4))
    sub = Slice([Range([1]), Range([0, 3])])
    # F order positions: (1,0) -> 1; (1,3) -> 1 + 3*3 = 10
    assert section_stream_positions(s, sub, "F").tolist() == [1, 10]
    # C order: (1,0) -> 4; (1,3) -> 7
    assert section_stream_positions(s, sub, "C").tolist() == [4, 7]


def test_stream_positions_requires_subset():
    s = Slice.full((3, 3))
    with pytest.raises(StreamingError):
        section_stream_positions(s, Slice([Range([5]), Range([0])]), "F")


def test_positions_match_enumerate_stream():
    s = Slice([Range([0, 2, 5]), Range.regular(1, 7, 3)])
    pts = [tuple(p) for p in s.enumerate_stream("F").tolist()]
    sub = Slice([Range([2, 5]), Range([4])])
    pos = section_stream_positions(s, sub, "F")
    for p, point in zip(pos, sub.enumerate_stream("F").tolist()):
        assert pts[p] == tuple(point)


@pytest.mark.parametrize(
    "nbytes, spans",
    [
        (0, [(0, 0)]),
        (3, [(0, 3)]),
        (8, [(0, 4), (4, 4)]),
        (9, [(0, 4), (4, 4), (8, 1)]),
    ],
)
def test_stream_spans_cut_whole_spans_then_a_partial_one(nbytes, spans):
    assert stream_spans(nbytes, 4) == spans


@pytest.mark.parametrize("nbytes", [0, 1, 63, 64, 65, 1000])
def test_stream_sha1_is_the_digest_of_the_span_digests(nbytes):
    data = bytes(np.random.default_rng(nbytes).integers(0, 256, nbytes, np.uint8))
    whole, spans = stream_sha1(data, 64)
    raw = [hashlib.sha1(data[o:o + 64]).digest() for o in range(0, max(nbytes, 1), 64)]
    assert spans == [d.hex() for d in raw]
    assert whole == hashlib.sha1(b"".join(raw)).hexdigest()
    # a buffer view hashes like the bytes it shows
    assert stream_sha1(memoryview(data), 64) == (whole, spans)
    assert stream_sha1(np.frombuffer(data, np.uint8), 64) == (whole, spans)


def test_stream_sha1_depends_on_span_size_and_span_order():
    data = bytes(range(256))
    assert stream_sha1(data, 64)[0] != stream_sha1(data, 128)[0]
    swapped = data[64:128] + data[:64] + data[128:]
    assert stream_sha1(swapped, 64)[0] != stream_sha1(data, 64)[0]
