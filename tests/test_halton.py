"""Halton generation: exactness, validation, distinctness, marginals."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiaphony import (
    MAX_INDEX,
    CountOverflow,
    DiaphonyError,
    DigitVector,
    DuplicateBase,
    EmptyBases,
    HaltonSegment,
    NonPrimeBase,
    PointSet,
    PrimeBases,
    SegmentTooLarge,
    halton_point,
    halton_set,
    halton_stream,
    is_prime,
    monna_inverse,
    validate_bases,
)


def test_validate_bases():
    assert validate_bases([2, 3, 5]).primes == (2, 3, 5)
    with pytest.raises(DuplicateBase):
        validate_bases([2, 2])
    with pytest.raises(NonPrimeBase):
        validate_bases([6])
    with pytest.raises(EmptyBases):
        validate_bases([])
    # primality is checked over the whole list before distinctness
    with pytest.raises(NonPrimeBase):
        validate_bases([2, 2, 4])
    with pytest.raises(DuplicateBase):
        validate_bases([3, 2, 3])


def test_halton_point_examples():
    bases = validate_bases([2, 3])
    assert halton_point(0, bases).values() == (Fraction(0), Fraction(0))
    assert halton_point(1, bases).values() == (Fraction(1, 2), Fraction(1, 3))
    assert halton_point(6, bases).values() == (Fraction(3, 8), Fraction(2, 9))


def test_halton_stream_examples():
    b2 = validate_bases([2])
    assert [p.values() for p in halton_stream(1, b2)] == [(Fraction(0),)]
    assert [p.values() for p in halton_stream(2, b2)] == [
        (Fraction(0),),
        (Fraction(1, 2),),
    ]
    b23 = validate_bases([2, 3])
    got = [p.values() for p in halton_stream(3, b23, start=1)]
    assert got == [
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(1, 4), Fraction(2, 3)),
        (Fraction(3, 4), Fraction(1, 9)),
    ]


def test_generation_is_exact():
    bases = validate_bases([2, 3, 5])
    for n in range(300):
        pt = halton_point(n, bases)
        for coord in pt.coords:
            assert monna_inverse(coord) == n


def test_points_are_distinct():
    bases = validate_bases([2, 3])
    seen = set(halton_stream(4096, bases))
    assert len(seen) == 4096


def test_one_dimensional_prefixes_fill_uniform_grids():
    for p in (2, 3):
        bases = validate_bases([p])
        for m in range(1, 5):
            n = p**m
            values = {pt.values()[0] for pt in halton_stream(n, bases)}
            assert values == {Fraction(j, n) for j in range(n)}


def test_index_overflow_is_detected():
    bases = validate_bases([2])
    with pytest.raises(CountOverflow):
        halton_point(MAX_INDEX + 1, bases)
    with pytest.raises(CountOverflow):
        halton_stream(2, bases, start=MAX_INDEX)
    # a numpy start is taken as a Python int, so the range check cannot wrap
    for make in (halton_stream, halton_set):
        with pytest.raises(CountOverflow):
            make(np.int64(2), bases, start=np.int64(MAX_INDEX))
    # the boundary itself is fine
    pt = halton_point(MAX_INDEX, bases)
    assert monna_inverse(pt.coords[0]) == MAX_INDEX


def test_stream_argument_validation():
    bases = validate_bases([2])
    with pytest.raises(ValueError):
        halton_stream(0, bases)
    with pytest.raises(ValueError):
        halton_stream(1, bases, start=-1)
    with pytest.raises(ValueError):
        halton_point(-1, bases)
    for count, start in ((2.5, 0), (1, 0.5), ("2", 0), (np.float64(2.0), 0)):
        with pytest.raises(ValueError, match="not an integer"):
            halton_stream(count, bases, start)
    assert list(halton_stream(np.int64(2), bases, np.int64(3))) == list(halton_stream(2, bases, 3))


def test_set_argument_validation():
    bases = validate_bases([2])
    with pytest.raises(ValueError):
        halton_set(0, bases)
    with pytest.raises(ValueError):
        halton_set(1, bases, start=-1)
    with pytest.raises(CountOverflow):
        halton_set(2, bases, start=MAX_INDEX)
    with pytest.raises(ValueError, match="count 2.5 is not an integer"):
        halton_set(2.5, bases)
    with pytest.raises(ValueError, match="start 0.5 is not an integer"):
        halton_set(1, bases, start=0.5)
    with pytest.raises(SegmentTooLarge, match="cap"):
        halton_set(2**62, bases)
    ps = halton_set(1, bases, start=MAX_INDEX)
    assert len(ps) == 1
    assert ps.digits[0].tolist() == [[1] * 63]


@st.composite
def segments(draw):
    """1-4 distinct primes up to 65537 and a segment inside [0, MAX_INDEX]."""
    primes = draw(st.lists(st.integers(2, 65537).filter(is_prime),
                           min_size=1, max_size=4, unique=True))
    count = draw(st.integers(1, 40))
    top = MAX_INDEX - count + 1
    start = draw(st.one_of(st.integers(0, 300), st.integers(0, top), st.just(top)))
    return validate_bases(primes), count, start


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=segments())
@example(case=(validate_bases([2, 65537]), 5, MAX_INDEX - 4))
@example(case=(validate_bases([3, 2]), 9, 0))
def test_set_equals_converted_stream(case):
    bases, count, start = case
    got = halton_set(count, bases, start)
    want = PointSet.from_points(halton_stream(count, bases, start), bases)
    assert len(got) == count
    assert got.bases == bases
    for a, b in zip(got.digits, want.digits):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


def _assert_stream_matches_points(bases, count, start):
    """halton_stream against halton_point index by index; every coordinate
    is trimmed and equals (and hashes as) the public constructor's."""
    got = list(halton_stream(count, bases, start))
    assert got == [halton_point(n, bases) for n in range(start, start + count)]
    for pt in got:
        for coord in pt.coords:
            assert not coord.digits or coord.digits[-1] != 0
            public = DigitVector(coord.base, coord.digits)
            assert coord == public
            assert hash(coord) == hash(public)


@pytest.mark.parametrize("primes", [(2,), (2, 3, 5), (3, 7, 11), (2, 65537)])
def test_stream_equals_points_across_carries(primes):
    bases = validate_bases(primes)
    _assert_stream_matches_points(bases, 1, 0)
    _assert_stream_matches_points(bases, 40, 0)
    for p in primes:
        # each segment crosses p**k, where the carry runs into a new digit
        for k in (1, 2, 3, 13, 40):
            if 3 <= p**k <= MAX_INDEX:
                _assert_stream_matches_points(bases, 6, p**k - 3)
    _assert_stream_matches_points(bases, 50, MAX_INDEX - 49)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=segments())
@example(case=(validate_bases([2, 65537]), 5, MAX_INDEX - 4))
@example(case=(validate_bases([3, 2]), 9, 0))
def test_stream_equals_points(case):
    _assert_stream_matches_points(*case)


def test_segment_is_checked_once_and_is_an_immutable_value():
    bases = validate_bases([2, 3])
    seg = HaltonSegment(np.int64(5), bases, start=np.int64(7))
    assert (seg.count, seg.bases, seg.start) == (5, bases, 7)
    assert type(seg.count) is int and type(seg.start) is int
    assert seg == HaltonSegment(5, bases, 7) and hash(seg) == hash(HaltonSegment(5, bases, 7))
    assert seg != HaltonSegment(5, bases) and HaltonSegment(1, bases).start == 0
    assert pickle.loads(pickle.dumps(seg)) == seg == copy.deepcopy(seg)
    with pytest.raises(AttributeError):
        seg.count = 6
    assert HaltonSegment(1, bases, MAX_INDEX).start == MAX_INDEX
    with pytest.raises(CountOverflow):
        HaltonSegment(2, bases, MAX_INDEX)
    with pytest.raises(DuplicateBase):
        HaltonSegment(2, PrimeBases((3, 3)))
    for count, start, match in ((0, 0, "count"), (1, -1, "start"), (2.5, 0, "not an integer"),
                                (1, "0", "not an integer")):
        with pytest.raises(DiaphonyError, match=match):
            HaltonSegment(count, bases, start)
    with pytest.raises(DiaphonyError, match="PrimeBases"):
        HaltonSegment(2, (2, 3))
