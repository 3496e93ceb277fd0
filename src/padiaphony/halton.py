"""Exact generation of Halton points in pairwise-distinct prime bases, and
``HaltonSegment``, a checked segment of them that builds no point."""

from __future__ import annotations

from typing import Iterator

from .core import (MAX_INDEX, PrimeBases, _as_int, _check_segment, _Record,
                   _require_prime_bases)
from .core import validate_bases  # noqa: F401  (defined here before core; see its end)
from .errors import CountOverflow, SegmentTooLarge
from .padic import DigitVector, Point, PointSet, monna

__all__ = ["HaltonSegment", "halton_point", "halton_stream", "halton_set"]

# halton_set refuses segments whose digit matrices hold more int64 cells
# than this (2 GiB), before allocating them.
DIGIT_CELL_CAP = 1 << 28


def halton_point(n: int, bases: PrimeBases) -> Point:
    """The n-th point: coordinate i is the base-p_i digit reversal of n."""
    _require_prime_bases(bases).require_distinct()
    n = _as_int(n, "index")  # monna rejects n < 0
    if n > MAX_INDEX:
        raise CountOverflow(f"index {n} exceeds the supported range")
    return Point(tuple(monna(n, p) for p in bases.primes))


class HaltonSegment(_Record):
    """The Halton points start, ..., start + count - 1 in pairwise-distinct
    prime bases, held as those three numbers: no point is built.

    The arguments are in ``halton_set``'s order and checked once, here.
    The spectral routes of ``diaphony`` take a segment in place of points
    and sum it in closed form, for any count up to the index space.
    """

    __slots__ = ("count", "bases", "start")

    def __init__(self, count: int, bases: PrimeBases, start: int = 0):
        _require_prime_bases(bases).require_distinct()
        count, start = _check_segment(count, start)
        self._set(count, bases, start)


def halton_stream(count: int, bases: PrimeBases, start: int = 0) -> Iterator[Point]:
    """Points start, ..., start + count - 1, generated in order.

    The arguments are checked when the function is called; the points come
    from a lazy generator.  It keeps the base-p digits of n, least
    significant first, for each base and adds one with carry between
    points (Halton and Smith's incremental radical inverse), so a step
    touches p/(p-1) digits on average instead of all of them.  Each
    coordinate is a tuple of that digit list, made into a DigitVector and
    then a Point without the public constructors' checks: the list never
    ends in 0, since n's top digit is nonzero and n = 0 has no digits.
    ``halton_point`` is the random-access path.
    """
    _require_prime_bases(bases).require_distinct()
    count, start = _check_segment(count, start)

    def generate() -> Iterator[Point]:
        odometer = [(p, list(monna(start, p).digits)) for p in bases.primes]
        make_vector, make_point = DigitVector._make, Point._make
        for _ in range(count):
            yield make_point(tuple([make_vector(p, tuple(digits)) for p, digits in odometer]))
            for p, digits in odometer:
                for j, d in enumerate(digits):
                    if d + 1 < p:
                        digits[j] = d + 1
                        break
                    digits[j] = 0
                else:
                    digits.append(1)

    return generate()


def halton_set(count: int, bases: PrimeBases, start: int = 0) -> PointSet:
    """Points start, ..., start + count - 1 as one PointSet.

    The digits of coordinate i are the base-p_i digits of n, least
    significant first, so each column is one vectorized divmod over the
    segment; the depth is the digit count of the last index.  Segments
    needing more than DIGIT_CELL_CAP digits in all raise SegmentTooLarge.
    """
    import numpy as np

    _require_prime_bases(bases).require_distinct()
    count, start = _check_segment(count, start)
    last = start + count - 1
    depths = [max(1, len(monna(last, p).digits)) for p in bases.primes]
    if count * sum(depths) > DIGIT_CELL_CAP:
        raise SegmentTooLarge(count, DIGIT_CELL_CAP)
    index = start + np.arange(count, dtype=np.int64)  # never past MAX_INDEX
    mats = []
    for p, depth in zip(bases.primes, depths):
        n = index
        digits = np.empty((count, depth), dtype=np.int64)
        for j in range(depth):
            n, digits[:, j] = np.divmod(n, p)
        mats.append(digits)
    return PointSet(bases, tuple(mats))
