"""Diaphony of point sets in the unit cube, by two independent routes.

The kernel route sums the closed-form pair kernel over all point pairs.
Its fast mode counts the points sharing each digit cell, in integers, in
one sorted pass per coordinate; its exact mode adds kernel values over
unordered pairs in rationals.  For a contiguous Halton segment,
``halton_diaphony_prefixes`` counts the same pairs in closed form from
(bases, start, N) alone, by CRT, and builds no point.  All three yield
the squared diaphony as one exact rational, rounded to float once.  The
spectral route sums weighted squared Weyl sums over a finite index box
and adds the exact analytic tail, yielding an enclosure of the squared
diaphony up to the rounding of the float boxed sum.  On top sit the
worst-case-error identity, the asymptotic bound for Halton prefixes, and
the per-index Weyl-sum ceiling check.

numpy is imported inside the functions that build arrays, so the closed
form, the bound and the scalar oracles run without loading it.
"""

from __future__ import annotations

import logging
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import BoxTooLarge, CountOverflow, DimensionMismatch, SegmentTooLarge, ZeroIndex
from .halton import DIGIT_CELL_CAP, MAX_INDEX, _check_segment, halton_set
from .halton import halton_stream  # noqa: F401  (perfbench/tracing.py wraps it here)
from .kernel import kernel_value
from .padic import (
    IndexVector,
    Point,
    PointSet,
    PrimeBases,
    _as_int,
    _point_list,
    _require_bases,
    char_product,
    monna,
)
from .weights import TruncationBox, truncated_weight_mass, weight_mass

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ENUMERATION_CAP",
    "RATIO_TOLERANCE",
    "DiaphonyReport",
    "BoundReport",
    "WeylCheckReport",
    "weyl_sum",
    "weyl_sum_table",
    "diaphony_kernel",
    "diaphony_kernel_prefixes",
    "halton_diaphony_prefixes",
    "truncated_spectral_sum",
    "spectral_tail",
    "diaphony_spectral",
    "enclosure_grid",
    "worst_case_error",
    "halton_diaphony_bound",
    "distance_to_nearest_integer",
    "weyl_sum_bound",
    "verify_weyl_bound",
]

log = logging.getLogger(__name__)

# Boxes enumerating more index vectors than this are rejected.  The cap is
# below 2**31, so the Weyl-ceiling numerators over B = prod p**g and their
# sums stay inside int64.
ENUMERATION_CAP = 1 << 22
# Weyl-sum ratios above 1 + RATIO_TOLERANCE count as violations.
RATIO_TOLERANCE = 1e-9
# Ratios within this relative distance of the largest tie for the worst index.
_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DiaphonyReport:
    """Result of one diaphony computation.

    ``enclosure`` and ``box`` are populated by the spectral method only;
    there ``lower <= f_squared <= upper`` is guaranteed.
    """

    n_points: int
    f: float
    f_squared: float
    method: str
    enclosure: tuple[float, float] | None = None
    box: TruncationBox | None = None


@dataclass(frozen=True)
class BoundReport:
    """Constants and value of the asymptotic ceiling on the squared diaphony."""

    c: float
    d: float
    bound_f_squared: float


@dataclass(frozen=True)
class WeylCheckReport:
    """Worst observed |Weyl sum| / ceiling ratio over an index box."""

    box: TruncationBox
    worst_ratio: float
    worst_index: IndexVector
    violations: int


def _point_set(points, bases: PrimeBases) -> PointSet:
    """The fast routes' single entry conversion: a PointSet passes through
    once its bases match; anything else is an iterable of Points."""
    if isinstance(points, PointSet):
        _require_bases(points, bases)
        return points
    return PointSet.from_points(points, bases)


def _check_box(box: TruncationBox, bases: PrimeBases) -> None:
    """The one box check.  p**g >= 2**g, so an exponent of
    ENUMERATION_CAP.bit_length() or more is rejected before p**g is built."""
    if box.dimension != bases.dimension:
        raise DimensionMismatch(
            f"box dimension {box.dimension} != bases dimension {bases.dimension}"
        )
    if max(box.exponents) >= ENUMERATION_CAP.bit_length() or math.prod(
        p**g for p, g in zip(bases.primes, box.exponents)
    ) > ENUMERATION_CAP:
        raise BoxTooLarge(box.exponents, ENUMERATION_CAP)


def _clamp_unit(raw: float) -> float:
    clamped = min(1.0, max(0.0, raw))
    if clamped != raw:
        excursion = raw - clamped
        if abs(excursion) > RATIO_TOLERANCE:
            log.warning("squared diaphony clamped to [0, 1] by %.3g", excursion)
        else:
            log.debug("squared diaphony clamped to [0, 1] by %.3g", excursion)
    return clamped


# ---------------------------------------------------------------------------
# Weyl sums


def weyl_sum(points, k: IndexVector, bases: PrimeBases) -> complex:
    """sum_n of the k-th character at x_n from exact phases, each part
    correctly rounded by math.fsum.  ``points`` is a PointSet or an
    iterable of Points; a PointSet is converted to Points once."""
    pts = _point_list(points, bases)
    if not pts:
        raise ValueError("at least one point is required")
    values = [char_product(k, x, bases) for x in pts]
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


@lru_cache(maxsize=64)
def _full_reversal(p: int, g: int) -> np.ndarray:
    """The g-digit base-p reversal of every k < p**g."""
    import numpy as np

    q = np.arange(p**g, dtype=np.int64)
    rev = np.zeros_like(q)
    for _ in range(g):
        q, digit = np.divmod(q, p)
        rev = rev * p + digit
    rev.setflags(write=False)
    return rev


def _histogram(ps: PointSet, bases: PrimeBases, box: TruncationBox, dtype) -> np.ndarray:
    """Point counts on the grid of X = monna_inverse(x) mod p**g, of shape
    ``(p_1**g_1, ..., p_s**g_s)`` and the given dtype.  X mod p**g is read
    off the first g digit columns, and one bincount runs over the flat cell
    index."""
    import numpy as np

    sizes = [p**g for p, g in zip(bases.primes, box.exponents)]
    flat = np.zeros(len(ps), dtype=np.int64)
    for d, p, g, size in zip(ps.digits, bases.primes, box.exponents, sizes):
        head = d[:, :g]
        flat = flat * size + head @ p ** np.arange(head.shape[1])
    return np.bincount(flat, minlength=math.prod(sizes)).astype(dtype).reshape(sizes)


def weyl_sum_table(
    points: PointSet | Iterable[Point],
    bases: PrimeBases,
    box: TruncationBox,
    system: str = "padic",
) -> np.ndarray:
    """All Weyl sums over the box, as a complex tensor indexed by k.

    ``points`` is a PointSet or an iterable of Points.  The tensor has shape
    ``(p_1**g_1, ..., p_s**g_s)`` and entry ``k`` equal to
    ``sum_n w_k(x_n)`` for the chosen function system ("padic" or "walsh");
    the origin entry is the point count.

    Both systems see a coordinate only through X = monna_inverse(x) mod p**g,
    so the table is one unnormalized inverse DFT of the point histogram on
    the grid of X values.  The k-th p-adic character at x is
    exp(2 pi i rev(k) X / p**g), with rev the g-digit reversal, so the
    p-adic table is the transform read off at the reversed frequencies.  The
    Walsh functions pair the digits of k with those of X, so the Walsh table
    is the same transform over one axis of size p per digit, and its flat
    layout already puts entry k at index k.  The cost is
    O(N + |box| log |box|); boxes over ENUMERATION_CAP raise BoxTooLarge.
    """
    import numpy as np

    ps = _point_set(points, bases)
    _check_box(box, bases)
    if system not in ("padic", "walsh"):
        raise ValueError(f"unknown function system {system!r}")
    H = _histogram(ps, bases, box, complex)
    if system == "padic":
        np.fft.ifftn(H, norm="forward", out=H)
        return H[np.ix_(*(_full_reversal(p, g) for p, g in zip(bases.primes, box.exponents)))]
    digit_axes = H.reshape([p for p, g in zip(bases.primes, box.exponents) for _ in range(g)])
    np.fft.ifftn(digit_axes, norm="forward", out=digit_axes)
    return H


# ---------------------------------------------------------------------------
# Kernel route
#
# In one coordinate, 1 + c_p(x, y) = sum_{a >= 1} (p**2 - 1) p**-a [x, y share
# their first a digits].  So the sum of the kernel over point pairs is
# sum_a W(a) Q(a) over digit resolutions a = (a_1, ..., a_s), with
# W(a) = prod_i (p_i**2 - 1) p_i**-a_i and Q(a) the integer count of pairs
# lying in one elementary cell of resolution a.

def _level_weight(p: int, depth: int, lo: int, hi: int) -> int:
    """p**depth * sum_{a=lo..hi} (p**2 - 1) p**-a, an integer for
    1 <= lo <= hi < depth; hi = depth, the agreement of equal digit rows,
    sums the whole tail, (p + 1) p**(1 - lo)."""
    tail = 0 if hi == depth else p ** (depth - hi)
    return (p + 1) * (p ** (depth + 1 - lo) - tail)


def _agreement_table(head: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rank of each row of ``head`` in lexicographic digit order, and a
    range-minimum table over the shared-digit counts of rows adjacent in
    that order, equal rows counting as sharing all ``depth`` digits.

    Entry (k, j) is the least count over the 2**k adjacent pairs from rank
    j on.  Two rows share as many digits as the least adjacent pair between
    their ranks, so that count is the smaller of two table entries.  The
    counts are found one digit column at a time over the pairs still equal.
    """
    import numpy as np

    n, depth = head.shape
    order = np.lexsort(head.T[::-1])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    table = np.full(((n - 1).bit_length(), n - 1), depth, dtype=np.min_scalar_type(depth))
    pair = np.arange(n - 1)
    for j in range(depth):
        if not len(pair):
            break
        column = head[:, j]
        differ = column[order[pair]] != column[order[pair + 1]]
        table[0, pair[differ]] = j
        pair = pair[~differ]
    for k in range(1, len(table)):
        half, width = 1 << (k - 1), n - (1 << k)
        np.minimum(table[k - 1, :width], table[k - 1, half : half + width],
                   out=table[k, :width])
    return rank, table


def _adjacent_agreement(rank, table, point, cell) -> np.ndarray:
    """Shared-digit counts of adjacent entries sorted by (cell, rank), -1
    where the cell changes."""
    import numpy as np

    r = rank[point]
    same = np.flatnonzero(cell[1:] == cell[:-1])
    lo, hi = r[same], r[same + 1]
    width = table.shape[1]
    floor_log2 = np.repeat(np.arange(width.bit_length()), 1 << np.arange(width.bit_length()))
    k = floor_log2[hi - lo - 1]
    at = k * width + lo
    flat = table.ravel()
    agree = np.full(len(point) - 1, -1, dtype=np.int64)
    agree[same] = np.minimum(flat[at], flat[at + (hi - lo) - (1 << k)])
    return agree


def _lcp_intervals(agree: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every run [s, e], s < e, of sorted entries that is one digit cell
    over a range of levels lo..hi, as arrays (s, e, lo, hi).

    At level a >= 1 the entries fall into cells split wherever the adjacent
    agreement is below a, so [s, e] is a cell at levels
    max(agree[s-1], agree[e]) + 1 .. min(agree[s:e]).  The levels are
    walked upward, each step jumping to the next level at which a cell
    splits, over the entries whose cell still holds two or more; each run
    is reported once, at the last level at which it is whole.
    """
    import numpy as np

    live = np.arange(len(agree) + 1)
    gap = agree  # agreement of live neighbours, -1 where entries were dropped
    level = 1
    none = np.empty(0, dtype=np.int64)
    runs = [(none, none, none)]
    while True:
        joined = gap >= level
        alone = ~(np.concatenate(([False], joined)) | np.concatenate((joined, [False])))
        if alone.any():
            live = live[~alone]
            if len(live) < 2:
                break
            gap = np.where(np.diff(live) == 1, agree[live[:-1]], -1)
            joined = gap >= level
        hi = gap[joined].min()
        cut = np.flatnonzero(~joined)
        whole = np.zeros(len(cut) + 1, dtype=bool)
        whole[np.searchsorted(cut, np.flatnonzero(gap == hi))] = True
        first = np.concatenate(([0], cut + 1))[whole]
        last = np.concatenate((cut, [len(live) - 1]))[whole]
        runs.append((live[first], live[last], np.full(len(first), hi)))
        level = hi + 1
    s, e, hi = map(np.concatenate, zip(*runs))
    outside = np.concatenate(([-1], agree, [-1]))
    lo = np.maximum(np.maximum(outside[s], outside[e + 1]) + 1, 1)
    return s, e, lo, hi


def _pair_sums(ps: PointSet, need: int, sizes: list[int]) -> list[int]:
    """For each n in ``sizes``, the kernel sum over the point pairs
    m < m' < n, times prod_i p_i**depth_i; need = max(sizes).

    One pass per coordinate carries every live (cell, point) entry.  The
    entries are sorted by cell and by rank in the coordinate's digit order,
    the shared-digit counts of neighbours are read off the coordinate's
    range-minimum table, and each run of entries that stays one cell over
    a range of levels is one cell of the next coordinate, with that range's
    summed level weight.  A cell's weight is a key into a list of exact
    integer products, so each distinct product is multiplied once.  At the
    last coordinate a run of k points below n holds C(k, 2) pairs.
    """
    import numpy as np

    point = np.arange(need)
    cell = np.zeros(need, dtype=np.int64)
    cell_key = np.zeros(1, dtype=np.int64)
    weights = [1]
    for i, (p, digits) in enumerate(zip(ps.bases.primes, ps.digits)):
        head = digits[:need]
        depth = head.shape[1]
        rank, table = _agreement_table(head)
        order = np.argsort(cell * need + rank[point])
        point, cell = point[order], cell[order]
        s, e, lo, hi = _lcp_intervals(_adjacent_agreement(rank, table, point, cell))
        if not len(s):
            return [0] * len(sizes)
        # one weight key per distinct (parent key, level range)
        ranges, range_of = np.unique(lo * (depth + 1) + hi, return_inverse=True)
        codes, key = np.unique(cell_key[cell[s]] * len(ranges) + range_of, return_inverse=True)
        range_weight = [_level_weight(p, depth, *divmod(r, depth + 1)) for r in ranges.tolist()]
        weights = [
            weights[parent] * range_weight[r]
            for parent, r in (divmod(c, len(ranges)) for c in codes.tolist())
        ]
        if i + 1 < len(ps.digits):
            length = e - s + 1
            if length.sum() > DIGIT_CELL_CAP:
                raise SegmentTooLarge(need, DIGIT_CELL_CAP)
            cell = np.repeat(np.arange(len(s)), length)
            point = point[np.arange(len(cell)) + np.repeat(s - np.cumsum(length) + length, length)]
            cell_key = key
    by_key = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[by_key], np.arange(len(weights)))
    totals = []
    for n in sizes:
        below = np.concatenate(([0], np.cumsum(point < n)))
        count = (below[e + 1] - below[s])[by_key]
        pairs = np.add.reduceat(count * (count - 1) // 2, bounds)
        totals.append(sum(map(operator.mul, weights, pairs.tolist())))
    return totals


def _kernel_report(n: int, pair_sum: Fraction, sig: int) -> DiaphonyReport:
    """Report from the exact kernel sum over all ordered pairs of n points."""
    f_squared = _clamp_unit(float((pair_sum / (n * n) - 1) / (sig - 1)))
    return DiaphonyReport(n, math.sqrt(f_squared), f_squared, "kernel")


def diaphony_kernel_prefixes(
    points: PointSet | Iterable[Point], bases: PrimeBases, prefix_sizes
) -> list[DiaphonyReport]:
    """Kernel reports for several prefix lengths from one exact count.

    ``points`` is a PointSet or an iterable of Points.  Every report equals
    ``diaphony_kernel`` on the corresponding prefix, bitwise.  The cells are
    found once, over the longest prefix (see ``_pair_sums``): a pair
    m < m' enters every prefix longer than m', so a cell holding k points
    below n adds C(k, 2) pairs to prefix n, and each prefix length costs one
    cumulative count over the last coordinate's cells.  Past
    DIGIT_CELL_CAP live (cell, point) entries in one coordinate, as deep
    near-duplicate clusters can reach, it raises SegmentTooLarge.
    """
    ps = _point_set(points, bases)
    sizes = [_as_int(n, "prefix size") for n in prefix_sizes]
    if not sizes:
        return []
    for nn in sizes:
        if not 1 <= nn <= len(ps):
            raise ValueError(f"prefix size {nn} outside 1..{len(ps)}")
    totals = _pair_sums(ps, max(sizes), sizes)
    scale = math.prod(p ** d.shape[1] for p, d in zip(bases.primes, ps.digits))
    sig = weight_mass(bases)
    return [
        _kernel_report(nn, nn * sig + Fraction(2 * t, scale), sig)
        for nn, t in zip(sizes, totals)
    ]


def diaphony_kernel(
    points: PointSet | Iterable[Point], bases: PrimeBases, mode: str = "fast"
) -> DiaphonyReport:
    """Diaphony via the closed-form pair kernel.

    Both modes compute the squared diaphony as one exact rational and round
    it to float once, so they agree bitwise.

    fast  -- counts point pairs per digit cell (see
             ``diaphony_kernel_prefixes``): one sort, one range-minimum
             table and one walk up the digit levels per coordinate, in
             integer arrays; near-linear in N for well-spread points, any
             bases.  Takes a PointSet or an iterable of Points.
    exact -- the oracle path: ``kernel_value`` in rationals on each of the
             N (N + 1) / 2 unordered pairs, the diagonal once and the
             others twice, since the kernel is symmetric; zero values,
             from a coordinate sharing no digit, add nothing.  O(N**2).
             A PointSet is converted to Points once.
    """
    if mode == "fast":
        ps = _point_set(points, bases)
        return diaphony_kernel_prefixes(ps, bases, [len(ps)])[0]
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    pts = _point_list(points, bases)
    if not pts:
        raise ValueError("at least one point is required")
    diagonal = off = Fraction(0)
    for i, x in enumerate(pts):
        diagonal += kernel_value(x, x, bases)
        for y in pts[i + 1 :]:
            value = kernel_value(x, y, bases)
            if value:
                off += value
    return _kernel_report(len(pts), diagonal + 2 * off, weight_mass(bases))


def _cell_moduli(primes: tuple[int, ...], limit: int) -> list[int]:
    """Every M = prod_i p_i**a_i <= limit with all a_i >= 1, ascending."""
    moduli = [1]
    rest = math.prod(primes)
    for p in primes:
        rest //= p
        cap = limit // rest  # leaves room for one factor of each later prime
        grown = []
        for m in moduli:
            m *= p
            while m <= cap:
                grown.append(m)
                m *= p
        moduli = grown
    return sorted(moduli)


def halton_diaphony_prefixes(
    bases: PrimeBases, prefix_sizes, start: int = 0
) -> list[DiaphonyReport]:
    """Kernel reports for prefixes of the Halton segment from ``start``, in
    closed form, without building a point.

    Every report equals ``diaphony_kernel_prefixes(halton_set(max(sizes),
    bases, start), bases, sizes)`` bitwise.  Coordinate i of the point with
    index n holds the base-p_i digits of n, so by CRT two indices share
    their first a_i digits in every coordinate exactly when n = m modulo
    M(a) = prod_i p_i**a_i.  The weight W(a) of that event is C / M(a) with
    C = prod_i (p_i**2 - 1), and among N consecutive indices, N = qM + r,
    q (N - M + r) ordered pairs of distinct indices agree modulo M.  So the
    kernel sum is N sigma + C sum_{M(a) <= N} q (N - M + r) / M, whatever
    the start; it is summed in integers over the common denominator
    prod_i p_i**A_i, p_i**A_i <= max(sizes), and rounded once per size.
    """
    bases.require_distinct()
    sizes = [_as_int(n, "prefix size") for n in prefix_sizes]
    if not sizes or min(sizes) < 1:
        raise ValueError("prefix sizes must be a nonempty list of positive integers")
    limit = max(sizes)
    _check_segment(limit, start)
    moduli = _cell_moduli(bases.primes, limit)
    scale = 1
    for p in bases.primes:
        power = 1
        while power * p <= limit:
            power *= p
        scale *= power
    shares = [scale // m for m in moduli]
    sig = weight_mass(bases)
    c = math.prod(p * p - 1 for p in bases.primes)
    reports = []
    for n in sizes:
        total = 0
        for m, share in zip(moduli, shares):
            if m > n:
                break
            q, r = divmod(n, m)
            total += q * (n - m + r) * share
        reports.append(_kernel_report(n, n * sig + Fraction(c * total, scale), sig))
    return reports


# ---------------------------------------------------------------------------
# Spectral route


@lru_cache(maxsize=64)
def _valuation_blocks(p: int, g: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The weight blocks of frequencies 0..length-1 of an axis of size
    P = p**g: the frequencies sorted by block, and each block's start.

    Frequency j holds k = rev(j), whose top digit sits at place g - 1 -
    v_p(j), so k lies in block t = g - 1 - v_p(j); j = 0 (k = 0) and every
    multiple of p**(g-1) fall in block 0.  Block t is also
    g - 1 - #{1 <= v < g : p**v divides j}, which needs no case for j = 0.
    """
    import numpy as np

    j = np.arange(length)
    block = np.full(length, g - 1)
    for v in range(1, g):
        block -= j % p**v == 0
    order = np.argsort(block, kind="stable")
    starts = np.searchsorted(block[order], np.arange(g))
    order.setflags(write=False)
    starts.setflags(write=False)
    return order, starts


def _boxed_sums(ps: PointSet, bases: PrimeBases, box: TruncationBox) -> np.ndarray:
    """The boxed part of the squared diaphony for every sub-box g' <= box:
    entry g' - 1 is (1/(sigma - 1)) * sum over the nonzero k of g' of
    weight(k) * |S(k)/N|**2.

    |S(k)|**2 is read at frequency j = rev(k) of the half spectrum of the
    point histogram (the transform's sign does not change it).  The
    histogram is real, so its DFT at -j is the conjugate of that at j: the
    last axis keeps frequencies 0..P/2 (``rfft``), and each interior column
    counts twice for its mirror -j, which lies in the same weight blocks on
    every axis since v_p(P - j) = v_p(j) for 0 < j < P.  Column 0 and, for
    p = 2, the Nyquist column P/2 count once.  The weight of k_i is
    p_i**-2t on block t (p_i**t <= k_i < p_i**(t+1); k_i < p_i is block 0),
    so along each axis the energies are summed per block, scaled and
    accumulated over the blocks.  Only sums and elementwise products run,
    so the result does not depend on the thread count.
    """
    import numpy as np

    _check_box(box, bases)
    H = _histogram(ps, bases, box, float)
    T = np.fft.rfft(H)
    del H
    for axis in range(T.ndim - 1):
        np.fft.fft(T, axis=axis, out=T)
    E = np.abs(T)
    del T
    E *= E
    P = bases.primes[-1] ** box.exponents[-1]
    E[..., 1 : (P + 1) // 2] *= 2
    E.flat[0] = 0.0
    for axis, (p, g) in enumerate(zip(bases.primes, box.exponents)):
        order, starts = _valuation_blocks(p, g, E.shape[axis])
        weights = np.array([1.0 / p ** (2 * t) for t in range(g)])
        weights = weights.reshape((g,) + (1,) * (E.ndim - 1 - axis))
        E = E[(slice(None),) * axis + (order,)]
        E = np.cumsum(np.add.reduceat(E, starts, axis=axis) * weights, axis=axis)
    n = len(ps)
    return E / (n * n) / float(weight_mass(bases) - 1)


def truncated_spectral_sum(
    points: PointSet | Iterable[Point],
    bases: PrimeBases,
    box: TruncationBox,
) -> float:
    """The boxed part of the squared diaphony:
    (1/(sigma - 1)) * sum over nonzero boxed k of weight(k) * |S(k)/N|**2.

    ``points`` is a PointSet or an iterable of Points.  The value is the
    full-box entry of the sub-box sums that ``enclosure_grid`` reads for
    every sub-box."""
    ps = _point_set(points, bases)
    return float(_boxed_sums(ps, bases, box)[(-1,) * bases.dimension])


def spectral_tail(bases: PrimeBases, box: TruncationBox) -> Fraction:
    """Exact weight mass outside the box, normalized: (sigma - sigma(g)) / (sigma - 1)."""
    sig = weight_mass(bases)
    return (sig - truncated_weight_mass(bases, box)) / (sig - 1)


def diaphony_spectral(
    points: PointSet | Iterable[Point],
    bases: PrimeBases,
    box: TruncationBox,
) -> DiaphonyReport:
    """Diaphony via truncated spectral sums, with an enclosure.

    ``points`` is a PointSet or an iterable of Points.  ``lower`` is the
    boxed sum (``truncated_spectral_sum``); ``upper`` adds the exact
    analytic tail.  The exact squared diaphony lies between the exact boxed
    sum and that sum plus the tail, but ``lower`` is a float sum that can
    round a few ulps above the exact boxed sum, so the enclosure holds up to
    that rounding, not rigorously.  The reported point value is the
    midpoint of the enclosure.
    """
    ps = _point_set(points, bases)
    lower = truncated_spectral_sum(ps, bases, box)
    tail = spectral_tail(bases, box)
    upper = lower + float(tail)
    f_squared = _clamp_unit(lower + float(tail) / 2)
    return DiaphonyReport(
        len(ps),
        math.sqrt(f_squared),
        f_squared,
        "spectral",
        enclosure=(lower, upper),
        box=box,
    )


def enclosure_grid(
    points: PointSet | Iterable[Point],
    bases: PrimeBases,
    box: TruncationBox,
) -> dict[tuple[int, ...], tuple[float, float]]:
    """Enclosures for every sub-box g' <= box, from a single transform.

    ``points`` is a PointSet or an iterable of Points.  Weyl sums and index
    weights do not depend on the box, so one block-energy reduction of one
    spectrum gives every sub-box's boxed sum; the entry for ``box`` itself
    reads the value ``truncated_spectral_sum`` returns, so it equals
    ``diaphony_spectral(points, bases, box).enclosure`` bitwise.
    """
    import numpy as np

    lowers = _boxed_sums(_point_set(points, bases), bases, box)
    out = {}
    for idx in np.ndindex(lowers.shape):
        exps = tuple(i + 1 for i in idx)
        lower = float(lowers[idx])
        out[exps] = (lower, lower + float(spectral_tail(bases, TruncationBox(exps))))
    return out


# ---------------------------------------------------------------------------
# Identities and sequence bounds


def worst_case_error(report: DiaphonyReport, bases: PrimeBases) -> float:
    """Worst-case equal-weight integration error: sqrt(sigma - 1) * F."""
    return math.sqrt(weight_mass(bases) - 1) * report.f


def halton_diaphony_bound(bases: PrimeBases, n_points: int) -> BoundReport:
    """Ceiling on the squared diaphony of an N-point Halton prefix.

    bound = c * (ln N)**s / N**2 + d / N**2 with
    c = (1/(sigma - 1)) * (pi**2/3) * prod_j (1 + 2 p_j**2 / ln p_j) and
    d = 2 s max_i p_i, for N <= 2**63.  Natural logarithms throughout.
    """
    bases.require_distinct()
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    if n_points > MAX_INDEX + 1:
        raise CountOverflow("n_points exceeds 2**63, the supported 64-bit index space")
    sig = weight_mass(bases)
    s = bases.dimension
    prod = 1.0
    for p in bases.primes:
        prod *= 1.0 + 2.0 * p * p / math.log(p)
    c = (math.pi**2 / 3.0) * prod / (sig - 1)
    d = float(2 * s * max(bases.primes))
    bound = (c * math.log(n_points) ** s + d) / n_points**2
    return BoundReport(c, d, bound)


def distance_to_nearest_integer(q: Fraction) -> Fraction:
    """min(frac(q), 1 - frac(q)), exactly."""
    frac = q % 1
    return min(frac, 1 - frac)


def weyl_sum_bound(k: IndexVector, bases: PrimeBases) -> Fraction:
    """Exact ceiling 1 / ||sum_j phi_{p_j}(k_j)|| on |weyl_sum| over any
    Halton prefix in pairwise-distinct prime bases."""
    bases.require_distinct()
    if k.dimension != bases.dimension:
        raise DimensionMismatch(
            f"index dimension {k.dimension} != bases dimension {bases.dimension}"
        )
    if k.is_zero:
        raise ZeroIndex()
    total = Fraction(0)
    for ki, p in zip(k.indices, bases.primes):
        if ki:
            total += monna(ki, p).value()
    # distinct primes force a non-integral total, so the distance is positive
    return 1 / distance_to_nearest_integer(total)


def _first_near_max(ratio: np.ndarray) -> tuple[int, ...]:
    """The first index in C order whose ratio is within a relative
    _TIE_TOLERANCE of the largest ratio."""
    import numpy as np

    top = ratio.max()
    first = np.argmax(ratio >= top - _TIE_TOLERANCE * top)
    return tuple(int(i) for i in np.unravel_index(first, ratio.shape))


def verify_weyl_bound(
    n_points: int,
    bases: PrimeBases,
    box: TruncationBox,
) -> WeylCheckReport:
    """Check |weyl_sum(k)| <= its ceiling for every nonzero k in the box.

    The Halton prefix is generated internally.  Each index records the ratio
    |S(k)| * ||sum_j phi(k_j)||; ratios above 1 + RATIO_TOLERANCE count as
    violations.  The reported worst index is the first in C order whose
    ratio is within a relative 1e-9 of the largest, so an exact tie does not
    hang on the last bits of the FFT.
    """
    import numpy as np

    bases.require_distinct()
    _check_box(box, bases)
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    S = weyl_sum_table(halton_set(n_points, bases), bases, box)
    # phi_p(k) = rev(k) / p**g, so over the common denominator B = prod p**g
    # the summed phases are exact int64 numerators
    B = S.size
    phi = np.ix_(*(_full_reversal(p, g) * (B // p**g) for p, g in zip(bases.primes, box.exponents)))
    num = sum(phi) % B
    ratio = np.abs(S) * (np.minimum(num, B - num) / B)
    ratio.flat[0] = -1.0  # the origin has no ceiling
    return WeylCheckReport(
        box,
        float(ratio.max()),
        IndexVector(_first_near_max(ratio)),
        int((ratio > 1.0 + RATIO_TOLERANCE).sum()),
    )
