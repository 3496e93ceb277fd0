"""Diaphony of point sets in the unit cube, by two independent routes.

The kernel route sums the closed-form pair kernel over all point pairs.
Its fast mode counts the points sharing each digit cell, in integers, in
one sorted pass per coordinate; its exact mode adds kernel values in
rationals over the unordered pairs that share a first-digit cell.  For a
contiguous Halton segment, ``halton_diaphony_prefixes`` counts the same
pairs in closed form from (bases, start, N) alone, by CRT, and builds no
point.  All three yield the squared diaphony as one exact rational,
rounded to float once.  The spectral route sums weighted squared Weyl
sums over a finite index box and adds the exact analytic tail, yielding
an enclosure of the squared diaphony up to the rounding of the float
boxed sum.  On top sit the worst-case-error identity, the asymptotic
bound for Halton prefixes, and the per-index Weyl-sum ceiling check.

numpy is imported inside the functions that build arrays, so the closed
form, the bound and the scalar oracles run without loading it.  The three
reports are slotted immutable records (``padic._Record``), not dataclasses,
so importing the module loads neither ``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import BoxTooLarge, CountOverflow, DiaphonyError, SegmentTooLarge, ZeroIndex
from .halton import DIGIT_CELL_CAP, MAX_INDEX, _check_segment
from .halton import halton_stream  # noqa: F401  (perfbench/tracing.py wraps it here)
from .kernel import _first_digit_cell, kernel_value
from .padic import (
    IndexVector,
    Point,
    PointSet,
    PrimeBases,
    _as_int,
    _point_list,
    _Record,
    _require_dimension,
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

# Boxes enumerating more index vectors than this are rejected.  The cap is
# below 2**31, so the Weyl-ceiling numerators over B = prod p**g and their
# sums stay inside int64.
ENUMERATION_CAP = 1 << 22
# Weyl-sum ratios above 1 + RATIO_TOLERANCE count as violations.
RATIO_TOLERANCE = 1e-9
# Ratios within this relative distance of the largest tie for the worst index.
_TIE_TOLERANCE = 1e-9
# Box entries per slab of the spectral reduction's temporaries, and the
# least columns per slab of |T|**2 where the half spectrum has that many.
_SLAB_ENTRIES = 1 << 15
_SLAB_COLUMNS = 16


class DiaphonyReport(_Record):
    """Result of one diaphony computation.

    ``enclosure`` and ``box`` are populated by the spectral method only;
    there ``lower <= f_squared <= upper`` is guaranteed.
    """

    __slots__ = ("n_points", "f", "f_squared", "method", "enclosure", "box")

    def __init__(self, n_points: int, f: float, f_squared: float, method: str,
                 enclosure: tuple[float, float] | None = None, box: TruncationBox | None = None):
        self._set(n_points, f, f_squared, method, enclosure, box)


class BoundReport(_Record):
    """Constants and value of the asymptotic ceiling on the squared diaphony."""

    __slots__ = ("c", "d", "bound_f_squared")

    def __init__(self, c: float, d: float, bound_f_squared: float):
        self._set(c, d, bound_f_squared)


class WeylCheckReport(_Record):
    """Worst observed |Weyl sum| / ceiling ratio over an index box."""

    __slots__ = ("box", "worst_ratio", "worst_index", "violations")

    def __init__(self, box: TruncationBox, worst_ratio: float, worst_index: IndexVector,
                 violations: int):
        self._set(box, worst_ratio, worst_index, violations)


def _check_box(box: TruncationBox, bases: PrimeBases) -> None:
    """The one box check.  p**g >= 2**g, so an exponent of
    ENUMERATION_CAP.bit_length() or more is rejected before p**g is built."""
    _require_dimension("box", box.dimension, bases)
    if max(box.exponents) >= ENUMERATION_CAP.bit_length() or math.prod(
        p**g for p, g in zip(bases.primes, box.exponents)
    ) > ENUMERATION_CAP:
        raise BoxTooLarge(box.exponents, ENUMERATION_CAP)


# ---------------------------------------------------------------------------
# Weyl sums


def weyl_sum(points, k: IndexVector, bases: PrimeBases) -> complex:
    """sum_n of the k-th character at x_n from exact phases, each part
    correctly rounded by math.fsum.  ``points`` is a PointSet or an
    iterable of Points; a PointSet is converted to Points once."""
    pts = _point_list(points, bases)
    values = [char_product(k, x, bases) for x in pts]
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def _digit_shape(bases: PrimeBases, box: TruncationBox) -> list[int]:
    """Each axis of size p**g as g axes of size p, most significant digit first."""
    return [p for p, g in zip(bases.primes, box.exponents) for _ in range(g)]


def _digit_reversed(a: np.ndarray, bases: PrimeBases, box: TruncationBox) -> np.ndarray:
    """A copy of ``a`` with entry k equal to a[rev(k)], rev the g-digit
    base-p reversal on every axis: each axis's digit axes in reverse order."""
    axis_of = [i for i, g in enumerate(box.exponents) for _ in range(g)]
    axes = sorted(range(len(axis_of)), key=lambda d: (axis_of[d], -d))
    return a.reshape(_digit_shape(bases, box)).transpose(axes).reshape(a.shape)


def _cell_index(ps: PointSet, bases: PrimeBases, box: TruncationBox, shape) -> np.ndarray:
    """The flat C-order index, in an array of the given shape, of each
    point's cell on the grid of X = monna_inverse(x) mod p**g.  X mod p**g
    is read off the first g digit columns; an axis of ``shape`` may be
    longer than p**g, as the padded rows of ``_boxed_sums`` are."""
    import numpy as np

    flat = np.zeros(len(ps), dtype=np.int64)
    for d, p, g, size in zip(ps.digits, bases.primes, box.exponents, shape):
        head = d[:, :g]
        flat = flat * size + head @ p ** np.arange(head.shape[1])
    return flat


def _histogram(ps: PointSet, bases: PrimeBases, box: TruncationBox, dtype) -> np.ndarray:
    """Point counts on the grid of X = monna_inverse(x) mod p**g, of shape
    ``(p_1**g_1, ..., p_s**g_s)`` and the given dtype: one bincount over
    the flat cell index."""
    import numpy as np

    sizes = [p**g for p, g in zip(bases.primes, box.exponents)]
    flat = _cell_index(ps, bases, box, sizes)
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
    p-adic table is the transform with the order of each axis's base-p
    digits reversed.  The Walsh functions pair the digits of k with those
    of X, so the Walsh table is the same transform over one axis of size p
    per digit, and its flat layout already puts entry k at index k.  The cost is
    O(N + |box| log |box|); boxes over ENUMERATION_CAP raise BoxTooLarge.
    """
    import numpy as np

    ps = PointSet.from_points(points, bases)
    _check_box(box, bases)
    if system not in ("padic", "walsh"):
        raise DiaphonyError(f"unknown function system {system!r}")
    H = _histogram(ps, bases, box, complex)
    if system == "padic":
        np.fft.ifftn(H, norm="forward", out=H)
        return _digit_reversed(H, bases, box)
    digit_axes = H.reshape(_digit_shape(bases, box))
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


def _agreement_table(head: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The rank of each row of base-p digits ``head`` in lexicographic digit
    order, and a range-minimum table over the shared-digit counts of rows
    adjacent in that order, equal rows counting as sharing all ``depth``
    digits.

    The rows are sorted by int64 words of w digits each, most significant
    first, with w the largest width for which p**w < 2**62 (61 digits for
    base 2, 39 for base 3): comparing the words in order is comparing the
    digits in order, so one ``lexsort`` over ceil(depth / w) keys ranks the
    rows as one over every column would.  Entry (k, j) of the table is the
    least count over the 2**k adjacent pairs from rank j on.  Two rows
    share as many digits as the least adjacent pair between their ranks,
    so that count is the smaller of two table entries.  The counts are
    found one digit column at a time over the pairs still equal.
    """
    import numpy as np

    n, depth = head.shape
    w = 1
    while p ** (w + 1) < 1 << 62:
        w += 1
    words = [
        head[:, j : j + w] @ p ** np.arange(min(w, depth - j) - 1, -1, -1)
        for j in range(0, depth, w)
    ]
    order = np.lexsort(words[::-1])
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
    """Shared-digit counts of adjacent entries sorted by (cell, rank), 0
    where the cell changes: level 0 is no cell of the coordinate, so a cell
    change reads as a pair that shares no digit."""
    import numpy as np

    r = rank[point]
    same = np.flatnonzero(cell[1:] == cell[:-1])
    lo, hi = r[same], r[same + 1]
    width = table.shape[1]
    # floor(log2(hi - lo)), exact below 2**53; frexp's int32 exponent is
    # widened so that k * width cannot wrap
    k = np.frexp(hi - lo)[1].astype(np.int64) - 1
    at = k * width + lo
    flat = table.ravel()
    agree = np.zeros(len(point) - 1, dtype=np.int64)
    agree[same] = np.minimum(flat[at], flat[at + (hi - lo) - (1 << k)])
    return agree


def _lcp_intervals(agree: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every run [s, e], s < e, of sorted entries that is one digit cell
    over a range of levels lo..hi, as arrays (s, e, lo, hi).

    At level a >= 1 the entries fall into cells split wherever the adjacent
    agreement is below a, so [s, e] is a cell at levels
    max(agree[s-1], agree[e]) + 1 .. min(agree[s:e]), reading 0 past both
    ends.  The walk visits the agreement values the pairs hold, least
    first, over the pairs that agree above every value already visited: at
    value h the blocks of consecutive such pairs are the cells at level h,
    and a block holding a pair that agrees on exactly h is a run with
    hi = h.  Each run is found once, at its least agreement, and the pairs
    at h are dropped before the next value.
    """
    import numpy as np

    pos = np.flatnonzero(agree > 0)
    none = np.empty(0, dtype=np.int64)
    runs = [(none, none, none)]
    while len(pos):
        value = agree[pos]
        h = value.min()
        first = np.flatnonzero(np.diff(pos, prepend=-2) != 1)
        last = np.append(first[1:], len(pos)) - 1
        hit = np.minimum.reduceat(value, first) == h
        runs.append((pos[first[hit]], pos[last[hit]] + 1, np.full(hit.sum(), h)))
        pos = pos[value > h]
    s, e, hi = map(np.concatenate, zip(*runs))
    outside = np.concatenate(([0], agree, [0]))
    return s, e, np.maximum(outside[s], outside[e + 1]) + 1, hi


def _pair_sums(ps: PointSet, sizes: list[int]) -> list[int]:
    """For each n in ``sizes``, the kernel sum over the point pairs
    m < m' < n, times prod_i p_i**depth_i.

    One pass per coordinate carries every live (cell, point) entry.  The
    entries are sorted by cell and by rank in the coordinate's digit order,
    the shared-digit counts of neighbours are read off the coordinate's
    range-minimum table, and each run of entries that stays one cell over
    a range of levels is one cell of the next coordinate, with that range's
    summed level weight.  A cell's weight is a key into a list of exact
    integer products, so each distinct product is multiplied once.  At the
    last coordinate a run of k points below n holds C(k, 2) pairs, and its
    entries are never materialized.

    The kernel is a product over coordinates, so any order gives the same
    sum; the coordinates are visited largest base first, equal bases in
    input order.  A point stays in about log_p N nested runs of a
    coordinate, so about N prod_{i<j} log_{p_i} N entries enter coordinate
    j, and base 2, the largest factor, is best kept for the last one.
    Only the coordinates before the last are held to DIGIT_CELL_CAP.
    """
    import numpy as np

    need = max(sizes)
    point = np.arange(need)
    cell = np.zeros(need, dtype=np.int64)
    cell_key = np.zeros(1, dtype=np.int64)
    weights = [1]
    # largest base first; the sort is stable, so equal bases keep input order
    coords = sorted(zip(ps.bases.primes, ps.digits), key=lambda c: -c[0])
    for i, (p, digits) in enumerate(coords):
        head = digits[:need]
        depth = head.shape[1]
        rank, table = _agreement_table(head, p)
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
        if i + 1 < len(coords):
            length = e - s + 1
            if length.sum() > DIGIT_CELL_CAP:
                raise SegmentTooLarge(need, DIGIT_CELL_CAP)
            cell = np.repeat(np.arange(len(s)), length)
            point = point[np.arange(len(cell)) + np.repeat(s - np.cumsum(length) + length, length)]
            cell_key = key
    totals = []
    for n in sizes:
        below = np.concatenate(([0], np.cumsum(point < n)))
        count = below[e + 1] - below[s]
        pairs = np.zeros(len(weights), dtype=np.int64)
        np.add.at(pairs, key, count * (count - 1) // 2)
        totals.append(sum(map(operator.mul, weights, pairs.tolist())))
    return totals


def _kernel_report(n: int, pair_sum: Fraction, sig: int) -> DiaphonyReport:
    """Report from the exact kernel sum over all ordered pairs of n points.
    The exact squared diaphony lies in [0, 1], so its float does too."""
    f_squared = float((pair_sum / (n * n) - 1) / (sig - 1))
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
    cumulative count over the last coordinate's cells.  The coordinates
    are visited largest base first, and the last is counted without
    materializing its entries.  Past DIGIT_CELL_CAP live (cell, point)
    entries in a coordinate before the last, as deep near-duplicate
    clusters can reach, it raises SegmentTooLarge.
    """
    ps = PointSet.from_points(points, bases)
    sizes = [_as_int(n, "prefix size") for n in prefix_sizes]
    if not sizes:
        return []
    for nn in sizes:
        if not 1 <= nn <= len(ps):
            raise DiaphonyError(f"prefix size {nn} outside 1..{len(ps)}")
    totals = _pair_sums(ps, sizes)
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
    exact -- the oracle path: ``kernel_value`` in rationals on each point
             with itself, and on each unordered pair inside a first-digit
             cell (``_first_digit_cell``: each coordinate's first digit, an
             empty expansion reading as 0), counted twice since the kernel
             is symmetric.  Pairs in different cells have kernel 0 and are
             skipped.  So it costs N + sum_cells C(k, 2) kernel values:
             about N**2 / (2 prod p_i) for well-spread points, N (N + 1) / 2
             when all points share one cell.  A PointSet is converted to
             Points once.
    """
    if mode == "fast":
        ps = PointSet.from_points(points, bases)
        return diaphony_kernel_prefixes(ps, bases, [len(ps)])[0]
    if mode != "exact":
        raise DiaphonyError(f"unknown mode {mode!r}")
    pts = _point_list(points, bases)
    cells: dict[tuple[int, ...], list[Point]] = {}
    for x in pts:
        cells.setdefault(_first_digit_cell(x), []).append(x)
    diagonal = off = Fraction(0)
    for cell in cells.values():
        for i, x in enumerate(cell):
            diagonal += kernel_value(x, x, bases)
            for y in cell[i + 1 :]:
                off += kernel_value(x, y, bases)
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
    lcm(M(a) <= max(sizes)), and rounded once per size.
    """
    bases.require_distinct()
    sizes = [_as_int(n, "prefix size") for n in prefix_sizes]
    if not sizes or min(sizes) < 1:
        raise DiaphonyError("prefix sizes must be a nonempty list of positive integers")
    limit, start = _check_segment(max(sizes), start)
    moduli = _cell_moduli(bases.primes, limit)
    scale = math.lcm(*moduli)
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


def _sub_box_sums(E: np.ndarray, axis: int, p: int, g: int) -> np.ndarray:
    """E scaled along ``axis``, an axis of p**g frequencies or its first
    half, by the weight p**-2(g - 1 - v_p(j)) of frequency j (1 at j = 0),
    then summed over the nested slices [::p**(g - g')], g' = 1..g: that
    axis becomes length g."""
    import numpy as np

    weights = np.empty(E.shape[axis])
    for v in range(g):
        weights[:: p**v] = 1.0 / p ** (2 * (g - 1 - v))
    E *= weights.reshape((-1,) + (1,) * (E.ndim - 1 - axis))
    lead = (slice(None),) * axis
    return np.stack(
        [E[lead + (slice(None, None, p**v),)].sum(axis=axis) for v in reversed(range(g))],
        axis=axis,
    )


def _boxed_sums(ps: PointSet, bases: PrimeBases, box: TruncationBox) -> np.ndarray:
    """The boxed part of the squared diaphony for every sub-box g' <= box:
    entry g' - 1 is (1/(sigma - 1)) * sum over the nonzero k of g' of
    weight(k) * |S(k)/N|**2.

    |S(k)|**2 is read at frequency j = rev(k) of the half spectrum of the
    point histogram (the transform's sign does not change it).  The
    histogram is real, so its DFT at -j is the conjugate of that at j: the
    last axis keeps frequencies 0..P/2 (``rfft``), and each interior column
    counts twice for its mirror -j, which has the same weight and lies in
    the same sub-boxes on every axis since v_p(P - j) = v_p(j) for
    0 < j < P.  Column 0 and, for p = 2, the Nyquist column P/2 count once.
    On an axis of size P = p**g, k = rev(j) has its top digit at place
    g - 1 - v_p(j), so its weight is p**-2(g - 1 - v_p(j)) (1 for j = 0),
    and k < p**g' exactly when p**(g - g') divides j.  So each axis is
    scaled by its weights, and sub-box g' sums the nested slice
    [::p**(g - g')].

    One buffer holds the whole transform, about 8 bytes per box entry, in
    the padded in-place layout of FFTW: the counts go into float rows of
    2 (P//2 + 1) entries, which viewed as complex are the rows of the half
    spectrum.  ``rfft`` runs on slabs of about _SLAB_ENTRIES entries, each
    written back over its own rows, and the other axes are transformed in
    place.  |T|**2 is then taken and reduced over every axis but the last
    on column slabs of about _SLAB_ENTRIES entries and at least
    _SLAB_COLUMNS columns (all of them in a narrower half spectrum), so no
    temporary of the box's size appears where the half spectrum is wide.
    The traced peak is 8.6 bytes per entry at (2,3), g = (10,6) and 9.7 at
    (2,3,5), g = (6,4,3), where an int64 histogram beside its float copy,
    and then that copy beside its transform, took 16; a 1-d box still
    holds its one row's transform beside the counts.  Every entry sees the
    operations of a whole-array pass in the same order, so the result is
    bitwise the same: a sum over a non-last axis adds its terms in
    sequence whatever the slab width, but over a 1-column slab numpy
    would sum that axis pairwise, so _SLAB_COLUMNS is at least 2.
    Only sums and elementwise products run, so the result does not depend
    on the thread count.
    """
    import numpy as np

    _check_box(box, bases)
    axes = list(zip(bases.primes, box.exponents))
    *lead, P = [p**g for p, g in axes]
    half = P // 2 + 1
    rows = math.prod(lead)
    cells = _cell_index(ps, bases, box, lead + [2 * half])
    counts = np.bincount(cells, weights=np.ones(len(cells)), minlength=rows * 2 * half)
    counts = counts.reshape(rows, 2 * half)
    T = counts.view(complex)
    step = max(1, _SLAB_ENTRIES // P)
    for r in range(0, rows, step):
        T[r : r + step] = np.fft.rfft(counts[r : r + step, :P])
    T = T.reshape(lead + [half])
    for axis in range(len(lead)):
        np.fft.fft(T, axis=axis, out=T)
    T.flat[0] = 0.0  # S(0) = N: the origin is not a nonzero k
    E = np.empty(list(box.exponents[:-1]) + [half])
    slabs = max(1, min(half // _SLAB_COLUMNS, -(-rows * half // _SLAB_ENTRIES)))
    bounds = [half * i // slabs for i in range(slabs + 1)]
    for c0, c1 in zip(bounds, bounds[1:]):
        slab = np.abs(T[..., c0:c1])
        slab *= slab
        for axis, (p, g) in enumerate(axes[:-1]):
            slab = _sub_box_sums(slab, axis, p, g)
        E[..., c0:c1] = slab
    # the mirror columns; a factor of 2 commutes exactly with every rounding
    E[..., 1 : (P + 1) // 2] *= 2
    E = _sub_box_sums(E, len(lead), *axes[-1])
    return E / len(ps) ** 2 / float(weight_mass(bases) - 1)


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
    ps = PointSet.from_points(points, bases)
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
    midpoint of the enclosure, below 1: the exact boxed sum is at most
    1 - tail, and every box within ENUMERATION_CAP has tail > 1e-7.
    The transform is held in one half-spectrum buffer of about 8 bytes per
    box entry; the traced peak is 8.6 bytes per entry at (2,3), g = (10,6)
    and 9.7 at (2,3,5), g = (6,4,3) (see ``_boxed_sums``).
    """
    ps = PointSet.from_points(points, bases)
    lower = truncated_spectral_sum(ps, bases, box)
    tail = float(spectral_tail(bases, box))
    f_squared = lower + tail / 2
    return DiaphonyReport(len(ps), math.sqrt(f_squared), f_squared, "spectral",
                          enclosure=(lower, lower + tail), box=box)


def enclosure_grid(
    points: PointSet | Iterable[Point],
    bases: PrimeBases,
    box: TruncationBox,
) -> dict[tuple[int, ...], tuple[float, float]]:
    """Enclosures for every sub-box g' <= box, from a single transform.

    ``points`` is a PointSet or an iterable of Points.  Weyl sums and index
    weights do not depend on the box, and in frequency order sub-box g' is
    the nested slice of the frequencies that p**(g - g') divides on each
    axis, so one weighted spectrum gives every sub-box's boxed sum; the
    entry for ``box`` itself reads the value ``truncated_spectral_sum``
    returns, so it equals ``diaphony_spectral(points, bases, box).enclosure``
    bitwise.
    """
    import numpy as np

    lowers = _boxed_sums(PointSet.from_points(points, bases), bases, box)
    out = {}
    for idx in np.ndindex(lowers.shape):
        exps = tuple(i + 1 for i in idx)
        lower = float(lowers[idx])
        out[exps] = (lower, lower + float(spectral_tail(bases, TruncationBox(exps))))
    return out


# ---------------------------------------------------------------------------
# Identities and sequence bounds


def worst_case_error(report: DiaphonyReport, bases: PrimeBases) -> float:
    """Worst-case equal-weight integration error: sqrt(sigma - 1) * F.

    Where sigma - 1 passes the float range the root is taken in
    ``Decimal``; a value that no float holds raises DiaphonyError."""
    try:
        return math.sqrt(weight_mass(bases) - 1) * report.f
    except OverflowError:
        error = float(Decimal(weight_mass(bases) - 1).sqrt() * Decimal(report.f))
        if error < math.inf:
            return error
    raise DiaphonyError("the worst-case error exceeds the float range")


def halton_diaphony_bound(bases: PrimeBases, n_points: int) -> BoundReport:
    """Ceiling on the squared diaphony of an N-point Halton prefix.

    bound = c * (ln N)**s / N**2 + d / N**2 with
    c = (1/(sigma - 1)) * (pi**2/3) * prod_j (1 + 2 p_j**2 / ln p_j) and
    d = 2 s max_i p_i, for N <= 2**63.  Natural logarithms throughout.
    The factors of the product stay below 2**123, but their product,
    sigma and c * (ln N)**s can pass the float range for large bases;
    there c and the bound are evaluated from the same factors in
    ``Decimal``, and a value that no float holds raises DiaphonyError.
    """
    bases.require_distinct()
    n_points = _as_int(n_points, "n_points")
    if n_points < 1:
        raise DiaphonyError("n_points must be at least 1")
    if n_points > MAX_INDEX + 1:
        raise CountOverflow("n_points exceeds 2**63, the supported 64-bit index space")
    sig = weight_mass(bases)
    s = bases.dimension
    factors = [1.0 + 2.0 * p * p / math.log(p) for p in bases.primes]
    d = float(2 * s * max(bases.primes))
    for num in (float, Decimal):  # Decimal only where a float step overflows
        try:
            c = num(math.pi) ** 2 / 3 * math.prod(map(num, factors)) / (sig - 1)
            bound = (c * num(math.log(n_points)) ** s + num(d)) / n_points**2
        except ArithmeticError:
            continue
        report = BoundReport(float(c), d, float(bound))
        if math.isfinite(report.c) and math.isfinite(report.bound_f_squared):
            return report
    raise DiaphonyError("the bound's constants exceed the float range")


def distance_to_nearest_integer(q: Fraction) -> Fraction:
    """min(frac(q), 1 - frac(q)), exactly."""
    frac = q % 1
    return min(frac, 1 - frac)


def weyl_sum_bound(k: IndexVector, bases: PrimeBases) -> Fraction:
    """Exact ceiling 1 / ||sum_j phi_{p_j}(k_j)|| on |weyl_sum| over any
    Halton prefix in pairwise-distinct prime bases."""
    bases.require_distinct()
    _require_dimension("index", k.dimension, bases)
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
    return np.unravel_index(np.argmax(ratio >= top - _TIE_TOLERANCE * top), ratio.shape)


def verify_weyl_bound(
    n_points: int,
    bases: PrimeBases,
    box: TruncationBox,
) -> WeylCheckReport:
    """Check |weyl_sum(k)| <= its ceiling for every nonzero k in the box.

    The check builds no point: it counts the grid cells of the first
    N mod B indices, B = prod p**g, so less than one period of index
    arithmetic for any N up to 2**63.  Halton point n lies in grid cell
    (n mod p_i**g_i)_i, which by CRT depends only on n mod B, and B
    consecutive indices fill every cell once.  So N = qB + r points,
    0 <= r < B, have the histogram of the first r indices (one in each of
    r distinct cells) plus q in every cell, and a constant moves the
    transform only at k = 0, which has no ceiling.  Where B divides N the
    period is empty, its grid is all zero, and every nonzero Weyl sum is
    exactly 0.  Each index records the ratio
    |S(k)| * ||sum_j phi(k_j)||; ratios above 1 + RATIO_TOLERANCE count as
    violations.  The reported worst index is the first in C order whose
    ratio is within a relative 1e-9 of the largest, so an exact tie does not
    hang on the last bits of the FFT.

    The ratios are computed in frequency order: S(k) is entry j = rev(k) of
    the histogram's transform (see ``weyl_sum_table``), and phi_p(k) =
    j / p**g there, so over the common denominator B = prod p**g the summed
    phases are the exact int64 numerators sum_i j_i * B / p_i**g_i mod B.
    Only the worst index is read in k order.
    """
    import numpy as np

    bases.require_distinct()
    _check_box(box, bases)
    n_points, _ = _check_segment(n_points, 0)
    sizes = [p**g for p, g in zip(bases.primes, box.exponents)]
    B = math.prod(sizes)
    S = np.zeros(sizes, dtype=complex)
    S[tuple(np.arange(n_points % B, dtype=np.int32) % P for P in sizes)] = 1
    np.fft.ifftn(S, norm="forward", out=S)
    ratio = np.abs(S)
    del S
    num = sum(np.ix_(*(np.arange(P) * (B // P) for P in ratio.shape))) % B
    np.minimum(num, B - num, out=num)
    ratio *= num / B
    ratio.flat[0] = -1.0  # the origin has no ceiling
    worst_index = IndexVector(_first_near_max(_digit_reversed(ratio, bases, box)))
    violations = int((ratio > 1.0 + RATIO_TOLERANCE).sum())
    return WeylCheckReport(box, float(ratio.max()), worst_index, violations)
