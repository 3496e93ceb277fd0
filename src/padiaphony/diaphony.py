"""Diaphony of point sets in the unit cube, by two independent routes.

The kernel route sums the closed-form pair kernel over all point pairs.
Its fast mode counts the points sharing each digit cell, in integers, in
one sorted pass per coordinate; its exact mode adds kernel values in
rationals over the unordered pairs that share a first-digit cell.  For a
contiguous Halton segment, ``core.halton_diaphony_prefixes`` counts the
same pairs in closed form from (bases, start, N) alone, by CRT, and builds
no point.  All three yield the squared diaphony as one exact rational,
rounded to float once.  The spectral route sums weighted squared Weyl
sums over a finite index box and adds the exact analytic tail, yielding
an enclosure of the squared diaphony.  For points the boxed sum comes
from a float transform, so the enclosure holds up to its rounding; for a
``HaltonSegment`` the boxed sum is counted exactly by the same CRT
argument, with no point and no transform, and the enclosure is rigorous.
On top sits the Weyl-sum ceiling check, which evaluates each sum of a
Halton prefix in closed form; the worst-case-error identity and the
asymptotic bound for Halton prefixes live in ``core``.

numpy is imported inside the functions that build arrays, so the
Weyl-ceiling check and the scalar oracles run without loading it.
``WeylCheckReport`` is a slotted immutable record (``core._Record``), not
a dataclass, so importing the module loads neither ``dataclasses`` nor
``inspect``.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import (
    DiaphonyReport,
    PrimeBases,
    _as_int,
    _check_segment,
    _kernel_report,
    _Record,
    _require_dimension,
    _require_prime_bases,
    weight_mass,
)
# defined here before core; see its end
from .core import BoundReport, halton_diaphony_bound, halton_diaphony_prefixes  # noqa: F401
from .core import _cell_moduli, worst_case_error  # noqa: F401
from .errors import BoxTooLarge, DiaphonyError, SegmentTooLarge, ZeroIndex
from .halton import DIGIT_CELL_CAP, HaltonSegment
from .halton import halton_stream  # noqa: F401  (perfbench/tracing.py wraps it here)
from .kernel import _first_digit_cell, kernel_value
from .padic import IndexVector, Point, PointSet, _point_list, _require_bases, char_product, monna
from .weights import TruncationBox, truncated_weight_mass

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ENUMERATION_CAP",
    "RATIO_TOLERANCE",
    "WeylCheckReport",
    "weyl_sum",
    "weyl_sum_table",
    "diaphony_kernel",
    "diaphony_kernel_prefixes",
    "truncated_spectral_sum",
    "spectral_tail",
    "diaphony_spectral",
    "enclosure_grid",
    "distance_to_nearest_integer",
    "weyl_sum_bound",
    "verify_weyl_bound",
]

# Boxes enumerating more index vectors than this are rejected.  The cap
# bounds the memory of the FFT routes of points, whose buffers hold about
# 8 bytes per box entry, and the Weyl-ceiling scan, up to about B / 4 steps.
ENUMERATION_CAP = 1 << 22
# Weyl-sum ratios above 1 + RATIO_TOLERANCE count as violations.
RATIO_TOLERANCE = 1e-9
# Ratios within this relative distance of the largest tie for the worst index.
_TIE_TOLERANCE = 1e-9
# The Weyl-ceiling scan stops once its envelope, raised by this relative
# margin for rounding, is below the near-max threshold.
_ENVELOPE_MARGIN = 1e-12
# Box entries per slab of the spectral reduction's temporaries, and the
# least columns per slab of |T|**2 where the half spectrum has that many.
_SLAB_ENTRIES = 1 << 15
_SLAB_COLUMNS = 16


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
    return [_kernel_report(nn, nn * sig * scale + 2 * t, sig, scale)
            for nn, t in zip(sizes, totals)]


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
             when all points share one cell.  The numerators of the
             kernel values are summed in integers per denominator, and
             one Fraction is built per distinct denominator.  A PointSet
             is converted to Points once.
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
    numerators: dict[int, int] = {}  # kernel denominator -> weighted numerator sum
    for cell in cells.values():
        for i, x in enumerate(cell):
            for j, y in enumerate(cell[i:]):
                k = kernel_value(x, y, bases)
                weight = 2 if j else 1  # a pair of two points stands for both orders
                numerators[k.denominator] = numerators.get(k.denominator, 0) + weight * k.numerator
    pair_sum = sum(Fraction(num, den) for den, num in numerators.items())
    return _kernel_report(len(pts), pair_sum, weight_mass(bases))


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


def _segment_boxed_sums(
    seg: HaltonSegment, bases: PrimeBases, box: TruncationBox
) -> dict[tuple[int, ...], Fraction]:
    """The exact boxed part of the squared diaphony of a Halton segment for
    every sub-box g' <= box, keyed by g' in C order, with no point and no
    transform.

    Summed over the box's index blocks, the weighted characters of one
    coordinate give the boxed kernel K_g = sum_{1 <= a < g} (p**2 - 1)
    p**-a I_a + p**(2 - g) I_g, where I_a says whether two points share
    their first a digits; on the diagonal it is sigma(g) = p + 1 - p**(1 - g).
    So the boxed sum over all ordered pairs, S_g = sum_k weight(k)
    |S(k)|**2, is sum_a W_g(a) C(a) over 1 <= a_i <= g_i, with W_g(a) the
    product of the clipped coordinate weights and C(a) the ordered pairs,
    diagonal included, sharing a_i digits in every coordinate.  As in
    ``halton_diaphony_prefixes``, by CRT those are the index pairs equal
    modulo M(a) = prod_i p_i**a_i: with N = qM + r, C(a) = N + q (N - M + r),
    whatever the start, so S_g = N sigma(g) + sum_{M(a) <= N} W_g(a)
    q (N - M + r).  The weights are integers over the common denominator
    D = prod_i p_i**g_i, the coordinates are contracted one at a time, and
    the boxed sum (S_g / N**2 - 1) / (sigma - 1) is one exact rational.
    Segments in other bases raise BaseMismatch, as point sets do.
    """
    _require_bases(seg, bases)
    _check_box(box, bases)
    n = seg.count
    sums = {}
    for a in itertools.product(*(range(1, g + 1) for g in box.exponents)):
        q, r = divmod(n, math.prod(map(pow, bases.primes, a)))
        sums[a] = q * (n + r) + r  # N + q (N - M + r)
    for i, (p, g) in enumerate(zip(bases.primes, box.exponents)):
        # row h - 1: p**g times the depth-h weights of agreements a = 1..h
        weights = [
            [(p * p - 1) * p ** (g - a) for a in range(1, h)] + [p ** (g + 2 - h)]
            for h in range(1, g + 1)
        ]
        sums = {
            key[:i] + (h,) + key[i + 1 :]: sum(
                w * sums[key[:i] + (a,) + key[i + 1 :]] for a, w in enumerate(row, start=1)
            )
            for key in sums
            if key[i] == 1
            for h, row in enumerate(weights, start=1)
        }
    scale = n * n * math.prod(map(pow, bases.primes, box.exponents))
    sig = weight_mass(bases)
    return {sub: Fraction(total - scale, scale * (sig - 1)) for sub, total in sums.items()}


def _float_toward(x: Fraction, toward: float) -> float:
    """x rounded to a float toward -inf or inf: ``float`` rounds to the
    nearest, so at most one ``math.nextafter`` step corrects it."""
    f = float(x)
    if Fraction(f) != x and (Fraction(f) > x) == (toward < 0):
        f = math.nextafter(f, toward)
    return f


def _rigorous_enclosure(boxed: Fraction, tail: Fraction) -> tuple[float, float]:
    """The exact boxed sum rounded down and the exact boxed sum plus tail
    rounded up."""
    return _float_toward(boxed, -math.inf), _float_toward(boxed + tail, math.inf)


def truncated_spectral_sum(
    points: HaltonSegment | PointSet | Iterable[Point],
    bases: PrimeBases,
    box: TruncationBox,
) -> float:
    """The boxed part of the squared diaphony:
    (1/(sigma - 1)) * sum over nonzero boxed k of weight(k) * |S(k)/N|**2.

    ``points`` is a HaltonSegment, a PointSet or an iterable of Points.
    The value is the full-box entry of the sub-box sums that
    ``enclosure_grid`` reads for every sub-box: for a segment the exact sum
    rounded down, and for points the float transform's sum."""
    if isinstance(points, HaltonSegment):
        return _float_toward(_segment_boxed_sums(points, bases, box)[box.exponents], -math.inf)
    ps = PointSet.from_points(points, bases)
    return float(_boxed_sums(ps, bases, box)[(-1,) * bases.dimension])


def spectral_tail(bases: PrimeBases, box: TruncationBox) -> Fraction:
    """Exact weight mass outside the box, normalized: (sigma - sigma(g)) / (sigma - 1)."""
    sig = weight_mass(bases)
    return (sig - truncated_weight_mass(bases, box)) / (sig - 1)


def diaphony_spectral(
    points: HaltonSegment | PointSet | Iterable[Point],
    bases: PrimeBases,
    box: TruncationBox,
) -> DiaphonyReport:
    """Diaphony via truncated spectral sums, with an enclosure.

    ``points`` is a HaltonSegment, a PointSet or an iterable of Points.
    ``lower`` is the boxed sum (``truncated_spectral_sum``); ``upper`` adds
    the exact analytic tail.  The exact squared diaphony lies between the
    exact boxed sum and that sum plus the tail.

    For a segment the boxed sum is exact (``_segment_boxed_sums``), for any
    count up to the index space: ``lower`` is that sum rounded down,
    ``upper`` the exact sum plus tail rounded up, and the point value their
    exact midpoint rounded once, so the enclosure is rigorous and the
    report needs no numpy.  For points ``lower`` is a float sum that can round a
    few ulps above the exact boxed sum, so the enclosure holds up to that
    rounding, not rigorously; the point value is lower + tail / 2.  It is
    below 1: the exact boxed sum is at most 1 - tail, and every box within
    ENUMERATION_CAP has tail > 1e-7.  The transform is held in one
    half-spectrum buffer of about 8 bytes per box entry; the traced peak is
    8.6 bytes per entry at (2,3), g = (10,6) and 9.7 at (2,3,5),
    g = (6,4,3) (see ``_boxed_sums``).
    """
    if isinstance(points, HaltonSegment):
        boxed = _segment_boxed_sums(points, bases, box)[box.exponents]
        tail = spectral_tail(bases, box)
        f_squared = float(boxed + tail / 2)
        return DiaphonyReport(points.count, math.sqrt(f_squared), f_squared, "spectral",
                              enclosure=_rigorous_enclosure(boxed, tail), box=box)
    ps = PointSet.from_points(points, bases)
    lower = truncated_spectral_sum(ps, bases, box)
    tail = float(spectral_tail(bases, box))
    f_squared = lower + tail / 2
    return DiaphonyReport(len(ps), math.sqrt(f_squared), f_squared, "spectral",
                          enclosure=(lower, lower + tail), box=box)


def enclosure_grid(
    points: HaltonSegment | PointSet | Iterable[Point],
    bases: PrimeBases,
    box: TruncationBox,
) -> dict[tuple[int, ...], tuple[float, float]]:
    """Enclosures for every sub-box g' <= box, from a single transform.

    ``points`` is a HaltonSegment, a PointSet or an iterable of Points.
    Weyl sums and index weights do not depend on the box, and in frequency
    order sub-box g' is the nested slice of the frequencies that
    p**(g - g') divides on each axis, so one weighted spectrum gives every
    sub-box's boxed sum; a segment's exact sums come from one contraction
    instead.  The entry for ``box`` itself reads the value
    ``truncated_spectral_sum`` returns, so it equals
    ``diaphony_spectral(points, bases, box).enclosure`` bitwise.
    """
    if isinstance(points, HaltonSegment):
        return {
            sub: _rigorous_enclosure(boxed, spectral_tail(bases, TruncationBox(sub)))
            for sub, boxed in _segment_boxed_sums(points, bases, box).items()
        }
    import numpy as np

    lowers = _boxed_sums(PointSet.from_points(points, bases), bases, box)
    out = {}
    for idx in np.ndindex(lowers.shape):
        exps = tuple(i + 1 for i in idx)
        lower = float(lowers[idx])
        out[exps] = (lower, lower + float(spectral_tail(bases, TruncationBox(exps))))
    return out


# ---------------------------------------------------------------------------
# Weyl-sum ceilings


def distance_to_nearest_integer(q: Fraction) -> Fraction:
    """min(frac(q), 1 - frac(q)), exactly."""
    frac = q % 1
    return min(frac, 1 - frac)


def weyl_sum_bound(k: IndexVector, bases: PrimeBases) -> Fraction:
    """Exact ceiling 1 / ||sum_j phi_{p_j}(k_j)|| on |weyl_sum| over any
    Halton prefix in pairwise-distinct prime bases."""
    _require_prime_bases(bases).require_distinct()
    _require_dimension("index", k.dimension, bases)
    if k.is_zero:
        raise ZeroIndex()
    total = Fraction(0)
    for ki, p in zip(k.indices, bases.primes):
        if ki:
            total += monna(ki, p).value()
    # distinct primes force a non-integral total, so the distance is positive
    return 1 / distance_to_nearest_integer(total)


def verify_weyl_bound(
    n_points: int,
    bases: PrimeBases,
    box: TruncationBox,
) -> WeylCheckReport:
    """Check |weyl_sum(k)| <= its ceiling for every nonzero k in the box.

    Each Weyl sum is a closed form of N mod B, B = prod p**g, so the check
    builds no point, no table and no transform, and loads no numpy.  The
    k-th character at Halton point n is exp(2 pi i n m / B), where
    m / B = sum_j phi(k_j) mod 1 and, by CRT, m determines k: axis i holds
    j_i = m (B / P_i)**-1 mod P_i, P_i = p_i**g_i, and k_i is the g_i-digit
    base-p_i reversal of j_i.  B consecutive indices sum to 0 at every
    m != 0, so N = qB + r indices, 0 <= r < B, have the geometric sum of the
    first r: |S(k)| = |sin(pi r m / B)| / sin(pi m / B), and its ratio to
    the ceiling 1 / ||m / B|| is, with t = min(m, B - m),
    sin(pi ||r t / B||) / sin(pi t / B) * t / B.  Where B divides N every
    nonzero Weyl sum is exactly 0, and the worst index reported is the
    first nonzero one in C order.

    m and B - m share t, so the check scans t = B // 2 down to 1.  The
    ratio is at most the envelope (t / B) / sin(pi t / B), which grows with
    t and is at most 1/2 by Jordan's inequality, sin(pi x) >= 2x on
    [0, 1/2], so it only falls as the scan goes on.  The scan stops once the envelope, with a 1e-12 margin for
    rounding, is below the near-max threshold of the largest ratio seen:
    no skipped index is a near-max or a violation.  Ratios above
    1 + RATIO_TOLERANCE count as violations.  The reported worst index is
    the least in C order among the m and B - m of every t whose ratio is
    within a relative 1e-9 of the largest, so an exact tie does not hang
    on the last bits of a float.  Only those near-max t are held, so the
    memory does not grow with the box.  The scan takes about 10**2 steps
    at most counts (122 at N = 256, g = (8,5), a median of 37 over random
    r at g = (12,6)), and up to about B / 4 at a small even r, where the
    largest ratio is far below 1/2 (711,643 steps at r = 2, g = (12,6)).
    """
    _require_prime_bases(bases).require_distinct()
    _check_box(box, bases)
    n_points, _ = _check_segment(n_points, 0)
    axes = list(zip(bases.primes, box.exponents))
    B = math.prod(p**g for p, g in axes)
    r = n_points % B
    if not r:
        return WeylCheckReport(box, 0.0, IndexVector((0,) * (len(axes) - 1) + (1,)), 0)
    sin, pi = math.sin, math.pi
    top = threshold = limit = 0.0
    ties, room, violations = [], 64, 0
    for t in range(B // 2, 0, -1):
        sin_t = sin(pi * t / B)
        if t / sin_t < limit:  # the envelope (t / B) / sin_t is below threshold
            break
        s = r * t % B
        ratio = sin(pi * (s if s + s <= B else B - s) / B) / sin_t * t / B
        if ratio >= threshold:
            if ratio > top:
                top = ratio
                threshold = top - _TIE_TOLERANCE * top
                limit = threshold * B / (1.0 + _ENVELOPE_MARGIN)
            ties.append((t, ratio))
            if len(ties) > room:  # drop what a larger top left behind
                ties = [tie for tie in ties if tie[1] >= threshold]
                room = 2 * len(ties) + 64
        if ratio > 1.0 + RATIO_TOLERANCE:
            violations += 1 if t + t == B else 2
    inverses = [pow(B // p**g, -1, p**g) for p, g in axes]
    worst_index = min(
        # k_i = rev(j_i) = p**g * monna(j_i), as reversal is an involution
        tuple(int(monna(m * inv % p**g, p).value() * p**g) for (p, g), inv in zip(axes, inverses))
        for t, ratio in ties
        if ratio >= threshold
        for m in (t, B - t)
    )
    return WeylCheckReport(box, top, IndexVector(worst_index), violations)
