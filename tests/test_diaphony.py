"""Diaphony engines: spot values, cross-checks between routes, bounds."""

import itertools
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiaphony import (
    MAX_INDEX,
    RATIO_TOLERANCE,
    BaseMismatch,
    BoxTooLarge,
    CountOverflow,
    DiaphonyError,
    DiaphonyReport,
    DigitVector,
    DimensionMismatch,
    DuplicateBase,
    HaltonSegment,
    IndexVector,
    Point,
    PointSet,
    PrimeBases,
    SegmentTooLarge,
    TruncationBox,
    ZeroIndex,
    block_weight_product,
    char_phase_total,
    char_product,
    default_depth,
    diaphony_kernel,
    diaphony_kernel_prefixes,
    diaphony_spectral,
    distance_to_nearest_integer,
    enclosure_grid,
    halton_diaphony_bound,
    halton_diaphony_prefixes,
    halton_point,
    halton_set,
    halton_stream,
    is_prime,
    kernel_value,
    monna,
    point_from_values,
    spectral_tail,
    truncated_spectral_sum,
    validate_bases,
    verify_weyl_bound,
    walsh_phase,
    weight_mass,
    weyl_sum,
    weyl_sum_bound,
    weyl_sum_table,
    worst_case_error,
)
import padiaphony.diaphony
from padiaphony.diaphony import (
    ENUMERATION_CAP,
    _boxed_sums,
    _check_box,
    _kernel_report,
    _lcp_intervals,
    _segment_boxed_sums,
)
from padiaphony.padic import _point_list

B2 = validate_bases([2])
B3 = validate_bases([3])
B23 = validate_bases([2, 3])


def rand_points(rng, primes, count, max_len=5):
    pts = []
    for _ in range(count):
        coords = tuple(
            DigitVector(p, tuple(rng.randrange(p) for _ in range(rng.randrange(max_len + 1))))
            for p in primes
        )
        pts.append(Point(coords))
    return pts


# --- Weyl sums


def test_weyl_sum_of_trivial_character_counts_points():
    pts = list(halton_stream(7, B23))
    assert weyl_sum(pts, IndexVector((0, 0)), B23) == 7


def test_weyl_sum_examples():
    pts = list(halton_stream(2, B2))
    assert abs(weyl_sum(pts, IndexVector((1,)), B2)) < 1e-15
    origin = [halton_point(0, B23)]
    assert abs(weyl_sum(origin, IndexVector((1, 1)), B23) - 1) < 1e-15


def test_weyl_sum_dimension_mismatch():
    pts = list(halton_stream(2, B2))
    with pytest.raises(DimensionMismatch):
        weyl_sum(pts, IndexVector((1, 1)), B2)
    with pytest.raises(ValueError, match="at least one point"):
        weyl_sum([], IndexVector((1,)), B2)


def test_weyl_sum_table_matches_scalar_sums():
    rng = random.Random(20)
    pts = rand_points(rng, (2, 3), 9)
    box = TruncationBox((2, 2))
    for system, phase_fn in (("padic", None), ("walsh", walsh_phase)):
        table = weyl_sum_table(pts, B23, box, system=system)
        assert table.shape == (4, 9)
        for k1 in range(4):
            for k2 in range(9):
                k = IndexVector((k1, k2))
                if phase_fn is None:
                    expected = weyl_sum(pts, k, B23)
                else:
                    expected = sum(char_product(k, x, B23, phase_fn) for x in pts)
                assert abs(table[k1, k2] - expected) < 1e-12


def test_weyl_sum_table_one_dimension():
    pts = list(halton_stream(5, B3))
    table = weyl_sum_table(pts, B3, TruncationBox((2,)))
    assert table.shape == (9,)
    assert abs(table[0] - 5) < 1e-12
    for k in range(9):
        assert abs(table[k] - weyl_sum(pts, IndexVector((k,)), B3)) < 1e-12


def test_weyl_sum_table_three_dimensions():
    b235 = validate_bases([2, 3, 5])
    pts = list(halton_stream(11, b235))
    table = weyl_sum_table(pts, b235, TruncationBox((2, 1, 1)))
    assert table.shape == (4, 3, 5)
    rng = random.Random(21)
    for _ in range(25):
        idx = (rng.randrange(4), rng.randrange(3), rng.randrange(5))
        expected = weyl_sum(pts, IndexVector(idx), b235)
        assert abs(table[idx] - expected) < 1e-12


def _reversal(p, g):
    """The g-digit base-p reversal of every k < p**g, digit by digit."""
    k, rev = np.arange(p**g), np.zeros(p**g, dtype=np.int64)
    for _ in range(g):
        k, d = np.divmod(k, p)
        rev = rev * p + d
    return rev


@pytest.mark.parametrize("primes, exps", [((2, 3), (4, 3)), ((2, 3, 5), (3, 2, 1)), ((7,), (3,))])
def test_padic_table_is_the_transform_gathered_at_reversed_frequencies(primes, exps):
    # Halton point n sits in grid cell n mod p**g on every axis
    bases, box = validate_bases(primes), TruncationBox(exps)
    hist = np.zeros([p**g for p, g in zip(primes, exps)], dtype=complex)
    for n in range(11, 61):
        hist[tuple(n % p**g for p, g in zip(primes, exps))] += 1
    rev = np.ix_(*(_reversal(p, g) for p, g in zip(primes, exps)))
    expected = np.fft.ifftn(hist, norm="forward")[rev]
    assert weyl_sum_table(halton_set(50, bases, 11), bases, box).tobytes() == expected.tobytes()


def _geometric_sums(n_points, bases, box):
    """(|S_N(k)|, ||theta(k)||) over the box for any Halton segment of
    n_points.  Point n has phase n * theta(k), theta = sum_i phi(k_i) = a / B
    over B = prod p_i**g_i, with phi(k) = rev(k) / p**g, so S_N(k) is a
    geometric sum: |S| = |sin(pi N theta) / sin(pi theta)|, whatever the
    start.  Both phases are folded to ||.|| in integers before sin; sin of
    pi (1 - 1/B) in floats would be off by far more than the FFT."""
    sizes = [p**g for p, g in zip(bases.primes, box.exponents)]
    B = math.prod(sizes)
    axes = (_reversal(p, g) * (B // P) for p, g, P in zip(bases.primes, box.exponents, sizes))
    a = sum(np.ix_(*axes)) % B

    def fold(num):
        return np.minimum(num, B - num) / B

    dist = fold(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        abs_s = np.sin(np.pi * fold(n_points * a % B)) / np.sin(np.pi * dist)
    abs_s.flat[0] = n_points  # the origin, theta = 0
    return abs_s, dist


@pytest.mark.parametrize(
    "primes, exps, n_points, start",
    [
        ((2, 3), (10, 6), 8192, 1234567),  # theta = 1 - 1/B occurs here
        ((2,), (21,), 10**5, 2**40),
        ((2, 3), (8, 5), 100003, 2**62 - 200000),
        ((2, 3, 5), (6, 4, 3), 2048, 1500001),
        ((2, 65537), (3, 1), 300, 5),
        ((7, 11), (3, 2), 777, 0),
    ],
)
def test_halton_weyl_table_is_a_geometric_sum(primes, exps, n_points, start):
    bases, box = validate_bases(primes), TruncationBox(exps)
    table = weyl_sum_table(halton_set(n_points, bases, start), bases, box)
    abs_s, _ = _geometric_sums(n_points, bases, box)
    assert np.abs(np.abs(table) - abs_s).max() <= 1e-14 * n_points


@pytest.mark.parametrize(
    "primes, exps, n_points",
    [
        ((2, 3), (10, 6), 8192),
        ((2,), (21,), 10**5),
        ((2, 3), (8, 5), 100003),
        ((2, 3, 5), (6, 4, 3), 2048),
        ((7, 11), (3, 2), 777),
        # small even r: the longest scans, and 10-32 distinct t within a
        # relative 1e-9 of the largest ratio
        ((2,), (20,), 2),
        ((2, 3), (10, 6), 2),
        ((2, 3), (10, 6), 4),
    ],
)
def test_weyl_ceiling_ratio_equals_the_geometric_sum_oracle(primes, exps, n_points):
    bases, box = validate_bases(primes), TruncationBox(exps)
    abs_s, dist = _geometric_sums(n_points, bases, box)
    ratio = abs_s * dist
    ratio.flat[0] = -1.0
    expected = ratio.max()
    rep = verify_weyl_bound(n_points, bases, box)
    assert abs(rep.worst_ratio - expected) <= 1e-12 * expected
    # the first k in C order within a relative 1e-9 of the largest ratio
    first = np.unravel_index(np.argmax(ratio >= expected - 1e-9 * expected), ratio.shape)
    assert rep.worst_index.indices == tuple(int(i) for i in first)
    assert rep.violations == int((ratio > 1.0 + RATIO_TOLERANCE).sum()) == 0


@st.composite
def table_cases(draw):
    """Ingested points in 1-3 dimensions with bases up to 11 (repeats
    allowed), duplicate rows and dyadic or zero coordinates, and a box of
    at most 128 index vectors unless its depths are all 1."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11)), min_size=1, max_size=3))
    exps = [draw(st.integers(1, 3)) for _ in primes]
    while math.prod(p**g for p, g in zip(primes, exps)) > 128 and max(exps) > 1:
        i = max(range(len(exps)), key=lambda j: primes[j] ** exps[j] if exps[j] > 1 else 0)
        exps[i] -= 1
    bases = PrimeBases(tuple(primes))
    value = st.one_of(st.floats(0, 1, exclude_max=True), st.sampled_from((0.0, 0.25, 0.5)))
    rows = draw(st.lists(st.tuples(*(value for _ in primes)), min_size=1, max_size=8))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    pts = [point_from_values(row, bases) for row in rows]
    return bases, pts, TruncationBox(tuple(exps))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=table_cases())
def test_weyl_sum_table_and_enclosure_on_ingested_points(case):
    bases, pts, box = case
    for system, phase_fn in (("padic", None), ("walsh", walsh_phase)):
        table = weyl_sum_table(pts, bases, box, system=system)
        assert table.shape == tuple(p**g for p, g in zip(bases.primes, box.exponents))
        for idx in np.ndindex(*table.shape):
            k = IndexVector(tuple(int(i) for i in idx))
            if phase_fn is None:
                expected = weyl_sum(pts, k, bases)
            else:
                expected = sum(char_product(k, x, bases, phase_fn) for x in pts)
            assert abs(table[idx] - expected) < 1e-12
    truth = diaphony_kernel(pts, bases, "exact").f_squared
    lower, upper = diaphony_spectral(pts, bases, box).enclosure
    assert lower <= truth + 1e-12
    assert truth <= upper + 1e-12


def test_box_cap_is_enforced():
    pts = list(halton_stream(2, B2))
    with pytest.raises(BoxTooLarge):
        weyl_sum_table(pts, B2, TruncationBox((23,)))
    with pytest.raises(BoxTooLarge):
        diaphony_spectral(list(halton_stream(2, B3)), B3, TruncationBox((14,)))


def test_box_of_another_dimension_is_rejected():
    pts = list(halton_stream(2, B23))
    with pytest.raises(DimensionMismatch, match="box dimension 1 != bases dimension 2"):
        diaphony_spectral(pts, B23, TruncationBox((3,)))


def test_box_check_is_one_comparison_with_the_cap():
    # exactly ENUMERATION_CAP indices pass; one exponent more is rejected
    _check_box(TruncationBox((22,)), B2)
    _check_box(TruncationBox((11, 11)), PrimeBases((2, 2)))
    assert ENUMERATION_CAP == 2**22
    for box, bases in ((TruncationBox((23,)), B2), (TruncationBox((14,)), B3),
                       (TruncationBox((12, 7)), B23)):
        with pytest.raises(BoxTooLarge, match="cap"):
            _check_box(box, bases)


def test_huge_box_is_rejected_before_it_is_built():
    # 2**(10**6) is never built, and the message does not print it
    box = TruncationBox((10**6,))
    ps = halton_set(4, B2)
    for call in (
        lambda: weyl_sum_table(ps, B2, box),
        lambda: truncated_spectral_sum(ps, B2, box),
        lambda: diaphony_spectral(ps, B2, box),
        lambda: enclosure_grid(ps, B2, box),
        lambda: verify_weyl_bound(4, B2, box),
    ):
        with pytest.raises(BoxTooLarge) as info:
            call()
        assert "(1000000,)" in str(info.value) and "cap" in str(info.value)


# --- kernel route


def test_single_point_has_unit_diaphony():
    for bases in (B2, B23, validate_bases([5, 7])):
        pt = halton_point(5, bases)
        for mode in ("fast", "exact"):
            rep = diaphony_kernel([pt], bases, mode)
            assert abs(rep.f - 1.0) < 1e-12
            assert rep.method == "kernel"


def test_two_point_halton_example():
    pts = list(halton_stream(2, B2))
    for mode in ("fast", "exact"):
        rep = diaphony_kernel(pts, B2, mode)
        assert abs(rep.f - 0.5) < 1e-12
        assert abs(rep.f_squared - 0.25) < 1e-12


def test_repeated_point_behaves_like_single_point():
    pt = halton_point(3, B23)
    rep = diaphony_kernel([pt, pt], B23)
    assert abs(rep.f - 1.0) < 1e-12


def test_fast_and_exact_agree_on_random_points():
    rng = random.Random(22)
    for _ in range(5):
        pts = rand_points(rng, (2, 3), rng.randrange(1, 12))
        fast = diaphony_kernel(pts, B23, "fast")
        exact = diaphony_kernel(pts, B23, "exact")
        assert fast == exact


def test_prefix_sweep_matches_direct_evaluation():
    pts = list(halton_stream(40, B23))
    sizes = [1, 2, 3, 5, 8, 13, 21, 34, 40]
    reports = diaphony_kernel_prefixes(pts, B23, sizes)
    for n, rep in zip(sizes, reports):
        direct = diaphony_kernel(pts[:n], B23, "fast")
        assert rep.n_points == n
        assert rep == direct


def test_prefix_sweep_validates_sizes():
    pts = list(halton_stream(4, B2))
    for sizes in ([5], [2.5], [2, float("inf")], [np.float64(3.0)]):
        with pytest.raises(ValueError):
            diaphony_kernel_prefixes(pts, B2, sizes)
    assert diaphony_kernel_prefixes(pts, B2, []) == []
    [report] = diaphony_kernel_prefixes(pts, B2, [np.int64(3)])
    assert type(report.n_points) is int
    assert report == diaphony_kernel_prefixes(pts, B2, [3])[0]


@pytest.mark.parametrize("primes", [(2, 65537), (40009,)])
def test_fast_kernel_handles_large_bases(primes):
    bases = validate_bases(primes)
    rng = random.Random(65537)
    pts = [point_from_values([rng.random() for _ in primes], bases) for _ in range(24)]
    assert any(d >= 32768 for pt in pts for c in pt.coords for d in c.digits)
    assert diaphony_kernel(pts, bases, "fast") == diaphony_kernel(pts, bases, "exact")


def test_kernel_routes_agree_at_the_largest_supported_base():
    # p**2 >= 2**62 leaves the agreement table a one-digit word, and one
    # digit holds a whole double, so ingest peels a single digit
    bases = validate_bases([2**63 - 25, 2])
    assert default_depth(2**63 - 25) == 1
    rows = [[0.1, 0.7], [0.9, 0.2], [0.1, 0.7], [0.0, 0.0], [0.5, 0.5], [0.3, 0.25]]
    pts = [point_from_values(row, bases) for row in rows]
    assert diaphony_kernel(pts, bases, "fast") == diaphony_kernel(pts, bases, "exact")
    segment = halton_set(64, bases, 2**40)
    assert diaphony_kernel(segment, bases) == halton_diaphony_prefixes(bases, [64], 2**40)[0]


def _with_digit(x: DigitVector, position: int, digit: int) -> DigitVector:
    digits = list(x.digits) + [0] * max(0, position - len(x.digits))
    digits[position - 1] = digit
    return DigitVector(x.base, tuple(digits))


def _deep_near_duplicates():
    """46 ingested points in bases (2, 3, 5, 7): a pair equal but for binary
    digit 50 of the first coordinate, and five points sharing three
    coordinates.  Digit levels at which no cell splits must be skipped."""
    bases = validate_bases([2, 3, 5, 7])
    rng = random.Random(50)
    pts = [point_from_values([rng.random() for _ in range(4)], bases) for _ in range(41)]
    x = pts[0].coords[0]
    pts.append(Point((_with_digit(x, 50, 1 - x.digit(50)),) + pts[0].coords[1:]))
    for _ in range(4):
        last = point_from_values([rng.random()], validate_bases([7])).coords
        pts.append(Point(pts[1].coords[:3] + last))
    return bases, pts


@st.composite
def kernel_cases(draw):
    """Digit point sets with duplicates, zero coordinates, shared exact
    coordinates, deep near-duplicates and bases with digits >= 32768."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 40009, 65537)), min_size=1, max_size=4))

    def coord(p):
        return DigitVector(p, tuple(draw(st.lists(st.integers(0, p - 1), max_size=5))))

    pts = [Point(tuple(coord(p) for p in primes)) for _ in range(draw(st.integers(1, 8)))]
    for _ in range(draw(st.integers(0, 5))):
        src = draw(st.sampled_from(pts))
        kind = draw(st.sampled_from(("duplicate", "share", "near")))
        if kind == "duplicate":
            pts.append(src)
            continue
        i = draw(st.integers(0, len(primes) - 1))
        if kind == "share":
            dst = draw(st.integers(0, len(pts) - 1))
            coords = list(pts[dst].coords)
            coords[i] = src.coords[i]
            pts[dst] = Point(tuple(coords))
        else:
            x = src.coords[i]
            position = draw(st.integers(1, 60))
            digit = (x.digit(position) + draw(st.integers(1, x.base - 1))) % x.base
            coords = list(src.coords)
            coords[i] = _with_digit(x, position, digit)
            pts.append(Point(tuple(coords)))
    sizes = draw(st.lists(st.integers(1, len(pts)), min_size=1, max_size=4))
    return PrimeBases(tuple(primes)), pts, sizes


@settings(derandomize=True, deadline=None, max_examples=60)
@given(case=kernel_cases())
@example(case=(*_deep_near_duplicates(), [1, 2, 41, 42, 46]))
def test_counting_route_equals_exact_oracle(case):
    bases, pts, sizes = case
    assert diaphony_kernel(pts, bases, "fast") == diaphony_kernel(pts, bases, "exact")
    reports = diaphony_kernel_prefixes(pts, bases, sizes)
    assert reports == [diaphony_kernel(pts[:n], bases, "fast") for n in sizes]


@st.composite
def float_clouds(draw, primes):
    """Up to 64 ingested float rows in [0, 1), some of them repeated."""
    bases = validate_bases(primes)
    unit = st.floats(0, 1, exclude_max=True)
    rows = draw(st.lists(st.lists(unit, min_size=len(primes), max_size=len(primes)),
                         min_size=1, max_size=48))
    rows += draw(st.lists(st.sampled_from(rows), max_size=16))
    rows = draw(st.permutations(rows))
    return bases, [point_from_values(row, bases) for row in rows]


def _ordered_double_sum_report(pts, bases):
    n = len(pts)
    total = sum((kernel_value(x, y, bases) for x in pts for y in pts), Fraction(0))
    f_squared = float((total / (n * n) - 1) / (weight_mass(bases) - 1))
    return DiaphonyReport(n, math.sqrt(f_squared), f_squared, "kernel")


@pytest.mark.parametrize("primes", [(2, 3, 5), (2, 65537)])
def test_exact_mode_equals_ordered_double_sum_and_fast_route(primes):
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(case=float_clouds(primes))
    def check(case):
        bases, pts = case
        exact = diaphony_kernel(pts, bases, mode="exact")
        assert exact == _ordered_double_sum_report(pts, bases)
        assert exact == diaphony_kernel(pts, bases, mode="fast")
        # the exact rational lies in [0, 1], and rounding keeps it there
        assert 0.0 <= exact.f_squared <= 1.0

    check()


# The counting route as it was computed before its breadth-first pass: one
# recursive call per run of digit levels, per cell group, per coordinate.
_EQUAL = 2**63 - 1


def _level_weight(p, depth, lo, hi):
    tail = 0 if hi == _EQUAL else p ** (depth - hi)
    return (p + 1) * (p ** (depth + 1 - lo) - tail)


def _cell_pair_sums(coords, i, idx, cell, weight, sizes, totals):
    p, depth, digits, rank = coords[i]
    n = len(idx)
    order = np.argsort(cell * len(rank) + rank[idx])
    run = digits[idx[order]]
    differ = run[1:] != run[:-1]
    agree = np.where(differ.any(axis=1), differ.argmax(axis=1), _EQUAL)
    agree[cell[order[1:]] != cell[order[:-1]]] = -1
    last = i + 1 == len(coords)
    if last:
        before = np.searchsorted(idx, sizes)
    lo = 1
    for hi in np.unique(agree[agree > 0]).tolist():
        group = np.empty(n, dtype=np.int64)
        group[order] = np.concatenate(([0], np.cumsum(agree < lo)))
        counts = np.bincount(group)
        if counts.max() < 2:
            break
        w = weight * _level_weight(p, depth, lo, hi)
        if last:
            by_index = np.argsort(group, kind="stable")
            first = np.cumsum(counts) - counts
            earlier = np.empty(n, dtype=np.int64)
            earlier[by_index] = np.arange(n) - first[group[by_index]]
            pairs = np.concatenate(([0], np.cumsum(earlier)))[before]
            totals += pairs.astype(object) * w
        else:
            keep = counts[group] > 1
            dense = np.cumsum(counts > 1) - 1
            _cell_pair_sums(coords, i + 1, idx[keep], dense[group[keep]], w, sizes, totals)
        lo = hi + 1


def _recursive_prefixes(ps, bases, sizes):
    need = max(sizes)
    coords, scale = [], 1
    for p, digits in zip(bases.primes, ps.digits):
        head = digits[:need]
        rank = np.empty(need, dtype=np.int64)
        rank[np.lexsort(head.T[::-1])] = np.arange(need)
        coords.append((p, head.shape[1], head, rank))
        scale *= p ** head.shape[1]
    totals = np.zeros(len(sizes), dtype=object)
    _cell_pair_sums(coords, 0, np.arange(need), np.zeros(need, dtype=np.int64), 1,
                    np.asarray(sizes), totals)
    sig = weight_mass(bases)
    return [_kernel_report(n, n * sig + Fraction(2 * t, scale), sig)
            for n, t in zip(sizes, totals)]


def _ingested_set(count, primes, seed):
    """``count`` seeded float rows at the default depth, one in eight a
    copy of an earlier row; the bases may repeat."""
    bases = PrimeBases(tuple(primes))
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        if i and rng.random() < 1 / 8:
            rows.append(rows[rng.randrange(i)])
        else:
            rows.append([rng.random() for _ in primes])
    return bases, PointSet.from_points([point_from_values(r, bases) for r in rows], bases)


def _binary_staircase():
    """2**-k for k = 1..53 in base 2, every seventh one repeated, and the
    origin, each with base-3 coordinate 1/3: neighbours agree on every
    level from 1 to 52, repeated rows on all 53."""
    bases = validate_bases((2, 3))
    third = DigitVector(3, (1,))
    pts = []
    for k in range(1, 54):
        x = Point((DigitVector(2, (0,) * (k - 1) + (1,)), third))
        pts += [x, x] if k % 7 == 1 else [x]
    pts.append(Point((DigitVector(2, ()), third)))
    return bases, PointSet.from_points(pts, bases)


def _binary_digit_50_cluster():
    """40 ingested points in bases (2, 3, 5, 7) and a cluster of 24 points
    equal to the first of them but for binary digit 50 of the first
    coordinate, with and without one of the last coordinate's points."""
    bases, pts = _deep_near_duplicates()
    x = pts[0].coords[0]
    for k in range(24):
        flipped = _with_digit(x, 50, k % 2)
        pts.append(Point((flipped,) + pts[0].coords[1:3] + pts[k % 3 + 42].coords[3:]))
    return bases, PointSet.from_points(pts, bases)


@pytest.mark.parametrize(
    "case, sizes",
    [
        (lambda: _ingested_set(2048, (2, 3, 5), 11), [2048]),
        (lambda: _ingested_set(8192, (2, 3, 5), 12), [8192, 1, 4097]),
        (lambda: _ingested_set(512, (2, 65537), 13), [512, 300, 2]),
        (lambda: (validate_bases((2, 3, 5, 7)),
                  halton_set(2048, validate_bases((2, 3, 5, 7)), 12345)), [2048, 1000]),
        (_binary_digit_50_cluster, [70, 46, 45, 1]),
        (lambda: _ingested_set(300, (2, 3), 14), [17, 300, 5, 17, 300, 1, 5]),
        # the route visits the largest base first, the oracle input order
        (lambda: _ingested_set(1024, (5, 2, 3), 15), [1024, 513]),
        (lambda: _ingested_set(1024, (3, 2, 3), 16), [1024, 2]),
        # the most levels one coordinate holds at the default depth
        (_binary_staircase, [62, 53, 2]),
    ],
    ids=["ingested-2048", "ingested-8192", "bases-2-65537", "halton-2357",
         "binary-digit-50", "unsorted-repeated-sizes", "bases-out-of-order",
         "repeated-base", "binary-staircase"],
)
def test_counting_route_equals_recursive_oracle(case, sizes):
    bases, ps = case()
    assert diaphony_kernel_prefixes(ps, bases, sizes) == _recursive_prefixes(ps, bases, sizes)


def test_lcp_intervals_equal_a_brute_force_enumeration():
    # every [s, e] whose least agreement is above both neighbours' (0 past
    # either end) is one run, found once
    rng = random.Random(7)
    for _ in range(3000):
        top = rng.choice((1, 2, 3, 8, 53))
        agree = [rng.choice((0, top, rng.randint(0, top))) for _ in range(rng.randrange(40))]
        pad = [0] + agree + [0]
        expected = [
            (s, e, max(pad[s], pad[e + 1]) + 1, min(agree[s:e]))
            for s in range(len(agree) + 1)
            for e in range(s + 1, len(agree) + 1)
            if min(agree[s:e]) > max(pad[s], pad[e + 1])
        ]
        rows = list(zip(*(a.tolist() for a in _lcp_intervals(np.array(agree, dtype=np.int64)))))
        assert len(set(rows)) == len(rows)
        assert set(rows) == set(expected)


def test_counting_route_caps_its_live_entries(monkeypatch):
    bases, ps = _binary_digit_50_cluster()
    assert diaphony_kernel(ps, bases).n_points == len(ps)
    monkeypatch.setattr(padiaphony.diaphony, "DIGIT_CELL_CAP", len(ps))
    with pytest.raises(SegmentTooLarge):
        diaphony_kernel(ps, bases)
    assert diaphony_kernel(ps, bases, mode="exact").n_points == len(ps)


def test_counting_route_materializes_the_base_2_coordinate_last(monkeypatch):
    # in input order (2, 3, 5) the last coordinate materialized would hold
    # 68,173 live entries; largest base first, they are 9,430 and 26,232
    bases, ps = _ingested_set(2048, (2, 3, 5), 11)
    uncapped = diaphony_kernel(ps, bases)
    monkeypatch.setattr(padiaphony.diaphony, "DIGIT_CELL_CAP", 1 << 15)
    assert diaphony_kernel(ps, bases) == uncapped


def test_counting_route_traced_peak_is_at_most_2_5_kib_per_point():
    # about 4.5 KiB per point when base 2 came first
    bases, ps = _ingested_set(8192, (2, 3, 5), 12)
    diaphony_kernel(ps, bases)  # fills the caches
    tracemalloc.start()
    try:
        diaphony_kernel(ps, bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**10 * len(ps)


def _first_digit_cells(pts):
    """Indices of the points grouped by each coordinate's first digit,
    read with ``digit(1)``, which is 0 past an empty expansion."""
    cells = {}
    for i, x in enumerate(pts):
        cells.setdefault(tuple(c.digit(1) for c in x.coords), []).append(i)
    return cells


def test_exact_mode_calls_the_kernel_on_the_diagonal_and_inside_first_digit_cells(
    monkeypatch,
):
    # the oracle's only kernel evaluations go through the module-global name;
    # it evaluates each point with itself and each pair inside a cell once,
    # and every pair it skips has kernel 0
    calls = []
    real = padiaphony.diaphony.kernel_value

    def recording(x, y, bases):
        calls.append((x, y))
        return real(x, y, bases)

    monkeypatch.setattr(padiaphony.diaphony, "kernel_value", recording)
    bases = validate_bases([2, 3, 5])
    rng = random.Random(8)
    rows = [[rng.random() for _ in range(3)] for _ in range(20)]
    # exact zeros beside first digits 0: both rows lie in cell (0, 0, 0)
    rows += [[0.0, 0.1, 0.0], [0.25, 0.0, 0.1]]
    pts = [point_from_values(row, bases) for row in rows + rows[:3]]
    index = {id(x): i for i, x in enumerate(pts)}
    for n in (1, 2, 7, 22, len(pts)):
        calls.clear()
        diaphony_kernel(pts[:n], bases, mode="exact")
        sizes = [len(cell) for cell in _first_digit_cells(pts[:n]).values()]
        assert len(calls) == n + sum(k * (k - 1) // 2 for k in sizes)
        called = {tuple(sorted((index[id(x)], index[id(y)]))) for x, y in calls}
        assert len(called) == len(calls)
        assert {(i, i) for i in range(n)} <= called
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in called:
                    assert real(pts[i], pts[j], bases) == 0
    assert max(sizes) > 1 and len(sizes) > 1


def _zeros_beside_leading_zero_digits():
    """96 ingested rows in (2, 3, 5), every coordinate below 1/p, so its
    first digit is 0, and about one in three exactly 0: all rows share cell
    (0, 0, 0), which an empty expansion must join."""
    bases = validate_bases([2, 3, 5])
    rng = random.Random(28)
    rows = [[0.0 if rng.random() < 1 / 3 else rng.random() / p for p in (2, 3, 5)]
            for _ in range(96)]
    return bases, PointSet.from_points([point_from_values(r, bases) for r in rows], bases)


@pytest.mark.parametrize(
    "case, double_sum",
    [
        (lambda: _ingested_set(2048, (2, 3, 5), 17), False),
        (_zeros_beside_leading_zero_digits, True),
        (lambda: _ingested_set(256, (3, 2, 3), 18), True),
    ],
    ids=["ingested-2048", "zeros-beside-leading-zeros", "repeated-base"],
)
def test_exact_mode_equals_fast_route_and_ordered_double_sum(case, double_sum):
    bases, ps = case()
    exact = diaphony_kernel(ps, bases, mode="exact")
    assert exact == diaphony_kernel(ps, bases)
    if double_sum:
        assert exact == _ordered_double_sum_report(_point_list(ps, bases), bases)


def test_exact_mode_equals_the_closed_form_on_a_2048_point_halton_segment():
    bases, start = validate_bases([2, 3, 5]), 987654
    exact = diaphony_kernel(halton_set(2048, bases, start), bases, mode="exact")
    assert exact == diaphony_kernel(list(halton_stream(2048, bases, start)), bases)
    assert exact == halton_diaphony_prefixes(bases, [2048], start)[0]


@st.composite
def cell_cases(draw):
    """Up to 14 points in drawn bases, repeats allowed: coordinates exactly 0,
    with first digit 0, or any, then duplicates and near-duplicates that
    differ in one digit at a depth of up to 60."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 65537)), min_size=1, max_size=3))

    def coord(p):
        kind = draw(st.sampled_from(("zero", "leading-zero", "any")))
        if kind == "zero":
            return DigitVector(p, ())
        head = 0 if kind == "leading-zero" else draw(st.integers(0, p - 1))
        return DigitVector(p, (head, *draw(st.lists(st.integers(0, p - 1), max_size=4))))

    pts = [Point(tuple(coord(p) for p in primes)) for _ in range(draw(st.integers(1, 10)))]
    for _ in range(draw(st.integers(0, 4))):
        src = draw(st.sampled_from(pts))
        if draw(st.booleans()):
            pts.append(src)
            continue
        i = draw(st.integers(0, len(primes) - 1))
        x = src.coords[i]
        position = draw(st.integers(1, 60))
        digit = (x.digit(position) + draw(st.integers(1, x.base - 1))) % x.base
        pts.append(Point(src.coords[:i] + (_with_digit(x, position, digit),) + src.coords[i + 1:]))
    return PrimeBases(tuple(primes)), draw(st.permutations(pts))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=cell_cases())
def test_exact_mode_skips_only_cross_cell_pairs_and_equals_ordered_double_sum(case):
    bases, pts = case
    assert diaphony_kernel(pts, bases, mode="exact") == _ordered_double_sum_report(pts, bases)
    cell = {i: key for key, members in _first_digit_cells(pts).items() for i in members}
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            if cell[i] != cell[j]:
                assert kernel_value(x, y, bases) == 0


CLOSED_FORM_SIZES = [1, 2, 7, 100, 1000, 4097]


@pytest.mark.parametrize("start", [0, 12345, MAX_INDEX + 1 - max(CLOSED_FORM_SIZES)])
@pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5), (3, 7, 11)])
def test_halton_closed_form_equals_counting_route(primes, start):
    bases = validate_bases(primes)
    points = halton_set(max(CLOSED_FORM_SIZES), bases, start)
    counted = diaphony_kernel_prefixes(points, bases, CLOSED_FORM_SIZES)
    assert halton_diaphony_prefixes(bases, CLOSED_FORM_SIZES, start) == counted


@st.composite
def halton_segments(draw):
    """Distinct bases, up to four prefix sizes N <= 2**14 and a start that
    keeps the segment inside the index space."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1,
                           max_size=4, unique=True))
    sizes = draw(st.lists(st.integers(1, 2**14), min_size=1, max_size=4))
    start = draw(st.integers(0, MAX_INDEX + 1 - max(sizes)))
    return validate_bases(primes), sizes, start


@settings(derandomize=True, deadline=None, max_examples=25)
@given(case=halton_segments())
def test_halton_closed_form_equals_counting_route_on_drawn_segments(case):
    bases, sizes, start = case
    counted = diaphony_kernel_prefixes(halton_set(max(sizes), bases, start), bases, sizes)
    assert halton_diaphony_prefixes(bases, sizes, start) == counted


def test_halton_closed_form_validates_its_input():
    with pytest.raises(DuplicateBase):
        halton_diaphony_prefixes(PrimeBases((2, 3, 2)), [4])
    for sizes in ([], [0], [4, 0], [-1], [2.5], [4, float("inf")], [np.float64(3.0)]):
        with pytest.raises(ValueError):
            halton_diaphony_prefixes(B23, sizes)
    for start in (-1, 0.5):
        with pytest.raises(ValueError):
            halton_diaphony_prefixes(B23, [4], start=start)
    assert halton_diaphony_prefixes(B23, [2], MAX_INDEX - 1)[0].n_points == 2
    for sizes, start in (([2], MAX_INDEX), ([1, 3], MAX_INDEX - 1), ([2**63 + 1], 0)):
        with pytest.raises(CountOverflow):
            halton_diaphony_prefixes(B23, sizes, start)


def test_kernel_mode_validation():
    pts = list(halton_stream(2, B2))
    with pytest.raises(ValueError):
        diaphony_kernel(pts, B2, "approximate")
    with pytest.raises(ValueError, match="at least one point"):
        diaphony_kernel([], B2)
    with pytest.raises(ValueError, match="at least one point"):
        diaphony_kernel([], B2, mode="exact")


def test_no_meaningful_negative_excursion_on_uniform_grid():
    # N = 2**m one-dimensional prefixes are uniform grids with tiny diaphony;
    # the exact rational is rounded once, so the value stays in [0, 1]
    for n in (1024, 4096):
        pts = list(halton_stream(n, B2))
        rep = diaphony_kernel(pts, B2, "fast")
        assert 0.0 <= rep.f_squared <= 1.0


def test_diaphony_is_deterministic():
    pts = list(halton_stream(257, B23))
    a = diaphony_kernel(pts, B23, "fast")
    b = diaphony_kernel(pts, B23, "fast")
    assert a == b


# --- spectral route


def test_spectral_examples():
    pts = list(halton_stream(2, B2))
    rep = diaphony_spectral(pts, B2, TruncationBox((1,)))
    lower, upper = rep.enclosure
    assert abs(lower) < 1e-12
    assert abs(upper - 0.5) < 1e-12

    rep = diaphony_spectral(pts, B2, TruncationBox((3,)))
    lower, upper = rep.enclosure
    assert abs(lower - 0.1875) < 1e-12
    assert abs(upper - 0.3125) < 1e-12

    origin = [halton_point(0, B2)]
    rep = diaphony_spectral(origin, B2, TruncationBox((2,)))
    lower, upper = rep.enclosure
    assert abs(lower - 0.75) < 1e-12
    assert abs(upper - 1.0) < 1e-12


def test_spectral_report_invariants():
    pts = list(halton_stream(9, B23))
    box = TruncationBox((3, 2))
    rep = diaphony_spectral(pts, B23, box)
    lower, upper = rep.enclosure
    assert rep.method == "spectral"
    assert rep.box == box
    assert lower <= rep.f_squared <= upper
    assert abs(rep.f - math.sqrt(rep.f_squared)) < 1e-15
    assert abs((upper - lower) - float(spectral_tail(B23, box))) < 1e-12


def test_spectral_encloses_kernel_value():
    rng = random.Random(23)
    for bases, primes in ((B2, (2,)), (B23, (2, 3))):
        for _ in range(4):
            pts = rand_points(rng, primes, rng.randrange(1, 10))
            truth = diaphony_kernel(pts, bases, "exact").f_squared
            for g in range(1, 6):
                box = TruncationBox((g,) * len(primes))
                lower, upper = diaphony_spectral(pts, bases, box).enclosure
                assert lower <= truth + 1e-10
                assert truth <= upper + 1e-10


def test_enclosure_grid_matches_individual_calls():
    pts = list(halton_stream(17, B23))
    grid = enclosure_grid(pts, B23, TruncationBox((4, 3)))
    assert set(grid) == {(a, b) for a in range(1, 5) for b in range(1, 4)}
    for exps, (lower, upper) in grid.items():
        rep = diaphony_spectral(pts, B23, TruncationBox(exps))
        if exps == (4, 3):
            # the same table and the same reduction: bitwise equal
            assert (lower, upper) == rep.enclosure
        else:
            # a smaller box's FFT rounds the same Weyl sums differently
            assert (lower, upper) == pytest.approx(rep.enclosure, rel=1e-13, abs=0)


def _ingested(primes, exps, rows, repeats):
    bases = PrimeBases(primes)
    rows = rows + [rows[i] for i in repeats]
    return bases, [point_from_values(row, bases) for row in rows], TruncationBox(exps)


@st.composite
def slice_cases(draw):
    """Ingested points in 1-3 dimensions with bases up to 11 (repeats
    allowed) and duplicate rows, and a box of at most 4096 index vectors."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11)), min_size=1, max_size=3))
    exps = [draw(st.integers(1, 6)) for _ in primes]
    while math.prod(p**g for p, g in zip(primes, exps)) > 4096 and max(exps) > 1:
        exps[exps.index(max(exps))] -= 1
    rows = draw(st.lists(st.tuples(*(st.floats(0, 1, exclude_max=True) for _ in primes)),
                         min_size=1, max_size=24))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=6))
    return _ingested(tuple(primes), tuple(exps), rows, repeats)


_SLICE_ROWS = [(0.1, 0.7, 0.3), (0.5, 0.25, 0.9), (0.33, 0.01, 0.6), (0.8, 0.45, 0.05)]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=slice_cases())
@example(case=_ingested((3, 2), (3, 4), [r[:2] for r in _SLICE_ROWS], [0, 0, 2]))  # Nyquist
@example(case=_ingested((7, 5), (2, 3), [r[:2] for r in _SLICE_ROWS], [1, 3]))  # all odd
@example(case=_ingested((2, 2, 3), (4, 3, 2), _SLICE_ROWS, [3, 3]))  # a repeated base
def test_grid_entries_equal_their_own_box_sums(case):
    # each sub-box of the grid is a nested slice of one spectrum; its own
    # call transforms a smaller histogram
    bases, pts, box = case
    ps = PointSet.from_points(pts, bases)
    for sub, (lower, _) in enclosure_grid(ps, bases, box).items():
        own = truncated_spectral_sum(ps, bases, TruncationBox(sub))
        assert abs(lower - own) <= 1e-14 * abs(own)
    # the report is used as computed, so it must lie in range on its own
    rep = diaphony_spectral(ps, bases, box)
    assert 0.0 <= rep.enclosure[0] <= rep.f_squared < 1.0


@pytest.mark.parametrize("x", [0.0, 1 / 3])
def test_one_point_reads_below_one_in_a_deep_base_2_box(x):
    # |S/N| = 1 at every k, so the exact boxed sum is 1 - tail with
    # tail = 2**-21 at g = 21, and the point value is 1 - 2**-22
    rep = diaphony_spectral([point_from_values([x], B2)], B2, TruncationBox((21,)))
    assert 0.0 <= rep.enclosure[0] <= rep.f_squared < 1.0
    assert rep.f_squared == pytest.approx(1 - 2**-22, rel=0, abs=1e-13)


def _weighted_energy_oracle(table, bases):
    """sum_k block_weight_product(k) |S(k)|**2 / N**2 / (sigma - 1) over the
    nonzero k of the table, index by index."""
    n = table.flat[0].real
    total = math.fsum(
        float(block_weight_product(IndexVector(idx), bases)) * abs(table[idx]) ** 2
        for idx in np.ndindex(*table.shape)
        if any(idx)
    )
    return total / (n * n) / (weight_mass(bases) - 1)


@pytest.mark.parametrize(
    "primes, exps",
    [
        ((2, 3), (4, 3)),
        ((5,), (3,)),
        ((2, 2, 3), (3, 1, 2)),  # repeated bases and a g = 1 axis
        ((65537,), (1,)),
        ((3, 2), (2, 3)),  # p = 2 on the half axis: a Nyquist column
        ((2,), (1,)),  # a half axis of length 2
        ((7, 5), (1, 2)),  # every axis odd
    ],
)
def test_block_energy_reduction_matches_weight_oracle(primes, exps):
    rng = random.Random(sum(primes) + len(exps))
    bases = PrimeBases(primes)
    pts = rand_points(rng, primes, 23)
    box = TruncationBox(exps)
    got = truncated_spectral_sum(pts, bases, box)
    assert got == truncated_spectral_sum(pts, bases, box)
    # the boxed kernel depends only on shared leading digits, so the Walsh
    # table gives the same weighted sum
    for system in ("padic", "walsh"):
        table = weyl_sum_table(pts, bases, box, system=system)
        assert abs(got - _weighted_energy_oracle(table, bases)) < 1e-12
    # every sub-box entry of the grid reads the same reduction of the k table
    table = weyl_sum_table(pts, bases, box)
    grid = enclosure_grid(pts, bases, box)
    assert grid == enclosure_grid(pts, bases, box)
    for sub, (lower, _) in grid.items():
        corner = table[tuple(slice(0, p**g) for p, g in zip(primes, sub))]
        assert abs(lower - _weighted_energy_oracle(corner, bases)) < 1e-12


def test_spectral_sum_traced_peak_is_at_most_20_bytes_per_box_entry():
    # the energies come from a half spectrum of the real histogram; a
    # complex k-indexed table and its reversal gather would take 32
    ps = halton_set(8192, B23)
    box = TruncationBox((10, 6))
    truncated_spectral_sum(ps, B23, box)  # warms numpy's FFT
    tracemalloc.start()
    try:
        truncated_spectral_sum(ps, B23, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**10 * 3**6


def _whole_array_boxed_sums(ps, bases, box):
    """The boxed sums as one pass over whole arrays: the int64 histogram and
    its float copy, the whole ``rfft`` beside the histogram, and the whole
    |T|**2, each reduced one axis at a time.  The bitwise reference for the
    half-spectrum buffer of ``_boxed_sums``."""
    sizes = [p**g for p, g in zip(bases.primes, box.exponents)]
    flat = np.zeros(len(ps), dtype=np.int64)
    for d, p, g, size in zip(ps.digits, bases.primes, box.exponents, sizes):
        flat = flat * size + d[:, :g] @ p ** np.arange(d[:, :g].shape[1])
    H = np.bincount(flat, minlength=math.prod(sizes)).astype(float).reshape(sizes)
    T = np.fft.rfft(H)
    for axis in range(T.ndim - 1):
        np.fft.fft(T, axis=axis, out=T)
    E = np.abs(T)
    E *= E
    P = sizes[-1]
    E[..., 1 : (P + 1) // 2] *= 2
    E.flat[0] = 0.0
    for axis, (p, g) in enumerate(zip(bases.primes, box.exponents)):
        weights = np.empty(E.shape[axis])
        for v in range(g):
            weights[:: p**v] = 1.0 / p ** (2 * (g - 1 - v))
        E *= weights.reshape((-1,) + (1,) * (E.ndim - 1 - axis))
        lead = (slice(None),) * axis
        E = np.stack(
            [E[lead + (slice(None, None, p**v),)].sum(axis=axis) for v in reversed(range(g))],
            axis=axis,
        )
    return E / len(ps) ** 2 / float(weight_mass(bases) - 1)


def _ingested_with_duplicates(n, primes):
    rng = random.Random(n)
    bases = PrimeBases(primes)
    rows = [[rng.random() for _ in primes] for _ in range(n - n // 8)]
    rows += [rows[rng.randrange(len(rows))] for _ in range(n // 8)]
    return PointSet.from_points([point_from_values(row, bases) for row in rows], bases)


BOXED_SUM_CASES = [
    ((2, 3), (4, 3), 1000, 0),
    ((2, 3), (10, 6), 8192, 0),
    ((2, 3), (10, 6), 200000, 0),
    ((2, 3, 5), (6, 4, 3), 3000, 0),
    ((2, 3, 5), (2, 2, 1), 3000, 0),
    ((3, 7, 11), (3, 2, 1), 3000, 2**40),
    ((2,), (12,), 3000, 0),
    ((5,), (3,), 100, 0),
    # a half spectrum of 33 columns over 2187 rows: two column slabs, where
    # slabs of a fixed 16 columns would leave a 1-column tail
    ((3, 2), (7, 6), 1234, 0),
    ((2, 3, 5), (6, 4, 3), "ingested", 0),
]


@pytest.mark.parametrize("primes, exps, n, start", BOXED_SUM_CASES)
def test_boxed_sums_are_bitwise_the_whole_array_reduction(primes, exps, n, start, monkeypatch):
    bases = PrimeBases(primes)
    if n == "ingested":
        ps = _ingested_with_duplicates(2048, primes)
    else:
        ps = halton_set(n, bases, start)
    box = TruncationBox(exps)
    want = _whole_array_boxed_sums(ps, bases, box).tobytes()
    assert _boxed_sums(ps, bases, box).tobytes() == want
    # slabs of one rfft row and of 2 to 3 columns, the narrowest allowed
    monkeypatch.setattr(padiaphony.diaphony, "_SLAB_ENTRIES", 64)
    monkeypatch.setattr(padiaphony.diaphony, "_SLAB_COLUMNS", 2)
    assert _boxed_sums(ps, bases, box).tobytes() == want


@pytest.mark.parametrize(
    "primes, exps, n", [((2, 3), (10, 6), 8192), ((2, 3, 5), (6, 4, 3), 2048)]
)
def test_boxed_sums_traced_peak_is_at_most_11_bytes_per_box_entry(primes, exps, n):
    # one half-spectrum buffer of about 8 bytes per entry plus slab
    # temporaries; a histogram beside its whole transform takes 16
    bases = PrimeBases(primes)
    ps = halton_set(n, bases)
    box = TruncationBox(exps)
    _boxed_sums(ps, bases, box)  # warms numpy's FFT
    tracemalloc.start()
    try:
        _boxed_sums(ps, bases, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * math.prod(p**g for p, g in zip(primes, exps))


def test_weyl_ceiling_check_traced_peak_is_at_most_36_bytes_per_box_entry():
    # the check evaluates each Weyl sum in closed form and builds no grid;
    # the FFT check it replaced peaked at about 25 bytes per entry here
    box = TruncationBox((10, 6))
    verify_weyl_bound(8192, B23, box)  # fills the caches
    tracemalloc.start()
    try:
        verify_weyl_bound(8192, B23, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2**10 * 3**6


@pytest.mark.parametrize("n_points", [2**62, 9 * 2**10 * 3**6 - 1])
def test_weyl_ceiling_check_costs_one_period_of_index_arithmetic_at_any_count(n_points):
    # only N mod B enters the closed form, and no point is built: at
    # N = 9B - 1 the remainder B - 1 is the largest one period holds
    box = TruncationBox((10, 6))
    verify_weyl_bound(n_points, B23, box)  # fills the caches
    tracemalloc.start()
    try:
        verify_weyl_bound(n_points, B23, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2**10 * 3**6


@pytest.mark.parametrize("n_points, exps", [(2**62, (12, 6)), (2, (8, 5))])
def test_weyl_ceiling_check_memory_does_not_grow_with_the_box(n_points, exps):
    # the scan holds only the near-max t, even over the B / 4 steps of r = 2;
    # the FFT check peaked at about 75 MB at g = (12, 6)
    box = TruncationBox(exps)
    verify_weyl_bound(n_points, B23, box)  # fills the caches
    tracemalloc.start()
    try:
        verify_weyl_bound(n_points, B23, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 1024


def test_truncated_spectral_sum_systems_agree_at_equal_bases():
    rng = random.Random(24)
    b22 = PrimeBases((2, 2))
    pts = rand_points(rng, (2, 2), 12)
    box = TruncationBox((3, 2))
    a = truncated_spectral_sum(pts, b22, box)
    w = _weighted_energy_oracle(weyl_sum_table(pts, b22, box, system="walsh"), b22)
    assert abs(a - w) < 1e-10


def test_weyl_sum_table_rejects_unknown_system():
    pts = list(halton_stream(2, B2))
    with pytest.raises(ValueError):
        weyl_sum_table(pts, B2, TruncationBox((1,)), system="fourier")


# --- PointSet input


def _assert_forms_agree(pts, ps, bases, box, sizes):
    """Every fast route gives bitwise the same result on both point forms."""
    assert diaphony_kernel_prefixes(ps, bases, sizes) == diaphony_kernel_prefixes(pts, bases, sizes)
    assert diaphony_kernel(ps, bases) == diaphony_kernel(pts, bases)
    for system in ("padic", "walsh"):
        a = weyl_sum_table(ps, bases, box, system=system)
        b = weyl_sum_table(pts, bases, box, system=system)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert truncated_spectral_sum(ps, bases, box) == truncated_spectral_sum(pts, bases, box)
    assert enclosure_grid(ps, bases, box) == enclosure_grid(pts, bases, box)
    assert diaphony_spectral(ps, bases, box) == diaphony_spectral(pts, bases, box)


@pytest.mark.parametrize(
    "primes, count, start, exps",
    [
        ((2, 3), 100, 0, (4, 3)),
        ((2, 3, 5), 64, 2**40 + 17, (3, 2, 1)),
        ((7, 11), 30, MAX_INDEX - 29, (2, 2)),
    ],
)
def test_fast_routes_agree_on_halton_set_and_points(primes, count, start, exps):
    bases = validate_bases(primes)
    pts = list(halton_stream(count, bases, start))
    ps = halton_set(count, bases, start)
    _assert_forms_agree(pts, ps, bases, TruncationBox(exps), [1, 2, count // 3, count])


def test_fast_routes_agree_on_ingested_point_set():
    bases = validate_bases([2, 3, 5])
    rng = random.Random(26)
    rows = [[rng.random() for _ in range(3)] for _ in range(40)]
    rows += [rows[3], rows[3], rows[17], [0.0, 0.5, 0.0]]
    pts = [point_from_values(row, bases) for row in rows]
    ps = PointSet.from_points(pts, bases)
    assert len(ps) == len(pts)
    _assert_forms_agree(pts, ps, bases, TruncationBox((3, 2, 1)), [1, 5, 41, 44])


def test_point_set_conversion_checks():
    pt = halton_point(5, B23)
    with pytest.raises(DimensionMismatch):
        PointSet.from_points([pt], B2)
    with pytest.raises(BaseMismatch):
        PointSet.from_points([pt], PrimeBases((2, 5)))
    with pytest.raises(ValueError, match="at least one point"):
        PointSet.from_points([], B2)
    ps = halton_set(4, B23)
    assert PointSet.from_points(ps, B23) is ps
    b25, box = PrimeBases((2, 5)), TruncationBox((2, 2))
    for call in (
        lambda: diaphony_kernel(ps, b25),
        lambda: diaphony_kernel_prefixes(ps, b25, [2]),
        lambda: weyl_sum_table(ps, b25, box),
        lambda: truncated_spectral_sum(ps, b25, box),
        lambda: diaphony_spectral(ps, b25, box),
        lambda: enclosure_grid(ps, b25, box),
        lambda: diaphony_kernel(ps, b25, mode="exact"),
        lambda: weyl_sum(ps, IndexVector((1, 1)), b25),
    ):
        with pytest.raises(BaseMismatch):
            call()


def test_exact_kernel_takes_a_point_set():
    for primes, count, start in (((2, 3), 8, 0), ((2, 3, 5), 30, 2**40 + 17)):
        bases = validate_bases(primes)
        ps = halton_set(count, bases, start)
        pts = list(halton_stream(count, bases, start))
        assert _point_list(ps, bases) == pts
        exact = diaphony_kernel(ps, bases, mode="exact")
        assert exact == diaphony_kernel(pts, bases, mode="exact") == diaphony_kernel(ps, bases)
    # zero-padded digit rows of ingested points convert back to the same Points
    bases = validate_bases([2, 3, 5])
    pts = [point_from_values(row, bases) for row in ([0.5, 0.0, 0.2], [0.75, 1 / 3, 0.0])]
    ps = PointSet.from_points(pts, bases)
    assert _point_list(ps, bases) == pts
    assert diaphony_kernel(ps, bases, mode="exact") == diaphony_kernel(pts, bases, mode="exact")


def test_weyl_sum_takes_a_point_set():
    bases = validate_bases([2, 3])
    ps = halton_set(8, bases)
    pts = list(halton_stream(8, bases))
    for k in ((0, 0), (1, 0), (3, 2), (5, 7)):
        assert weyl_sum(ps, IndexVector(k), bases) == weyl_sum(pts, IndexVector(k), bases)


def test_routes_reject_what_is_not_points():
    seg, box, k = HaltonSegment(4, B23), TruncationBox((2, 2)), IndexVector((1, 1))
    spectral = {
        "truncated_spectral_sum": lambda pts: truncated_spectral_sum(pts, B23, box),
        "diaphony_spectral": lambda pts: diaphony_spectral(pts, B23, box),
        "enclosure_grid": lambda pts: enclosure_grid(pts, B23, box),
    }
    points_only = {
        "PointSet.from_points": lambda pts: PointSet.from_points(pts, B23),
        "weyl_sum": lambda pts: weyl_sum(pts, k, B23),
        "weyl_sum_table": lambda pts: weyl_sum_table(pts, B23, box),
        "diaphony_kernel fast": lambda pts: diaphony_kernel(pts, B23),
        "diaphony_kernel exact": lambda pts: diaphony_kernel(pts, B23, mode="exact"),
        "diaphony_kernel_prefixes": lambda pts: diaphony_kernel_prefixes(pts, B23, [1]),
        # these take one point
        "char_phase_total": lambda x: char_phase_total(k, x, B23),
        "char_product": lambda x: char_product(k, x, B23),
    }
    for call in {**spectral, **points_only}.values():
        for bad in (5, None, [1, 2], "ab", [halton_point(1, B23), 7]):
            with pytest.raises(DiaphonyError):
                call(bad)
    # a segment is taken by the spectral routes alone
    for call in points_only.values():
        with pytest.raises(DiaphonyError, match="HaltonSegment"):
            call(seg)
    for call in spectral.values():
        call(seg)
        with pytest.raises(BaseMismatch):
            call(HaltonSegment(4, PrimeBases((2, 5))))


def _exact_f_squared(n_points, primes):
    """F_N**2 of any Halton segment of n_points as an exact rational: the
    kernel sums to N sigma + sum_{M <= N} C q (N - M + r) / M over the
    moduli M = prod p_i**a_i, all a_i >= 1, with C = prod (p_i**2 - 1) and
    N = qM + r (see ``halton_diaphony_prefixes``)."""
    sig = math.prod(p + 1 for p in primes)
    c = math.prod(p * p - 1 for p in primes)
    moduli = [1]
    for p in primes:
        moduli = [m * p**a for m in moduli for a in range(1, n_points.bit_length() + 1)
                  if m * p**a <= n_points]
    total = n_points * sig + sum(
        Fraction(c * (n_points // m) * (n_points - m + n_points % m), m) for m in moduli
    )
    return (total / n_points**2 - 1) / (sig - 1)


def _block_weights(bases, box):
    """block_weight_product(k) over the box, as a float tensor indexed by k."""
    axes = []
    for p, g in zip(bases.primes, box.exponents):
        w = np.ones(p**g)
        for t in range(1, g):
            w[p**t :] = float(p) ** (-2 * t)
        axes.append(w)
    return math.prod(np.ix_(*axes))


@pytest.mark.parametrize(
    "primes, exps, n_points, start",
    [
        ((2, 3), (4, 3), 1000, 2**40),  # N > B
        ((2, 3), (10, 6), 8192, 1234567),
        ((2, 3), (10, 6), 200000, 2**40 - 3),
        ((2, 3, 5), (6, 4, 3), 2048, 1500001),
        ((3, 7, 11), (3, 2, 1), 500, 12345),
        ((2,), (21,), 777, 2**40),
        ((2, 65537), (3, 1), 300, 5),
        ((2, 3, 5), (2, 2, 1), 3000, 0),  # exact zeros on sub-boxes that divide N
    ],
)
def test_segment_route_is_exact_on_every_sub_box(primes, exps, n_points, start):
    bases, box = validate_bases(primes), TruncationBox(exps)
    seg = HaltonSegment(n_points, bases, start)
    exact = _segment_boxed_sums(seg, bases, box)
    assert list(exact) == list(itertools.product(*(range(1, g + 1) for g in exps)))
    for other in (0, 1, start + 1, 2**40):
        assert _segment_boxed_sums(HaltonSegment(n_points, bases, other), bases, box) == exact
    fft = _boxed_sums(halton_set(n_points, bases, start), bases, box)
    abs_s, _ = _geometric_sums(n_points, bases, box)
    energy = _block_weights(bases, box) * abs_s**2
    energy.flat[0] = 0.0  # the origin is not a nonzero k
    sig = weight_mass(bases)
    f_squared = _exact_f_squared(n_points, primes)
    assert float(f_squared) == halton_diaphony_prefixes(bases, [n_points], start)[0].f_squared
    grid = enclosure_grid(seg, bases, box)
    assert list(grid) == list(exact)
    for sub, boxed in exact.items():
        got = float(fft[tuple(g - 1 for g in sub)])
        if boxed:
            assert abs(got - boxed) <= 1e-14 * boxed
        else:
            assert 0.0 <= got <= 1e-30
        corner = tuple(slice(0, p**g) for p, g in zip(primes, sub))
        geometric = energy[corner].sum() / n_points**2 / (sig - 1)
        assert abs(geometric - boxed) <= 1e-12 * boxed
        sub_box = TruncationBox(sub)
        rep = diaphony_spectral(seg, bases, sub_box)
        lower, upper = rep.enclosure
        tail = spectral_tail(bases, sub_box)
        assert Fraction(lower) <= boxed <= f_squared <= boxed + tail <= Fraction(upper)
        # each end is the nearest float on its side
        assert Fraction(math.nextafter(lower, math.inf)) > boxed
        assert Fraction(math.nextafter(upper, -math.inf)) < boxed + tail
        assert rep.f_squared == float(boxed + tail / 2) and rep.f == math.sqrt(rep.f_squared)
        assert (rep.n_points, rep.method, rep.box) == (n_points, "spectral", sub_box)
        assert grid[sub] == rep.enclosure
        assert truncated_spectral_sum(seg, bases, sub_box) == lower


@pytest.mark.parametrize("count", [2**62, MAX_INDEX])
def test_segment_enclosure_holds_at_the_end_of_the_index_space(count):
    bases, box = validate_bases((2, 3)), TruncationBox((12, 6))
    seg = HaltonSegment(count, bases)
    rep = diaphony_spectral(seg, bases, box)
    assert enclosure_grid(seg, bases, box)[box.exponents] == rep.enclosure
    lower, upper = rep.enclosure
    assert 0.0 <= lower <= rep.f_squared <= upper < 1.0
    assert lower <= halton_diaphony_prefixes(bases, [count])[0].f_squared <= upper
    with pytest.raises(BoxTooLarge):
        diaphony_spectral(seg, bases, TruncationBox((12, 7)))


# --- identities and bounds


def test_worst_case_error_examples():
    zero = DiaphonyReport(1, 0.0, 0.0, "kernel")
    assert worst_case_error(zero, B2) == 0.0
    unit = DiaphonyReport(1, 1.0, 1.0, "kernel")
    assert abs(worst_case_error(unit, B2) - math.sqrt(2)) < 1e-15
    half = DiaphonyReport(2, 0.5, 0.25, "kernel")
    assert abs(worst_case_error(half, B23) - math.sqrt(11) / 2) < 1e-15


# the 17 largest primes below 2**61: sigma = prod (p + 1) is about 2**1037,
# past the largest float
LARGE_PRIMES = (
    2305843009213693951, 2305843009213693921, 2305843009213693907, 2305843009213693723,
    2305843009213693693, 2305843009213693669, 2305843009213693613, 2305843009213693561,
    2305843009213693549, 2305843009213693487, 2305843009213693421, 2305843009213693373,
    2305843009213693277, 2305843009213693193, 2305843009213693153, 2305843009213693133,
    2305843009213693123,
)


@pytest.mark.parametrize("dimension", [8, 9, 17])
def test_bound_and_error_stay_finite_past_the_float_range_of_sigma(dimension):
    bases = validate_bases(LARGE_PRIMES[:dimension])
    sig = math.prod(p + 1 for p in bases.primes)
    # ln c from the integer logarithms: no float product is formed
    log_c = math.log(math.pi**2 / 3) - math.log(sig - 1) + sum(
        math.log(2 * p * p + math.log(p)) - math.log(math.log(p)) for p in bases.primes
    )
    for n in (1, 2, 1000, MAX_INDEX + 1):
        rep = halton_diaphony_bound(bases, n)
        assert rep.d == float(2 * dimension * LARGE_PRIMES[0])
        assert abs(math.log(rep.c) - log_c) <= 1e-13 * abs(log_c)
        expected = (Fraction(rep.c) * Fraction(math.log(n)) ** dimension + Fraction(rep.d)) / n**2
        assert abs(rep.bound_f_squared / expected - 1) <= 1e-12
    report = halton_diaphony_prefixes(bases, [2])[0]
    e = worst_case_error(report, bases)
    assert abs(Fraction(e) ** 2 / ((sig - 1) * Fraction(report.f) ** 2) - 1) <= 1e-14


def _largest_primes(count):
    """The ``count`` largest primes below 2**61, LARGE_PRIMES first."""
    primes, p = list(LARGE_PRIMES), LARGE_PRIMES[-1] - 2
    while len(primes) < count:
        if is_prime(p):
            primes.append(p)
        p -= 2
    return primes[:count]


def test_values_past_the_float_range_raise_a_diaphony_error():
    # 34 large primes: c is about 1e579 and sqrt(sigma - 1) about 2**1037
    bases = validate_bases(_largest_primes(34))
    report = halton_diaphony_prefixes(bases, [2])[0]
    for call in (lambda: halton_diaphony_bound(bases, 2), lambda: worst_case_error(report, bases)):
        with pytest.raises(DiaphonyError, match="float range"):
            call()


def test_bound_keeps_a_c_past_the_float_range_as_a_decimal():
    # 34 large primes: c is about 1e579, but at N = 1 the bound is d alone
    bases = validate_bases(_largest_primes(34))
    sig = math.prod(p + 1 for p in bases.primes)
    log_c = math.log(math.pi**2 / 3) - math.log(sig - 1) + sum(
        math.log(2 * p * p + math.log(p)) - math.log(math.log(p)) for p in bases.primes
    )
    rep = halton_diaphony_bound(bases, 1)
    assert isinstance(rep.c, Decimal)
    assert abs(float(rep.c.ln()) - log_c) <= 1e-13 * abs(log_c)
    assert rep.d == rep.bound_f_squared == float(2 * 34 * LARGE_PRIMES[0])
    # a c that a float holds is still a float, on either path
    assert type(halton_diaphony_bound(validate_bases(LARGE_PRIMES), 1).c) is float
    assert type(halton_diaphony_bound(B23, 1).c) is float


def test_halton_bound_constants():
    rep = halton_diaphony_bound(B2, 1)
    assert rep.d == 4.0
    assert rep.bound_f_squared == 4.0  # ln 1 = 0 leaves only d / N**2
    expected_c = (math.pi**2 / 3) * (1 + 8 / math.log(2)) / 2
    assert abs(rep.c - expected_c) < 1e-12
    assert abs(rep.c - 20.63) < 0.01

    assert halton_diaphony_bound(B23, 1).d == 12.0
    rep1024 = halton_diaphony_bound(B2, 1024)
    expected = (rep1024.c * math.log(1024) + 4.0) / 1024**2
    assert abs(rep1024.bound_f_squared - expected) < 1e-18


def test_halton_bound_requires_distinct_bases():
    with pytest.raises(DuplicateBase):
        halton_diaphony_bound(PrimeBases((2, 2)), 4)
    with pytest.raises(ValueError):
        halton_diaphony_bound(B2, 0)
    for n in (2.5, float("inf"), "4"):
        with pytest.raises(ValueError, match="not an integer"):
            halton_diaphony_bound(B2, n)
    assert halton_diaphony_bound(B2, np.int64(4)) == halton_diaphony_bound(B2, 4)


def test_halton_bound_is_limited_to_the_index_space():
    rep = halton_diaphony_bound(B23, MAX_INDEX + 1)
    assert math.isfinite(rep.bound_f_squared) and rep.bound_f_squared > 0
    for n in (MAX_INDEX + 2, 10**200, 10**5000):
        with pytest.raises(CountOverflow, match="2\\*\\*63"):
            halton_diaphony_bound(B23, n)


def test_weyl_sum_bound_examples():
    assert weyl_sum_bound(IndexVector((1,)), B2) == 2
    assert weyl_sum_bound(IndexVector((1, 1)), B23) == 6
    with pytest.raises(ZeroIndex):
        weyl_sum_bound(IndexVector((0, 0)), B23)
    with pytest.raises(DuplicateBase):
        weyl_sum_bound(IndexVector((1, 1)), PrimeBases((2, 2)))
    with pytest.raises(DimensionMismatch):
        weyl_sum_bound(IndexVector((1,)), B23)


def test_distance_to_nearest_integer():
    assert distance_to_nearest_integer(Fraction(5, 6)) == Fraction(1, 6)
    assert distance_to_nearest_integer(Fraction(1, 4)) == Fraction(1, 4)
    assert distance_to_nearest_integer(Fraction(7, 2)) == Fraction(1, 2)
    assert distance_to_nearest_integer(Fraction(3)) == 0


def test_weyl_sums_obey_their_ceiling():
    rng = random.Random(25)
    pts = list(halton_stream(100, B23))
    for _ in range(50):
        k = IndexVector((rng.randrange(16), rng.randrange(27)))
        if k.is_zero:
            continue
        n = rng.randrange(1, 101)
        s = abs(weyl_sum(pts[:n], k, B23))
        assert s <= float(weyl_sum_bound(k, B23)) + 1e-9


def test_verify_weyl_bound_examples():
    rep = verify_weyl_bound(2, B2, TruncationBox((1,)))
    assert rep.violations == 0
    assert rep.worst_ratio < 1e-12

    rep = verify_weyl_bound(1, B2, TruncationBox((3,)))
    assert rep.violations == 0
    assert abs(rep.worst_ratio - 0.5) < 1e-12

    rep = verify_weyl_bound(16, B23, TruncationBox((2, 2)))
    assert rep.violations == 0
    assert rep.worst_index.dimension == 2


def test_verify_weyl_bound_requires_distinct_bases():
    with pytest.raises(DuplicateBase):
        verify_weyl_bound(4, PrimeBases((3, 3)), TruncationBox((2, 2)))
    with pytest.raises(ValueError, match="count 2.5 is not an integer"):
        verify_weyl_bound(2.5, B23, TruncationBox((2, 2)))
    with pytest.raises(ValueError, match="at least 1"):
        verify_weyl_bound(0, B23, TruncationBox((2, 2)))


def _ceiling_check_oracle(n_points, bases, box):
    """The per-index Fraction loop over the box, on the same Weyl-sum table:
    (worst_ratio, worst_index, violations), the worst index being the first
    whose ratio is within a relative 1e-9 of the largest."""
    pts = list(halton_stream(n_points, bases))
    abs_s = np.abs(weyl_sum_table(pts, bases, box))
    phi = [
        [monna(k, p).value() for k in range(p**g)]
        for p, g in zip(bases.primes, box.exponents)
    ]
    ratios, violations = {}, 0
    for idx in np.ndindex(*abs_s.shape):
        if not any(idx):
            continue
        total = sum((phi[i][ki] for i, ki in enumerate(idx) if ki), Fraction(0))
        ratio = float(abs_s[idx]) * float(distance_to_nearest_integer(total))
        ratios[idx] = ratio
        if ratio > 1.0 + RATIO_TOLERANCE:
            violations += 1
    worst_ratio = max(ratios.values())
    worst_index = next(i for i, r in ratios.items() if r >= worst_ratio - 1e-9 * worst_ratio)
    return worst_ratio, worst_index, violations


# 40 digits of pi, for the Decimal closed form of the ceiling ratio
_PI_40 = Decimal("3.141592653589793238462643383279502884197")


def _decimal_sin(x):
    """sin(x) for 0 <= x <= pi/2 by its Taylor series, in the current context."""
    term = total = x
    n = 1
    while abs(term) > Decimal(10) ** -45:
        term = -term * x * x / ((2 * n) * (2 * n + 1))
        total += term
        n += 1
    return total


def _decimal_worst_ratio(n_points, bases, box):
    """The largest |S(k)| * ||theta(k)|| over the nonzero k of the box, from
    the closed form sin(pi ||r t / B||) / sin(pi t / B) * t / B over
    t = 1..B/2, r = N mod B, in 40-digit Decimal."""
    B = math.prod(p**g for p, g in zip(bases.primes, box.exponents))
    r = n_points % B
    with localcontext() as ctx:
        ctx.prec = 40
        best = Decimal(0)
        for t in range(1, B // 2 + 1):
            s = r * t % B
            num = _decimal_sin(_PI_40 * min(s, B - s) / B)
            best = max(best, num / _decimal_sin(_PI_40 * t / B) * t / B)
        return float(best)


def _remainder_cases(primes, exps):
    """N = r for the remainders that stress the scan: its longest runs at
    small r and the near-ties of r near B/2 and B."""
    B = math.prod(p**g for p, g in zip(primes, exps))
    rs = (1, 2, B // 2 - 1, B // 2, B // 2 + 1, B - 2, B - 1)
    return [(r, primes, exps) for r in sorted(set(rs))]


@pytest.mark.parametrize(
    "n_points, primes, exps",
    [
        (1, (3,), (2,)),  # |S| = 1, and ||4/9|| = ||5/9|| ties k = 4 with k = 7
        (37, (2,), (6,)),
        (1, (2, 3), (2, 2)),
        (100, (2, 3), (5, 3)),
        (256, (2, 3), (8, 5)),
        (60, (2, 3, 5), (3, 2, 2)),
        (7, (5, 7, 11), (1, 2, 1)),
        # N = B and N > B: the check reads one period of the prefix
        (64, (2,), (6,)),
        (300, (2,), (6,)),
        (1000, (2, 3), (2, 2)),
        (869, (2, 3), (4, 3)),
    ]
    + _remainder_cases((2, 3), (4, 3))
    # odd B, where no t is its own mirror B - t
    + _remainder_cases((3, 5), (3, 2))
    + _remainder_cases((3, 7, 11), (2, 1, 1))
    + [(432 + 2, (2, 3), (4, 3)), (3 * 675 + 337, (3, 5), (3, 2))],
)
def test_verify_weyl_bound_equals_fraction_loop(n_points, primes, exps):
    # the check evaluates each sum in closed form and the oracle transforms
    # all N points, so their worst ratios round apart; the closed form is
    # held to a few ulp of the same formula in 40 digits
    bases, box = validate_bases(primes), TruncationBox(exps)
    rep = verify_weyl_bound(n_points, bases, box)
    worst_ratio, worst_index, violations = _ceiling_check_oracle(n_points, bases, box)
    assert (rep.worst_index.indices, rep.violations) == (worst_index, violations)
    assert abs(rep.worst_ratio - worst_ratio) <= 1e-12 * worst_ratio
    exact = _decimal_worst_ratio(n_points, bases, box)
    assert abs(rep.worst_ratio - exact) <= 8 * math.ulp(exact)
    if (n_points, primes) == (1, (3,)):
        assert rep.worst_index.indices == (4,)


def test_verify_weyl_bound_reaches_the_end_of_the_index_space():
    box = TruncationBox((4, 3))
    rep = verify_weyl_bound(MAX_INDEX + 1, B23, box)
    assert rep.violations == 0 and rep.worst_ratio <= 0.5 + RATIO_TOLERANCE
    # N and N + B have equal nonzero Weyl sums
    assert verify_weyl_bound(2**62 + 432, B23, box) == verify_weyl_bound(2**62, B23, box)
    with pytest.raises(CountOverflow):
        verify_weyl_bound(MAX_INDEX + 2, B23, box)


@pytest.mark.parametrize(
    "n_points, primes, exps, first",
    [
        (770, (5, 7, 11), (1, 1, 1), (0, 0, 1)),
        (1078, (7, 11), (2, 1), (0, 1)),
        (3 * 2**8 * 3**5, (2, 3), (8, 5), (0, 1)),
    ],
)
def test_weyl_ceiling_check_reads_exact_zeros_when_the_box_divides_n(
    n_points, primes, exps, first
):
    # B | N: every cell holds N / B points, so every nonzero Weyl sum is 0,
    # and the check reports exact zeros with no scan
    rep = verify_weyl_bound(n_points, validate_bases(primes), TruncationBox(exps))
    assert (rep.worst_ratio, rep.worst_index.indices, rep.violations) == (0.0, first, 0)


def test_worst_index_does_not_follow_the_last_bit_of_a_tie():
    # (5, 0, 14) and (6, 0, 15) are a conjugate pair with equal exact ratios
    rep = verify_weyl_bound(100, validate_bases([2, 3, 5]), TruncationBox((4, 3, 2)))
    assert rep.worst_index.indices == (5, 0, 14)
