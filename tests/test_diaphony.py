"""Diaphony engines: spot values, cross-checks between routes, bounds."""

import logging
import math
import random
import tracemalloc
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
    DiaphonyReport,
    DigitVector,
    DimensionMismatch,
    DuplicateBase,
    IndexVector,
    Point,
    PointSet,
    PrimeBases,
    SegmentTooLarge,
    TruncationBox,
    ZeroIndex,
    block_weight_product,
    char_product,
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
from padiaphony.diaphony import ENUMERATION_CAP, _check_box, _first_near_max, _kernel_report
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
    copy of an earlier row."""
    bases = validate_bases(primes)
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        if i and rng.random() < 1 / 8:
            rows.append(rows[rng.randrange(i)])
        else:
            rows.append([rng.random() for _ in primes])
    return bases, PointSet.from_points([point_from_values(r, bases) for r in rows], bases)


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
    ],
    ids=["ingested-2048", "ingested-8192", "bases-2-65537", "halton-2357",
         "binary-digit-50", "unsorted-repeated-sizes"],
)
def test_counting_route_equals_recursive_oracle(case, sizes):
    bases, ps = case()
    assert diaphony_kernel_prefixes(ps, bases, sizes) == _recursive_prefixes(ps, bases, sizes)


def test_counting_route_caps_its_live_entries(monkeypatch):
    bases, ps = _binary_digit_50_cluster()
    assert diaphony_kernel(ps, bases).n_points == len(ps)
    monkeypatch.setattr(padiaphony.diaphony, "DIGIT_CELL_CAP", len(ps))
    with pytest.raises(SegmentTooLarge):
        diaphony_kernel(ps, bases)
    assert diaphony_kernel(ps, bases, mode="exact").n_points == len(ps)


def test_exact_mode_calls_the_kernel_once_per_unordered_pair(monkeypatch):
    # the oracle's only kernel evaluations go through the module-global name
    calls = []
    real = padiaphony.diaphony.kernel_value

    def counting(x, y, bases):
        calls.append(1)
        return real(x, y, bases)

    monkeypatch.setattr(padiaphony.diaphony, "kernel_value", counting)
    bases = validate_bases([2, 3, 5])
    rng = random.Random(8)
    rows = [[rng.random() for _ in range(3)] for _ in range(20)]
    pts = [point_from_values(row, bases) for row in rows + rows[:3]]
    for n in (1, 2, 7, len(pts)):
        calls.clear()
        diaphony_kernel(pts[:n], bases, mode="exact")
        assert len(calls) == n * (n + 1) // 2


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
    with pytest.raises(ValueError):
        halton_diaphony_prefixes(B23, [4], start=-1)
    assert halton_diaphony_prefixes(B23, [2], MAX_INDEX - 1)[0].n_points == 2
    for sizes, start in (([2], MAX_INDEX), ([1, 3], MAX_INDEX - 1), ([2**63 + 1], 0)):
        with pytest.raises(CountOverflow):
            halton_diaphony_prefixes(B23, sizes, start)


def test_kernel_mode_validation():
    pts = list(halton_stream(2, B2))
    with pytest.raises(ValueError):
        diaphony_kernel(pts, B2, "approximate")
    with pytest.raises(ValueError):
        diaphony_kernel([], B2)


def test_no_meaningful_negative_excursion_on_uniform_grid(caplog):
    # N = 2**m one-dimensional prefixes are uniform grids with tiny diaphony;
    # rounding must not push the squared value below -1e-9 before clamping
    with caplog.at_level(logging.WARNING, logger="padiaphony.diaphony"):
        for n in (1024, 4096):
            pts = list(halton_stream(n, B2))
            rep = diaphony_kernel(pts, B2, "fast")
            assert 0.0 <= rep.f_squared <= 1.0
    assert not caplog.records


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
    truncated_spectral_sum(ps, B23, box)  # fills the per-axis caches
    tracemalloc.start()
    try:
        truncated_spectral_sum(ps, B23, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**10 * 3**6


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
    with pytest.raises(ValueError):
        PointSet.from_points([], B2)
    ps = halton_set(4, B23)
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


# --- identities and bounds


def test_worst_case_error_examples():
    zero = DiaphonyReport(1, 0.0, 0.0, "kernel")
    assert worst_case_error(zero, B2) == 0.0
    unit = DiaphonyReport(1, 1.0, 1.0, "kernel")
    assert abs(worst_case_error(unit, B2) - math.sqrt(2)) < 1e-15
    half = DiaphonyReport(2, 0.5, 0.25, "kernel")
    assert abs(worst_case_error(half, B23) - math.sqrt(11) / 2) < 1e-15


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
    ],
)
def test_verify_weyl_bound_equals_fraction_loop(n_points, primes, exps):
    bases, box = validate_bases(primes), TruncationBox(exps)
    rep = verify_weyl_bound(n_points, bases, box)
    assert (rep.worst_ratio, rep.worst_index.indices, rep.violations) == _ceiling_check_oracle(
        n_points, bases, box
    )
    if (n_points, primes) == (1, (3,)):
        assert rep.worst_index.indices == (4,)


def test_worst_index_does_not_follow_the_last_bit_of_a_tie():
    r = 0.49506107445618286
    for a, b in ((r, np.nextafter(r, 1.0)), (np.nextafter(r, 1.0), r)):
        ratio = np.full((3, 4), 0.25)
        ratio[0, 0] = -1.0
        ratio[1, 2], ratio[2, 1] = a, b
        assert _first_near_max(ratio) == (1, 2)
    # (5, 0, 14) and (6, 0, 15) are a conjugate pair with equal exact ratios
    rep = verify_weyl_bound(100, validate_bases([2, 3, 5]), TruncationBox((4, 3, 2)))
    assert rep.worst_index.indices == (5, 0, 14)
