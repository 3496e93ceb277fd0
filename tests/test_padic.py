"""Digit arithmetic, character phases, and their exactness guarantees."""

import itertools
import math
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiaphony import (
    BaseMismatch,
    BaseTooLarge,
    DigitVector,
    DimensionMismatch,
    IndexVector,
    NonPrimeBase,
    OutOfUnitInterval,
    Point,
    PointSet,
    PrimeBases,
    char_phase_total,
    char_product,
    default_depth,
    float_to_digits,
    halton_point,
    halton_stream,
    is_prime,
    monna,
    monna_inverse,
    padic_phase,
    phase_to_complex,
    point_from_values,
    walsh_phase,
)
from padiaphony.padic import _digit_chunks, _ingest_plan


def rand_digit_vector(rng, p, max_len=6):
    return DigitVector(p, tuple(rng.randrange(p) for _ in range(rng.randrange(max_len + 1))))


# --- DigitVector invariants and phase values


def test_digit_vector_trims_trailing_zeros():
    dv = DigitVector(2, (1, 0, 1, 0, 0))
    assert dv.digits == (1, 0, 1)
    assert DigitVector(3, (0, 0)).digits == ()


def test_digit_vector_trims_a_long_zero_tail_at_once():
    start = time.perf_counter()
    dv = DigitVector(2, (1,) + (0,) * 10**5)
    assert time.perf_counter() - start < 2
    assert dv == DigitVector(2, (1,))


def test_digit_vector_rejects_bad_digits_and_bases():
    with pytest.raises(ValueError):
        DigitVector(2, (2,))
    with pytest.raises(ValueError):
        DigitVector(3, (-1,))
    with pytest.raises(NonPrimeBase):
        DigitVector(4, (1,))


def test_digit_vector_value_range():
    rng = random.Random(0)
    for p in (2, 3, 5, 7):
        for _ in range(50):
            v = rand_digit_vector(rng, p).value()
            assert 0 <= v < 1


def test_phase_to_complex_is_unit_modulus():
    rng = random.Random(1)
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        e = rng.randrange(1, 6)
        value = phase_to_complex(Fraction(rng.randrange(p**e), p**e))
        assert abs(abs(value) - 1.0) < 1e-15


# --- Monna map


def test_monna_examples():
    assert monna(0, 2).digits == ()
    assert monna(5, 2).digits == (1, 0, 1)
    assert monna(5, 2).value() == Fraction(5, 8)
    assert monna(4, 3).digits == (1, 1)
    assert monna(4, 3).value() == Fraction(4, 9)


def test_monna_rejects_non_prime():
    with pytest.raises(NonPrimeBase):
        monna(3, 6)
    with pytest.raises(NonPrimeBase):
        monna(3, 1)


def test_monna_rejects_a_negative_index():
    with pytest.raises(ValueError, match="nonnegative"):
        monna(-1, 2)


def test_digit_positions_are_one_indexed():
    dv = DigitVector(2, (1,))
    assert (dv.digit(1), dv.digit(2)) == (1, 0)
    with pytest.raises(ValueError, match="1-indexed"):
        dv.digit(0)


def test_point_needs_a_coordinate():
    with pytest.raises(DimensionMismatch):
        Point(())


def test_point_set_validates_its_digit_matrices():
    bases = PrimeBases((2, 3))
    good = np.array([[1, 0], [0, 1]], dtype=np.int64)
    assert len(PointSet(bases, (good, good))) == 2
    with pytest.raises(DimensionMismatch):
        PointSet(bases, (good,))
    for bad in (
        good.astype(np.int32),  # not int64
        good[:, 0],  # not 2-d
        np.zeros((2, 0), dtype=np.int64),  # no column
        good[:1],  # a row count unlike the first matrix's
        np.array([[0], [-1]], dtype=np.int64),  # a digit below 0
        np.array([[0], [3]], dtype=np.int64),  # a digit at least p
    ):
        with pytest.raises(ValueError):
            PointSet(bases, (good, bad))


def _fromiter_packing(pts, bases):
    """The digit matrices PointSet.from_points built before bases below 256
    went through bytes: each row zero-filled as a tuple, then np.fromiter."""
    mats = []
    for i in range(bases.dimension):
        rows = [pt.coords[i].digits for pt in pts]
        depth = max(1, max(map(len, rows)))
        padded = itertools.chain.from_iterable(row + (0,) * (depth - len(row)) for row in rows)
        mats.append(np.fromiter(padded, np.int64, len(rows) * depth).reshape(-1, depth))
    return mats


def test_from_points_packs_every_base_as_the_fromiter_loop():
    # 251 is the largest prime below 256, whose digits fit a byte, 257 the
    # smallest above it; 600 rows span three byte buffers, the last partial
    bases = PrimeBases((2, 3, 251, 257, 65537))
    rng = random.Random(31)
    ragged = [Point(tuple(rand_digit_vector(rng, p, max_len=9) for p in bases.primes))
              for _ in range(600)]
    top = Point(tuple(DigitVector(p, (p - 1,) * 12) for p in bases.primes))
    empty = Point(tuple(DigitVector(p) for p in bases.primes))
    for pts in (ragged, ragged + [top, empty], [top], [empty], [ragged[0]]):
        got = PointSet.from_points(pts, bases).digits
        for m, want in zip(got, _fromiter_packing(pts, bases), strict=True):
            assert m.dtype == np.int64 and m.shape == want.shape
            assert np.array_equal(m, want)
    assert any(not c.digits for pt in ragged for c in pt.coords)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_equals_trial_division_below_10_to_the_5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _is_prime_by_trial_division(n)
    ]


def test_is_prime_on_large_primes_and_strong_pseudoprimes():
    assert is_prime(2**61 - 1)
    assert is_prime(2**63 - 25)
    # 151 * 751 * 28351 passes the strong test to bases 2, 3, 5 and 7
    assert 3215031751 == 151 * 751 * 28351
    assert not is_prime(3215031751)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


def test_bases_of_2_pow_63_or_more_are_rejected_before_the_primality_test():
    for p in (2**63, 2**63 + 1, 2**64 - 59, 2**89 - 1):
        with pytest.raises(BaseTooLarge):
            PrimeBases((2, p))
    with pytest.raises(NonPrimeBase):
        PrimeBases((2**63 - 1,))  # 7**2 * 73 * 127 * 337 * 92737 * 649657
    assert PrimeBases((2**63 - 25,)).primes == (2**63 - 25,)


def test_per_base_caches_stay_bounded():
    bound = is_prime.cache_info().maxsize
    assert bound is not None
    primes = [n for n in range(2, 40 * bound) if is_prime(n)]
    assert len(primes) > bound
    for p in primes:
        default_depth(p)
        float_to_digits(0.5, p)
    for cached in (is_prime, default_depth, _digit_chunks, _ingest_plan):
        info = cached.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


def test_monna_inverse_examples():
    assert monna_inverse(DigitVector(2, (1, 0, 1))) == 5
    assert monna_inverse(DigitVector(3, ())) == 0
    assert monna_inverse(DigitVector(3, (1, 1))) == 4


DIGIT_INT_BASES = [2, 3, 31, 37, 65537]


def _horner(digits, p):
    num = 0
    for d in digits:
        num = num * p + d
    return num


def _check_digit_integers(p, digits):
    x = DigitVector(p, tuple(digits))
    assert x.value() == Fraction(_horner(x.digits, p), p ** len(x.digits))
    assert monna_inverse(x) == _horner(x.digits[::-1], p)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from(DIGIT_INT_BASES).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), max_size=60))
))
def test_value_and_monna_inverse_match_the_horner_loop(case):
    _check_digit_integers(*case)


@pytest.mark.parametrize("p", DIGIT_INT_BASES)
def test_value_and_monna_inverse_of_the_empty_and_a_ten_thousand_digit_vector(p):
    rng = random.Random(p)
    digits = [rng.randrange(p) for _ in range(10**4)]
    digits[-1] = 1  # no trailing zero to trim
    _check_digit_integers(p, [])
    _check_digit_integers(p, digits)
    with_limit = getattr(sys, "set_int_max_str_digits", None)
    if with_limit is not None:
        # 640 is the least limit Python accepts on int/str conversion
        old = sys.get_int_max_str_digits()
        with_limit(640)
        try:
            _check_digit_integers(p, digits)
        finally:
            with_limit(old)


def test_monna_roundtrip_sampled():
    rng = random.Random(2)
    for p in (2, 3, 5, 7):
        for _ in range(500):
            n = rng.randrange(10**6)
            assert monna_inverse(monna(n, p)) == n


def test_monna_value_in_unit_interval():
    for p in (2, 3, 5):
        for n in range(200):
            assert 0 <= monna(n, p).value() < 1


def test_monna_and_ingest_build_canonical_digit_vectors():
    # both skip the public constructor's checks; the result must be the same
    for p in (2, 3, 5, 65537):
        for n in (0, 1, p - 1, p, p * p, 12345, 2**63 - 1):
            dv = monna(n, p)
            assert type(dv.digits) is tuple
            assert dv == DigitVector(p, dv.digits) and hash(dv) == hash(DigitVector(p, dv.digits))
    # a numpy integer index gives the same Python-int digits
    dv = monna(np.int64(6), 3)
    assert dv == monna(6, 3) and all(type(d) is int for d in dv.digits)
    # halton_stream's records come off its odometer unchecked: from n = 0
    # and across carries, each equals the checked one, digits and hash
    for primes in ((2, 3, 5), (31, 37), (2, 65537)):
        bases = PrimeBases(primes)
        for start in {0, 1, 2**16 - 2, 3**10 - 2, 37**3 - 2, 65537**2 - 2, 2**63 - 4}:
            for n, pt in enumerate(halton_stream(3, bases, start), start):
                assert pt == halton_point(n, bases) and hash(pt) == hash(halton_point(n, bases))
                for dv in pt.coords:
                    assert type(dv.digits) is tuple and all(type(d) is int for d in dv.digits)
                    assert dv == DigitVector(dv.base, dv.digits)
                    assert hash(dv) == hash(DigitVector(dv.base, dv.digits))
    # anything not an integer is rejected before a digit is built, inf included
    for n in (2.5, float("inf"), float("nan"), "6", np.float64(6.0)):
        with pytest.raises(ValueError):
            monna(n, 2)
    with pytest.raises(ValueError):
        halton_point(2.5, PrimeBases((2, 3)))
    for x, p, depth in ((0.5, 2, 8), (0.0, 3, None), (0.25, 65537, None), (0.999, 5, 3)):
        dv = float_to_digits(x, p, depth)
        assert type(dv.digits) is tuple
        assert dv == DigitVector(p, dv.digits) == DigitVector(p, dv.digits + (0, 0))
    assert float_to_digits(0.5, 2, 8).digits == (1,)
    assert float_to_digits(0.0, 3).digits == ()


# --- float ingestion


def test_float_to_digits_examples():
    assert float_to_digits(0.5, 2, 8).digits == (1,)
    assert float_to_digits(Fraction(1, 3), 3, 4).digits == (1,)
    assert float_to_digits(0.3, 2, 4).digits == (0, 1)


def test_float_to_digits_truncates_toward_zero():
    # 0.7 in base 2: digits floor(0.7 * 2**j) mod 2 for j = 1..5 -> 1,0,1,1,0
    assert float_to_digits(0.7, 2, 5).digits == (1, 0, 1, 1)


def test_float_to_digits_default_depth_captures_mantissa():
    assert default_depth(2) == 53
    assert 2 ** default_depth(2) >= 2**53
    assert 3 ** default_depth(3) >= 2**53 > 3 ** (default_depth(3) - 1)
    x = 0.73  # leading bit at position 1, so 53 digits hold the whole double
    dv = float_to_digits(x, 2)
    assert dv.value() == Fraction(x)
    for p in [p for p in range(2000) if is_prime(p)] + [2**61 - 1, 2**63 - 25]:
        m = 1
        while p**m < 2**53:
            m += 1
        assert default_depth(p) == m, p


def test_float_to_digits_rejects_outside_unit_interval():
    for bad in (-0.25, 1.0, 1.5, float("nan"), float("inf")):
        with pytest.raises(OutOfUnitInterval):
            float_to_digits(bad, 2, 4)
    with pytest.raises(NonPrimeBase):
        float_to_digits(0.5, 9, 4)


def _digit_loop(x, p, depth):
    """The expansion float_to_digits computed before it scaled to one
    integer: ``depth`` multiply-divmod steps against a Fraction."""
    if depth is None:
        depth = default_depth(p)
    q = Fraction(x)
    num, den = q.numerator, q.denominator
    digits = []
    for _ in range(depth):
        num *= p
        d, num = divmod(num, den)
        digits.append(d)
    return DigitVector(p, tuple(digits))


UNIT_VALUES = st.one_of(
    st.floats(0, 1, exclude_max=True),
    st.sampled_from((0.0, -0.0, 5e-324, 2.2250738585072014e-308, math.nextafter(1.0, 0.0))),
    st.fractions(0, 1, max_denominator=10**30).filter(lambda q: q < 1),
    st.just(0),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    x=UNIT_VALUES,
    # 31 is the largest base peeled through a digit table, 37 the smallest not
    p=st.sampled_from((2, 3, 5, 7, 11, 31, 37, 40009, 65537)),
    depth=st.one_of(st.none(), st.integers(1, 70)),
)
@example(x=0.7, p=2, depth=9)
@example(x=0.7, p=2, depth=10)
@example(x=0.7, p=2, depth=21)
# base 3 peels 6 digits a chunk: below one chunk, one chunk, two and one digit
@example(x=0.7, p=3, depth=5)
@example(x=0.7, p=3, depth=6)
@example(x=0.7, p=3, depth=13)
@example(x=5e-324, p=65537, depth=None)
@example(x=1 - 2**-53, p=2, depth=1)
@example(x=-0.0, p=3, depth=60)
# base 2 reads binary text: past the mantissa, and past 640 digits, which
# int/str conversion outside the powers of 2 refuses under the least limit
@example(x=0.7, p=2, depth=54)
@example(x=1 - 2**-53, p=2, depth=700)
@example(x=5e-324, p=2, depth=1074)
@example(x=5e-324, p=2, depth=1100)
@example(x=Fraction(1, 3), p=2, depth=1000)
def test_float_to_digits_equals_the_digit_loop(x, p, depth):
    with_limit = getattr(sys, "set_int_max_str_digits", None)
    if with_limit is None:
        assert float_to_digits(x, p, depth) == _digit_loop(x, p, depth)
        return
    old = sys.get_int_max_str_digits()
    with_limit(640)  # the least limit Python accepts
    try:
        assert float_to_digits(x, p, depth) == _digit_loop(x, p, depth)
    finally:
        with_limit(old)


@pytest.mark.parametrize(
    "bad",
    [-0.25, -5e-324, 1.0, 1.5, float("nan"), float("inf"), float("-inf"),
     Fraction(-1, 3), Fraction(1), 1, -1, Decimal("NaN"), Decimal("Infinity"), None],
)
def test_float_to_digits_rejects_every_kind_of_input_outside_the_interval(bad):
    with pytest.raises(OutOfUnitInterval):
        float_to_digits(bad, 3)
    with pytest.raises(NonPrimeBase):
        float_to_digits(bad, 9)
    with pytest.raises(ValueError, match="depth"):
        float_to_digits(bad, 2, 0)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.longdouble],
                         ids=lambda t: t.__name__)
def test_float_to_digits_reads_every_float_width_exactly(dtype):
    largest = np.nextafter(dtype(1), dtype(0))
    for x in (dtype(0), dtype(0.3), dtype(0.5), dtype(0.7), largest):
        exact = Fraction(*x.as_integer_ratio())
        for p in (2, 3, 65537):
            assert float_to_digits(x, p) == float_to_digits(exact, p)
    for bad in (np.nan, np.inf, 1.0, -0.5):
        with pytest.raises(OutOfUnitInterval):
            float_to_digits(dtype(bad), 2)
    bases = PrimeBases((2, 3))
    row = np.array([0.3, 0.7], dtype=dtype)
    exact_row = [Fraction(*v.as_integer_ratio()) for v in row]
    assert point_from_values(row, bases) == point_from_values(exact_row, bases)


def test_float_to_digits_reads_a_decimal_exactly():
    assert float_to_digits(Decimal("0.1"), 3) == float_to_digits(Fraction(1, 10), 3)


# --- p-adic characters


def test_padic_phase_zero_index_is_trivial():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(20):
            x = rand_digit_vector(rng, p)
            assert padic_phase(0, x) == 0


def test_padic_phase_examples():
    assert padic_phase(1, monna(1, 2)) == Fraction(1, 2)
    ph = padic_phase(2, DigitVector(2, (1, 1)))
    assert ph == Fraction(3, 4)
    assert abs(phase_to_complex(ph) - (-1j)) < 1e-15


def test_padic_phase_at_origin_is_one():
    for p in (2, 3, 5):
        zero = DigitVector(p)
        for k in range(50):
            assert padic_phase(k, zero) == 0


def _phase_by_literal_expansion(k, x, p):
    # Independent oracle: sum_r kappa_r * p**(a-r) * (sum_{j<=r+1} x_j p**(j-1))
    kappas = []
    while k:
        k, r = divmod(k, p)
        kappas.append(r)
    a = len(kappas) - 1
    m = 0
    for r, kappa in enumerate(kappas):
        partial = sum(x.digit(j) * p ** (j - 1) for j in range(1, r + 2))
        m += kappa * p ** (a - r) * partial
    return Fraction(m % p ** (a + 1), p ** (a + 1))


def test_padic_phase_matches_literal_expansion():
    rng = random.Random(4)
    for p in (2, 3, 5):
        for _ in range(150):
            k = rng.randrange(1, p**5)
            x = rand_digit_vector(rng, p, max_len=8)
            phase = padic_phase(k, x)
            assert 0 <= phase < 1
            assert phase == _phase_by_literal_expansion(k, x, p)


def test_padic_phase_additivity_of_characters():
    # phase(k, y + z) = phase(k, y) + phase(k, z) mod 1 for integer arguments
    for p in (2, 3):
        reps = {n: monna(n, p) for n in range(127)}
        for k in range(64):
            phases = {n: padic_phase(k, reps[n]) for n in range(127)}
            for y in range(64):
                for z in range(64):
                    assert phases[y + z] == (phases[y] + phases[z]) % 1


def test_padic_phase_digit_locality():
    rng = random.Random(5)
    for p in (2, 3):
        for _ in range(100):
            depth_k = rng.randrange(1, 4)
            k = rng.randrange(p ** (depth_k - 1), p**depth_k)  # k has depth_k digits
            x = rand_digit_vector(rng, p, max_len=depth_k)
            base_phase = padic_phase(k, x)
            # append digits past position a+1 = depth_k; the phase may not move
            padded = list(x.digits) + [0] * (depth_k - len(x.digits))
            extra = [rng.randrange(p) for _ in range(3)]
            if extra and extra[-1] == 0:
                extra[-1] = 1
            y = DigitVector(p, tuple(padded + extra))
            assert padic_phase(k, y) == base_phase


# --- Walsh functions


def test_walsh_phase_examples():
    assert walsh_phase(0, DigitVector(2, (1,))) == 0
    assert walsh_phase(1, monna(1, 2)) == Fraction(1, 2)
    quarter = DigitVector(2, (0, 1))
    assert walsh_phase(3, quarter) == Fraction(1, 2)


def test_walsh_phase_denominator_is_base():
    rng = random.Random(6)
    for p in (2, 3, 5):
        for _ in range(50):
            k = rng.randrange(1, p**4)
            x = rand_digit_vector(rng, p)
            ph = walsh_phase(k, x)
            assert 0 <= ph < 1
            assert ph.denominator in (1, p)


# --- s-dimensional characters


def test_char_product_examples():
    bases = PrimeBases((2, 3))
    x = Point((monna(1, 2), monna(1, 3)))  # (1/2, 1/3)
    assert char_product(IndexVector((0, 0)), x, bases) == 1
    total = char_phase_total(IndexVector((1, 1)), x, bases)
    assert total == Fraction(5, 6)
    value = char_product(IndexVector((1, 0)), x, bases)
    assert abs(value - (-1)) < 1e-15


def test_char_product_dimension_mismatch():
    bases = PrimeBases((2, 3))
    x = Point((monna(1, 2), monna(1, 3)))
    with pytest.raises(DimensionMismatch):
        char_product(IndexVector((1,)), x, bases)
    with pytest.raises(BaseMismatch):
        char_product(IndexVector((1, 1)), Point((monna(1, 2), monna(1, 2))), bases)


def test_index_vector_takes_integers_only():
    k = IndexVector((np.int64(1), 2))
    assert k == IndexVector((1, 2)) and all(type(i) is int for i in k.indices)
    for bad in (-1, 1.0, "1", np.float64(1.0)):
        with pytest.raises(ValueError):
            IndexVector((0, bad))
    with pytest.raises(DimensionMismatch):
        IndexVector(())


def test_point_from_values():
    bases = PrimeBases((2, 3))
    pt = point_from_values([0.5, Fraction(1, 3)], bases)
    assert pt.values() == (Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(DimensionMismatch):
        point_from_values([0.5], bases)


def test_prime_bases_distinctness_is_on_demand():
    bases = PrimeBases((2, 2))  # primality only at construction
    from padiaphony import DuplicateBase

    with pytest.raises(DuplicateBase):
        bases.require_distinct()
