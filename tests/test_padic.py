"""Digit arithmetic, character phases, and their exactness guarantees."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiaphony import (
    BaseMismatch,
    DigitVector,
    DimensionMismatch,
    IndexVector,
    NonPrimeBase,
    OutOfUnitInterval,
    Point,
    PrimeBases,
    char_phase_total,
    char_product,
    default_depth,
    float_to_digits,
    halton_point,
    monna,
    monna_inverse,
    padic_phase,
    phase_to_complex,
    point_from_values,
    walsh_phase,
)


def rand_digit_vector(rng, p, max_len=6):
    return DigitVector(p, tuple(rng.randrange(p) for _ in range(rng.randrange(max_len + 1))))


# --- DigitVector invariants and phase values


def test_digit_vector_trims_trailing_zeros():
    dv = DigitVector(2, (1, 0, 1, 0, 0))
    assert dv.digits == (1, 0, 1)
    assert DigitVector(3, (0, 0)).digits == ()


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


def test_monna_inverse_examples():
    assert monna_inverse(DigitVector(2, (1, 0, 1))) == 5
    assert monna_inverse(DigitVector(3, ())) == 0
    assert monna_inverse(DigitVector(3, (1, 1))) == 4


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
    p=st.sampled_from((2, 3, 5, 7, 11, 40009, 65537)),
    depth=st.one_of(st.none(), st.integers(1, 70)),
)
@example(x=5e-324, p=65537, depth=None)
@example(x=1 - 2**-53, p=2, depth=1)
@example(x=-0.0, p=3, depth=60)
def test_float_to_digits_equals_the_digit_loop(x, p, depth):
    assert float_to_digits(x, p, depth) == _digit_loop(x, p, depth)


@pytest.mark.parametrize(
    "bad",
    [-0.25, -5e-324, 1.0, 1.5, float("nan"), float("inf"), float("-inf"),
     Fraction(-1, 3), Fraction(1), 1, -1, Decimal("NaN"), Decimal("Infinity")],
)
def test_float_to_digits_rejects_every_kind_of_input_outside_the_interval(bad):
    with pytest.raises(OutOfUnitInterval):
        float_to_digits(bad, 3)
    with pytest.raises(NonPrimeBase):
        float_to_digits(bad, 9)
    with pytest.raises(ValueError, match="depth"):
        float_to_digits(bad, 2, 0)


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
