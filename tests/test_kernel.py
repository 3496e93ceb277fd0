"""Closed-form kernel: spot values, symmetry, block sums, truncation tails."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiaphony import (
    BaseMismatch,
    DiaphonyError,
    DigitVector,
    DimensionMismatch,
    Point,
    PrimeBases,
    block_weight,
    centered_kernel_1d,
    kernel_value,
    monna,
    padic_phase,
    phase_to_complex,
)


def rand_digit_vector(rng, p, max_len=5):
    return DigitVector(p, tuple(rng.randrange(p) for _ in range(rng.randrange(max_len + 1))))


def test_centered_kernel_examples():
    five_eighths = monna(5, 2)
    assert centered_kernel_1d(five_eighths, five_eighths) == 2
    assert centered_kernel_1d(DigitVector(2), monna(1, 2)) == -1
    third = DigitVector(3, (1,))
    four_ninths = DigitVector(3, (1, 1))
    assert centered_kernel_1d(third, four_ninths) == Fraction(5, 3)


def test_centered_kernel_first_digit_disagreement_is_minus_one_for_every_base():
    for p in (2, 3, 5, 7):
        x = DigitVector(p)
        y = DigitVector(p, (1,))
        assert centered_kernel_1d(x, y) == -1


def test_centered_kernel_base_mismatch():
    with pytest.raises(BaseMismatch):
        centered_kernel_1d(DigitVector(2, (1,)), DigitVector(3, (1,)))


def test_centered_kernel_range_and_growth_in_agreement_depth():
    # the value increases with the position of the first disagreement
    for p in (2, 3, 5):
        previous = None
        for i0 in range(1, 8):
            x = DigitVector(p, (0,) * (i0 - 1) + (0,))
            y = DigitVector(p, (0,) * (i0 - 1) + (1,))
            val = centered_kernel_1d(x, y)
            assert -1 <= val < p
            if previous is not None:
                assert val > previous
            previous = val
        assert centered_kernel_1d(x, x) == p


def test_kernel_value_examples():
    bases = PrimeBases((2, 3))
    origin = Point((DigitVector(2), DigitVector(3)))
    assert kernel_value(origin, origin, bases) == 12
    off = Point((monna(1, 2), monna(1, 3)))
    assert kernel_value(origin, off, bases) == 0
    b2 = PrimeBases((2,))
    x = Point((DigitVector(2),))
    y = Point((DigitVector(2, (0, 1)),))
    assert kernel_value(x, y, b2) == Fraction(3, 2)


def reference_kernel(x, y, bases):
    """prod_i (p_i + 1)(1 - p_i**-t_i), t_i the shared leading digits of the
    values in coordinate i; p_i + 1 where the values are equal."""
    out = Fraction(1)
    for xi, yi, p in zip(x.coords, y.coords, bases.primes):
        if xi.value() == yi.value():
            out *= p + 1
            continue
        t = 0
        while xi.digit(t + 1) == yi.digit(t + 1):
            t += 1
        out *= (p + 1) * (1 - Fraction(1, p**t))
    return out


KERNEL_PRIMES = (2, 3, 5, 7, 65537)


@st.composite
def kernel_pairs(draw):
    """Two points in drawn bases whose coordinates are equal (possibly with
    padded zeros), one a trimmed prefix of the other, different from the
    first digit on, or unrelated."""
    primes = draw(st.lists(st.sampled_from(KERNEL_PRIMES), min_size=1, max_size=4))
    xs, ys = [], []
    for p in primes:
        digits = st.lists(st.integers(0, p - 1), max_size=6)
        x = DigitVector(p, tuple(draw(digits)))
        kind = draw(st.sampled_from(("equal", "prefix", "first", "unrelated")))
        if kind == "equal":
            y = DigitVector(p, x.digits + (0,) * draw(st.integers(0, 2)))
        elif kind == "prefix":
            tail = draw(digits) + [draw(st.integers(1, p - 1))]
            y = DigitVector(p, x.digits + (0,) * draw(st.integers(0, 2)) + tuple(tail))
        elif kind == "first":
            head = (x.digit(1) + draw(st.integers(1, p - 1))) % p
            y = DigitVector(p, (head,) + tuple(draw(digits)))
        else:
            y = DigitVector(p, tuple(draw(digits)))
        if draw(st.booleans()):
            x, y = y, x
        xs.append(x)
        ys.append(y)
    return PrimeBases(tuple(primes)), Point(tuple(xs)), Point(tuple(ys))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=kernel_pairs())
def test_kernel_value_equals_reference_product(case):
    bases, x, y = case
    expected = reference_kernel(x, y, bases)
    assert kernel_value(x, y, bases) == expected
    assert kernel_value(y, x, bases) == expected
    for xi, yi in zip(x.coords, y.coords):
        one = PrimeBases((xi.base,))
        assert 1 + centered_kernel_1d(xi, yi) == reference_kernel(
            Point((xi,)), Point((yi,)), one
        )


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=kernel_pairs(), data=st.data())
def test_kernel_value_rejects_a_base_mismatch_in_any_coordinate(case, data):
    # checked before the product, so a zero factor elsewhere does not hide it
    bases, x, y = case
    i = data.draw(st.integers(0, bases.dimension - 1))
    q = data.draw(st.sampled_from([p for p in KERNEL_PRIMES if p != bases.primes[i]]))
    coords = list(y.coords)
    coords[i] = DigitVector(q, tuple(d % q for d in coords[i].digits))
    with pytest.raises(BaseMismatch):
        kernel_value(x, Point(tuple(coords)), bases)
    with pytest.raises(BaseMismatch):
        centered_kernel_1d(x.coords[i], coords[i])


def test_kernel_of_a_trimmed_prefix():
    # (1,) and (1, 0, 1) share two digits: 1/2 vs 5/8
    short, long = DigitVector(2, (1,)), DigitVector(2, (1, 0, 1))
    assert centered_kernel_1d(short, long) == centered_kernel_1d(long, short) == Fraction(5, 4)
    assert kernel_value(Point((short,)), Point((long,)), PrimeBases((2,))) == Fraction(9, 4)
    assert centered_kernel_1d(DigitVector(3), DigitVector(3, (0, 0, 2))) == 3 - Fraction(4, 9)


def test_kernel_is_zero_when_one_coordinate_differs_in_its_first_digit():
    bases = PrimeBases((2, 3, 5))
    x = Point((DigitVector(2, (1, 1)), DigitVector(3, (2,)), DigitVector(5, (4, 4))))
    for i in range(3):
        coords = list(x.coords)
        p = bases.primes[i]
        coords[i] = DigitVector(p, ((x.coords[i].digit(1) + 1) % p,) + x.coords[i].digits[1:])
        assert kernel_value(x, Point(tuple(coords)), bases) == 0
        assert kernel_value(Point(tuple(coords)), x, bases) == 0
    assert kernel_value(x, x, bases) == 3 * 4 * 6


def test_kernel_value_dimension_errors():
    bases = PrimeBases((2, 3))
    x = Point((DigitVector(2), DigitVector(3)))
    with pytest.raises(DimensionMismatch):
        kernel_value(x, Point((DigitVector(2),)), bases)
    with pytest.raises(BaseMismatch):
        kernel_value(x, Point((DigitVector(2), DigitVector(5))), bases)


def test_kernel_value_rejects_what_is_not_a_point():
    x = Point((DigitVector(2, (1,)),))
    for a, b in ((5, 5), (x, 5), (5, x), (x, DigitVector(2, (1,)))):
        with pytest.raises(DiaphonyError, match="points must be Points"):
            kernel_value(a, b, PrimeBases((2,)))


def test_centered_kernel_rejects_what_is_not_a_digit_vector():
    x = DigitVector(2, (1,))
    for a, b in ((5, 5), (x, 0.5), (0.5, x), (x, Point((x,)))):
        with pytest.raises(DiaphonyError, match="coordinates must be DigitVectors"):
            centered_kernel_1d(a, b)


def test_kernel_symmetry():
    rng = random.Random(10)
    bases = PrimeBases((2, 3))
    for _ in range(100):
        x = Point((rand_digit_vector(rng, 2), rand_digit_vector(rng, 3)))
        y = Point((rand_digit_vector(rng, 2), rand_digit_vector(rng, 3)))
        assert kernel_value(x, y, bases) == kernel_value(y, x, bases)


def test_block_sums_of_characters_match_closed_form():
    # sum over a block k in [l*p**a, (l+1)*p**a) of gamma_k(x) * conj(gamma_k(y))
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(20):
            x = rand_digit_vector(rng, p)
            y = rand_digit_vector(rng, p)
            for a in range(4):
                for l in range(p):
                    total = 0j
                    for k in range(l * p**a, (l + 1) * p**a):
                        total += (
                            phase_to_complex(padic_phase(k, x))
                            * phase_to_complex(-padic_phase(k, y))
                        )
                    if all(x.digit(j) == y.digit(j) for j in range(1, a + 1)):
                        expected = (
                            cmath.exp(2j * math.pi * l * (x.digit(a + 1) - y.digit(a + 1)) / p)
                            * p**a
                        )
                    else:
                        expected = 0j
                    assert abs(total - expected) < 1e-12


def test_kernel_equals_weighted_character_sum_up_to_tail():
    # |K_p(x, y) - sum_{k < p**g} w(k) gamma_k(x) conj(gamma_k(y))| <= p**(1-g)
    rng = random.Random(12)
    for p in (2, 3):
        for _ in range(4):
            x = rand_digit_vector(rng, p)
            y = rand_digit_vector(rng, p)
            exact = float(1 + centered_kernel_1d(x, y))
            partial = 0j
            for g in range(1, 9):
                lo = p ** (g - 1) if g > 1 else 0
                for k in range(lo, p**g):
                    partial += (
                        float(block_weight(k, p))
                        * phase_to_complex(padic_phase(k, x))
                        * phase_to_complex(-padic_phase(k, y))
                    )
                tail = p ** (1 - g)
                assert abs(exact - partial) <= tail + 1e-12
                assert abs(partial.imag) < 1e-12  # kernel sums are real


def test_kernel_gram_matrices_are_positive_semidefinite():
    rng = random.Random(13)
    bases = PrimeBases((2, 3))
    for _ in range(10):
        pts = []
        while len(pts) < 8:
            cand = Point((rand_digit_vector(rng, 2), rand_digit_vector(rng, 3)))
            if cand not in pts:
                pts.append(cand)
        gram = np.array(
            [[float(kernel_value(x, y, bases)) for y in pts] for x in pts]
        )
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-9
