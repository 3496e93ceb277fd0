"""Closed-form kernel: spot values, symmetry, block sums, truncation tails."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from padiaphony import (
    BaseMismatch,
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


def test_kernel_value_dimension_errors():
    bases = PrimeBases((2, 3))
    x = Point((DigitVector(2), DigitVector(3)))
    with pytest.raises(DimensionMismatch):
        kernel_value(x, Point((DigitVector(2),)), bases)
    with pytest.raises(BaseMismatch):
        kernel_value(x, Point((DigitVector(2), DigitVector(5))), bases)


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
