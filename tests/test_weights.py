"""Frequency weights and normalization constants."""

from fractions import Fraction

import numpy as np
import pytest

from padiaphony import (
    DimensionMismatch,
    IndexVector,
    NonPrimeBase,
    PrimeBases,
    TruncationBox,
    block_weight,
    block_weight_product,
    truncated_weight_mass,
    weight_mass,
)


def test_block_weight_examples():
    assert block_weight(0, 2) == 1
    assert block_weight(3, 2) == Fraction(1, 4)
    assert block_weight(10, 3) == Fraction(1, 81)


def test_block_weight_block_boundaries_are_exact():
    # at base 65537, k passes int64 from t = 4
    for p, blocks in ((2, 6), (3, 6), (5, 6), (65537, 10)):
        for t in range(blocks):
            assert block_weight(p**t, p) == Fraction(1, p ** (2 * t))
            assert block_weight(p ** (t + 1) - 1, p) == Fraction(1, p ** (2 * t))


def test_block_weight_rejects_bad_input():
    with pytest.raises(NonPrimeBase):
        block_weight(1, 4)
    with pytest.raises(ValueError):
        block_weight(-1, 2)


def test_block_weight_range_and_monotonicity():
    for p in (2, 3, 5):
        for k in range(1, 200):
            w = block_weight(k, p)
            assert 0 < w <= 1
            assert block_weight(p * k, p) <= w


def test_block_mass_identity():
    # mass of each digit block: sum_{k=p**t}^{p**(t+1)-1} weight = (p-1) * p**-t
    for p in (2, 3, 5):
        for t in range(7):
            total = sum(block_weight(k, p) for k in range(p**t, p ** (t + 1)))
            assert total == (p - 1) * Fraction(1, p**t)


def test_total_mass_partial_sums():
    # 1 + sum of the first T+1 block masses = 1 + p - p**-T, approaching 1 + p
    for p in (2, 3, 5):
        for T in range(7):
            partial = 1 + sum(
                (p - 1) * Fraction(1, p**t) for t in range(T + 1)
            )
            assert partial == 1 + p - Fraction(1, p**T)


def test_block_weight_product_examples():
    bases = PrimeBases((2, 3))
    assert block_weight_product(IndexVector((0, 0)), bases) == 1
    assert block_weight_product(IndexVector((3, 1)), bases) == Fraction(1, 4)
    assert block_weight_product(IndexVector((2, 3)), bases) == Fraction(1, 36)
    with pytest.raises(DimensionMismatch):
        block_weight_product(IndexVector((1,)), bases)


def test_weight_mass_examples():
    assert weight_mass(PrimeBases((2,))) == 3
    assert weight_mass(PrimeBases((2, 3))) == 12
    assert weight_mass(PrimeBases((2, 3, 5))) == 72


def test_truncated_weight_mass_examples():
    assert truncated_weight_mass(PrimeBases((2,)), TruncationBox((1,))) == 2
    assert truncated_weight_mass(PrimeBases((2,)), TruncationBox((3,))) == Fraction(11, 4)
    assert truncated_weight_mass(PrimeBases((2, 3)), TruncationBox((1, 1))) == 6
    with pytest.raises(DimensionMismatch):
        truncated_weight_mass(PrimeBases((2, 3)), TruncationBox((1,)))


def test_truncated_mass_equals_boxed_weight_sum():
    # the closed form really is the mass of the box
    for p, g in ((2, 5), (3, 4), (5, 3)):
        boxed = sum(block_weight(k, p) for k in range(p**g))
        assert boxed == truncated_weight_mass(PrimeBases((p,)), TruncationBox((g,)))


def test_truncated_mass_below_total_and_converging():
    bases = PrimeBases((2, 3, 5))
    sig = weight_mass(bases)
    previous = Fraction(0)
    for g in range(1, 10):
        box = TruncationBox((g, g, g))
        mass = truncated_weight_mass(bases, box)
        assert previous < mass < sig
        # deficit is controlled by sigma * sum_i p_i**-g_i
        deficit = sig - mass
        assert deficit <= sig * sum(Fraction(1, p**g) for p in bases.primes)
        previous = mass
    deep = truncated_weight_mass(bases, TruncationBox((40, 40, 40)))
    assert sig - deep < Fraction(1, 10**9)


def test_truncation_box_validation():
    with pytest.raises(ValueError):
        TruncationBox((0,))
    with pytest.raises(ValueError):
        TruncationBox((1, -2))
    # exponents are read as integers, like IndexVector entries
    box = TruncationBox((np.int64(3),))
    assert box == TruncationBox((3,)) and type(box.exponents[0]) is int
    for bad in ((3.0,), (2, np.float64(1.0))):
        with pytest.raises(ValueError):
            TruncationBox(bad)
    with pytest.raises(DimensionMismatch):
        TruncationBox(())
