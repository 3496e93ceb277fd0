"""Frequency weights of the diaphony and their normalization constants."""

from __future__ import annotations

from fractions import Fraction

from .errors import DiaphonyError, DimensionMismatch
from .padic import IndexVector, PrimeBases, _as_int, _Record, _require_dimension, monna

__all__ = [
    "TruncationBox",
    "block_weight",
    "block_weight_product",
    "weight_mass",
    "truncated_weight_mass",
]


class TruncationBox(_Record):
    """Per-dimension digit depths g; dimension i enumerates 0 <= k_i < p_i**g_i."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        exponents = tuple(_as_int(g, "box exponent") for g in exponents)
        if not exponents:
            raise DimensionMismatch("a truncation box needs at least one entry")
        for g in exponents:
            if g < 1:
                raise DiaphonyError(f"box exponent {g} must be a positive integer")
        object.__setattr__(self, "exponents", exponents)

    @property
    def dimension(self) -> int:
        return len(self.exponents)


def block_weight(k: int, p: int) -> Fraction:
    """Weight of index k in base p: 1 at k = 0, p**(-2t) on p**t <= k < p**(t+1).

    The block exponent t is one less than the number of k's base-p digits,
    read off ``monna`` (which checks p, then k), never a floating-point
    logarithm, so block boundaries are exact; k = 0 has no digits.
    """
    x = monna(k, p)
    return Fraction(1, x.base ** (2 * max(len(x.digits) - 1, 0)))


def block_weight_product(k: IndexVector, bases: PrimeBases) -> Fraction:
    """Product of per-coordinate weights."""
    _require_dimension("index", k.dimension, bases)
    out = Fraction(1)
    for ki, p in zip(k.indices, bases.primes):
        out *= block_weight(ki, p)
    return out


def weight_mass(bases: PrimeBases) -> int:
    """Total weight over all index vectors: prod_i (p_i + 1)."""
    out = 1
    for p in bases.primes:
        out *= p + 1
    return out


def truncated_weight_mass(bases: PrimeBases, box: TruncationBox) -> Fraction:
    """Weight inside the box: prod_i (p_i + 1 - p_i**(1 - g_i)), exactly."""
    _require_dimension("box", box.dimension, bases)
    out = Fraction(1)
    for p, g in zip(bases.primes, box.exponents):
        out *= p + 1 - Fraction(p, p**g)
    return out
