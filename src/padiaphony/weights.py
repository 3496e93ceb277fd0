"""Frequency weights of the diaphony and their normalization constants."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DiaphonyError, DimensionMismatch
from .padic import IndexVector, PrimeBases, _as_int, _require_dimension, _require_prime

__all__ = [
    "TruncationBox",
    "block_weight",
    "block_weight_product",
    "weight_mass",
    "truncated_weight_mass",
]


@dataclass(frozen=True)
class TruncationBox:
    """Per-dimension digit depths g; dimension i enumerates 0 <= k_i < p_i**g_i."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exponents = tuple(_as_int(g, "box exponent") for g in self.exponents)
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

    The block exponent t is found by repeated integer division, never by a
    floating-point logarithm, so block boundaries are exact.
    """
    p = _require_prime(p)
    k = _as_int(k, "index")
    if k < 0:
        raise DiaphonyError("index must be nonnegative")
    if k == 0:
        return Fraction(1)
    t = 0
    while k >= p:
        k //= p
        t += 1
    return Fraction(1, p ** (2 * t))


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
