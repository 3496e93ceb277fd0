"""Exact base-p digit arithmetic and the character systems built on it.

Point coordinates live in [0, 1) as finite digit expansions over a prime
base, so character evaluations reduce to modular integer arithmetic and
come out as exact rational phases.  Floating point enters only when a
phase is finally converted to a complex number.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import (
    BaseMismatch,
    DimensionMismatch,
    DuplicateBase,
    EmptyBases,
    NonPrimeBase,
    OutOfUnitInterval,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DigitVector",
    "Point",
    "PointSet",
    "PrimeBases",
    "IndexVector",
    "is_prime",
    "monna",
    "monna_inverse",
    "float_to_digits",
    "default_depth",
    "padic_phase",
    "walsh_phase",
    "char_phase_total",
    "char_product",
    "phase_to_complex",
    "point_from_values",
]


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality test; cached because bases repeat heavily."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _require_prime(p) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise NonPrimeBase(p)


def _as_int(value, what: str) -> int:
    """``value`` as a Python int (``operator.index``); anything else raises
    ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


@dataclass(frozen=True)
class DigitVector:
    """A coordinate in [0, 1) as a finite base-p expansion.

    ``digits[j-1]`` is the coefficient of ``base**-j``.  Trailing zeros are
    trimmed on construction, so the empty tuple is the unique representation
    of 0 and equality of values is structural equality of fields.
    """

    base: int
    digits: tuple[int, ...] = ()

    def __post_init__(self):
        _require_prime(self.base)
        digits = tuple(self.digits)
        while digits and digits[-1] == 0:
            digits = digits[:-1]
        for d in digits:
            if not isinstance(d, int) or not 0 <= d < self.base:
                raise ValueError(f"digit {d!r} out of range for base {self.base}")
        object.__setattr__(self, "digits", digits)

    @classmethod
    def _trusted(cls, base: int, digits: list[int]) -> DigitVector:
        """A DigitVector from a prime base and a list of digits already in
        range, for digits valid by construction: trailing zeros are popped
        off the list, and the public constructor's checks are skipped."""
        while digits and not digits[-1]:
            digits.pop()
        out = object.__new__(cls)
        object.__setattr__(out, "base", base)
        object.__setattr__(out, "digits", tuple(digits))
        return out

    def digit(self, j: int) -> int:
        """The j-th digit, 1-indexed; positions past the expansion are 0."""
        if j < 1:
            raise ValueError("digit positions are 1-indexed")
        return self.digits[j - 1] if j <= len(self.digits) else 0

    def value(self) -> Fraction:
        """Exact value sum_j digits[j] * base**-j, in [0, 1)."""
        num = 0
        for d in self.digits:
            num = num * self.base + d
        return Fraction(num, self.base ** len(self.digits))


@dataclass(frozen=True)
class Point:
    """An s-dimensional point; coordinate i is a DigitVector in its own base."""

    coords: tuple[DigitVector, ...]

    def __post_init__(self):
        coords = tuple(self.coords)
        if not coords:
            raise DimensionMismatch("a point needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def values(self) -> tuple[Fraction, ...]:
        return tuple(c.value() for c in self.coords)


@dataclass(frozen=True)
class PrimeBases:
    """Per-dimension prime bases.

    Construction checks primality only; operations that require pairwise
    distinct bases (Halton generation, the sequence bounds) check
    distinctness themselves via :meth:`require_distinct`.
    """

    primes: tuple[int, ...]

    def __post_init__(self):
        primes = tuple(self.primes)
        if not primes:
            raise EmptyBases()
        for p in primes:
            _require_prime(p)
        object.__setattr__(self, "primes", primes)

    @property
    def dimension(self) -> int:
        return len(self.primes)

    def require_distinct(self) -> None:
        seen = set()
        for p in self.primes:
            if p in seen:
                raise DuplicateBase(p)
            seen.add(p)


def _require_bases(ps: PointSet, bases: PrimeBases) -> None:
    if ps.bases != bases:
        raise BaseMismatch(f"point set bases {ps.bases.primes} != {bases.primes}")


def _point_list(points, bases: PrimeBases) -> list[Point]:
    """The points as a list, each checked against the bases.  A PointSet in
    these bases becomes one Point per digit row."""
    if isinstance(points, PointSet):
        _require_bases(points, bases)
        rows = zip(*(m.tolist() for m in points.digits))
        return [
            Point(tuple(map(DigitVector._trusted, bases.primes, row))) for row in rows
        ]
    pts = list(points)
    for pt in pts:
        if pt.dimension != bases.dimension:
            raise DimensionMismatch(
                f"point dimension {pt.dimension} != bases dimension {bases.dimension}"
            )
        for c, p in zip(pt.coords, bases.primes):
            if c.base != p:
                raise BaseMismatch(f"coordinate base {c.base} does not match {p}")
    return pts


@dataclass(frozen=True, eq=False)
class PointSet:
    """N points in the unit cube as digit arrays, one matrix per dimension.

    ``digits[i]`` is an ``(N, depth_i)`` int64 matrix whose column j holds
    each point's coefficient of ``p_i**-(j+1)``, zero-padded; depth_i >= 1.
    Digits rather than reflected integers X = monna_inverse(x): at the
    default ingest depth X can pass int64 for bases above 1024 (65537 needs
    64 bits), and the kernel route compares digit columns anyway.
    """

    bases: PrimeBases
    digits: tuple[np.ndarray, ...]

    def __post_init__(self):
        import numpy as np

        digits = tuple(self.digits)
        if len(digits) != self.bases.dimension:
            raise DimensionMismatch(
                f"{len(digits)} digit matrices for {self.bases.dimension} bases"
            )
        for m, p in zip(digits, self.bases.primes):
            if m.dtype != np.int64 or m.ndim != 2 or m.shape[1] < 1:
                raise ValueError("digit matrices must be 2-d int64 with a column")
            if m.shape[0] != digits[0].shape[0] or m.shape[0] < 1:
                raise ValueError("digit matrices must share a positive row count")
            if m.min() < 0 or m.max() >= p:
                raise ValueError(f"digit out of range for base {p}")
        object.__setattr__(self, "digits", digits)

    def __len__(self) -> int:
        return self.digits[0].shape[0]

    @classmethod
    def from_points(cls, points, bases: PrimeBases) -> PointSet:
        """The digit arrays of a nonempty iterable of Points in these bases."""
        import numpy as np

        pts = _point_list(points, bases)
        if not pts:
            raise ValueError("at least one point is required")
        mats = []
        for i in range(bases.dimension):
            rows = [pt.coords[i].digits for pt in pts]
            depth = max(1, max(map(len, rows)))
            padded = itertools.chain.from_iterable(
                row + (0,) * (depth - len(row)) for row in rows
            )
            mats.append(
                np.fromiter(padded, np.int64, len(rows) * depth).reshape(-1, depth)
            )
        return cls(bases, tuple(mats))


@dataclass(frozen=True)
class IndexVector:
    """A vector of nonnegative character indices, one per dimension."""

    indices: tuple[int, ...]

    def __post_init__(self):
        indices = tuple(self.indices)
        if not indices:
            raise DimensionMismatch("an index vector needs at least one entry")
        for k in indices:
            if not isinstance(k, int) or k < 0:
                raise ValueError(f"index {k!r} must be a nonnegative integer")
        object.__setattr__(self, "indices", indices)

    @property
    def dimension(self) -> int:
        return len(self.indices)

    @property
    def is_zero(self) -> bool:
        return all(k == 0 for k in self.indices)


def monna(n: int, p: int) -> DigitVector:
    """Reflect n's base-p expansion across the radix point (radical inverse).

    n = sum_r z_r p**r maps to the coordinate sum_r z_r p**(-r-1).
    """
    _require_prime(p)
    n = _as_int(n, "index")
    if n < 0:
        raise ValueError("n must be nonnegative")
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return DigitVector._trusted(p, digits)


def monna_inverse(x: DigitVector) -> int:
    """Reflect a finite expansion back to the integer sum_j d_j base**(j-1)."""
    n = 0
    for d in reversed(x.digits):
        n = n * x.base + d
    return n


@lru_cache(maxsize=None)
def default_depth(p: int) -> int:
    """Smallest m with p**m >= 2**53, capturing a double's full mantissa."""
    m, q = 1, p
    while q < 2**53:
        q *= p
        m += 1
    return m


def float_to_digits(x, p: int, depth: int | None = None) -> DigitVector:
    """Truncating base-p expansion of a real x in [0, 1): d_j = floor(x*p**j) mod p.

    x may be a float (converted exactly, no decimal reinterpretation) or a
    Fraction/int.  Truncation is toward zero, never rounded, so the result is
    deterministic in the input bits.  The digits are peeled off the one
    integer floor(x * p**depth); a float gives its exact ratio num / den
    (den a power of two) through ``as_integer_ratio``, other inputs through
    ``Fraction``.
    """
    _require_prime(p)
    if depth is None:
        depth = default_depth(p)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if isinstance(x, float):
        if not 0 <= x < 1:  # false for nan too
            raise OutOfUnitInterval(x)
        num, den = x.as_integer_ratio()
    else:
        try:
            q = Fraction(x)
        except (ValueError, OverflowError) as exc:  # nan / inf
            raise OutOfUnitInterval(x) from exc
        if not 0 <= q < 1:
            raise OutOfUnitInterval(x)
        num, den = q.numerator, q.denominator
    scaled = num * p**depth // den
    digits = [0] * depth
    for j in range(depth - 1, -1, -1):
        scaled, digits[j] = divmod(scaled, p)
    return DigitVector._trusted(p, digits)


def padic_phase(k: int, x: DigitVector) -> Fraction:
    """Exact phase in [0, 1) of the k-th p-adic character at x.

    The phase is phi_p(k) * monna_inverse(x) mod 1, with phi_p(k) =
    monna(k, p) the reflected index.  When k has a + 1 base-p digits,
    phi_p(k) has denominator p**(a+1), so only the first a + 1 digits of x
    can influence the result.
    """
    return monna(k, x.base).value() * monna_inverse(x) % 1


def walsh_phase(k: int, x: DigitVector) -> Fraction:
    """Exact phase in [0, 1) of the k-th base-p Walsh function at x.

    With k's base-p digits kappa_0, ..., kappa_a the phase is
    (sum_r kappa_r * x_{r+1} mod p) / p.
    """
    p = x.base
    total = sum(kr * x.digit(j) for j, kr in enumerate(monna(k, p).digits, start=1))
    return Fraction(total % p, p)


def phase_to_complex(q: Fraction | float) -> complex:
    """e^(2*pi*i*q); the single place where phases become floating point."""
    return cmath.exp(2j * math.pi * float(q))


def char_phase_total(
    k: IndexVector, x: Point, bases: PrimeBases, phase_fn=padic_phase
) -> Fraction:
    """Exact total phase of the s-dimensional character: coordinate phases mod 1."""
    if k.dimension != bases.dimension:
        raise DimensionMismatch(
            f"index dimension {k.dimension} != bases dimension {bases.dimension}"
        )
    _point_list((x,), bases)
    phases = (phase_fn(ki, xi) for ki, xi in zip(k.indices, x.coords))
    return sum(phases, Fraction(0)) % 1


def char_product(
    k: IndexVector, x: Point, bases: PrimeBases, phase_fn=padic_phase
) -> complex:
    """Value of the s-dimensional character: the product of coordinate values."""
    return phase_to_complex(char_phase_total(k, x, bases, phase_fn))


def point_from_values(values, bases: PrimeBases, depth: int | None = None) -> Point:
    """Ingest real coordinates into an exact Point, one expansion per base."""
    vals = list(values)
    if len(vals) != bases.dimension:
        raise DimensionMismatch(
            f"{len(vals)} coordinates for {bases.dimension} bases"
        )
    return Point(
        tuple(float_to_digits(v, p, depth) for v, p in zip(vals, bases.primes))
    )
