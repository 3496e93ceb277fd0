"""Closed form of the reproducing kernel underlying the diaphony.

In one coordinate the kernel is 1 + c_p(x, y) = (p + 1)(1 - p**-t), where t
is the number of leading digits x and y share, and p + 1 when x = y.  The
s-dimensional kernel is the product over coordinates, so it is
sigma * prod_i (1 - p_i**-t_i) with sigma = prod_i (p_i + 1), and it is zero
unless the points share a first-digit cell (``_first_digit_cell``).  It is
discontinuous where an expansion changes, so everything is evaluated on
exact digit vectors.  ``kernel_value`` holds the one implementation of this
rule; ``centered_kernel_1d`` is its one-coordinate case minus 1.
"""

from __future__ import annotations

from fractions import Fraction

from .core import PrimeBases
from .errors import BaseMismatch, DiaphonyError, DimensionMismatch
from .padic import DigitVector, Point

__all__ = ["centered_kernel_1d", "kernel_value"]

_ZERO = Fraction(0)


def _shared_digits(x: DigitVector, y: DigitVector) -> int | None:
    """The number of leading digits x and y share, or None when x = y.

    Digit vectors are canonical (trailing zeros trimmed), so equal values
    have equal digit tuples; when one tuple is a proper prefix of the other,
    the shorter reads as zero past its end, up to the longer one's next
    nonzero digit.
    """
    a, b = x.digits, y.digits
    if a == b:
        return None
    for t, (u, v) in enumerate(zip(a, b)):
        if u != v:
            return t
    longer = a if len(a) > len(b) else b
    t = min(len(a), len(b))
    while not longer[t]:
        t += 1
    return t


def _first_digit_cell(x: Point) -> tuple[int, ...]:
    """Each coordinate's first digit; an expansion with no digits (the
    value 0) reads as 0, since it shares its first digit with every
    expansion that starts with 0.

    ``kernel_value(x, y)`` is 0 whenever x and y lie in different cells: a
    coordinate whose first digits differ shares no digit, t = 0, and its
    factor (p + 1)(1 - p**0) is 0.  Within a cell every factor is positive.
    """
    return tuple(c.digits[0] if c.digits else 0 for c in x.coords)


def centered_kernel_1d(x: DigitVector, y: DigitVector) -> Fraction:
    """The one-dimensional kernel minus its constant term, exactly.

    Returns p when x = y, and p - (p + 1) * p**-t otherwise, where t is the
    number of leading digits x and y share (positions past either expansion
    read as zero): ``kernel_value`` on the one-coordinate points in x's
    base, minus 1, so a y in another base raises its BaseMismatch.
    """
    for v in (x, y):
        if not isinstance(v, DigitVector):
            raise DiaphonyError(f"coordinates must be DigitVectors, not {type(v).__name__}")
    return kernel_value(Point((x,)), Point((y,)), PrimeBases((x.base,))) - 1


def kernel_value(x: Point, y: Point, bases: PrimeBases) -> Fraction:
    """The s-dimensional kernel: exact product over coordinates of 1 + c.

    Each factor is (p + 1)(p**t - 1) / p**t, or p + 1 for equal coordinates;
    the integer numerators and denominators are multiplied and one Fraction
    is built at the end.  A coordinate sharing no digit gives 0 at once,
    as one shared Fraction.
    """
    for v in (x, y):
        if not isinstance(v, Point):
            raise DiaphonyError(f"points must be Points, not {type(v).__name__}")
    if not (len(x.coords) == len(y.coords) == len(bases.primes)):
        raise DimensionMismatch(
            f"points ({len(x.coords)}, {len(y.coords)}) and bases "
            f"({len(bases.primes)}) dimensions differ"
        )
    # every base is checked before a zero factor can return early
    for xi, yi, p in zip(x.coords, y.coords, bases.primes):
        if xi.base != p or yi.base != p:
            raise BaseMismatch(f"coordinate bases do not match declared base {p}")
    num = den = 1
    for xi, yi, p in zip(x.coords, y.coords, bases.primes):
        t = _shared_digits(xi, yi)
        if t is None:
            num *= p + 1
        elif t == 0:
            return _ZERO
        else:
            pt = p**t
            num *= (p + 1) * (pt - 1)
            den *= pt
    return Fraction(num, den)
