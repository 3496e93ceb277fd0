"""The light core: prime bases, the package's argument checks and records,
and the Halton closed forms that need only the bases and N.

``halton_diaphony_prefixes``, ``halton_diaphony_bound`` and
``worst_case_error`` are what the CLI's ``bound``, ``sweep`` and kernel
``diaphony`` run, so this module imports only ``errors`` and four small
standard modules: no ``fractions``, no ``decimal`` (the bound and the
worst-case error import it in their overflow branches only) and no
numpy.  The other modules import these names from here.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import (
    BaseTooLarge,
    CountOverflow,
    DiaphonyError,
    DimensionMismatch,
    DuplicateBase,
    EmptyBases,
    NonPrimeBase,
)

if TYPE_CHECKING:
    from decimal import Decimal

    from .weights import TruncationBox

__all__ = [
    "MAX_INDEX",
    "PrimeBases",
    "is_prime",
    "validate_bases",
    "weight_mass",
    "DiaphonyReport",
    "BoundReport",
    "halton_diaphony_prefixes",
    "halton_diaphony_bound",
    "worst_case_error",
]

# Indices are confined to 64 bits; larger ranges are rejected, not wrapped.
MAX_INDEX = 2**63 - 1
# Miller-Rabin on these witnesses is exact below 318665857834031151167461
# (Sorenson and Webster, 2017), far above _MAX_BASE; past it, a True is a
# strong probable prime to all twelve.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Digit matrices are int64, so a base must be below 2**63.
_MAX_BASE = 2**63 - 1
# Entries kept by the per-base caches: bases repeat, so a few suffice, and
# a bound keeps many distinct calls from growing the cache without limit.
_CACHE_SIZE = 1024


@lru_cache(maxsize=_CACHE_SIZE, typed=True)  # typed: 7.0 must not hit the entry for 7
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test over _WITNESSES; cached
    because bases repeat heavily."""
    n = _as_int(n, "n")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _as_int(value, what: str) -> int:
    """``value`` as a Python int (``operator.index``, so numpy integers
    pass); anything else raises DiaphonyError.  The package's one integer
    test."""
    try:
        return operator.index(value)
    except TypeError:
        raise DiaphonyError(f"{what} {value!r} is not an integer") from None


def _require_prime(p) -> int:
    """p as a Python int, once it is a prime; the package's one prime test."""
    p = _as_int(p, "base")
    if not is_prime(p):
        raise NonPrimeBase(p)
    return p


def _require_dimension(what: str, n: int, bases: PrimeBases) -> None:
    """The one dimension check: ``what`` has dimension n, as the bases do."""
    if n != bases.dimension:
        raise DimensionMismatch(f"{what} dimension {n} != bases dimension {bases.dimension}")


class _Record:
    """Base of the package's immutable records.

    A subclass names its fields in ``__slots__``, in order, and its
    ``__init__`` checks them and sets each once, with ``object.__setattr__``
    or ``_set``.  Equality (same class only) and hash read the fields
    through the class's one ``operator.attrgetter``, repr and pickling by
    name; assigning or deleting an attribute raises AttributeError.  Slots
    rather than dataclasses, which load ``inspect`` and exec each class's
    generated methods at every import.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = operator.attrgetter(*cls.__slots__)

    def _set(self, *values) -> None:
        """Set the fields to the values, in order; for ``__init__`` only."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        args = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, k) for k in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PrimeBases(_Record):
    """Per-dimension prime bases.

    Construction checks primality only; operations that require pairwise
    distinct bases (Halton generation, the sequence bounds) check
    distinctness themselves via :meth:`require_distinct`.
    """

    __slots__ = ("primes",)

    def __init__(self, primes: tuple[int, ...]):
        primes = tuple(_as_int(p, "base") for p in primes)
        if not primes:
            raise EmptyBases()
        for p in primes:
            if p > _MAX_BASE:
                raise BaseTooLarge(p, _MAX_BASE)
        object.__setattr__(self, "primes", tuple(map(_require_prime, primes)))

    @property
    def dimension(self) -> int:
        return len(self.primes)

    def require_distinct(self) -> None:
        seen = set()
        for p in self.primes:
            if p in seen:
                raise DuplicateBase(p)
            seen.add(p)


def _require_prime_bases(bases) -> PrimeBases:
    """``bases`` itself, once it is a PrimeBases; the package's one type
    check of a bases argument, made before anything reads it."""
    if not isinstance(bases, PrimeBases):
        raise DiaphonyError(f"bases must be PrimeBases, not {type(bases).__name__}")
    return bases


def validate_bases(raw) -> PrimeBases:
    """Check a raw base list: nonempty, all prime, then pairwise distinct."""
    bases = PrimeBases(tuple(raw))
    bases.require_distinct()
    return bases


def _check_segment(count: int, start: int) -> tuple[int, int]:
    """(count, start) as Python ints, once both are in range."""
    count, start = _as_int(count, "count"), _as_int(start, "start")
    if count < 1:
        raise DiaphonyError("count must be at least 1")
    if start < 0:
        raise DiaphonyError("start must be nonnegative")
    if start + count - 1 > MAX_INDEX:
        raise CountOverflow(
            f"indices up to {start + count - 1} exceed the supported range"
        )
    return count, start


def weight_mass(bases: PrimeBases) -> int:
    """Total weight over all index vectors: prod_i (p_i + 1)."""
    out = 1
    for p in bases.primes:
        out *= p + 1
    return out


class DiaphonyReport(_Record):
    """Result of one diaphony computation.

    ``enclosure`` and ``box`` are populated by the spectral method only;
    there ``lower <= f_squared <= upper`` is guaranteed.
    """

    __slots__ = ("n_points", "f", "f_squared", "method", "enclosure", "box")

    def __init__(self, n_points: int, f: float, f_squared: float, method: str,
                 enclosure: tuple[float, float] | None = None, box: TruncationBox | None = None):
        self._set(n_points, f, f_squared, method, enclosure, box)


class BoundReport(_Record):
    """Constants and value of the asymptotic ceiling on the squared diaphony.

    ``c`` is a ``Decimal`` where no float holds it; ``d`` and
    ``bound_f_squared`` are always floats."""

    __slots__ = ("c", "d", "bound_f_squared")

    def __init__(self, c: float | Decimal, d: float, bound_f_squared: float):
        self._set(c, d, bound_f_squared)


def _kernel_report(n: int, pair_sum, sig: int, den: int = 1) -> DiaphonyReport:
    """Report from the exact kernel sum over all ordered pairs of n points,
    pair_sum / den: an int over den, or a Fraction.  The squared diaphony
    (pair_sum / den / n**2 - 1) / (sig - 1) is one quotient, rounded once:
    int / int true division is correctly rounded, as ``Fraction.__float__``
    is.  The exact value lies in [0, 1], so its float does too."""
    scale = den * n * n
    f_squared = float((pair_sum - scale) / (scale * (sig - 1)))
    return DiaphonyReport(n, math.sqrt(f_squared), f_squared, "kernel")


def _cell_moduli(primes: tuple[int, ...], limit: int) -> list[int]:
    """Every M = prod_i p_i**a_i <= limit with all a_i >= 1, ascending."""
    moduli = [1]
    rest = math.prod(primes)
    for p in primes:
        rest //= p
        cap = limit // rest  # leaves room for one factor of each later prime
        grown = []
        for m in moduli:
            m *= p
            while m <= cap:
                grown.append(m)
                m *= p
        moduli = grown
    return sorted(moduli)


def halton_diaphony_prefixes(
    bases: PrimeBases, prefix_sizes, start: int = 0
) -> list[DiaphonyReport]:
    """Kernel reports for prefixes of the Halton segment from ``start``, in
    closed form, without building a point.

    Every report equals ``diaphony_kernel_prefixes(halton_set(max(sizes),
    bases, start), bases, sizes)`` bitwise.  Coordinate i of the point with
    index n holds the base-p_i digits of n, so by CRT two indices share
    their first a_i digits in every coordinate exactly when n = m modulo
    M(a) = prod_i p_i**a_i.  The weight W(a) of that event is C / M(a) with
    C = prod_i (p_i**2 - 1), and among N consecutive indices, N = qM + r,
    q (N - M + r) ordered pairs of distinct indices agree modulo M.  So the
    kernel sum is N sigma + C sum_{M(a) <= N} q (N - M + r) / M, whatever
    the start; it is summed in integers over the common denominator
    lcm(M(a) <= max(sizes)), and rounded once per size.
    """
    _require_prime_bases(bases).require_distinct()
    sizes = [_as_int(n, "prefix size") for n in prefix_sizes]
    if not sizes or min(sizes) < 1:
        raise DiaphonyError("prefix sizes must be a nonempty list of positive integers")
    limit, start = _check_segment(max(sizes), start)
    moduli = _cell_moduli(bases.primes, limit)
    scale = math.lcm(*moduli)
    shares = [scale // m for m in moduli]
    sig = weight_mass(bases)
    c = math.prod(p * p - 1 for p in bases.primes)
    reports = []
    for n in sizes:
        total = 0
        for m, share in zip(moduli, shares):
            if m > n:
                break
            q, r = divmod(n, m)
            total += q * (n - m + r) * share
        reports.append(_kernel_report(n, n * sig * scale + c * total, sig, scale))
    return reports


def worst_case_error(report: DiaphonyReport, bases: PrimeBases) -> float:
    """Worst-case equal-weight integration error: sqrt(sigma - 1) * F.

    Where sigma - 1 passes the float range the root is taken in
    ``Decimal``; a value that no float holds raises DiaphonyError."""
    try:
        return math.sqrt(weight_mass(bases) - 1) * report.f
    except OverflowError:
        from decimal import Decimal

        error = float(Decimal(weight_mass(bases) - 1).sqrt() * Decimal(report.f))
        if error < math.inf:
            return error
    raise DiaphonyError("the worst-case error exceeds the float range")


def halton_diaphony_bound(bases: PrimeBases, n_points: int) -> BoundReport:
    """Ceiling on the squared diaphony of an N-point Halton prefix.

    bound = c * (ln N)**s / N**2 + d / N**2 with
    c = (1/(sigma - 1)) * (pi**2/3) * prod_j (1 + 2 p_j**2 / ln p_j) and
    d = 2 s max_i p_i, for N <= 2**63.  Natural logarithms throughout.
    The factors of the product stay below 2**123, but their product,
    sigma and c * (ln N)**s can pass the float range for large bases;
    there c and the bound are evaluated from the same factors in
    ``Decimal``.  ``c`` stays a ``Decimal`` where no float holds it, and
    a bound that no float holds raises DiaphonyError.
    """
    _require_prime_bases(bases).require_distinct()
    n_points = _as_int(n_points, "n_points")
    if n_points < 1:
        raise DiaphonyError("n_points must be at least 1")
    if n_points > MAX_INDEX + 1:
        raise CountOverflow("n_points exceeds 2**63, the supported 64-bit index space")
    sig = weight_mass(bases)
    s = bases.dimension
    factors = [1.0 + 2.0 * p * p / math.log(p) for p in bases.primes]
    d = float(2 * s * max(bases.primes))
    try:
        c = math.pi**2 / 3 * math.prod(factors) / (sig - 1)
        bound = (c * math.log(n_points) ** s + d) / n_points**2
        if math.isfinite(c) and math.isfinite(bound):
            return BoundReport(c, d, bound)
    except ArithmeticError:
        pass
    from decimal import Decimal  # only where a float step overflows

    try:
        c = Decimal(math.pi) ** 2 / 3 * math.prod(map(Decimal, factors)) / (sig - 1)
        bound = float((c * Decimal(math.log(n_points)) ** s + Decimal(d)) / n_points**2)
    except ArithmeticError:
        bound = math.inf
    if not math.isfinite(bound):
        raise DiaphonyError("the bound exceeds the float range")
    return BoundReport(float(c) if math.isfinite(float(c)) else c, d, bound)


# Each public name keeps as its __module__ the module that defined it before
# this one was split out, and that still re-exports it, so reprs, pickles
# and tools that group functions by module (the per-layer spans of
# perfbench/tracing.py) see what they saw before.
for _home, _objects in (
    ("padic", (PrimeBases, is_prime)),
    ("halton", (validate_bases,)),
    ("weights", (weight_mass,)),
    ("diaphony", (DiaphonyReport, BoundReport, halton_diaphony_prefixes,
                  halton_diaphony_bound, worst_case_error)),
):
    for _obj in _objects:
        _obj.__module__ = f"padiaphony.{_home}"
del _home, _objects, _obj
