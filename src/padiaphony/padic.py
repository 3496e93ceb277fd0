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
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import (
    BaseMismatch,
    BaseTooLarge,
    DiaphonyError,
    DimensionMismatch,
    DuplicateBase,
    EmptyBases,
    NonPrimeBase,
    OutOfUnitInterval,
)

if TYPE_CHECKING:
    import numpy as np

    from .halton import HaltonSegment

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


# Miller-Rabin on these witnesses is exact below 318665857834031151167461
# (Sorenson and Webster, 2017), far above _MAX_BASE; past it, a True is a
# strong probable prime to all twelve.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Digit matrices are int64, so a base must be below 2**63.
_MAX_BASE = 2**63 - 1
# Entries kept by the per-base caches: bases repeat, so a few suffice, and
# a bound keeps many distinct calls from growing the cache without limit.
_CACHE_SIZE = 1024
# int() parses base-p text in C for p <= 36.  Outside the powers of 2 it
# refuses text longer than sys.get_int_max_str_digits(), which is 0 (no
# limit) or at least 640, so longer text is parsed 640 digits at a time.
# _TEXT_DIGIT maps text back to digit values, as float ingest reads base 2.
_DIGIT_TEXT = bytes.maketrans(bytes(range(36)), b"0123456789abcdefghijklmnopqrstuvwxyz")
_TEXT_DIGIT = bytes.maketrans(b"0123456789abcdefghijklmnopqrstuvwxyz", bytes(range(36)))
_TEXT_DIGITS = 640
# Rows that PointSet.from_points joins into one bytes buffer: the buffer and
# its row bytes are the packing's only transient, so it stays this small.
_PACK_ROWS = 256


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


def _digits_to_int(digits, p: int) -> int:
    """The integer with base-p digits ``digits``, most significant first.

    For p <= 36 the digits become base-p text in C and one ``int(text, p)``
    parses it, _TEXT_DIGITS digits at a time where the text is longer; a
    larger base, with few digits per coordinate, takes one Horner step per
    digit."""
    num = 0
    if p > 36:
        for d in digits:
            num = num * p + d
        return num
    text = bytes(digits).translate(_DIGIT_TEXT)
    if len(text) <= _TEXT_DIGITS:
        return int(text or b"0", p)
    for j in range(0, len(text), _TEXT_DIGITS):
        chunk = text[j : j + _TEXT_DIGITS]
        num = num * p ** len(chunk) + int(chunk, p)
    return num


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


class DigitVector(_Record):
    """A coordinate in [0, 1) as a finite base-p expansion.

    ``digits[j-1]`` is the coefficient of ``base**-j``.  Trailing zeros are
    trimmed on construction, so the empty tuple is the unique representation
    of 0 and equality of values is structural equality of fields.
    """

    __slots__ = ("base", "digits")

    def __init__(self, base: int, digits: tuple[int, ...] = ()):
        base = _require_prime(base)
        digits = [_as_int(d, "digit") for d in digits]
        while digits and digits[-1] == 0:
            digits.pop()
        for d in digits:
            if not 0 <= d < base:
                raise DiaphonyError(f"digit {d!r} out of range for base {base}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "digits", tuple(digits))

    # The hot record: a set of points hashes and compares it per coordinate,
    # and two slot reads beat a two-field attrgetter call on Python 3.11.
    def __eq__(self, other):
        if other.__class__ is not DigitVector:
            return NotImplemented
        return self.base == other.base and self.digits == other.digits

    def __hash__(self):
        return hash((self.base, self.digits))

    @staticmethod
    def _make(base: int, digits: tuple[int, ...]) -> DigitVector:
        """A DigitVector from a prime base and a tuple of Python-int digits
        in range with no trailing zero, for digits valid by construction:
        the public constructor's checks and trim are skipped."""
        out = _new(DigitVector)
        _set_base(out, base)
        _set_digits(out, digits)
        return out

    def digit(self, j: int) -> int:
        """The j-th digit, 1-indexed; positions past the expansion are 0."""
        if j < 1:
            raise DiaphonyError("digit positions are 1-indexed")
        return self.digits[j - 1] if j <= len(self.digits) else 0

    def value(self) -> Fraction:
        """Exact value sum_j digits[j] * base**-j, in [0, 1)."""
        return Fraction(_digits_to_int(self.digits, self.base), self.base ** len(self.digits))


class Point(_Record):
    """An s-dimensional point; coordinate i is a DigitVector in its own base."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[DigitVector, ...]):
        coords = tuple(coords)
        if not coords:
            raise DimensionMismatch("a point needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    @staticmethod
    def _make(coords: tuple[DigitVector, ...]) -> Point:
        """A Point from a nonempty tuple of DigitVectors, unchecked."""
        out = _new(Point)
        _set_coords(out, coords)
        return out

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def values(self) -> tuple[Fraction, ...]:
        return tuple(c.value() for c in self.coords)


# The slots' own setters, bound once: the unchecked constructors of the two
# hot records skip object.__setattr__'s lookup of each field by name.
_new = object.__new__
_set_base, _set_digits = DigitVector.base.__set__, DigitVector.digits.__set__
_set_coords = Point.coords.__set__


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


def _require_bases(ps: PointSet | HaltonSegment, bases: PrimeBases) -> None:
    if ps.bases != _require_prime_bases(bases):
        raise BaseMismatch(f"{type(ps).__name__} bases {ps.bases.primes} != {bases.primes}")


def _point_list(points, bases: PrimeBases) -> list[Point]:
    """The points as a nonempty list, each checked against the bases.  A
    PointSet in these bases becomes one Point per digit row; anything that
    is neither a PointSet nor an iterable of Points is rejected."""
    _require_prime_bases(bases)
    if isinstance(points, PointSet):
        _require_bases(points, bases)
        pts = []
        for row in zip(*(m.tolist() for m in points.digits)):
            coords = []
            for p, digits in zip(bases.primes, row):
                while digits and not digits[-1]:
                    digits.pop()
                coords.append(DigitVector._make(p, tuple(digits)))
            pts.append(Point._make(tuple(coords)))
        return pts
    try:
        items = iter(points)
    except TypeError:
        raise DiaphonyError(
            f"points must be a PointSet or an iterable of Points, not {type(points).__name__}"
        ) from None
    pts = list(items)
    if not pts:
        raise DiaphonyError("at least one point is required")
    for pt in pts:
        if not isinstance(pt, Point):
            raise DiaphonyError(f"points must be Points, not {type(pt).__name__}")
        _require_dimension("point", pt.dimension, bases)
        for c, p in zip(pt.coords, bases.primes):
            if c.base != p:
                raise BaseMismatch(f"coordinate base {c.base} does not match {p}")
    return pts


class PointSet(_Record):
    """N points in the unit cube as digit arrays, one matrix per dimension.

    ``digits[i]`` is an ``(N, depth_i)`` int64 matrix whose column j holds
    each point's coefficient of ``p_i**-(j+1)``, zero-padded; depth_i >= 1.
    Digits rather than reflected integers X = monna_inverse(x): at the
    default ingest depth X can pass int64 for bases above 1024 (65537 needs
    64 bits), and the kernel route compares digit columns anyway.
    """

    __slots__ = ("bases", "digits")
    # equal digit arrays are not compared: equality and hash are identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, bases: PrimeBases, digits: tuple[np.ndarray, ...]):
        import numpy as np

        digits = tuple(digits)
        _require_dimension("point set", len(digits), bases)
        for m, p in zip(digits, bases.primes):
            if m.dtype != np.int64 or m.ndim != 2 or m.shape[1] < 1:
                raise DiaphonyError("digit matrices must be 2-d int64 with a column")
            if m.shape[0] != digits[0].shape[0] or m.shape[0] < 1:
                raise DiaphonyError("digit matrices must share a positive row count")
            if m.min() < 0 or m.max() >= p:
                raise DiaphonyError(f"digit out of range for base {p}")
        self._set(bases, digits)

    def __len__(self) -> int:
        return self.digits[0].shape[0]

    @classmethod
    def from_points(cls, points, bases: PrimeBases) -> PointSet:
        """The digit arrays of a nonempty iterable of Points in these bases;
        a PointSet in these bases is returned as it is.

        Each coordinate's rows are zero-filled to its longest expansion.  In
        a base below 256 every row becomes bytes in C, and ``np.frombuffer``
        reads them _PACK_ROWS rows at a time into the digit matrix; a larger
        base's digits, which no byte holds, go through ``np.fromiter``."""
        if isinstance(points, PointSet):
            _require_bases(points, bases)
            return points
        import numpy as np

        pts = _point_list(points, bases)
        mats = []
        for i, p in enumerate(bases.primes):
            rows = [pt.coords[i].digits for pt in pts]
            depth = max(1, max(map(len, rows)))
            if p < 256:
                mat = np.empty(len(rows) * depth, np.int64)
                for k in range(0, len(rows), _PACK_ROWS):
                    block = b"".join(
                        [bytes(row).ljust(depth, b"\0") for row in rows[k : k + _PACK_ROWS]]
                    )
                    mat[k * depth : k * depth + len(block)] = np.frombuffer(block, np.uint8)
            else:
                padded = itertools.chain.from_iterable(
                    row + (0,) * (depth - len(row)) for row in rows
                )
                mat = np.fromiter(padded, np.int64, len(rows) * depth)
            mats.append(mat.reshape(-1, depth))
        return cls(bases, tuple(mats))


class IndexVector(_Record):
    """A vector of nonnegative character indices, one per dimension."""

    __slots__ = ("indices",)

    def __init__(self, indices: tuple[int, ...]):
        indices = tuple(_as_int(k, "index") for k in indices)
        if not indices:
            raise DimensionMismatch("an index vector needs at least one entry")
        if min(indices) < 0:
            raise DiaphonyError(f"index {min(indices)} must be a nonnegative integer")
        object.__setattr__(self, "indices", indices)

    @property
    def dimension(self) -> int:
        return len(self.indices)

    @property
    def is_zero(self) -> bool:
        return all(k == 0 for k in self.indices)


def monna(n: int, p: int) -> DigitVector:
    """Reflect n's base-p expansion across the radix point (radical inverse).

    n = sum_r z_r p**r maps to the coordinate sum_r z_r p**(-r-1).  The
    digits are peeled w at a time through the base's table of w-digit
    chunks (``_digit_chunks``); bases above 31 have no table and take one
    divmod per digit.
    """
    p = _require_prime(p)
    n = _as_int(n, "index")
    if n < 0:
        raise DiaphonyError(f"index {n} must be nonnegative")
    table = _digit_chunks(p)
    if table is not None:
        return DigitVector._make(p, tuple(_chunked_digits(n, table).rstrip(b"\0")))
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return DigitVector._make(p, tuple(digits))


def monna_inverse(x: DigitVector) -> int:
    """Reflect a finite expansion back to the integer sum_j d_j base**(j-1)."""
    if not isinstance(x, DigitVector):
        raise DiaphonyError(f"x must be a DigitVector, not {type(x).__name__}")
    return _digits_to_int(x.digits[::-1], x.base)


@lru_cache(maxsize=_CACHE_SIZE, typed=True)
def default_depth(p: int) -> int:
    """Smallest m with p**m >= 2**53, capturing a double's full mantissa:
    the number of base-p digits of 2**53 - 1."""
    return len(monna(2**53 - 1, p).digits)


# Entries of a digit table at most.  A base above 31 would get 1-digit
# chunks, one divmod per digit either way, so it has no table.
_CHUNK_LIMIT = 1024


@lru_cache(maxsize=_CACHE_SIZE)
def _digit_chunks(p: int) -> list[bytes] | None:
    """The table whose entry v holds the w base-p digits of v, least
    significant first, as bytes, for the chunk width w of prime p; None
    where p**2 > _CHUNK_LIMIT.  Built on first use, not at import."""
    w = 1
    while p ** (w + 1) <= _CHUNK_LIMIT:
        w += 1
    if w == 1:
        return None
    return [bytes(reversed(chunk)) for chunk in itertools.product(range(p), repeat=w)]


def _chunked_digits(n: int, table: list[bytes]) -> bytes:
    """The digits of n >= 0 in the table's base, least significant first,
    one divmod per chunk; the last chunk may end in zeros."""
    chunks = []
    while n:
        n, low = divmod(n, len(table))
        chunks.append(table[low])
    return b"".join(chunks)


@lru_cache(maxsize=_CACHE_SIZE)
def _ingest_plan(p: int) -> tuple[int, int, list[bytes] | None]:
    """(default_depth(p), p to that power, ``_digit_chunks(p)``) for an int
    p, once it is prime: the one cache call of a ``float_to_digits``."""
    depth = default_depth(_require_prime(p))
    return depth, p**depth, _digit_chunks(p)


def float_to_digits(x, p: int, depth: int | None = None) -> DigitVector:
    """Truncating base-p expansion of a real x in [0, 1): d_j = floor(x*p**j) mod p.

    x may be a float of any width, Python or numpy, or a ``Decimal``
    (converted exactly, no decimal reinterpretation), or a Fraction/int.
    Truncation is toward zero, never rounded, so the result is deterministic
    in the input bits.  The digits are those of the one integer
    floor(x * p**depth), zero-filled to ``depth``: base 2 reads them off its
    binary text, other bases up to 31 peel them w at a time through the
    base's digit table (``_digit_chunks``), and larger bases one divmod
    each.  The text and byte steps run in C, the trim of trailing zeros
    included.
    Every x gives its exact ratio num / den through its own
    ``as_integer_ratio`` where it has one, other inputs (numpy integers, for
    one) through ``Fraction``; nan and inf raise OutOfUnitInterval chained
    from the error the ratio raises.
    """
    p = _as_int(p, "base")
    default, scale, table = _ingest_plan(p)
    if depth is None:
        depth = default
    else:
        depth = _as_int(depth, "depth")
        if depth < 1:
            raise DiaphonyError("depth must be at least 1")
        scale = p**depth
    try:
        num, den = (x if hasattr(x, "as_integer_ratio") else Fraction(x)).as_integer_ratio()
    except (TypeError, ValueError, OverflowError) as exc:  # nan / inf / None
        raise OutOfUnitInterval(x) from exc
    if not 0 <= num < den:
        raise OutOfUnitInterval(x)
    scaled = num * scale // den
    if p == 2:
        text = format(scaled, "b").zfill(depth).rstrip("0")
        return DigitVector._make(2, tuple(text.encode().translate(_TEXT_DIGIT)))
    if table is not None:
        low_first = _chunked_digits(scaled, table).ljust(depth, b"\0")
        return DigitVector._make(p, tuple(low_first[depth - 1 :: -1].rstrip(b"\0")))
    low = monna(scaled, p).digits
    digits = [0] * (depth - len(low)) + list(reversed(low))
    while digits and not digits[-1]:
        digits.pop()
    return DigitVector._make(p, tuple(digits))


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
    _require_dimension("index", k.dimension, bases)
    _point_list((x,), bases)
    phases = (phase_fn(ki, xi) for ki, xi in zip(k.indices, x.coords))
    return sum(phases, Fraction(0)) % 1


def char_product(
    k: IndexVector, x: Point, bases: PrimeBases, phase_fn=padic_phase
) -> complex:
    """Value of the s-dimensional character: the product of coordinate values."""
    return phase_to_complex(char_phase_total(k, x, bases, phase_fn))


def point_from_values(values, bases: PrimeBases) -> Point:
    """Ingest real coordinates into an exact Point, one expansion per base,
    truncated at the base's ``default_depth``."""
    _require_prime_bases(bases)
    try:
        items = iter(values)
    except TypeError:
        raise DiaphonyError(
            f"values must be an iterable of reals, not {type(values).__name__}"
        ) from None
    vals = list(items)
    _require_dimension("value", len(vals), bases)
    return Point._make(tuple(map(float_to_digits, vals, bases.primes)))
