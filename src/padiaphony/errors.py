"""Exception types shared across the package."""


class DiaphonyError(ValueError):
    """Base class for all errors raised by this package: every rejected
    argument, so callers catching ValueError see them too."""


class NonPrimeBase(DiaphonyError):
    """A base that must be prime is not."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"base {value!r} is not a prime number")


class BaseTooLarge(DiaphonyError):
    """A base past the largest that int64 digit matrices hold."""

    def __init__(self, value, cap):
        self.value = value
        self.cap = cap
        super().__init__(f"base {value} exceeds {cap}, the largest supported base")


class DuplicateBase(DiaphonyError):
    """Pairwise-distinct prime bases were required but a base repeats."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"base {value} appears more than once")


class EmptyBases(DiaphonyError):
    """A nonempty list of bases was required."""

    def __init__(self):
        super().__init__("at least one base is required")


class OutOfUnitInterval(DiaphonyError):
    """A coordinate lies outside [0, 1)."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"value {value!r} is not in [0, 1)")


class DimensionMismatch(DiaphonyError):
    """Vectors that must share a dimension do not."""


class BaseMismatch(DiaphonyError):
    """Digit vectors that must share a base do not."""


class CountOverflow(DiaphonyError):
    """A requested index range exceeds the supported 64-bit index space."""


class BoxTooLarge(DiaphonyError):
    """A truncation box enumerates more indices than the cap; the message
    names the exponents, never the size prod p**g, which may be too large."""

    def __init__(self, exponents, cap):
        self.exponents = exponents
        self.cap = cap
        super().__init__(f"box {exponents} enumerates more indices than the cap {cap}")


class SegmentTooLarge(DiaphonyError):
    """A point segment's digit matrices would hold more int64 cells than
    the cap; raised before anything is allocated."""

    def __init__(self, count, cap):
        self.count = count
        self.cap = cap
        super().__init__(f"{count} points need more digit cells than the cap {cap}")


class ZeroIndex(DiaphonyError):
    """The all-zero index vector is not admissible here."""

    def __init__(self):
        super().__init__("the zero index vector is excluded")
