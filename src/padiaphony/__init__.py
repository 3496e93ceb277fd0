"""Exact Halton sequences and the diaphony of point sets over p-adic
function systems: closed-form kernel evaluation, truncated spectral sums
with rigorous tails, worst-case integration error, and sequence bounds."""

from .diaphony import (
    ENUMERATION_CAP,
    RATIO_TOLERANCE,
    BoundReport,
    DiaphonyReport,
    WeylCheckReport,
    diaphony_kernel,
    diaphony_kernel_prefixes,
    diaphony_spectral,
    distance_to_nearest_integer,
    enclosure_grid,
    halton_diaphony_bound,
    halton_diaphony_prefixes,
    spectral_tail,
    truncated_spectral_sum,
    verify_weyl_bound,
    weyl_sum,
    weyl_sum_bound,
    weyl_sum_table,
    worst_case_error,
)
from .errors import (
    BaseMismatch,
    BaseTooLarge,
    BoxTooLarge,
    CountOverflow,
    DiaphonyError,
    DimensionMismatch,
    DuplicateBase,
    EmptyBases,
    NonPrimeBase,
    OutOfUnitInterval,
    SegmentTooLarge,
    ZeroIndex,
)
from .halton import MAX_INDEX, halton_point, halton_set, halton_stream, validate_bases
from .kernel import centered_kernel_1d, kernel_value
from .padic import (
    DigitVector,
    IndexVector,
    Point,
    PointSet,
    PrimeBases,
    char_phase_total,
    char_product,
    default_depth,
    float_to_digits,
    is_prime,
    monna,
    monna_inverse,
    padic_phase,
    phase_to_complex,
    point_from_values,
    walsh_phase,
)
from .weights import (
    TruncationBox,
    block_weight,
    block_weight_product,
    truncated_weight_mass,
    weight_mass,
)

__version__ = "0.1.0"
