"""One integer rule for every public integer argument.

Bases, digits, indices, counts, starts, prefix sizes, depths, box exponents
and the block-weight index all go through ``operator.index``: a numpy
integer gives the same result as the Python int, and a float or a str is
rejected with a DiaphonyError, which is also a ValueError.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiaphony import (
    BaseTooLarge,
    DiaphonyError,
    DigitVector,
    DimensionMismatch,
    DuplicateBase,
    IndexVector,
    PointSet,
    PrimeBases,
    TruncationBox,
    block_weight,
    block_weight_product,
    default_depth,
    diaphony_kernel,
    diaphony_kernel_prefixes,
    float_to_digits,
    halton_diaphony_bound,
    halton_diaphony_prefixes,
    halton_point,
    halton_set,
    halton_stream,
    is_prime,
    monna,
    monna_inverse,
    point_from_values,
    validate_bases,
    verify_weyl_bound,
    weyl_sum_bound,
)

B23 = PrimeBases((2, 3))
B2 = PrimeBases((2,))

# name -> (call of one integer argument, a valid Python int for it)
INTEGER_ARGUMENTS = {
    "PrimeBases base": (lambda v: PrimeBases((2, v)), 3),
    "validate_bases base": (lambda v: validate_bases([v, 2]), 5),
    "DigitVector base": (lambda v: DigitVector(v, (1, 2)), 3),
    "monna base": (lambda v: monna(11, v), 3),
    "float_to_digits base": (lambda v: float_to_digits(0.3, v), 5),
    "block_weight base": (lambda v: block_weight(10, v), 3),
    "is_prime n": (is_prime, 7),
    "default_depth base": (default_depth, 3),
    "DigitVector digit": (lambda v: DigitVector(3, (1, v)), 2),
    "monna index": (lambda v: monna(v, 3), 11),
    "halton_point index": (lambda v: halton_point(v, B23), 7),
    "IndexVector index": (lambda v: IndexVector((v, 1)), 4),
    "block_weight index": (lambda v: block_weight(v, 2), 5),
    "halton_stream count": (lambda v: list(halton_stream(v, B23)), 6),
    "halton_set count": (lambda v: [m.tolist() for m in halton_set(v, B23).digits], 6),
    "halton_diaphony_bound count": (lambda v: halton_diaphony_bound(B23, v), 6),
    "verify_weyl_bound count": (lambda v: verify_weyl_bound(v, B23, TruncationBox((2, 1))), 6),
    "halton_stream start": (lambda v: list(halton_stream(3, B23, v)), 9),
    "halton_set start": (lambda v: [m.tolist() for m in halton_set(3, B23, v).digits], 9),
    "halton_diaphony_prefixes start": (lambda v: halton_diaphony_prefixes(B23, [5], v), 9),
    "halton_diaphony_prefixes size": (lambda v: halton_diaphony_prefixes(B23, [v, 2]), 5),
    "diaphony_kernel_prefixes size": (
        lambda v: diaphony_kernel_prefixes(halton_set(8, B23), B23, [v]), 5),
    "float_to_digits depth": (lambda v: float_to_digits(0.3, 3, v), 4),
    "TruncationBox exponent": (lambda v: TruncationBox((v, 2)), 3),
}

NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64)


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_every_integer_argument_follows_one_rule(name, data):
    call, good = INTEGER_ARGUMENTS[name]
    bad = [
        float(good),
        good + 0.5,
        str(good),
        data.draw(st.floats(), label="float"),
        data.draw(st.text(max_size=4), label="str"),
    ]
    for value in bad:
        with pytest.raises(DiaphonyError, match="is not an integer"):
            call(value)
    numpy_type = data.draw(st.sampled_from(NUMPY_INTEGERS), label="numpy type")
    # repr, not ==: np.int64(3) == 3, but a result must hold the Python int
    assert repr(call(numpy_type(good))) == repr(call(good))


def test_the_calls_that_broke_the_rule():
    assert validate_bases(np.array([2, 3])) == B23
    assert DigitVector(2, (np.int64(1),)) == DigitVector(2, (1,))
    for call in (
        lambda: float_to_digits(0.5, 2, 2.5),
        lambda: halton_point("3", B23),
        lambda: block_weight(2.5, 2),
    ):
        with pytest.raises(DiaphonyError, match="is not an integer"):
            call()
    # normalized before the size check, so never handed to the primality test
    with pytest.raises(BaseTooLarge):
        PrimeBases((np.uint64(2**64 - 59),))


def test_every_rejection_is_a_diaphony_error_and_a_value_error():
    assert issubclass(DiaphonyError, ValueError)
    pts = [point_from_values([0.5], B2)]
    for call in (
        lambda: halton_stream(0, B2),
        lambda: halton_point(-1, B2),
        lambda: block_weight(-1, 2),
        lambda: TruncationBox((0,)),
        lambda: DigitVector(2, (2,)),
        lambda: halton_diaphony_prefixes(B2, []),
        # bases that are not PrimeBases, and arguments of the wrong kind,
        # are rejected when the function is called, not on first use
        lambda: halton_stream(3, (2,)),
        lambda: halton_set(3, (2,)),
        lambda: halton_point(3, (2,)),
        lambda: point_from_values([0.5], (2,)),
        lambda: PointSet.from_points(pts, (2,)),
        lambda: PointSet.from_points(halton_set(2, B2), (2,)),
        lambda: diaphony_kernel(pts, (2,)),
        lambda: diaphony_kernel(pts, (2,), mode="exact"),
        lambda: halton_diaphony_prefixes((2,), [1]),
        lambda: halton_diaphony_bound((2,), 4),
        lambda: weyl_sum_bound(IndexVector((1,)), (2,)),
        lambda: verify_weyl_bound(4, (2,), TruncationBox((2,))),
        lambda: point_from_values(0.5, B2),
        lambda: monna_inverse(5),
    ):
        with pytest.raises(DiaphonyError):
            call()
    # Halton generation needs pairwise-distinct bases, as the bounds do
    twice = PrimeBases((2, 3, 2))
    for call in (
        lambda: halton_stream(3, twice),
        lambda: halton_set(3, twice),
        lambda: halton_point(3, twice),
        lambda: halton_diaphony_bound(twice, 4),
    ):
        with pytest.raises(DuplicateBase):
            call()


def test_one_dimension_check_words_every_mismatch():
    with pytest.raises(DimensionMismatch, match="index dimension 1 != bases dimension 2"):
        block_weight_product(IndexVector((1,)), B23)
    with pytest.raises(DimensionMismatch, match="value dimension 1 != bases dimension 2"):
        point_from_values([0.5], B23)
