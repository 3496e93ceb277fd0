"""Value semantics of the package's nine immutable records.

Each record is built twice from equal fields, by keyword; the two must be
equal and hash equal, refuse assignment and deletion, differ from records
of other classes and from tuples of their fields, and survive pickle and
both copies.  ``PointSet`` alone compares by identity.
"""

import copy
import pickle

import numpy as np
import pytest

from padiaphony import (
    BoundReport,
    DiaphonyReport,
    DigitVector,
    IndexVector,
    Point,
    PointSet,
    PrimeBases,
    TruncationBox,
    WeylCheckReport,
)

# (class, keyword fields, the fields a bare construction leaves at their defaults)
RECORDS = [
    (DigitVector, {"base": 3, "digits": (1, 2)}, {"digits": ()}),
    (Point, {"coords": (DigitVector(2, (1,)), DigitVector(3))}, {}),
    (PrimeBases, {"primes": (2, 3)}, {}),
    (IndexVector, {"indices": (4, 0)}, {}),
    (TruncationBox, {"exponents": (2, 1)}, {}),
    (DiaphonyReport,
     {"n_points": 4, "f": 0.5, "f_squared": 0.25, "method": "spectral",
      "enclosure": (0.2, 0.3), "box": TruncationBox((2, 1))},
     {"enclosure": None, "box": None}),
    (BoundReport, {"c": 1.5, "d": 2.0, "bound_f_squared": 3.25}, {}),
    (WeylCheckReport,
     {"box": TruncationBox((2, 1)), "worst_ratio": 0.75,
      "worst_index": IndexVector((1, 2)), "violations": 0}, {}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _point_set():
    return PointSet(bases=PrimeBases((2, 3)),
                    digits=(np.array([[1], [0]]), np.array([[2, 1], [0, 0]])))


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_records_are_immutable_values(cls, fields, defaults):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != tuple(fields.values())
    for other, other_fields, _ in RECORDS:
        if other is not cls:
            assert a != other(**other_fields)
    for name, value in fields.items():
        assert getattr(a, name) == value
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    required = {k: v for k, v in fields.items() if k not in defaults}
    bare = cls(**required)
    assert {k: getattr(bare, k) for k in defaults} == defaults
    for missing in required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in required.items() if k != missing})
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is cls and twin == a and hash(twin) == hash(a)


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(cls, fields, defaults):
    args = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({args})"


def test_repr_is_pinned():
    assert repr(DigitVector(3, (1, 2))) == "DigitVector(base=3, digits=(1, 2))"
    assert repr(DiaphonyReport(4, 0.5, 0.25, "kernel")) == (
        "DiaphonyReport(n_points=4, f=0.5, f_squared=0.25, method='kernel', "
        "enclosure=None, box=None)"
    )


def test_point_set_compares_by_identity():
    ps, twin = _point_set(), _point_set()
    assert ps == ps and ps != twin and hash(ps) != hash(twin)
    assert len({ps, twin}) == 2
    with pytest.raises(AttributeError):
        ps.bases = PrimeBases((2, 3))
    with pytest.raises(AttributeError):
        del ps.digits
    with pytest.raises(TypeError):
        PointSet(bases=PrimeBases((2, 3)))
    assert repr(ps).startswith("PointSet(bases=PrimeBases(primes=(2, 3)), digits=(array(")
    for copied in (pickle.loads(pickle.dumps(ps)), copy.copy(ps), copy.deepcopy(ps)):
        assert type(copied) is PointSet and copied != ps
        assert copied.bases == ps.bases
        assert all(map(np.array_equal, copied.digits, ps.digits))
