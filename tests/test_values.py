"""Value semantics of the package's record classes: immutable fields, equality
and hashing by class and fields, and the checks their constructors run."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from kirwan.cohomology import EquivariantClass, Subspace, ValidationReport
from kirwan.errors import Frozen
from kirwan.exactmath import MatrixQ
from kirwan.generators import gen_cpn
from kirwan.kernels import BMatrixReport, KernelReport, PairingMatrix
from kirwan.momentdata import CutLevel, FixedPoint, ManifoldData


def _kernel_report(degree):
    s = Subspace(degree, ("p0", "p1"), ((1, -2),))
    return KernelReport(CutLevel(Fraction(1, 2)), degree, s, s, s, s, True, 1, witness=None)


def _manifold(name):
    m = gen_cpn([0, 1, 2])
    return ManifoldData(name, m.n, m.orientation_direction, m.fixed_points, m.alpha_minus)


# each maker builds a fresh value from its argument; a different argument
# gives a value that differs in one field
MAKERS = {
    "FixedPoint": lambda x: FixedPoint(f"p{x}", Fraction(x, 3), (1, -2)),
    "CutLevel": lambda x: CutLevel(Fraction(x, 3)),
    "ManifoldData": lambda x: _manifold(f"CP2-{x}"),
    "MatrixQ": lambda x: MatrixQ(2, 2, (Fraction(x), 0, 0, 1)),
    "EquivariantClass": lambda x: EquivariantClass(2, (Fraction(x), Fraction(0))),
    "Subspace": lambda x: Subspace(x, ("p0", "p1"), ((1, -2),)),
    "KernelReport": _kernel_report,
    "PairingMatrix": lambda x: PairingMatrix(
        CutLevel(Fraction(1, 2)), x, ("p0",), ("p1",), MatrixQ(1, 1, (Fraction(x),))
    ),
    "BMatrixReport": lambda x: BMatrixReport(
        CutLevel(Fraction(-1)), x, (), MatrixQ(0, 0, ()), (), True, True, ()
    ),
    "ValidationReport": lambda x: ValidationReport((f"alpha_minus[p{x}][p{x}] = 0",)),
}


@pytest.mark.parametrize("kind", MAKERS)
def test_constructor_takes_each_field_once_by_position_or_keyword(kind):
    value = MAKERS[kind](2)
    cls, fields, values = type(value), value._fields, value._values()
    named = dict(zip(fields, values))
    for k in range(len(fields) + 1):  # the first k by position, the rest by keyword
        assert cls(*values[:k], **dict(zip(fields[k:], values[k:]))) == value
    assert cls(**dict(reversed(named.items()))) == value
    calls = [
        ((), {f: v for f, v in named.items() if f != fields[0]}),  # missing
        ((*values, values[0]), {}),  # extra
        (values, {"extra": values[0]}),
        (values[:1], named),  # duplicate
    ]
    if cls.__init__ is Frozen.__init__:  # every field is required
        calls += [(values[:-1], {})]
        calls += [((), {f: v for f, v in named.items() if f != field}) for field in fields]
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("kind", MAKERS)
def test_fields_cannot_be_assigned_or_deleted(kind):
    value = MAKERS[kind](2)
    for field in value._fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("kind", MAKERS)
def test_equal_fields_mean_equal_values_and_hashes(kind):
    a, b, other = MAKERS[kind](2), MAKERS[kind](2), MAKERS[kind](4)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2
    assert repr(a).startswith(f"{kind}(")


@pytest.mark.parametrize("kind", MAKERS)
def test_copies_and_pickles_are_equal_values(kind):
    value = MAKERS[kind](2)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value


@pytest.mark.parametrize("kind", MAKERS)
def test_another_class_with_equal_fields_is_unequal(kind):
    value = MAKERS[kind](2)
    cls = type(value)
    twin_cls = type(kind, (Frozen,), {"__slots__": cls.__slots__, "__init__": cls.__init__})
    twin = twin_cls(*(getattr(value, f) for f in value._fields))
    assert twin._fields == value._fields
    assert value != twin and twin != value
    assert not value == twin


def test_manifold_equality_ignores_derived_members():
    a, b = _manifold("CP2"), _manifold("CP2")
    a.integer_alpha_minus  # cached on first use, in a's __dict__ only
    assert "integer_alpha_minus" in a.__dict__ and "integer_alpha_minus" not in b.__dict__
    b.__dict__["morse_indices"] = ()
    b.__dict__["_position"] = {}
    assert a == b and hash(a) == hash(b)
    assert a._fields == (
        "name", "n", "orientation_direction", "fixed_points", "alpha_minus", "alpha_plus"
    )
    assert _manifold("CP2").morse_indices == (0, 2, 4)
    assert _manifold("CP2").position("p2") == 2


@pytest.mark.parametrize(
    "rows, cols, entries, message",
    [
        (-1, 0, (), "nonnegative"),
        (0, -2, (), "nonnegative"),
        (2, 2, (1, 2, 3), "expected 4 entries, got 3"),
        (1, 2, (1, 2, 3), "expected 2 entries, got 3"),
    ],
)
def test_matrix_rejects_bad_dimensions(rows, cols, entries, message):
    with pytest.raises(ValueError, match=message):
        MatrixQ(rows, cols, entries)
