from __future__ import annotations

import json
from fractions import Fraction

import pytest

from kirwan.errors import (
    NotRegularValue,
    ParseError,
    SchemaError,
    UnknownFixedPoint,
    ValidationError,
)
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.momentdata import (
    CutLevel,
    FixedPoint,
    index_census,
    load_manifold,
    manifold_to_json,
    morse_index,
    negative_euler_scalar,
    positive_euler_scalar,
    split_fixed_points,
)

CP1_DOC = {
    "name": "CP1[0,1]",
    "n": 1,
    "orientation_direction": 1,
    "fixed_points": [
        {"name": "p0", "moment": "0", "weights": [1]},
        {"name": "p1", "moment": "1", "weights": [-1]},
    ],
    "alpha_minus": {"p0": {"p0": "1", "p1": "1"}, "p1": {"p1": "-1"}},
    "alpha_plus": {"p0": {"p0": "1"}, "p1": {"p0": "1", "p1": "1"}},
}


def doc(**overrides):
    d = json.loads(json.dumps(CP1_DOC))
    d.update(overrides)
    return d


# --- loading ------------------------------------------------------------------


def test_load_cp1_document():
    m = load_manifold(json.dumps(CP1_DOC))
    assert m.n == 1
    assert [fp.name for fp in m.fixed_points] == ["p0", "p1"]
    assert m.fixed_points[0].moment == Fraction(0)
    assert m.fixed_points[1].weights == (-1,)
    assert m.alpha_minus_scalar("p1", "p0") == 0
    assert m.alpha_minus_scalar("p1", "p1") == -1


def test_load_sorts_fixed_points():
    d = doc()
    d["fixed_points"].reverse()
    m = load_manifold(d)
    assert [fp.name for fp in m.fixed_points] == ["p0", "p1"]


def test_load_rejects_malformed_json():
    # not JSON, bytes that are not UTF-8, nesting too deep for the parser
    for text in ("{not json", b"\x80{}", "[" * 100000):
        with pytest.raises(ParseError):
            load_manifold(text)


@pytest.mark.parametrize(
    "mutate,error",
    [
        (lambda d: d.pop("n"), SchemaError),
        (lambda d: d.update(extra=1), SchemaError),
        (lambda d: d.update(n="1"), SchemaError),
        (lambda d: d.update(n=True), SchemaError),
        (lambda d: d["fixed_points"][0].update(moment=0.5), SchemaError),
        (lambda d: d["fixed_points"][0].update(moment="0.5"), SchemaError),
        (lambda d: d["fixed_points"][0].pop("weights"), SchemaError),
        (lambda d: d["fixed_points"][0].update(weights=[1.0]), SchemaError),
        (lambda d: d["fixed_points"][0].update(surplus=1), SchemaError),
        (lambda d: d.update(alpha_minus=[1]), SchemaError),
        (lambda d: d.update(orientation_direction=2), ValidationError),
        (lambda d: d["fixed_points"][0].update(weights=[0]), ValidationError),
        (lambda d: d["fixed_points"][0].update(weights=[1, 2]), ValidationError),
        (lambda d: d["fixed_points"][1].update(name="p0"), ValidationError),
        (lambda d: d["alpha_minus"].update(px={"p0": "1"}), ValidationError),
    ],
)
def test_load_rejects_bad_documents(mutate, error):
    d = doc()
    mutate(d)
    with pytest.raises(error):
        load_manifold(d)


def test_load_zero_weight_names_the_violation():
    d = doc()
    d["fixed_points"][0]["weights"] = [0]
    with pytest.raises(ValidationError, match="nonzero"):
        load_manifold(d)


def test_load_runs_alpha_validation_by_default():
    d = doc()
    d["alpha_minus"]["p1"]["p1"] = "1"  # diagonal must be the negative-weight product
    with pytest.raises(ValidationError, match="alpha_minus"):
        load_manifold(d)
    m = load_manifold(d, validate_alpha=False)
    assert m.alpha_minus_scalar("p1", "p1") == 1


def test_loaded_tables_cannot_be_assigned_into():
    m = load_manifold(json.dumps(CP1_DOC))
    with pytest.raises(TypeError):
        m.alpha_minus[1][0] = Fraction(5)
    with pytest.raises(TypeError):
        m.alpha_plus[0] = (Fraction(1), Fraction(0))
    assert m.alpha_minus == ((1, 1), (0, -1))


def test_census_warning_for_open_datum():
    d = doc()
    # two copies of a minimum-like point, no maximum
    d["fixed_points"] = [
        {"name": "a", "moment": "0", "weights": [1]},
        {"name": "b", "moment": "1", "weights": [1]},
    ]
    d["alpha_minus"] = {}
    d.pop("alpha_plus")
    with pytest.warns(UserWarning, match="no maximum"):
        load_manifold(d, validate_alpha=False)


# --- round trip ---------------------------------------------------------------


def test_round_trip_is_canonical():
    d = doc()
    d["fixed_points"].reverse()
    first = manifold_to_json(load_manifold(d))
    second = manifold_to_json(load_manifold(first))
    assert first == second
    assert first.endswith("\n")


def test_round_trip_generator_output():
    for m in (gen_cpn([0, 1, 2]), gen_sphere_product([1, 1])):
        text = manifold_to_json(m)
        assert manifold_to_json(load_manifold(text)) == text


# --- pointwise operations -----------------------------------------------------


def test_morse_index_counts_negative_weights():
    assert morse_index(FixedPoint("a", Fraction(0), (1, 2))) == 0
    assert morse_index(FixedPoint("a", Fraction(0), (-1, -2))) == 4
    cp2 = gen_cpn([0, 1, 2])
    assert morse_index(cp2.fixed_points[1]) == 2


def test_morse_index_flips_under_weight_negation():
    for m in (gen_cpn([-3, 1, 2, 5]), gen_sphere_product([2, 3])):
        for fp in m.fixed_points:
            flipped = FixedPoint(fp.name, fp.moment, tuple(-w for w in fp.weights))
            assert morse_index(flipped) == 2 * m.n - morse_index(fp)


def test_negative_and_positive_euler_scalars():
    assert negative_euler_scalar(FixedPoint("a", Fraction(0), (1, 2))) == 1
    assert negative_euler_scalar(FixedPoint("a", Fraction(0), (-1, 1))) == -1
    assert negative_euler_scalar(FixedPoint("a", Fraction(0), (-2, -1))) == 2
    assert positive_euler_scalar(FixedPoint("a", Fraction(0), (-2, -1))) == 1
    assert positive_euler_scalar(FixedPoint("a", Fraction(0), (-2, 3))) == 3


def test_split_fixed_points():
    cp1 = gen_cpn([0, 1])
    assert split_fixed_points(cp1, CutLevel(Fraction(1, 2))) == ((1,), (0,))

    cp2 = gen_cpn([0, 1, 2])
    assert split_fixed_points(cp2, CutLevel(Fraction(3, 2))) == ((2,), (0, 1))
    # positions index fixed_points, which are sorted by (moment, name)
    assert [fp.name for fp in cp2.fixed_points] == ["p0", "p1", "p2"]


def test_split_partitions_everything():
    m = gen_sphere_product([1, 2])
    cut = CutLevel(Fraction(1, 2))
    above, below = split_fixed_points(m, cut)
    assert sorted(above + below) == list(range(len(m.fixed_points)))
    assert all(m.fixed_points[i].moment > cut.c for i in above)
    assert all(m.fixed_points[i].moment < cut.c for i in below)


def test_split_rejects_singular_cut():
    cp2 = gen_cpn([0, 1, 2])
    with pytest.raises(NotRegularValue):
        split_fixed_points(cp2, CutLevel(Fraction(1)))


def test_unknown_fixed_point_lookup():
    cp1 = gen_cpn([0, 1])
    with pytest.raises(UnknownFixedPoint):
        cp1.position("nope")


def test_index_census_cpn():
    cp3 = gen_cpn([0, 2, 5, 9])
    assert index_census(cp3) == {0: 1, 2: 1, 4: 1, 6: 1}
