from __future__ import annotations

import json
import pickle
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kirwan.errors import (
    KirwanError,
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
    to_json,
)
from oracles import reference_document, reference_int, reference_integer_table, reference_rat
from test_kernels import GENERATED

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
    with pytest.warns(UserWarning, match="no maximum") as caught:
        load_manifold(d, validate_alpha=False)
    # the warning names the line that loaded the datum
    assert [w.filename for w in caught] == [__file__]


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


# names that JSON escapes: a quote, a backslash, and non-ASCII as \u escapes
NAMES = st.text(alphabet='"\\\u00e9\u2028\U0001f600pm01', min_size=1, max_size=4)


def writes_the_reference(m):
    return manifold_to_json(m) == json.dumps(reference_document(m), indent=2) + "\n"


@settings(max_examples=60, derandomize=True, deadline=None)
@given(GENERATED, st.data())
def test_the_writer_writes_the_reference_document(m, data):
    """Of generated data, then of a copy loaded without table validation, with
    renamed points, Fraction entries, maybe a row of zeros and no alpha_plus."""
    assert writes_the_reference(m)
    d = reference_document(m)
    size = len(d["fixed_points"])
    names = data.draw(st.lists(NAMES, min_size=size, max_size=size, unique=True))
    new = dict(zip([p["name"] for p in d["fixed_points"]], names))
    for p in d["fixed_points"]:
        p["name"] = new[p["name"]]
    scale = data.draw(st.fractions(-5, 5, max_denominator=12).filter(bool))
    for label in ("alpha_minus", "alpha_plus"):
        d[label] = {
            new[f]: {new[g]: str(Fraction(v) * scale) for g, v in row.items()}
            for f, row in d[label].items()
        }
    if data.draw(st.booleans()):
        d["alpha_minus"][data.draw(st.sampled_from(names))] = {}
    if data.draw(st.booleans()):
        del d["alpha_plus"]
    loaded = load_manifold(d, validate_alpha=False)
    assert writes_the_reference(loaded)


def test_the_writer_writes_table_entries_past_the_str_limit_in_full():
    # 2200-digit lambdas: the weights stay under the 4300 digits str() writes,
    # the products of two of them in the tables do not
    m = gen_cpn([-(10**2199) - 7, 3, 10**2199 + 1])
    assert max(abs(s) for row in m.alpha_minus for s in row) >= 10**4300
    assert writes_the_reference(m)


# report-shaped values: rows of rational strings in nested dicts and lists, with
# the characters JSON escapes (quote, backslash, controls, non-ASCII) in keys
# and strings
JSON_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()),
    max_size=6,
)
REPORT_VALUES = st.recursive(
    st.one_of(JSON_TEXT, st.integers(), st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(REPORT_VALUES)
@example({"rows": [["1", "-3/2"], []], "empty": {}, "t": ("x", 1, None, False)})
@example([-(10**30), "\u00e9\"\\\n", [True]])
def test_to_json_writes_what_json_dumps_writes(value):
    assert to_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [1.5, Fraction(1, 2), {1: "a"}, {"a": [{(1,): 2}]}, ["1", 2.0], {"1"}]
)
def test_to_json_rejects_other_types_and_keys(value):
    with pytest.raises(TypeError):
        to_json(value)


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


# --- error precedence ---------------------------------------------------------


def _two_faults(*edits):
    d = doc()
    for edit in edits:
        edit(d)
    return d


@pytest.mark.parametrize(
    "document, error, message",
    [
        # every schema error in either table comes before any unknown name
        (
            _two_faults(
                lambda d: d["alpha_plus"]["p1"].update(p0="x"),
                lambda d: d["alpha_minus"].update(zz={"p0": "1"}),
            ),
            SchemaError,
            "alpha_plus['p1']['p0']: not a rational literal: 'x'",
        ),
        (
            _two_faults(
                lambda d: d["alpha_plus"]["p1"].update(p0=1.5),
                lambda d: d["alpha_minus"]["p0"].update(zz="1"),
            ),
            SchemaError,
            "alpha_plus['p1']['p0'] must be a rational string like \"p/q\"",
        ),
        # a schema error in a table comes before a bad n
        (
            _two_faults(
                lambda d: d.update(n=0),
                lambda d: d["alpha_minus"]["p0"].update(p1="1/0"),
            ),
            SchemaError,
            "alpha_minus['p0']['p1']: zero denominator: '1/0'",
        ),
        # a bad weight comes before a bad entry
        (
            _two_faults(
                lambda d: d["fixed_points"][0].update(weights=[True]),
                lambda d: d["alpha_minus"]["p0"].update(p1="0.5"),
            ),
            SchemaError,
            "fixed_points[0].weights[0] must be an integer",
        ),
        # structural checks come before unknown names, alpha_minus before alpha_plus
        (
            _two_faults(
                lambda d: d["fixed_points"][1].update(weights=[1, 1]),
                lambda d: d["alpha_minus"]["p0"].update(zz="1"),
            ),
            ValidationError,
            "fixed point 'p1' has 2 weights, expected 1",
        ),
        (
            _two_faults(
                lambda d: d["alpha_plus"].update(yy={}),
                lambda d: d["alpha_minus"]["p0"].update(zz="1"),
            ),
            ValidationError,
            "alpha_minus['p0'] references unknown fixed point 'zz'",
        ),
        # a bad n comes before an unknown name
        (
            _two_faults(
                lambda d: d.update(n=0),
                lambda d: d["alpha_minus"]["p0"].update(zz="1"),
            ),
            ValidationError,
            "n must be a positive integer",
        ),
    ],
)
def test_load_reports_the_first_of_two_faults(document, error, message):
    with pytest.raises(error) as exc:
        load_manifold(document)
    assert str(exc.value) == message


# --- the one-pass parse against the reference -----------------------------------

# rational-looking text, with the characters int() accepts beyond the
# documented -?digits[/digits]: blanks, "+", "_", a non-ASCII decimal digit and
# a superscript digit (str.isdigit() is true of both)
LITERALS = st.text(alphabet="-/0123456789 +_\u0661\u00b2x", max_size=8)
JSON_VALUES = st.one_of(
    LITERALS,
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _as_stored(q):
    return q.numerator if q.denominator == 1 else q


def _outcome(read):
    try:
        return read()
    except KirwanError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES, st.sampled_from(["entry", "moment", "weight"]))
@example("\u0663", "entry")
@example("1/0", "moment")
@example("-1" + "0" * 4400, "entry")
@example("1" * 4400 + "/" + "7" * 4400, "entry")
@example(True, "weight")
@example(0, "weight")
# int() reads these, the schema rejects them
@example("+1", "entry")
@example(" 1", "entry")
@example("1 ", "entry")
@example("1_0", "entry")
@example("\u0661\u0662", "entry")
@example("\u00b2", "entry")
# the schema reads these, each as an int but the last
@example("007", "entry")
@example("-0", "entry")
@example("0/5", "entry")
@example("6/3", "entry")
@example("-3/6", "entry")
def test_load_reads_values_as_the_reference_does(value, spot):
    d = doc()
    if spot == "entry":
        # twice in one table: the second read of a literal is the first one's
        d["alpha_minus"]["p0"]["p1"] = d["alpha_minus"]["p1"]["p0"] = value
        # a table stores an integral value as an int, any other as a Fraction
        want = _outcome(lambda: _as_stored(reference_rat(value, "alpha_minus['p0']['p1']")))

        def read(m):
            assert m.alpha_minus_scalar("p1", "p0") == m.alpha_minus_scalar("p0", "p1")
            return m.alpha_minus_scalar("p0", "p1")

    elif spot == "moment":
        d["fixed_points"][0]["moment"] = value
        want = _outcome(lambda: reference_rat(value, "fixed_points[0].moment"))

        def read(m):
            return m.fixed_points[m.position("p0")].moment

    else:
        d["fixed_points"][0]["weights"] = [value]
        want = _outcome(lambda: reference_int(value, "fixed_points[0].weights[0]"))
        if want == 0:
            want = "ValidationError", "weights must be nonzero (fixed point 'p0')"

        def read(m):
            return m.fixed_points[m.position("p0")].weights[0]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a flipped weight leaves no minimum
        got = _outcome(lambda: read(load_manifold(d, validate_alpha=False)))
    assert got == want
    assert type(got) is type(want)


# --- integer tables -------------------------------------------------------------


def test_integer_tables_of_generated_data_match_the_reference():
    for m in (
        gen_cpn([0, 1]),
        gen_cpn([-3, -1, 0, 2, 3, 7, 8]),
        gen_cpn([-1000003, -977, 0, 17, 4099, 10**9 + 7]),
        gen_sphere_product([1, 2, 3]),
        gen_sphere_product([5, -2, 3, 1]),
    ):
        assert m.integer_alpha_minus == reference_integer_table(m.alpha_minus)
        fresh = pickle.loads(pickle.dumps(m))  # derived again on first use
        assert "integer_alpha_minus" not in fresh.__dict__
        assert fresh.integer_alpha_minus == m.integer_alpha_minus


@pytest.mark.parametrize("generated", [gen_cpn([0, 1, 2, 5]), gen_sphere_product([2, 3])])
def test_integer_documents_load_with_no_fraction_per_entry(generated):
    """An entry is an int when integral: the generators' tables, and the same
    tables loaded from their canonical text, hold only ints, and such a
    table is its own integer form."""
    for m in (generated, load_manifold(manifold_to_json(generated))):
        assert all(type(s) is int for t in (m.alpha_minus, m.alpha_plus) for row in t for s in row)
        assert m.integer_alpha_minus[0] is m.alpha_minus
        assert m.integer_alpha_minus[1] == 1


@pytest.mark.parametrize(
    "entries",
    [
        {"p0": "1/2", "p1": "-2/3"},  # non-unit, coprime
        {"p0": "3/6", "p1": "10/15"},  # written unreduced
        {"p0": "1/1000000007", "p1": "-7/998244353"},  # large primes
        {"p0": "0/5", "p1": "4/2"},  # denominators that reduce to 1
        {"p0": "-4/9", "p1": "5/12"},  # lcm 36, not the product
    ],
)
def test_integer_tables_of_loaded_fractions_match_the_reference(entries):
    d = doc()
    d["alpha_minus"]["p0"].update(entries)
    d["alpha_plus"]["p1"].update(entries)
    m = load_manifold(d, validate_alpha=False)
    assert m.integer_alpha_minus == reference_integer_table(m.alpha_minus)
    rows, den = m.integer_alpha_minus
    assert [Fraction(a, den) for a in rows[0]] == [Fraction(entries[g]) for g in ("p0", "p1")]
