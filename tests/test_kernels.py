from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kirwan.cohomology import (
    EquivariantClass,
    Subspace,
    basis_points,
    make_class,
)
from kirwan.errors import (
    InternalContradiction,
    KirwanError,
    MissingAlphaPlus,
    NotInImage,
    NotInKernel,
    NotRegularValue,
    ValidationError,
)
from kirwan.exactmath import rat, rat_str
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.kernels import (
    KernelReport,
    Sweep,
    b_matrix,
    decompose,
    kernel_residue,
    kernel_tw,
    kernels_equal,
    pairing_matrix,
    reports_to_json,
)
from kirwan.momentdata import (
    CutLevel,
    load_manifold,
    manifold_to_json,
    morse_index,
    split_fixed_points,
    to_json,
)

from oracles import (
    basis_rows,
    combination,
    edited,
    localization_expansion,
    localization_pairing,
    reference_kernel_entry,
    reference_span,
    reference_tw_kernels,
    reference_witness,
    rref_rows,
    scalar_rows,
)
from test_betti import mid_gap_cuts
from test_golden import DATA, SWEEP_DATA, WIDE_DATA

GOLDEN = DATA | SWEEP_DATA | WIDE_DATA

EXPECTED = json.loads(
    (Path(__file__).parent / "fixtures" / "regression_expected.json").read_text()
)


def cut(text):
    return CutLevel(rat(text))


def scalar_span(m, rows):
    """Canonical span in restriction-scalar space of recorded rows."""
    return reference_span([[rat(x) for x in row] for row in rows], len(m.fixed_points))


def computed_scalar_span(m, subspace):
    return reference_span(scalar_rows(m, subspace), len(m.fixed_points))


# --- pairings -------------------------------------------------------------------


def test_pairing_recorded_values_cp2():
    exp = EXPECTED["cp2_cut_3_2"]
    m = gen_cpn(exp["lambdas"])
    alpha1 = make_class(m, 2, {"p1": -1, "p2": -2})
    x_unit = make_class(m, 2, {"p0": 1, "p1": 1, "p2": 1})
    one = make_class(m, 0, {"p0": 1, "p1": 1, "p2": 1})
    # rows: the degree-2 basis (X times the unit, then alpha_p1); column: the unit
    assert basis_rows(m, 2) == [x_unit.restrictions, alpha1.restrictions]
    assert basis_rows(m, 0) == [one.restrictions]
    pm = pairing_matrix(m, cut(exp["cut"]), 2)
    assert (pm.row_labels, pm.col_labels) == (("p0", "p1"), ("p0",))
    assert pm.matrix == (
        (rat(exp["pairing_x_vs_unit"]),),
        (rat(exp["pairing_alpha_p1_vs_unit"]),),
    )


def test_pairing_vanishes_off_complementary_degree():
    # a product whose degree is not 2n-2 has no X^-1 term in its localization
    # sum above the cut, so pairing_matrix pairs degree d only with 2n-2-d
    m = gen_cpn([0, 1, 2])
    above, _ = split_fixed_points(m, cut("3/2"))
    points = [m.fixed_points[i] for i in above]
    names = [fp.name for fp in m.fixed_points]
    checked = 0
    for d in (0, 2, 4):
        for e in (0, 2, 4):
            if d + e == 2 * m.n - 2:
                continue
            for eta in basis_rows(m, d):
                for zeta in basis_rows(m, e):
                    product = {g: a * b for g, a, b in zip(names, eta, zeta)}
                    assert localization_expansion(points, product, d + e).get(-1, 0) == 0
                    checked += 1
    assert checked == 32  # unit * unit and alpha_p2 * (X times the unit) among them


def test_pairing_requires_regular_cut():
    m = gen_cpn([0, 1, 2])
    for d in (0, 2):
        with pytest.raises(NotRegularValue):
            pairing_matrix(m, CutLevel(Fraction(2)), d)


def test_pairing_matrix_cp1():
    exp = EXPECTED["cp1_cut_1_2"]
    m = gen_cpn(exp["lambdas"])
    pm = pairing_matrix(m, cut(exp["cut"]), 0)
    assert pm.matrix == ((rat(exp["pairing_unit_vs_unit"]),),)


def test_pairing_matrix_cp2():
    m = gen_cpn([0, 1, 2])
    pm = pairing_matrix(m, cut("3/2"), 2)
    assert pm.matrix == ((Fraction(1, 2),), (Fraction(-1),))
    assert pm.row_labels == ("p0", "p1")
    assert pm.col_labels == ("p0",)


def test_pairing_matrix_no_complementary_degree():
    m = gen_cpn([0, 1])
    pm = pairing_matrix(m, cut("1/2"), 4)  # beyond 2n-2
    assert pm.col_labels == ()
    assert pm.matrix == ((), ())


# --- kernels --------------------------------------------------------------------


def test_kernel_residue_cp2_recorded():
    exp = EXPECTED["cp2_cut_3_2"]
    m = gen_cpn(exp["lambdas"])
    k2 = kernel_residue(m, cut(exp["cut"]), 2)
    assert k2.dim == 1
    assert computed_scalar_span(m, k2) == scalar_span(
        m, exp["kernel_degree_2_scalar_span"]
    )


def test_kernel_residue_whole_space_and_zero():
    m = gen_cpn([0, 1])
    c = cut("1/2")
    assert kernel_residue(m, c, 2).dim == 2  # no complementary degree
    assert kernel_residue(m, c, 0).dim == 0  # unit pairs to -1


def test_kernel_tw_cp2_recorded():
    exp = EXPECTED["cp2_cut_3_2"]
    m = gen_cpn(exp["lambdas"])
    tw_plus, tw_minus, tw_sum = kernel_tw(m, cut(exp["cut"]), 2)
    assert (tw_plus.dim, tw_minus.dim, tw_sum.dim) == (1, 0, 1)
    assert computed_scalar_span(m, tw_plus) == scalar_span(
        m, exp["tw_plus_degree_2_scalar_span"]
    )


def test_kernel_tw_cp1_recorded():
    exp = EXPECTED["cp1_cut_1_2"]
    m = gen_cpn(exp["lambdas"])
    tw_plus, tw_minus, tw_sum = kernel_tw(m, cut(exp["cut"]), 2)
    assert tw_sum.dim == exp["kernel_degree_2_dim"]
    assert computed_scalar_span(m, tw_plus) == scalar_span(
        m, exp["tw_plus_degree_2_scalar_span"]
    )
    assert computed_scalar_span(m, tw_minus) == scalar_span(
        m, exp["tw_minus_degree_2_scalar_span"]
    )


def test_kernel_tw_degree_zero_interior_cut():
    for m, c in (
        (gen_cpn([0, 1, 2]), cut("1/2")),
        (gen_sphere_product([1, 1]), cut("1")),
    ):
        tw_plus, tw_minus, tw_sum = kernel_tw(m, c, 0)
        assert tw_sum.dim == 0  # the unit vanishes nowhere


def test_kernels_equal_recorded_betti_tables():
    for key in ("cp2_cut_3_2", "cp2_cut_1_2", "cp1_cut_1_2"):
        exp = EXPECTED[key]
        m = gen_cpn(exp["lambdas"])
        c = cut(exp["cut"])
        for d_str, betti in exp["betti"].items():
            rep = kernels_equal(m, c, int(d_str))
            assert rep.equal, (key, d_str)
            assert rep.betti == betti, (key, d_str)


def test_kernels_equal_recorded_dims_cp2_low_cut():
    exp = EXPECTED["cp2_cut_1_2"]
    m = gen_cpn(exp["lambdas"])
    c = cut(exp["cut"])
    for d_str, dim in exp["kernel_dims"].items():
        assert kernel_residue(m, c, int(d_str)).dim == dim
    k2 = kernel_residue(m, c, 2)
    assert computed_scalar_span(m, k2) == scalar_span(
        m, exp["kernel_degree_2_scalar_span"]
    )
    tw_plus, tw_minus, _ = kernel_tw(m, c, 4)
    assert computed_scalar_span(m, tw_plus) == scalar_span(
        m, exp["tw_plus_degree_4_scalar_span"]
    )
    assert computed_scalar_span(m, tw_minus) == scalar_span(
        m, exp["tw_minus_degree_4_scalar_span"]
    )


def test_kernels_equal_detects_inconsistent_tables():
    m = edited(gen_cpn([0, 1, 2]), ("alpha_minus", "p1", "p2", "-3"))
    rep = kernels_equal(m, cut("1/2"), 2)
    assert not rep.equal
    assert rep.witness is not None


def test_a_sweep_of_another_cut_or_datum_is_refused():
    m, low, high = gen_cpn([0, 1, 2, 3]), cut("1/2"), cut("5/2")
    # the residue kernel at 5/2; the one kept by a Sweep at 1/2 is ((0, 1),)
    assert kernels_equal(m, high, 2).residue_kernel.basis == ((3, 1),)
    for compute in (kernel_residue, kernel_tw, kernels_equal):
        with pytest.raises(ValueError, match=r"not of 'CP3\[0,1,2,3\]' at cut 5/2"):
            compute(m, high, 2, Sweep(m, low))
        with pytest.raises(ValueError, match=r"not of 'CP2\[0,1,2\]' at cut 1/2"):
            compute(gen_cpn([0, 1, 2]), low, 2, Sweep(m, low))
    # a Sweep of an equal datum and cut, built apart, is accepted
    rep = kernels_equal(gen_cpn([0, 1, 2, 3]), cut("5/2"), 2, Sweep(m, high))
    assert rep.residue_kernel.basis == ((3, 1),)


def assert_tw_matches_the_eliminations(m, cuts):
    for c in cuts:
        sweep = Sweep(m, c)
        for d in range(0, 2 * m.n - 1, 2):
            got = kernel_tw(m, c, d, sweep)
            labels = tuple(m.fixed_points[i].name for i in basis_points(m, d))
            assert {(s.degree, s.labels) for s in got} == {(d, labels)}
            assert [rref_rows(s) for s in got] == [*reference_tw_kernels(m, c, d)], (str(c.c), d)


@pytest.mark.parametrize("label", GOLDEN)
def test_kernel_tw_matches_the_eliminations_on_the_golden_data(label):
    gen, params = GOLDEN[label]
    m = gen(params)
    assert_tw_matches_the_eliminations(m, mid_gap_cuts(m))


# CP^1..CP^6 with distinct moments and S2^1..S2^4 with tied ones
GENERATED = st.one_of(
    st.lists(st.integers(-20, 20), min_size=2, max_size=7, unique=True).map(sorted).map(gen_cpn),
    st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=1, max_size=4).map(
        gen_sphere_product
    ),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(GENERATED)
def test_kernel_tw_matches_the_eliminations(m):
    assert_tw_matches_the_eliminations(m, mid_gap_cuts(m))


@pytest.mark.parametrize(
    "edit, degree, tw_minus",
    [
        # an above-cut class that does not vanish below the cut
        (("alpha_minus", "p2", "p0", "5"), 4, ((5, 5, -1),)),
        # a zero diagonal entry below the cut
        (("alpha_minus", "p1", "p1", "0"), 2, ((0, 1),)),
        # a below-cut class that does not vanish at an earlier below-cut point
        (("alpha_minus", "p1", "p0", "-1"), 2, ((1, 1),)),
    ],
)
def test_kernel_tw_eliminates_when_the_triangular_block_fails(edit, degree, tw_minus):
    """Each edit breaks one part of the triangular block, and the classes
    vanishing below the cut are no longer the above-cut basis classes."""
    m = edited(gen_cpn([0, 1, 2, 3]), edit)
    assert_tw_matches_the_eliminations(m, [cut("3/2")])
    assert kernel_tw(m, cut("3/2"), degree)[1].basis == tw_minus


@st.composite
def edited_data(draw):
    """A generated CP^n or S2^k with one to three alpha_minus entries set to a
    small rational, maybe 0 or a Fraction, loaded without table validation."""
    m = draw(GENERATED)
    names = st.sampled_from([fp.name for fp in m.fixed_points])
    values = st.fractions(-6, 6, max_denominator=3).map(rat_str)
    edits = draw(st.lists(st.tuples(names, names, values), min_size=1, max_size=3))
    return edited(m, *(("alpha_minus", f, g, value) for f, g, value in edits))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(edited_data())
def test_the_witness_is_the_first_row_outside_the_other_span(m):
    """At every mid-gap cut and even degree, swept from the top down: no witness
    exactly when the kernels agree, and otherwise the oracle's first basis row,
    of the residue kernel and then of tw_sum, outside the other's span, expanded
    in Fractions."""
    for c in mid_gap_cuts(m):
        sweep = Sweep(m, c)
        for d in range(2 * m.n - 2, -1, -2):
            rep = kernels_equal(m, c, d, sweep)
            assert (rep.witness is None) == rep.equal
            assert rep.witness == reference_witness(m, rep.residue_kernel, rep.tw_sum)
            if rep.witness is not None:
                assert {type(s) for s in rep.witness.restrictions} == {Fraction}


# --- the JSON kernel report -------------------------------------------------------


@st.composite
def fraction_tables(draw):
    """A valid sphere product whose alpha_minus holds Fractions: one point's row
    plus a multiple, over 7, 11 or 13, of the row of a higher point of the same
    index, which vanishes wherever the first row must."""
    speeds = draw(st.lists(st.sampled_from((1, 2, 3, 5)), min_size=2, max_size=4, unique=True))
    m = gen_sphere_product(speeds)
    pairs = [
        (f.name, g.name) for f in m.fixed_points for g in m.fixed_points
        if morse_index(f) == morse_index(g) and f.moment < g.moment
    ]
    f, g = draw(st.sampled_from(pairs))
    q = Fraction(draw(st.integers(-30, 30)), draw(st.sampled_from((7, 11, 13))))
    assume(q.denominator > 1)
    doc = json.loads(manifold_to_json(m))
    row = doc["alpha_minus"][f]
    for point, value in doc["alpha_minus"][g].items():
        row[point] = rat_str(rat(row.get(point, "0")) + q * rat(value))
    out = load_manifold(doc)  # validated
    assert out.integer_alpha_minus[1] > 1
    return out


# 2200-digit lambdas: the products of two weights in the table pass the 4300
# digits str() writes
LONG_CPN = gen_cpn([-(10**2199) - 7, 3, 10**2199 + 1])


def disagreeing(m, r):
    """The report as a disagreement: `tw_sum` the whole degree basis, or zero
    where that is the residue kernel, and the first basis class as witness."""
    labels = r.residue_kernel.labels
    whole = Subspace(r.degree, labels, tuple(
        (0,) * c + (1,) + (0,) * (len(labels) - 1 - c) for c in range(len(labels))
    ))
    tw_sum = Subspace(r.degree, labels, ()) if r.residue_kernel == whole else whole
    witness = EquivariantClass(r.degree, scalar_rows(m, whole)[0]) if labels else None
    return KernelReport(
        r.cut, r.degree, r.residue_kernel, r.tw_plus, r.tw_minus, tw_sum,
        equal=False, betti=r.betti, witness=witness,
    )


def assert_writes_the_reference(m, disagree, degree):
    """At every mid-gap cut, the writer's text of the reports of a --degree all
    sweep, and of the one degree, is the reference entries as `to_json` writes
    them in a report."""
    for c in mid_gap_cuts(m):
        sweep = Sweep(m, c)
        swept = [kernels_equal(m, c, d, sweep) for d in range(2 * m.n - 2, -1, -2)][::-1]
        for reports in (swept, [kernels_equal(m, c, degree)]):
            if disagree:
                reports = [disagreeing(m, r) for r in reports]
            want = to_json({"degrees": [reference_kernel_entry(m, r) for r in reports]})
            got = '{\n  "degrees": ' + reports_to_json(m, reports) + "\n}"
            assert got == want, (str(c.c), len(reports))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.one_of(GENERATED, fraction_tables()), st.booleans(), st.integers(0, 14))
def test_the_writer_writes_the_reference_entries(m, disagree, degree):
    assert_writes_the_reference(m, disagree, degree % (2 * m.n + 1))  # odd degrees too


@pytest.mark.parametrize("disagree", [False, True])
def test_the_writer_writes_entries_past_the_str_limit(disagree):
    # kept out of the property: Hypothesis cannot repr a datum this long
    assert max(abs(s) for row in LONG_CPN.alpha_minus for s in row) >= 10**4300
    for degree in range(5):
        assert_writes_the_reference(LONG_CPN, disagree, degree)
    # the unit row of the top point, a tw_minus row at degree 4, holds the long entry
    rows = reports_to_json(LONG_CPN, [kernels_equal(LONG_CPN, mid_gap_cuts(LONG_CPN)[0], 4)])
    assert max(map(len, rows.split())) > 4300


# --- decomposition ---------------------------------------------------------------


def test_decompose_cp2_no_corrections_needed():
    m = gen_cpn([0, 1, 2])
    eta = make_class(m, 2, {"p0": 2, "p1": 1})
    cert = decompose(m, eta, cut("3/2"))
    assert cert.coefficients == {"p0": Fraction(2), "p1": Fraction(1)}
    assert cert.corrections == {}
    assert cert.eta_minus == eta
    assert not any(cert.eta_plus.restrictions)
    assert cert.eta_minus.restrictions[2] == 0


def test_decompose_zero_class():
    m = gen_cpn([0, 1, 2])
    cert = decompose(m, make_class(m, 4), cut("1/2"))
    assert all(v == 0 for v in cert.coefficients.values())
    assert not any(cert.eta_plus.restrictions) and not any(cert.eta_minus.restrictions)


def test_decompose_rejects_non_kernel_class():
    m = gen_cpn([0, 1, 2])
    x_unit = make_class(m, 2, {"p0": 1, "p1": 1, "p2": 1})
    with pytest.raises(NotInKernel):
        decompose(m, x_unit, cut("3/2"))


def test_decompose_rejects_non_image_class():
    m = gen_cpn([0, 1, 2])
    bad = make_class(m, 0, {"p0": 1})  # not a multiple of the unit
    with pytest.raises(NotInImage):
        decompose(m, bad, cut("3/2"))
    odd = EquivariantClass(1, bad.restrictions)  # the degree-1 basis is empty
    with pytest.raises(NotInImage):
        decompose(m, odd, cut("3/2"))
    assert decompose(m, EquivariantClass(1, (0, 0, 0)), cut("3/2")).coefficients == {}


@pytest.mark.parametrize("length", [2, 4])
def test_decompose_rejects_a_class_of_the_wrong_length(length):
    m = gen_cpn([0, 1, 2])
    eta = EquivariantClass(0, (Fraction(1),) * length)
    with pytest.raises(ValidationError) as err:
        decompose(m, eta, cut("5/2"))
    assert str(err.value) == f"the class has {length} restrictions but 'CP2[0,1,2]' has 3 fixed points"


def test_decompose_not_in_kernel_text():
    m = gen_cpn([0, 1, 2])
    x_unit = make_class(m, 0, {"p0": 1, "p1": 1, "p2": 1})
    with pytest.raises(NotInKernel) as err:
        decompose(m, x_unit, cut("1/2"))
    assert str(err.value) == "pairing against the basis class of p0 in degree 2 is -1/2, not zero"


@pytest.mark.parametrize(
    "m, entry, at, degree, text",
    [
        (
            gen_cpn([0, 1, 2, 3]), ("alpha_minus", "p0", "p1", "5"), "1/2", 4,
            "minus part still restricts to 13 at p3; the restriction tables are inconsistent",
        ),
        (
            gen_sphere_product([1, 1, 5]), ("alpha_minus", "mmp", "ppm", "1"), "0", 2,
            "plus part restricts to -1/5 at ppm; the restriction tables are inconsistent",
        ),
    ],
)
def test_decompose_inconsistent_table_texts(m, entry, at, degree, text):
    # a residue-kernel class of an edited table passes the pairing check, so
    # the side-vanishing checks are the ones that catch the edit
    broken, c = edited(m, entry), cut(at)
    row = scalar_rows(broken, kernel_residue(broken, c, degree))[0]
    with pytest.raises(InternalContradiction) as err:
        decompose(broken, EquivariantClass(degree, row), c)
    assert str(err.value) == text


@settings(max_examples=40, derandomize=True, deadline=None)
@given(GENERATED, st.randoms(use_true_random=False))
def test_decompose_coefficients_and_corrections_rebuild_the_class_and_its_parts(m, rng):
    """For random kernel classes: the coefficients times the basis rows give
    eta at every point, the minus part is the below-cut terms less the
    correction terms, and the corrections are keyed by the above-cut basis
    points in basis order; each sum is a Fraction expansion of its own."""
    names = [fp.name for fp in m.fixed_points]

    def expand(weights):  # sum of weight * alpha_minus row, by point name
        return [
            sum((w * m.alpha_minus[names.index(f)][j] for f, w in weights), Fraction(0))
            for j in range(len(names))
        ]

    for c in mid_gap_cuts(m):
        above, _ = split_fixed_points(m, c)
        for d in range(0, 2 * m.n - 1, 2):
            rows = scalar_rows(m, kernel_residue(m, c, d))
            weights = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in rows]
            eta = EquivariantClass(d, tuple(
                sum((w * row[j] for w, row in zip(weights, rows)), Fraction(0))
                for j in range(len(names))
            ))
            cert = decompose(m, eta, c)
            pts = basis_points(m, d)
            assert list(cert.coefficients) == [names[f] for f in pts]
            assert list(cert.corrections) == [names[f] for f in pts if f in above]
            assert expand(cert.coefficients.items()) == list(eta.restrictions)
            below_terms = [(f, x) for f, x in cert.coefficients.items()
                           if names.index(f) not in above]
            corrections = [(f, -x) for f, x in cert.corrections.items()]
            assert expand(below_terms + corrections) == list(cert.eta_minus.restrictions)


def test_decompose_on_a_broken_triangular_block_raises_internal_contradiction():
    """A zero diagonal entry, and a downward class nonzero at an earlier basis
    point, are reached only on unvalidated tables; each is named."""
    m = gen_cpn([0, 1, 2, 3])
    broken = edited(m, ("alpha_minus", "p1", "p1", "0"))
    with pytest.raises(InternalContradiction) as err:
        decompose(broken, make_class(broken, 2, {"p0": 1, "p1": 1, "p2": 1, "p3": 1}), cut("3/2"))
    assert str(err.value) == (
        "alpha_minus[p1][p1] is 0; the restriction tables are inconsistent"
    )
    # the class of p2 at p1 makes p2's term leave a remainder at p1
    broken = edited(m, ("alpha_minus", "p2", "p1", "1"))
    eta = EquivariantClass(4, m.alpha_minus[2])
    with pytest.raises(InternalContradiction) as err:
        decompose(broken, eta, cut("3/2"))
    assert str(err.value) == (
        "the basis terms leave -1 at the basis point p1; the restriction tables are inconsistent"
    )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(GENERATED, st.randoms(use_true_random=False))
def test_decompose_on_unvalidated_tables_raises_only_kirwan_errors(m, rng):
    """Random edits of alpha_minus, diagonal entries and zeros among them,
    loaded without validation: decompose of a class in the span of the edited
    rows returns or raises a KirwanError, never a ZeroDivisionError."""
    names = [fp.name for fp in m.fixed_points]
    edits = [
        ("alpha_minus", rng.choice(names), rng.choice(names), str(rng.randint(-2, 2)))
        for _ in range(rng.randint(1, 3))
    ]
    broken = edited(m, *edits)
    for c in mid_gap_cuts(broken):
        for d in range(0, 2 * m.n - 1, 2):
            eta = combination(broken, d, [rng.randint(-2, 2) for _ in basis_points(m, d)])
            try:
                decompose(broken, eta, c)
            except KirwanError:
                pass


def test_decompose_cp3_with_active_corrections():
    exp = EXPECTED["cp3_cut_3_2_decomposition"]
    m = gen_cpn(exp["lambdas"])
    eta = make_class(m, exp["eta_degree"], exp["eta_scalars"])
    cert = decompose(m, eta, cut(exp["cut"]))
    assert cert.coefficients == {k: rat(v) for k, v in exp["coefficients"].items()}
    assert {k: v for k, v in cert.corrections.items() if v != 0} == {
        k: rat(v) for k, v in exp["corrections"].items()
    }
    assert cert.eta_minus == make_class(m, 4, exp["eta_minus_scalars"])
    assert cert.eta_plus == make_class(m, 4, exp["eta_plus_scalars"])
    assert sum_of_parts(cert) == eta.restrictions
    assert cert.b_exhibit is not None


def test_decompose_without_alpha_plus_still_works():
    m = gen_cpn([0, 1, 2])
    doc = json.loads(manifold_to_json(m))
    doc.pop("alpha_plus")
    stripped = load_manifold(doc)
    eta = make_class(stripped, 2, {"p0": 2, "p1": 1})
    cert = decompose(stripped, eta, cut("3/2"))
    assert cert.b_exhibit is None
    assert cert.eta_minus == eta


def sum_of_parts(cert):
    plus, minus = cert.eta_plus.restrictions, cert.eta_minus.restrictions
    return tuple(a + b for a, b in zip(plus, minus))


def test_decompose_random_kernel_elements_split_correctly():
    rng = random.Random(23)
    m = gen_cpn([0, 1, 2, 3])
    c = cut("3/2")
    plus = {2, 3}  # positions of p2 and p3
    for d in (0, 2, 4, 6):
        kern = kernel_residue(m, c, d)
        basis = basis_rows(m, d)
        for _ in range(10):
            acc = [Fraction(0)] * len(m.fixed_points)
            for i in range(kern.dim):
                coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                for cval, row in zip(rref_rows(kern)[i], basis):
                    acc = [a + coeff * cval * r for a, r in zip(acc, row)]
            eta = EquivariantClass(d, tuple(acc))
            cert = decompose(m, eta, c)
            assert sum_of_parts(cert) == eta.restrictions
            for j, v in enumerate(cert.eta_minus.restrictions):
                if j in plus:
                    assert v == 0
            for j, v in enumerate(cert.eta_plus.restrictions):
                if j not in plus:
                    assert v == 0


@settings(max_examples=40, derandomize=True, deadline=None)
@given(GENERATED, st.randoms(use_true_random=False))
def test_certificates_and_matrices_hold_only_ints_and_fractions(m, rng):
    """Table entries are ints where integral, and an int divided by an int is a
    float: every value a decomposition, a pairing matrix or a b-matrix reports
    must still be exact."""
    exact = (int, Fraction)
    for c in mid_gap_cuts(m):
        above, _ = split_fixed_points(m, c)
        for d in range(0, 2 * m.n - 1, 2):
            values = [e for row in pairing_matrix(m, c, d).matrix for e in row]
            values += [e for row in b_matrix(m, c, d).matrix for e in row]
            pts = basis_points(m, d)
            # a random kernel class, and one combining only above-cut basis
            # classes, whose minus part starts as integer zeros
            kern = kernel_residue(m, c, d).basis
            weights = [rng.randint(-3, 3) for _ in kern]
            mixed = [sum(w * row[k] for w, row in zip(weights, kern)) for k in range(len(pts))]
            upper = [rng.randint(-3, 3) if f in above else 0 for f in pts]
            for coeffs in (mixed, upper):
                scalars = combination(m, d, coeffs).restrictions
                eta = make_class(m, d, dict(zip((fp.name for fp in m.fixed_points), scalars)))
                cert = decompose(m, eta, c)
                values += [*cert.coefficients.values(), *cert.corrections.values()]
                values += [*cert.eta_plus.restrictions, *cert.eta_minus.restrictions]
                values += [e for row in cert.b_exhibit.matrix for e in row]
            assert all(type(e) in exact for e in values), (str(c.c), d)


def test_reverse_inclusion_tw_classes_pair_to_zero():
    # classes vanishing on either side of the cut kill every residue pairing
    for m in (gen_cpn([0, 1, 2, 3]), gen_sphere_product([1, 1])):
        for c in (cut("1/2"), cut("-1/2")):
            for d in range(0, 2 * m.n - 1, 2):
                tw_plus, tw_minus, _ = kernel_tw(m, c, d)
                above, _ = split_fixed_points(m, c)
                partners = basis_rows(m, 2 * m.n - 2 - d)
                for side in (tw_plus, tw_minus):
                    values = [
                        [localization_pairing(m, row, col, above) for col in partners]
                        for row in scalar_rows(m, side)
                    ]
                    assert all(v == 0 for row in values for v in row)


# --- upward-restriction matrix -----------------------------------------------------


def test_b_matrix_cp2_single_point():
    m = gen_cpn([0, 1, 2])
    rep = b_matrix(m, cut("3/2"), 2)
    assert rep.labels == ("p2",)
    assert rep.matrix == ((Fraction(1),),)
    assert rep.m_exponents == (0,)
    assert rep.ok


def test_b_matrix_cp2_all_points_above():
    exp = EXPECTED["cp2_bmatrix_all_plus"]
    m = gen_cpn(exp["lambdas"])
    rep = b_matrix(m, cut(exp["cut"]), exp["degree"])
    assert list(rep.labels) == exp["labels"]
    assert rep.matrix == tuple(tuple(rat(x) for x in row) for row in exp["rows"])
    assert rep.ok


def test_b_matrix_cp3_recorded():
    exp = EXPECTED["cp3_cut_3_2_decomposition"]["b_matrix_degree_2"]
    m = gen_cpn(EXPECTED["cp3_cut_3_2_decomposition"]["lambdas"])
    rep = b_matrix(m, cut("3/2"), 2)
    assert list(rep.labels) == exp["labels"]
    assert rep.matrix == tuple(tuple(rat(x) for x in row) for row in exp["rows"])
    assert list(rep.m_exponents) == exp["m_exponents"]
    assert rep.ok


def test_b_matrix_empty_index_set():
    m = gen_cpn([0, 1])
    rep = b_matrix(m, cut("1/2"), 2)  # needs index >= 4, none exists
    assert rep.labels == ()
    assert rep.matrix == ()
    assert rep.ok


def test_b_matrix_flags_come_from_the_entries():
    # a point named "triangularity" with a zero diagonal breaks only the diagonal
    doc = json.loads(manifold_to_json(gen_cpn([0, 1, 2])).replace('"p2"', '"triangularity"'))
    doc["alpha_plus"]["triangularity"]["triangularity"] = "0"
    m = load_manifold(doc, validate_alpha=False)
    rep = b_matrix(m, cut("3/2"), 2)
    assert rep.labels == ("triangularity",)
    assert rep.violations == ("diagonal entry at triangularity is zero",)
    assert rep.upper_triangular
    assert not rep.diagonal_nonzero


def test_b_matrix_requires_alpha_plus():
    m = gen_cpn([0, 1, 2])
    doc = json.loads(manifold_to_json(m))
    doc.pop("alpha_plus")
    stripped = load_manifold(doc)
    with pytest.raises(MissingAlphaPlus):
        b_matrix(stripped, cut("3/2"), 2)
