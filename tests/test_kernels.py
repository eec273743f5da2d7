from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirwan.cohomology import (
    EquivariantClass,
    degree_basis,
    make_class,
    subspace_from_rows,
    subspace_scalar_rows,
)
from kirwan.errors import (
    MissingAlphaPlus,
    NotInImage,
    NotInKernel,
    NotRegularValue,
)
from kirwan.exactmath import rat
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.kernels import (
    Sweep,
    b_matrix,
    decompose,
    kernel_residue,
    kernel_tw,
    kernels_equal,
    pairing_matrix,
)
from kirwan.momentdata import (
    CutLevel,
    load_manifold,
    manifold_to_json,
    split_fixed_points,
)

from oracles import (
    edited,
    localization_expansion,
    localization_pairing,
    reference_tw_kernels,
    rref_rows,
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
    """Canonical subspace of restriction-scalar space from recorded rows."""
    labels = tuple(fp.name for fp in m.fixed_points)
    return subspace_from_rows(0, labels, [[rat(x) for x in row] for row in rows])


def computed_scalar_span(m, subspace):
    labels = tuple(fp.name for fp in m.fixed_points)
    return subspace_from_rows(0, labels, subspace_scalar_rows(m, subspace))


# --- pairings -------------------------------------------------------------------


def test_pairing_recorded_values_cp2():
    exp = EXPECTED["cp2_cut_3_2"]
    m = gen_cpn(exp["lambdas"])
    alpha1 = make_class(m, 2, {"p1": -1, "p2": -2})
    x_unit = make_class(m, 2, {"p0": 1, "p1": 1, "p2": 1})
    one = make_class(m, 0, {"p0": 1, "p1": 1, "p2": 1})
    # rows: the degree-2 basis (X times the unit, then alpha_p1); column: the unit
    assert degree_basis(m, 2) == [x_unit.restrictions, alpha1.restrictions]
    assert degree_basis(m, 0) == [one.restrictions]
    pm = pairing_matrix(m, cut(exp["cut"]), 2)
    assert (pm.row_labels, pm.col_labels) == (("p0", "p1"), ("p0",))
    assert pm.matrix.to_rows() == [
        [rat(exp["pairing_x_vs_unit"])],
        [rat(exp["pairing_alpha_p1_vs_unit"])],
    ]


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
            for eta in degree_basis(m, d):
                for zeta in degree_basis(m, e):
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
    assert pm.matrix.to_rows() == [[rat(exp["pairing_unit_vs_unit"])]]


def test_pairing_matrix_cp2():
    m = gen_cpn([0, 1, 2])
    pm = pairing_matrix(m, cut("3/2"), 2)
    assert pm.matrix.to_rows() == [[Fraction(1, 2)], [Fraction(-1)]]
    assert pm.row_labels == ("p0", "p1")
    assert pm.col_labels == ("p0",)


def test_pairing_matrix_no_complementary_degree():
    m = gen_cpn([0, 1])
    pm = pairing_matrix(m, cut("1/2"), 4)  # beyond 2n-2
    assert pm.matrix.cols == 0
    assert pm.matrix.rows == 2


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


def assert_tw_matches_the_eliminations(m, cuts):
    for c in cuts:
        sweep = Sweep(m, c)
        for d in range(0, 2 * m.n - 1, 2):
            assert kernel_tw(m, c, d, sweep) == reference_tw_kernels(m, c, d), (str(c.c), d)


@pytest.mark.parametrize("label", GOLDEN)
def test_kernel_tw_matches_the_eliminations_on_the_golden_data(label):
    gen, params = GOLDEN[label]
    m = gen(params)
    assert_tw_matches_the_eliminations(m, mid_gap_cuts(m))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-20, 20), min_size=2, max_size=7, unique=True)
        .map(sorted)
        .map(gen_cpn),
        st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=1, max_size=4).map(
            gen_sphere_product
        ),
    )
)
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


# --- decomposition ---------------------------------------------------------------


def test_decompose_cp2_no_corrections_needed():
    m = gen_cpn([0, 1, 2])
    eta = make_class(m, 2, {"p0": 2, "p1": 1})
    cert = decompose(m, eta, cut("3/2"))
    assert cert.coefficients == {"p0": Fraction(2), "p1": Fraction(1)}
    assert cert.corrections == {}
    assert cert.eta_minus == eta
    assert cert.eta_plus.is_zero()
    assert cert.eta_minus.restrictions[2] == 0


def test_decompose_zero_class():
    m = gen_cpn([0, 1, 2])
    cert = decompose(m, make_class(m, 4), cut("1/2"))
    assert all(v == 0 for v in cert.coefficients.values())
    assert cert.eta_plus.is_zero() and cert.eta_minus.is_zero()


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
        basis = degree_basis(m, d)
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


def test_reverse_inclusion_tw_classes_pair_to_zero():
    # classes vanishing on either side of the cut kill every residue pairing
    for m in (gen_cpn([0, 1, 2, 3]), gen_sphere_product([1, 1])):
        for c in (cut("1/2"), cut("-1/2")):
            for d in range(0, 2 * m.n - 1, 2):
                tw_plus, tw_minus, _ = kernel_tw(m, c, d)
                above, _ = split_fixed_points(m, c)
                partners = degree_basis(m, 2 * m.n - 2 - d)
                for side in (tw_plus, tw_minus):
                    values = [
                        [localization_pairing(m, row, col, above) for col in partners]
                        for row in subspace_scalar_rows(m, side)
                    ]
                    assert all(v == 0 for row in values for v in row)


# --- upward-restriction matrix -----------------------------------------------------


def test_b_matrix_cp2_single_point():
    m = gen_cpn([0, 1, 2])
    rep = b_matrix(m, cut("3/2"), 2)
    assert rep.labels == ("p2",)
    assert rep.matrix.to_rows() == [[Fraction(1)]]
    assert rep.m_exponents == (0,)
    assert rep.ok


def test_b_matrix_cp2_all_points_above():
    exp = EXPECTED["cp2_bmatrix_all_plus"]
    m = gen_cpn(exp["lambdas"])
    rep = b_matrix(m, cut(exp["cut"]), exp["degree"])
    assert list(rep.labels) == exp["labels"]
    assert rep.matrix.to_rows() == [[rat(x) for x in row] for row in exp["rows"]]
    assert rep.ok


def test_b_matrix_cp3_recorded():
    exp = EXPECTED["cp3_cut_3_2_decomposition"]["b_matrix_degree_2"]
    m = gen_cpn(EXPECTED["cp3_cut_3_2_decomposition"]["lambdas"])
    rep = b_matrix(m, cut("3/2"), 2)
    assert list(rep.labels) == exp["labels"]
    assert rep.matrix.to_rows() == [[rat(x) for x in row] for row in exp["rows"]]
    assert list(rep.m_exponents) == exp["m_exponents"]
    assert rep.ok


def test_b_matrix_empty_index_set():
    m = gen_cpn([0, 1])
    rep = b_matrix(m, cut("1/2"), 2)  # needs index >= 4, none exists
    assert rep.labels == ()
    assert rep.matrix.rows == 0
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
