from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirwan.cohomology import validate_alpha_basis
from kirwan.errors import SpecError
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.kernels import kernels_equal
from kirwan.momentdata import CutLevel, index_census, morse_index

from oracles import reference_cpn, reference_sphere_product


def test_cp1_tables_match_hand_values():
    m = gen_cpn([0, 1])
    assert [(fp.name, fp.moment, fp.weights) for fp in m.fixed_points] == [
        ("p0", Fraction(0), (1,)),
        ("p1", Fraction(1), (-1,)),
    ]
    assert m.alpha_minus == ((1, 1), (0, -1))


def test_cp2_tables_match_hand_values():
    m = gen_cpn([0, 1, 2])
    assert m.euler_classes == (2, -1, 2)
    # rows and columns in fixed-point order p0, p1, p2
    assert m.alpha_minus[1:] == ((0, -1, -2), (0, 0, 2))
    assert m.alpha_plus[1:] == ((2, 1, 0), (1, 1, 1))


def test_cpn_spec_rejects_non_increasing():
    with pytest.raises(SpecError, match="must be strictly increasing"):
        gen_cpn([0, 0, 1])
    with pytest.raises(SpecError, match="must be strictly increasing"):
        gen_cpn((3, 1))
    with pytest.raises(SpecError, match="need at least two homogeneous weights"):
        gen_cpn((1,))
    with pytest.raises(SpecError, match="homogeneous weights must be integers"):
        gen_cpn([0, True])


def test_sphere_spec_rejects_zero_speed():
    with pytest.raises(SpecError, match="rotation speeds must be nonzero"):
        gen_sphere_product([1, 0])
    with pytest.raises(SpecError, match="need at least one sphere factor"):
        gen_sphere_product(())
    with pytest.raises(SpecError, match="rotation speeds must be integers"):
        gen_sphere_product([1, 1.0])


def test_single_sphere_matches_cp1_structure():
    s = gen_sphere_product([1])
    c = gen_cpn([0, 1])
    assert [fp.weights for fp in s.fixed_points] == [fp.weights for fp in c.fixed_points]
    # same restriction tables once points are matched by moment order, which
    # is the order of the positional tables
    assert s.alpha_minus == c.alpha_minus
    # kernels agree at the corresponding cuts (moments are -1,1 versus 0,1)
    for d in (0, 2):
        rs = kernels_equal(s, CutLevel(Fraction(0)), d)
        rc = kernels_equal(c, CutLevel(Fraction(1, 2)), d)
        assert (rs.betti, rs.residue_kernel.dim) == (rc.betti, rc.residue_kernel.dim)


def test_sphere_product_tie_case():
    m = gen_sphere_product([1, 1])
    assert [str(fp.moment) for fp in m.fixed_points] == ["-2", "0", "0", "2"]
    assert index_census(m) == {0: 1, 2: 2, 4: 1}
    assert validate_alpha_basis(m).ok


def test_sphere_speeds_enter_by_absolute_value():
    a = gen_sphere_product([2, 3])
    b = gen_sphere_product([-2, 3])
    assert [fp.weights for fp in a.fixed_points] == [fp.weights for fp in b.fixed_points]
    assert a.alpha_minus == b.alpha_minus
    assert a.alpha_plus == b.alpha_plus


def test_cpn_index_census():
    for lam in ([0, 1], [0, 1, 2], [-5, -1, 0, 8]):
        m = gen_cpn(lam)
        n = len(lam) - 1
        assert index_census(m) == {2 * i: 1 for i in range(n + 1)}


def test_every_generated_datum_validates():
    for m in (
        gen_cpn([0, 3, 4]),
        gen_cpn([-9, -2, 0, 1, 7]),
        gen_sphere_product([4]),
        gen_sphere_product([1, 5, 2]),
    ):
        assert validate_alpha_basis(m).ok


def test_moment_translation_invariance():
    base = gen_cpn([0, 1, 2])
    shifted = gen_cpn([5, 6, 7])
    for d in (0, 2):
        for gap in (Fraction(1, 2), Fraction(3, 2)):
            r0 = kernels_equal(base, CutLevel(gap), d)
            r5 = kernels_equal(shifted, CutLevel(gap + 5), d)
            assert r0.residue_kernel == r5.residue_kernel
            assert r0.tw_sum == r5.tw_sum
            assert r0.betti == r5.betti


def test_max_point_alpha_plus_is_unit():
    m = gen_cpn([0, 1, 2, 3])
    top = m.fixed_points[-1]
    assert morse_index(top) == 2 * m.n
    assert all(v == 1 for v in m.alpha_plus[-1])


# --- closed forms ------------------------------------------------------------------

cpn_lambdas = st.lists(st.integers(-60, 60), min_size=2, max_size=15, unique=True).map(sorted)
sphere_speeds = st.lists(
    st.sampled_from((-7, -5, -3, -2, -1, 1, 2, 3, 5, 7)), min_size=1, max_size=6
)


def named(m):
    """m's name, fixed points and tables, keyed by fixed-point name."""
    pts = m.fixed_points
    points = [(fp.name, fp.moment, fp.weights) for fp in pts]

    def table(t):
        return {f.name: {g.name: s for g, s in zip(pts, row)} for f, row in zip(pts, t)}

    return m.name, points, table(m.alpha_minus), table(m.alpha_plus)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.one_of(
    cpn_lambdas.map(lambda ls: (gen_cpn, reference_cpn, ls)),
    sphere_speeds.map(lambda ws: (gen_sphere_product, reference_sphere_product, ws)),
))
def test_generated_data_match_the_closed_forms(case):
    generate, reference, args = case
    name, points, alpha_minus, alpha_plus = reference(args)
    got_name, got_points, got_minus, got_plus = named(generate(args))
    assert got_name == name
    assert sorted(got_points) == sorted(points)
    assert got_minus == alpha_minus
    assert got_plus == alpha_plus
