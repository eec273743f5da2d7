from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from kirwan.cohomology import (
    degree_basis,
    basis_points,
    linear_combination,
    make_class,
    restrict,
    scale_class,
    add_classes,
    subspace_contains,
    subspace_from_rows,
    subspace_intersection_dim,
    subspace_sum,
    unit_class,
    validate_alpha_basis,
    weighted_gram,
    zero_class,
)
from kirwan.errors import UnknownFixedPoint, ValidationError
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.momentdata import index_census, morse_index


@pytest.fixture
def cp1():
    return gen_cpn([0, 1])


@pytest.fixture
def cp2():
    return gen_cpn([0, 1, 2])


def scalars(m, eta):
    return tuple(eta.restrictions[fp.name] for fp in m.fixed_points)


def random_combo(rng, m, degree):
    basis = degree_basis(m, degree)
    acc = zero_class(m, degree)
    for cls in basis:
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        acc = add_classes(acc, scale_class(cls, c))
    return acc


# --- validator ----------------------------------------------------------------


def test_validator_passes_generator_output():
    for m in (gen_cpn([0, 1]), gen_cpn([0, 1, 2]), gen_cpn([-4, -1, 3, 7]),
              gen_sphere_product([1, 1]), gen_sphere_product([2, -3, 1])):
        report = validate_alpha_basis(m)
        assert report.ok, report.violations


def test_validator_catches_tampered_diagonal(cp2):
    cp2.alpha_minus["p1"]["p1"] = Fraction(1)
    report = validate_alpha_basis(cp2)
    assert any("alpha_minus[p1][p1]" in v for v in report.violations)


def test_validator_catches_support_violation(cp2):
    cp2.alpha_minus["p2"]["p0"] = Fraction(5)
    report = validate_alpha_basis(cp2)
    assert any(
        "alpha_minus[p2][p0]" in v and "vanish" in v for v in report.violations
    )


def test_validator_catches_alpha_plus_violations(cp2):
    cp2.alpha_plus["p0"]["p2"] = Fraction(3)  # p2 sits above p0
    cp2.alpha_plus["p2"]["p2"] = Fraction(7)  # diagonal must be 1
    report = validate_alpha_basis(cp2)
    assert any("alpha_plus[p0][p2]" in v for v in report.violations)
    assert any("alpha_plus[p2][p2]" in v for v in report.violations)


def test_validator_catches_localization_breakage(cp2):
    # support and diagonal stay legal, but the fixed-point sum stops closing up
    cp2.alpha_minus["p1"]["p2"] = Fraction(-3)
    report = validate_alpha_basis(cp2)
    assert any("localization" in v for v in report.violations)


def test_validator_same_level_support(cp2):
    s2x2 = gen_sphere_product([1, 1])
    s2x2.alpha_minus["pm"]["mp"] = Fraction(1)  # tied moments, distinct points
    report = validate_alpha_basis(s2x2)
    assert any("alpha_minus[pm][mp]" in v for v in report.violations)


# --- classes --------------------------------------------------------------------


def test_make_class_fills_and_checks(cp1):
    eta = make_class(cp1, 2, {"p1": "-1"})
    assert scalars(cp1, eta) == (0, -1)
    with pytest.raises(UnknownFixedPoint):
        make_class(cp1, 2, {"nope": 1})
    with pytest.raises(ValidationError):
        make_class(cp1, 3, {})


def test_restrict(cp1):
    one = unit_class(cp1)
    assert restrict(one, "p0") == 1
    alpha1 = make_class(cp1, 2, {"p1": -1})
    assert restrict(alpha1, cp1.fixed_point("p0")) == 0
    assert restrict(alpha1, "p1") == -1
    with pytest.raises(UnknownFixedPoint):
        restrict(one, "nope")


# --- degree bases ---------------------------------------------------------------


def test_degree_basis_cp1(cp1):
    basis = degree_basis(cp1, 2)
    assert [scalars(cp1, b) for b in basis] == [(1, 1), (0, -1)]
    assert [fp.name for fp in basis_points(cp1, 2)] == ["p0", "p1"]


def test_degree_basis_unit(cp2):
    basis = degree_basis(cp2, 0)
    assert len(basis) == 1
    assert scalars(cp2, basis[0]) == (1, 1, 1)


def test_degree_basis_counts(cp2):
    assert len(degree_basis(cp2, 4)) == 3
    assert degree_basis(cp2, 3) == []
    assert degree_basis(cp2, -2) == []


def test_degree_basis_census_consistency():
    for m in (gen_cpn([0, 1, 2, 5]), gen_sphere_product([1, 2])):
        census = index_census(m)
        for d in range(0, 2 * m.n + 2, 2):
            expected = sum(c for ind, c in census.items() if ind <= d)
            assert len(degree_basis(m, d)) == expected


# --- weighted Gram product ------------------------------------------------------


def test_weighted_gram_cp1(cp1):
    # e_p0 = 1, e_p1 = -1; downward classes (1, 1) at p0 and (0, -1) at p1
    pts = list(cp1.fixed_points)
    assert weighted_gram(cp1, pts, pts, pts) == [[0, 1], [1, -1]]
    assert weighted_gram(cp1, pts, pts, pts[1:]) == [[-1, 1], [1, -1]]
    assert weighted_gram(cp1, pts, pts[:1], []) == [[0], [0]]
    assert weighted_gram(cp1, [], pts, pts) == []


def test_weighted_gram_is_symmetric():
    m = gen_sphere_product([2, -3, 1])
    pts = list(m.fixed_points)
    gram = weighted_gram(m, pts, pts, pts[3:])
    assert gram == [list(col) for col in zip(*gram)]


# --- localization ----------------------------------------------------------------
# The localization sum of a product of two downward classes is one weighted Gram
# entry over all fixed points, in the power X^((ind f + ind g)/2 - n).


def unit_point(m):
    """The minimum, whose downward class is the unit."""
    low = m.fixed_points[0]
    assert all(m.alpha_minus_scalar(low.name, g.name) == 1 for g in m.fixed_points)
    return low


def test_localization_sum_unit_classes(cp1, cp2):
    for m in (cp1, cp2):
        one = unit_point(m)
        assert weighted_gram(m, [one], [one], m.fixed_points) == [[0]]


def test_localization_obstruction(cp1):
    cp1.alpha_minus["p0"] = {"p0": Fraction(1)}  # the class {p0: 1} in degree 0
    p0 = cp1.fixed_point("p0")
    assert weighted_gram(cp1, [p0], [p0], cp1.fixed_points) == [[1]]
    assert validate_alpha_basis(cp1).violations[-1] == (
        "localization sum of alpha_minus[p0] * alpha_minus[p0] has residue tail 1 * X^-1"
    )


def test_localization_polynomial_range(cp2):
    # alpha_minus[p2] = {p2: 2} times the unit: degree 4 over X^2 leaves a constant
    p2 = cp2.fixed_point("p2")
    assert weighted_gram(cp2, [p2], [unit_point(cp2)], cp2.fixed_points) == [[1]]
    assert validate_alpha_basis(cp2).ok


def test_localization_fuzz_combos():
    # random combinations eta, zeta with deg eta + deg zeta < 2n: the sum of
    # eta_F zeta_F / e_F is c_eta^T G c_zeta, and it vanishes
    rng = random.Random(7)
    for m in (gen_cpn([0, 1, 2]), gen_cpn([-2, 0, 1, 4]), gen_sphere_product([1, 1])):
        euler = {fp.name: math.prod(fp.weights) for fp in m.fixed_points}
        for d in range(0, 2 * m.n, 2):
            e = rng.choice(range(0, 2 * m.n - d, 2))
            gram = weighted_gram(m, basis_points(m, d), basis_points(m, e), m.fixed_points)
            for _ in range(20):
                a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in gram]
                b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in gram[0]]
                eta = linear_combination(d, zip(a, degree_basis(m, d)))
                zeta = linear_combination(e, zip(b, degree_basis(m, e)))
                direct = sum(
                    eta.restrictions[F] * zeta.restrictions[F] / euler[F] for F in euler
                )
                via_gram = sum(x * g * y for x, row in zip(a, gram) for g, y in zip(row, b))
                assert direct == via_gram == 0


def test_degree_bound_property():
    # a class vanishing strictly below a point either vanishes there
    # or has degree at least the point's index
    rng = random.Random(11)
    for m in (gen_cpn([0, 1, 2, 3]), gen_sphere_product([1, 2])):
        for d in range(0, 2 * m.n + 2, 2):
            for _ in range(10):
                eta = random_combo(rng, m, d)
                for fp in m.fixed_points:
                    below_vanish = all(
                        eta.restrictions[g.name] == 0
                        for g in m.fixed_points
                        if g.moment < fp.moment
                    )
                    if below_vanish:
                        assert (
                            eta.restrictions[fp.name] == 0 or d >= morse_index(fp)
                        )


# --- subspaces ----------------------------------------------------------------


def test_subspace_canonicalization():
    a = subspace_from_rows(2, ("p0", "p1"), [[2, 4]])
    b = subspace_from_rows(2, ("p0", "p1"), [[1, 2], [3, 6]])
    assert a == b
    assert a.dim == 1


def test_subspace_sum_and_intersection():
    labels = ("p0", "p1", "p2")
    a = subspace_from_rows(2, labels, [[1, 0, 0]])
    b = subspace_from_rows(2, labels, [[0, 1, 0]])
    s = subspace_sum(a, b)
    assert s.dim == 2
    assert subspace_intersection_dim(a, b) == 0
    c = subspace_from_rows(2, labels, [[1, 1, 0]])
    assert subspace_intersection_dim(s, c) == 1


def test_subspace_contains():
    s = subspace_from_rows(2, ("p0", "p1"), [[1, 1]])
    assert subspace_contains(s, [2, 2])
    assert not subspace_contains(s, [1, 0])
    assert subspace_contains(s, [0, 0])


def test_zero_scalars_is_zero_class(cp2):
    # restriction vectors are the representation: all zeros means the zero class
    eta = make_class(cp2, 2, {})
    assert eta.is_zero()
    assert eta == zero_class(cp2, 2)
