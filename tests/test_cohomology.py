from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirwan.cohomology import (
    EquivariantClass,
    ValidationReport,
    combine_rows,
    degree_basis,
    basis_points,
    make_class,
    subspace_contains,
    subspace_from_rows,
    subspace_sum,
    validate_alpha_basis,
    weighted_gram,
)
from kirwan.errors import UnknownFixedPoint, ValidationError
from kirwan.exactmath import MatrixQ
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.momentdata import index_census, morse_index

from oracles import (
    combination,
    edited,
    localization_pairing,
    reference_rref,
    reference_support_violations,
)


@pytest.fixture
def cp1():
    return gen_cpn([0, 1])


@pytest.fixture
def cp2():
    return gen_cpn([0, 1, 2])


def random_combo(rng, m, degree):
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in degree_basis(m, degree)
    ]
    return combination(m, degree, coeffs)


# --- validator ----------------------------------------------------------------


def test_validator_passes_generator_output():
    for m in (gen_cpn([0, 1]), gen_cpn([0, 1, 2]), gen_cpn([-4, -1, 3, 7]),
              gen_sphere_product([1, 1]), gen_sphere_product([2, -3, 1])):
        report = validate_alpha_basis(m)
        assert report.ok, report.violations


def test_validator_catches_tampered_diagonal(cp2):
    report = validate_alpha_basis(edited(cp2, ("alpha_minus", "p1", "p1", "1")))
    assert any("alpha_minus[p1][p1]" in v for v in report.violations)
    assert type(report.violations) is tuple
    assert hash(report) == hash(ValidationReport(report.violations))


def test_diagonal_check_reads_tables_over_a_denominator(cp2):
    # a fractional entry puts the integer tables over den 6 and 5
    for label in ("alpha_minus", "alpha_plus"):
        other = "alpha_plus" if label == "alpha_minus" else "alpha_minus"
        fractional = edited(cp2, (label, "p1", "p1", "-3/2"), (other, "p0", "p1", "1/5"))
        diagonal = [v for v in validate_alpha_basis(fractional).violations if "product" in v]
        sign, product = ("negative", "-1") if label == "alpha_minus" else ("positive", "1")
        assert diagonal == [
            f"{label}[p1][p1] = -3/2 but the {sign}-weight product is {product}"
        ]
        scaled = edited(cp2, (label, "p2", "p1", "1/6"))
        assert not [v for v in validate_alpha_basis(scaled).violations if "product" in v]


def test_validator_catches_support_violation(cp2):
    report = validate_alpha_basis(edited(cp2, ("alpha_minus", "p2", "p0", "5")))
    assert any(
        "alpha_minus[p2][p0]" in v and "vanish" in v for v in report.violations
    )


def test_validator_catches_alpha_plus_violations(cp2):
    broken = edited(
        cp2,
        ("alpha_plus", "p0", "p2", "3"),  # p2 sits above p0
        ("alpha_plus", "p2", "p2", "7"),  # diagonal must be 1
    )
    report = validate_alpha_basis(broken)
    assert any("alpha_plus[p0][p2]" in v for v in report.violations)
    assert any("alpha_plus[p2][p2]" in v for v in report.violations)


def test_validator_catches_localization_breakage(cp2):
    # support and diagonal stay legal, but the fixed-point sum stops closing up
    report = validate_alpha_basis(edited(cp2, ("alpha_minus", "p1", "p2", "-3")))
    assert any("localization" in v for v in report.violations)


def test_validator_same_level_support(cp2):
    # tied moments, distinct points
    s2x2 = edited(gen_sphere_product([1, 1]), ("alpha_minus", "pm", "mp", "1"))
    report = validate_alpha_basis(s2x2)
    assert any("alpha_minus[pm][mp]" in v for v in report.violations)


# distinct primes above 10^9, one per mutated entry, so the table denominators
# multiply up to a large lcm
PRIMES = (
    1000000007, 1000000009, 1000000021, 1000000033, 1000000087, 1000000093,
    1000000097, 1000000103, 1000000123, 1000000181, 1000000207, 1000000223,
)
TAIL = re.compile(
    r"localization sum of alpha_minus\[(.+)\] \* alpha_minus\[(.+)\] "
    r"has residue tail (\S+) \* X\^-?\d+\Z"
)


def mutate_both_tables(rng, m, count):
    """Overwrite `count` random entries of alpha_minus or alpha_plus, zero ones
    included, each with a value over its own large prime denominator."""
    names = [fp.name for fp in m.fixed_points]
    entries = []
    for prime in PRIMES[:count]:
        table = rng.choice(("alpha_minus", "alpha_plus"))
        value = Fraction(rng.randint(-9, 9), prime)
        entries.append((table, rng.choice(names), rng.choice(names), str(value)))
    return edited(m, *entries)


def test_support_and_tail_violations_match_the_pairwise_oracles():
    rng = random.Random(2027)
    tied = [[1, 1], [1, 1, 2], [1, 2, 3], [2, 1, 1, 3], [1, 1, 1, 1]]
    data = [gen_sphere_product(w) for w in tied] + [gen_cpn([-2, 0, 1, 5])]
    tables = set()
    for m in data:
        for _ in range(12):
            broken = mutate_both_tables(rng, m, rng.randint(1, len(PRIMES)))
            found = validate_alpha_basis(broken).violations
            expected = list(
                reference_support_violations(broken, "alpha_minus", broken.alpha_minus, False)
            ) + list(reference_support_violations(broken, "alpha_plus", broken.alpha_plus, True))
            assert [v for v in found if " must vanish: " in v] == expected
            tables.update(v.partition("[")[0] for v in expected)
            # the residue tails, over the large common denominator
            pts, ind = broken.fixed_points, broken.morse_indices
            sums = [
                (pts[i].name, pts[j].name, localization_pairing(
                    broken, broken.alpha_minus[i], broken.alpha_minus[j], range(len(pts))
                ))
                for i in range(len(pts))
                for j in range(i, len(pts))
                if ind[i] + ind[j] < 2 * broken.n
            ]
            tails = [(f, g, str(c)) for f, g, c in sums if c]
            assert [TAIL.match(v).groups() for v in found if TAIL.match(v)] == tails
    assert tables == {"alpha_minus", "alpha_plus"}


# --- classes --------------------------------------------------------------------


def test_make_class_fills_and_checks(cp1):
    eta = make_class(cp1, 2, {"p1": "-1"})
    assert eta.restrictions == (0, -1)
    with pytest.raises(UnknownFixedPoint):
        make_class(cp1, 2, {"nope": 1})
    with pytest.raises(ValidationError):
        make_class(cp1, 3, {})


# --- degree bases ---------------------------------------------------------------


def test_degree_basis_cp1(cp1):
    assert degree_basis(cp1, 2) == [(1, 1), (0, -1)]
    assert basis_points(cp1, 2) == [0, 1]


def test_degree_basis_unit(cp2):
    assert degree_basis(cp2, 0) == [(1, 1, 1)]


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
    rows = [0, 1]
    assert weighted_gram(cp1, rows, rows, [0, 1]) == [[0, 1], [1, -1]]
    assert weighted_gram(cp1, rows, rows, [1]) == [[-1, 1], [1, -1]]
    assert weighted_gram(cp1, rows, rows[:1], []) == [[0], [0]]
    assert weighted_gram(cp1, [], rows, [0, 1]) == []


def test_weighted_gram_is_symmetric():
    m = gen_sphere_product([2, -3, 1])
    gram = weighted_gram(m, range(8), range(8), range(3, 8))
    assert gram == [list(col) for col in zip(*gram)]


# --- localization ----------------------------------------------------------------
# The localization sum of a product of two downward classes is one weighted Gram
# entry over all fixed points, in the power X^((ind f + ind g)/2 - n).


def unit_position(m):
    """Position of the downward class of the minimum, which is the unit."""
    assert all(s == 1 for s in m.alpha_minus[0])
    return 0


def everywhere(m):
    return range(len(m.fixed_points))


def test_localization_sum_unit_classes(cp1, cp2):
    for m in (cp1, cp2):
        one = unit_position(m)
        assert weighted_gram(m, [one], [one], everywhere(m)) == [[0]]


def test_localization_obstruction(cp1):
    broken = edited(cp1, ("alpha_minus", "p0", "p1", "0"))  # the class {p0: 1} in degree 0
    assert weighted_gram(broken, [0], [0], everywhere(broken)) == [[1]]
    assert validate_alpha_basis(broken).violations[-1] == (
        "localization sum of alpha_minus[p0] * alpha_minus[p0] has residue tail 1 * X^-1"
    )


def test_localization_polynomial_range(cp2):
    # alpha_minus[p2] = {p2: 2} times the unit: degree 4 over X^2 leaves a constant
    assert weighted_gram(cp2, [2], [unit_position(cp2)], everywhere(cp2)) == [[1]]
    assert validate_alpha_basis(cp2).ok


def test_localization_fuzz_combos():
    # random combinations eta, zeta with deg eta + deg zeta < 2n: the sum of
    # eta_F zeta_F / e_F is c_eta^T G c_zeta, and it vanishes
    rng = random.Random(7)
    for m in (gen_cpn([0, 1, 2]), gen_cpn([-2, 0, 1, 4]), gen_sphere_product([1, 1])):
        euler = [math.prod(fp.weights) for fp in m.fixed_points]
        for d in range(0, 2 * m.n, 2):
            e = rng.choice(range(0, 2 * m.n - d, 2))
            gram = weighted_gram(m, basis_points(m, d), basis_points(m, e), everywhere(m))
            for _ in range(20):
                a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in gram]
                b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in gram[0]]
                eta = combination(m, d, a)
                zeta = combination(m, e, b)
                direct = sum(
                    s * t / w for s, t, w in zip(eta.restrictions, zeta.restrictions, euler)
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
                for fp, s in zip(m.fixed_points, eta.restrictions):
                    below_vanish = all(
                        t == 0
                        for g, t in zip(m.fixed_points, eta.restrictions)
                        if g.moment < fp.moment
                    )
                    if below_vanish:
                        assert s == 0 or d >= morse_index(fp)


# --- subspaces ----------------------------------------------------------------


def test_subspace_canonicalization():
    a = subspace_from_rows(2, ("p0", "p1"), [[2, 4]])
    b = subspace_from_rows(2, ("p0", "p1"), [[1, 2], [3, 6]])
    assert a == b
    assert a.dim == 1


def test_subspace_basis_is_reduced_primitive_and_positive():
    labels = ("p0", "p1", "p2")
    # eliminating these rows in column order leaves negative pivots behind
    a = subspace_from_rows(2, labels, [[1, 1, 0], [1, 0, 1]])
    b = subspace_from_rows(2, labels, [[-2, 0, -2], [0, Fraction(-1, 3), Fraction(1, 3)]])
    assert a == b
    assert a.basis == ((1, 0, 1), (0, 1, -1))
    c = subspace_from_rows(2, labels, [[Fraction(1, 2), Fraction(-3, 4), 0], [0, 0, -5]])
    assert c.basis == ((2, -3, 0), (0, 0, 1))


def test_subspace_sum_and_intersection():
    labels = ("p0", "p1", "p2")
    a = subspace_from_rows(2, labels, [[1, 0, 0]])
    b = subspace_from_rows(2, labels, [[0, 1, 0]])
    s = subspace_sum(a, b)
    assert s.dim == 2
    assert a.dim + b.dim - s.dim == 0  # dimension of the intersection
    c = subspace_from_rows(2, labels, [[1, 1, 0]])
    assert subspace_sum(s, c) == s
    assert s.dim + c.dim - subspace_sum(s, c).dim == 1


def test_subspace_contains():
    s = subspace_from_rows(2, ("p0", "p1"), [[1, 1]])
    assert subspace_contains(s, [2, 2])
    assert not subspace_contains(s, [1, 0])
    assert subspace_contains(s, [0, 0])


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def spans_and_vectors(draw):
    """Spanning rows of width 1-5 and a vector of Fractions: a combination
    of the rows, the zero vector, or any vector."""
    width = draw(st.integers(1, 5))
    vectors = st.lists(rationals, min_size=width, max_size=width)
    rows = draw(st.lists(vectors, max_size=4))
    kind = draw(st.sampled_from(["combination", "zero", "any"]))
    if kind == "combination":
        coeffs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        v = [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(width)]
    elif kind == "zero":
        v = [Fraction(0)] * width
    else:
        v = draw(vectors)
    return rows, v


@settings(max_examples=200, deadline=None)
@given(spans_and_vectors())
def test_subspace_contains_matches_the_rank_oracle(data):
    """v lies in the span exactly when adding it to the spanning rows leaves
    the rank of the Fraction elimination as it is."""
    rows, v = data
    width = len(v)
    s = subspace_from_rows(2, tuple(f"p{j}" for j in range(width)), rows)
    rank = len(reference_rref(MatrixQ.from_rows(rows, cols=width))[1])
    rank_with_v = len(reference_rref(MatrixQ.from_rows([*rows, v], cols=width))[1])
    assert subspace_contains(s, v) == (rank_with_v == rank)
    with pytest.raises(ValidationError):
        subspace_contains(s, [*v, 0])


def test_combine_rows_matches_pointwise_sum():
    rng = random.Random(5)
    m = gen_sphere_product([1, 2, 3])
    for d in range(0, 2 * m.n + 1, 2):
        for _ in range(5):
            # zero coefficients are skipped; they must not change the sum
            coeffs = [Fraction(rng.choice([0, 0, rng.randint(-9, 9)]), rng.randint(1, 9))
                      for _ in degree_basis(m, d)]
            expanded = combine_rows(coeffs, degree_basis(m, d), len(m.fixed_points))
            assert expanded == combination(m, d, coeffs).restrictions


def test_zero_scalars_is_zero_class(cp2):
    # restriction vectors are the representation: all zeros means the zero class
    eta = make_class(cp2, 2, {})
    assert eta.is_zero()
    assert eta == EquivariantClass(2, (Fraction(0),) * 3)
