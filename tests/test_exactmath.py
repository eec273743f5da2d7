from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirwan.cohomology import basis_points
from kirwan.errors import NotTriangular, SingularDiagonal
from kirwan.exactmath import (
    MatrixQ,
    nullspace,
    over_leading_entry,
    rat,
    rat_str,
    rref,
    solve_upper_triangular,
)
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.kernels import kernel_residue, kernel_tw, pairing_matrix
from kirwan.momentdata import CutLevel, split_fixed_points

from oracles import laurent_residue, reference_nullspace, reference_rref, rref_rows

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def eye_rows(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def eye(k):
    return MatrixQ.from_rows(eye_rows(k), cols=k)


def times(rows, v):
    """rows @ v, row by row."""
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows)


# --- rational parsing -------------------------------------------------------


def test_rat_parses_canonical_strings():
    assert rat("3/2") == Fraction(3, 2)
    assert rat("-7") == Fraction(-7)
    assert rat("-6/4") == Fraction(-3, 2)
    assert rat(5) == Fraction(5)


@pytest.mark.parametrize("bad", ["1.5", "1/0", "", "+3", "a/b", "3 / 2", "1e3"])
def test_rat_rejects_non_rational_literals(bad):
    with pytest.raises(ValueError):
        rat(bad)


def test_rat_rejects_bad_types():
    with pytest.raises(TypeError):
        rat(1.5)
    with pytest.raises(TypeError):
        rat(True)


def test_rat_str_is_canonical():
    assert rat_str(Fraction(3, 2)) == "3/2"
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(Fraction(-1, 3)) == "-1/3"


def test_rat_str_writes_numbers_past_the_int_digit_limit():
    # str() of an int with more than 4300 digits raises ValueError
    big = 7 * 10**5000 + 1
    assert rat_str(Fraction(-big)) == "-7" + "0" * 4999 + "1"
    assert rat_str(Fraction(3, big)) == "3/7" + "0" * 4999 + "1"


# --- the residue oracle ------------------------------------------------------


def test_residue_examples_match_oracle():
    assert laurent_residue([0, -2], 2, 2) == Fraction(-1)
    assert laurent_residue([1], -1, 1) == Fraction(-1)
    assert laurent_residue([0, 0, 4], 2, 2) == Fraction(0)


# --- matrices ----------------------------------------------------------------


def test_rref_rank_one():
    red, pivots = rref(MatrixQ.from_rows([[2, 4], [1, 2]]))
    assert red == ((1, 2),)
    assert pivots == (0,)


def test_rref_identity_fixed():
    red, pivots = rref(eye(3))
    assert red == eye_rows(3)
    assert pivots == (0, 1, 2)


def test_rref_zero_matrix():
    assert rref(MatrixQ.from_rows([[0, 0], [0, 0]])) == ((), ())


matrix_strategy = st.integers(min_value=1, max_value=4).flatmap(
    lambda c: st.lists(
        st.lists(rationals, min_size=c, max_size=c), min_size=1, max_size=4
    ).map(lambda rows: MatrixQ.from_rows(rows, cols=c))
)


@given(matrix_strategy)
def test_rref_idempotent(m):
    """Eliminating the integer rows, or the reduced rows they stand for,
    gives them back."""
    red, pivots = rref(m)
    assert rref(MatrixQ.from_rows(red, cols=m.cols)) == (red, pivots)
    fractions = [over_leading_entry(row) for row in red]
    assert rref(MatrixQ.from_rows(fractions, cols=m.cols)) == (red, pivots)


@given(matrix_strategy)
def test_rref_pivots_are_one_and_no_zero_rows(m):
    """Each returned row leads with its pivot, which is 1 once the row is
    divided by it; the other rows are zero in its column, and zero rows are
    not returned."""
    red, pivots = rref(m)
    assert len(red) == len(pivots)
    for i, c in enumerate(pivots):
        assert next(j for j, e in enumerate(red[i]) if e) == c
        assert over_leading_entry(red[i])[c] == 1
        for r, row in enumerate(red):
            if r != i:
                assert row[c] == 0


# Wider than matrix_strategy: up to 8 x 8, numerators and denominators up to
# 10^30, zero rows, zero columns, dependent rows, and matrices with no rows.
wide_entries = st.one_of(
    st.just(Fraction(0)),
    rationals,
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)


@st.composite
def wide_matrices(draw):
    cols = draw(st.integers(min_value=1, max_value=8))
    rows = draw(
        st.lists(st.lists(wide_entries, min_size=cols, max_size=cols), max_size=8)
    )
    for _ in range(draw(st.integers(0, 2))):
        # a combination of two rows already there, replacing a random row
        if len(rows) >= 3:
            i, j, k = draw(st.permutations(range(len(rows))))[:3]
            a, b = draw(rationals), draw(wide_entries)
            rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=3)):
        for row in rows:
            row[j] = Fraction(0)
    if rows:
        for i in draw(st.sets(st.integers(0, len(rows) - 1), max_size=3)):
            rows[i] = [Fraction(0)] * cols
    return MatrixQ.from_rows(rows, cols=cols)


@st.composite
def sparse_matrices(draw):
    """Up to 8 x 16 with about 10% of the entries nonzero, shaped like the
    evaluation matrices of sphere products: some columns repeat another
    column, some are zero."""
    cols = draw(st.integers(min_value=1, max_value=16))
    nrows = draw(st.integers(min_value=1, max_value=8))
    rows = [[Fraction(0)] * cols for _ in range(nrows)]
    cells = nrows * cols
    nonzero = draw(st.integers(max(1, cells // 20), max(1, cells // 7)))
    for cell in draw(st.permutations(range(cells)))[:nonzero]:
        rows[cell // cols][cell % cols] = draw(wide_entries.filter(bool))
    for _ in range(draw(st.integers(0, 3))):
        src, dst = draw(st.integers(0, cols - 1)), draw(st.integers(0, cols - 1))
        for row in rows:
            row[dst] = row[src]
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in rows:
            row[j] = Fraction(0)
    return MatrixQ.from_rows(rows, cols=cols)


def nonzero_rows(m):
    return [row for row in m.to_rows() if any(row)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(wide_matrices(), sparse_matrices()))
def test_rref_and_nullspace_match_fraction_elimination(m):
    """Divided by their leading entry, the rows of `rref` and `nullspace` are
    the nonzero rows of the Fraction elimination, with the same pivots."""
    rows, pivots = rref(m)
    reduced, reference_pivots = reference_rref(m)
    assert pivots == reference_pivots
    assert [over_leading_entry(row) for row in rows] == nonzero_rows(reduced)
    assert [over_leading_entry(v) for v in nullspace(m)] == nonzero_rows(
        reference_nullspace(m)
    )


@settings(max_examples=100, deadline=None)
@given(st.one_of(wide_matrices(), sparse_matrices()))
def test_primitive_rows_are_the_reduced_rows_scaled(m):
    """`rref` and `nullspace` give primitive integer rows with positive
    leading entry, each a positive multiple of the matching nonzero row of
    the Fraction elimination."""
    rows, _ = rref(m)
    basis = nullspace(m)
    expected = nonzero_rows(reference_rref(m)[0]) + nonzero_rows(reference_nullspace(m))
    assert len(rows) + len(basis) == len(expected)
    for row, reduced in zip((*rows, *basis), expected):
        assert all(type(e) is int for e in row)
        assert math.gcd(*row) == 1 and next(e for e in row if e) > 0
        lead = next(e for e in row if e)
        assert [Fraction(e) for e in row] == [lead * e for e in reduced]


def mid_gap_cuts(m):
    levels = sorted({fp.moment for fp in m.fixed_points})
    return [CutLevel((lo + hi) / 2) for lo, hi in zip(levels, levels[1:])]


@pytest.mark.parametrize(
    "m",
    [
        gen_sphere_product([1, 1, 1]),
        gen_sphere_product([1, 2, 3, 5]),
        gen_cpn([-3, -1, 0, 2, 3, 7, 8]),
    ],
    ids=lambda m: m.name,
)
def test_nullspace_matches_fraction_elimination_on_kernel_matrices(m):
    """Every evaluation matrix and every transposed pairing matrix of a sweep,
    at every mid-gap cut: `nullspace` against the Fraction oracle, and the
    library's kernels, built on those rows, against the same oracle."""
    checked = 0
    for cut in mid_gap_cuts(m):
        above, below = split_fixed_points(m, cut)
        for d in range(0, 2 * m.n - 1, 2):
            pts = basis_points(m, d)
            evaluations = [
                MatrixQ.from_rows([[m.alpha_minus[i][j] for i in pts] for j in side], cols=len(pts))
                for side in (above, below)
            ]
            matrix = pairing_matrix(m, cut, d).matrix
            pairing = MatrixQ.from_rows([*zip(*matrix.to_rows())], cols=matrix.rows)
            computed = [*kernel_tw(m, cut, d)[:2], kernel_residue(m, cut, d)]
            for matrix, kernel in zip([*evaluations, pairing], computed):
                expected = reference_nullspace(matrix).to_rows()
                assert [over_leading_entry(v) for v in nullspace(matrix)] == expected
                assert rref_rows(kernel) == expected
                checked += 1
    assert checked >= 3 * len(mid_gap_cuts(m))


def test_nullspace_spec_examples():
    assert nullspace(MatrixQ.from_rows([[1, -1]])) == ((1, 1),)
    assert nullspace(eye(2)) == ()
    # span{(2, 1)} in canonical form has leading coefficient 1
    ns = nullspace(MatrixQ.from_rows([[Fraction(1, 2), -1]]))
    assert ns == ((2, 1),)
    assert over_leading_entry(ns[0]) == [1, Fraction(1, 2)]
    canonical, _ = rref(MatrixQ.from_rows([[2, 1]]))
    assert ns == canonical


@given(matrix_strategy)
def test_nullspace_vectors_annihilate_and_rank_nullity(m):
    ns = nullspace(m)
    _, pivots = rref(m)
    assert len(pivots) + len(ns) == m.cols
    for v in ns:
        assert all(x == 0 for x in times(m.to_rows(), v))


def test_nullspace_of_empty_constraint_matrix():
    assert nullspace(MatrixQ(0, 3, ())) == eye_rows(3)


def test_solve_upper_triangular_examples():
    assert solve_upper_triangular([[1]], [-1]) == (Fraction(-1),)
    assert solve_upper_triangular([[1, 1], [0, -1]], [0, -1]) == (Fraction(-1), Fraction(1))
    assert solve_upper_triangular([[2, 0], [0, 3]], [4, 6]) == (Fraction(2), Fraction(2))


def test_solve_upper_triangular_errors():
    with pytest.raises(SingularDiagonal):
        solve_upper_triangular([[1, 2], [0, 0]], [1, 1])
    with pytest.raises(NotTriangular):
        solve_upper_triangular([[1, 0], [2, 1]], [1, 1])
    with pytest.raises(ValueError):
        solve_upper_triangular([[1, 0]], [1])


@pytest.mark.parametrize("bad", [0.5, True])
def test_solve_upper_triangular_rejects_non_exact_entries(bad):
    """Nothing checks the entries of the rows on their way in, so the solve
    does: a float would turn the back-substitution into float arithmetic."""
    with pytest.raises(TypeError):
        solve_upper_triangular([[1, bad], [0, 2]], [1, 1])


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.lists(rationals, min_size=k, max_size=k), min_size=k, max_size=k
            ),
            st.lists(rationals, min_size=k, max_size=k),
        )
    )
)
def test_solve_upper_triangular_roundtrip(data):
    rows, x = data
    k = len(x)
    tri = [
        [
            Fraction(1) if i == j else (rows[i][j] if j > i else Fraction(0))
            for j in range(k)
        ]
        for i in range(k)
    ]
    assert solve_upper_triangular(tri, times(tri, x)) == tuple(x)

