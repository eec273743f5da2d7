from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kirwan.cohomology import basis_points
from kirwan.exactmath import (
    meet,
    nullspace,
    rat,
    rat_str,
    ratio_str,
    rref,
)
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.kernels import kernel_residue, kernel_tw, pairing_matrix
from kirwan.momentdata import CutLevel, split_fixed_points

from oracles import (
    laurent_residue,
    reduced_row,
    reference_nullspace,
    reference_rref,
    rref_rows,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def eye_rows(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


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


# integers up to 10^4500, past the 4300 digits str() writes
LONG_INTEGERS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(1, 4500).map(lambda k: 10**k).flatmap(lambda b: st.integers(-b, b)),
)


@settings(max_examples=200, deadline=None)
@given(LONG_INTEGERS, LONG_INTEGERS.filter(bool))
@example(7 * 10**5000 + 1, -3)
@example(0, -(10**4400))
@example(6 * 10**4400, -4 * 10**4400)
def test_ratio_str_is_rat_str_of_the_fraction(num, den):
    assert ratio_str(num, den) == rat_str(Fraction(num, den))


# --- the residue oracle ------------------------------------------------------


def test_residue_examples_match_oracle():
    assert laurent_residue([0, -2], 2, 2) == Fraction(-1)
    assert laurent_residue([1], -1, 1) == Fraction(-1)
    assert laurent_residue([0, 0, 4], 2, 2) == Fraction(0)


# --- matrices ----------------------------------------------------------------


def test_rref_rank_one():
    red, pivots = rref([[2, 4], [1, 2]], 2)
    assert red == ((1, 2),)
    assert pivots == (0,)


def test_rref_identity_fixed():
    red, pivots = rref(eye_rows(3), 3)
    assert red == eye_rows(3)
    assert pivots == (0, 1, 2)


def test_rref_zero_matrix():
    assert rref([[0, 0], [0, 0]], 2) == ((), ())


matrix_strategy = st.integers(min_value=1, max_value=4).flatmap(
    lambda c: st.lists(
        st.lists(rationals, min_size=c, max_size=c), min_size=1, max_size=4
    ).map(lambda rows: (rows, c))
)


@given(matrix_strategy)
def test_rref_idempotent(m):
    """Eliminating the integer rows, or the reduced rows they stand for,
    gives them back."""
    rows, width = m
    red, pivots = rref(rows, width)
    assert rref(red, width) == (red, pivots)
    fractions = [reduced_row(row) for row in red]
    assert rref(fractions, width) == (red, pivots)


@given(matrix_strategy)
def test_rref_pivots_are_one_and_no_zero_rows(m):
    """Each returned row leads with its pivot, which is 1 once the row is
    divided by it; the other rows are zero in its column, and zero rows are
    not returned."""
    red, pivots = rref(*m)
    assert len(red) == len(pivots)
    for i, c in enumerate(pivots):
        assert next(j for j, e in enumerate(red[i]) if e) == c
        assert reduced_row(red[i])[c] == 1
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
    return rows, cols


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
    return rows, cols


def nonzero_rows(rows):
    return [row for row in rows if any(row)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(wide_matrices(), sparse_matrices()))
def test_rref_and_nullspace_match_fraction_elimination(m):
    """Divided by their leading entry, the rows of `rref` and `nullspace` are
    the nonzero rows of the Fraction elimination, with the same pivots."""
    rows, pivots = rref(*m)
    reduced, reference_pivots = reference_rref(*m)
    assert pivots == reference_pivots
    assert [reduced_row(row) for row in rows] == nonzero_rows(reduced)
    assert [reduced_row(v) for v in nullspace(*m)] == nonzero_rows(
        reference_nullspace(*m)
    )


@settings(max_examples=100, deadline=None)
@given(st.one_of(wide_matrices(), sparse_matrices()))
def test_primitive_rows_are_the_reduced_rows_scaled(m):
    """`rref` and `nullspace` give primitive integer rows with positive
    leading entry, each a positive multiple of the matching nonzero row of
    the Fraction elimination."""
    rows, _ = rref(*m)
    basis = nullspace(*m)
    expected = nonzero_rows(reference_rref(*m)[0]) + nonzero_rows(reference_nullspace(*m))
    assert len(rows) + len(basis) == len(expected)
    for row, reduced in zip((*rows, *basis), expected):
        assert all(type(e) is int for e in row)
        assert math.gcd(*row) == 1 and next(e for e in row if e) > 0
        lead = next(e for e in row if e)
        assert [Fraction(e) for e in row] == [lead * e for e in reduced]


def primitive(row):
    """A nonzero Fraction row as its primitive integer multiple of the same sign."""
    den = math.lcm(*(e.denominator for e in row))
    ints = [int(e * den) for e in row]
    g = math.gcd(*ints)
    return tuple(e // g for e in ints)


@st.composite
def canonical_rows_and_values(draw):
    """Canonical rows (the Fraction elimination of a random matrix, as
    primitive rows), their width, and a functional's values on them: all
    zero, a unit column, or random integers."""
    rows, width = draw(st.one_of(wide_matrices(), sparse_matrices()))
    basis = [primitive(row) for row in nonzero_rows(reference_rref(rows, width)[0])]
    r = len(basis)
    values = draw(
        st.one_of(
            st.just([0] * r),
            st.integers(0, width - 1).map(lambda c: [row[c] for row in basis]),
            st.lists(
                st.integers(-50, 50) | st.integers(-(10**30), 10**30), min_size=r, max_size=r
            ),
        )
    )
    return basis, width, values


@settings(max_examples=200, derandomize=True, deadline=None)
@given(canonical_rows_and_values())
@example(case=([(2, 0, 1), (0, 2, 1)], 3, [1, 1]))  # the combination (2, -2, 0) needs its gcd
def test_meet_matches_fraction_elimination(case):
    """`meet` gives the primitive rows of the Fraction elimination of the rows
    combined by the null space of the values: the span where the functional
    is zero, in canonical form."""
    basis, width, values = case
    combos = reference_nullspace([[Fraction(t) for t in values]], len(basis))
    spanning = [
        [sum((c * row[j] for c, row in zip(v, basis)), Fraction(0)) for j in range(width)]
        for v in combos
    ]
    got = meet(basis, values)
    assert [reduced_row(row) for row in got] == nonzero_rows(reference_rref(spanning, width)[0])
    for row in got:
        assert all(type(e) is int for e in row)
        assert math.gcd(*row) == 1 and next(e for e in row if e) > 0


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
                ([[m.alpha_minus[i][j] for i in pts] for j in side], len(pts))
                for side in (above, below)
            ]
            pm = pairing_matrix(m, cut, d)
            pairing = ([*zip(*pm.matrix)], len(pm.row_labels))
            computed = [*kernel_tw(m, cut, d)[:2], kernel_residue(m, cut, d)]
            for matrix, kernel in zip([*evaluations, pairing], computed):
                expected = reference_nullspace(*matrix)
                assert [reduced_row(v) for v in nullspace(*matrix)] == expected
                assert rref_rows(kernel) == expected
                checked += 1
    assert checked >= 3 * len(mid_gap_cuts(m))


def test_nullspace_spec_examples():
    assert nullspace([[1, -1]], 2) == ((1, 1),)
    assert nullspace(eye_rows(2), 2) == ()
    # span{(2, 1)} in canonical form has leading coefficient 1
    ns = nullspace([[Fraction(1, 2), -1]], 2)
    assert ns == ((2, 1),)
    assert reduced_row(ns[0]) == [1, Fraction(1, 2)]
    canonical, _ = rref([[2, 1]], 2)
    assert ns == canonical


@given(matrix_strategy)
def test_nullspace_vectors_annihilate_and_rank_nullity(m):
    rows, width = m
    ns = nullspace(rows, width)
    _, pivots = rref(rows, width)
    assert len(pivots) + len(ns) == width
    for v in ns:
        assert all(x == 0 for x in times(rows, v))


def test_nullspace_of_empty_constraint_matrix():
    assert nullspace((), 3) == eye_rows(3)


@pytest.mark.parametrize("eliminate", [rref, nullspace])
def test_a_row_of_another_width_raises(eliminate):
    with pytest.raises(ValueError, match="row of length 1 in a matrix of width 2"):
        eliminate([[1, 2], [3]], 2)

