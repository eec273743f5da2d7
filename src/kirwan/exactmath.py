"""Exact arithmetic substrate: rationals and row-reduction linear algebra
over Q.

Scalars are fractions.Fraction (arbitrary precision, always in lowest terms,
positive denominator) and serialize as "p/q" strings, so no float ever enters
the pipeline.  A matrix is a sequence of rows of ints and Fractions, with its
width given alongside, so that a matrix with no rows still has one.
Elimination runs on integer rows: a rational row spans the same line as its
integer multiples, so `rref` and `nullspace` give canonical bases of row spans
and null spaces as primitive integer rows (each divided by the gcd of its
entries, with positive leading entry).  Divided by its leading entry, such a
row is its reduced-row-echelon row; `ratio_str` writes each entry of that
quotient from the two integers, with no Fraction made.  `meet` cuts such a
basis down by one linear condition, with no elimination.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from fractions import Fraction

__all__ = [
    "rat",
    "rat_str",
    "ratio_str",
    "rref",
    "nullspace",
    "meet",
]

RationalLike = Fraction | int | str

# ASCII digits only: \d would also match other scripts' decimal digits
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to a Fraction.

    Strings must match ``-?digits[/digits]`` in ASCII digits; float syntax is
    rejected so serialized data can never smuggle in rounding.

    >>> str(rat("-6/4"))
    '-3/2'
    """
    if isinstance(value, str):
        match = _RATIONAL_RE.match(value)
        if match is None:
            raise ValueError(f"not a rational literal: {value!r}")
        num, den = match.groups()
        if den and int(den) == 0:
            raise ValueError(f"zero denominator: {value!r}")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def rat_str(value: Fraction | int) -> str:
    """Canonical string form: "p/q", or just "p" when the denominator is 1 (an int)."""
    return _lowest_terms_str(value.numerator, value.denominator)


def ratio_str(num: int, den: int) -> str:
    """`rat_str` of num/den for a nonzero den, with no Fraction made: reduced
    by one gcd, the denominator made positive, "0" for zero.

    >>> ratio_str(6, -4), ratio_str(0, -4), ratio_str(-8, 4)
    ('-3/2', '0', '-2')
    """
    if not num:
        return "0"
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return _lowest_terms_str(num // g, den // g)


def _lowest_terms_str(num: int, den: int) -> str:
    """num/den in lowest terms with den > 0, written in full even past the
    4300 digits to which str() limits an int: products of long input
    integers (Euler classes, Gram entries) get there."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        from decimal import Decimal  # exact for ints, with no digit limit

        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def _integer_row(row: Sequence[Fraction | int]) -> Sequence[int]:
    """The row times the lcm of its denominators: the same line, in integers."""
    if {*map(type, row)} <= {int}:
        return row
    den = math.lcm(*[e.denominator for e in row])
    return [e.numerator * (den // e.denominator) for e in row]


def rref(
    rows: Sequence[Sequence[Fraction | int]], width: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form of the rows, each of
    length width, in integers, and the pivot columns.

    Gauss-Jordan elimination over the integers: each row is first scaled to
    a primitive integer row, and an update a*row - b*pivot_row is divided by
    the gcd of its entries too, so every returned row is primitive.  Its
    pivot entry is made positive, and it is zero in every other pivot column.
    Such a row is the unique primitive integer multiple with positive pivot
    of the corresponding row of the reduced row echelon form over the
    rationals, so two row spaces are equal exactly when their rows are.
    A row of another length raises ValueError.

    >>> rref([[2, 4], [1, Fraction(3, 2)]], 2)
    (((1, 0), (0, 1)), (0, 1))
    >>> rref((), 3)
    ((), ())
    """
    work = []
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row of length {len(row)} in a matrix of width {width}")
        row = _integer_row(row)
        g = math.gcd(*row)
        if g:
            work.append(row if g == 1 else [e // g for e in row])
    pivots: list[int] = []
    r = 0
    for c in range(width):
        if r == len(work):
            break
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        top = work[r]
        pv = top[c]
        for i, row in enumerate(work):
            x = row[c]
            if x and i != r:
                g = math.gcd(pv, x)
                a, b = pv // g, x // g
                row = [a * e - b * t for e, t in zip(row, top)]
                g = math.gcd(*row)
                work[i] = row if g <= 1 else [e // g for e in row]
        pivots.append(c)
        r += 1
    reduced = tuple(
        tuple(row) if row[c] > 0 else tuple(-e for e in row)
        for row, c in zip(work, pivots)
    )
    return reduced, tuple(pivots)


def nullspace(
    rows: Sequence[Sequence[Fraction | int]], width: int
) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of {v : rows @ v = 0} for rows of length width, scaled
    as the rows of `rref`.

    The dimension is width - rank; a full-rank square matrix yields no rows,
    and no rows at all yield the unit rows.

    One elimination: `rref` of the rows with their columns in reverse order.
    Read in the original order, each pivot row is then nonzero only at its
    pivot p and at free columns left of p.  So the kernel vector of a free
    column f (nonzero at f, zero at the other free columns) is zero left of
    f: these vectors, in order of f, already are the reduced row echelon
    form of the kernel.

    >>> nullspace([[1, -1]], 2)
    ((1, 1),)
    >>> nullspace((), 2)
    ((1, 0), (0, 1))
    """
    red, flipped_pivots = rref([row[::-1] for row in rows], width)
    reduced = [row[::-1] for row in red]
    pivots = [width - 1 - p for p in flipped_pivots]
    pivot_set = set(pivots)
    basis = []
    for f in range(width):
        if f in pivot_set:
            continue
        terms = [(row, p) for row, p in zip(reduced, pivots) if row[f]]
        scale = math.lcm(*(row[p] for row, p in terms))
        v = [0] * width
        v[f] = scale
        for row, p in terms:
            v[p] = -row[f] * (scale // row[p])
        g = math.gcd(*v)
        basis.append(tuple(v) if g == 1 else tuple(e // g for e in v))
    return tuple(basis)


def meet(rows: Sequence[tuple[int, ...]], values: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The rows of `rref` of the part of the span of rows, given as `rref` gives
    them, where a linear functional of integer values t_i on them is zero.

    With s the last row where t_s != 0, each earlier row with t_i != 0 becomes
    a*row_i - b*row_s (a = t_s/g > 0, b = t_i/g, g = +-gcd(t_s, t_i)) over the
    gcd of its entries, and row s is dropped.  Row s is zero left of its pivot
    and at the other pivot columns, so each new row keeps the pivot, sign and
    pivot-column zeros of row i: the result is canonical with no pivot search.
    Past the scaling by a, only the entries where row s is nonzero change.
    The vectors zero at column c are meet(rows, [row[c] for row in rows]).

    >>> meet(((1, 0, 1), (0, 1, 1)), (1, 1))
    ((1, -1, 0),)
    """
    s = next((i for i in reversed(range(len(rows))) if values[i]), None)
    if s is None:
        return tuple(rows)
    ts, last = values[s], rows[s]
    support = [(j, x) for j, x in enumerate(last) if x]
    out = []
    for row, t in zip(rows[:s], values):
        if t:
            g = math.gcd(ts, t) if ts > 0 else -math.gcd(ts, t)
            a, b = ts // g, t // g
            new = list(row) if a == 1 else [a * e for e in row]
            for j, x in support:
                new[j] -= b * x
            g = math.gcd(*new)
            row = tuple(new) if g == 1 else tuple(e // g for e in new)
        out.append(row)
    return (*out, *rows[s + 1 :])
