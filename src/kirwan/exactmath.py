"""Exact arithmetic substrate: rationals and row-reduction linear algebra
over Q.

Scalars are fractions.Fraction (arbitrary precision, always in lowest terms,
positive denominator) and serialize as "p/q" strings, so no float ever enters
the pipeline.  Elimination runs on integer rows: a rational row spans the same
line as its integer multiples, so `rref` and `nullspace` give canonical bases
of row spans and null spaces as primitive integer rows (each divided by the
gcd of its entries, with positive leading entry).  `over_leading_entry` turns
such a row into its reduced-row-echelon row of Fractions.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import Frozen, NotTriangular, SingularDiagonal

__all__ = [
    "rat",
    "rat_str",
    "MatrixQ",
    "integer_entries",
    "over_leading_entry",
    "rref",
    "nullspace",
    "solve_upper_triangular",
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


def rat_str(value: Fraction) -> str:
    """Canonical string form: "p/q", or just "p" when the denominator is 1.

    Written in full even past the 4300 digits to which str() limits an int:
    products of long input integers (Euler classes, Gram entries) get there.
    """
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal  # exact for ints, with no digit limit

        num, den = str(Decimal(value.numerator)), str(Decimal(value.denominator))
        return num if value.denominator == 1 else f"{num}/{den}"


class MatrixQ(Frozen):
    """Immutable row-major matrix of exact numbers: the input of `rref` and
    `nullspace`, and the matrix of a pairing or upward-restriction report.

    Entries must be ints or Fractions.  The constructor does not check them,
    as it builds every pairing matrix; `rat` turns parsed text into Fractions.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[Fraction | int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        Frozen.__init__(self, rows, cols, entries)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[Fraction | int]], cols: int | None = None
    ) -> "MatrixQ":
        if not rows:
            if cols is None:
                raise ValueError("cols is required for an empty row list")
            return cls(0, cols, ())
        width = len(rows[0])
        if cols is not None and cols != width:
            raise ValueError("cols disagrees with row width")
        flat: list[Fraction | int] = []
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(len(rows), width, tuple(flat))

    def row(self, i: int) -> tuple[Fraction | int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction | int]]:
        return [list(self.row(i)) for i in range(self.rows)]


def integer_entries(values: Iterable[Fraction | int]) -> list[int]:
    """The values times the lcm of their denominators.  The entries of a
    matrix so scaled span the same rows; `rref` divides each row by its
    gcd."""
    values = tuple(values)
    if {*map(type, values)} <= {int}:
        return list(values)
    den = math.lcm(*[e.denominator for e in values])
    if den == 1:
        return [e.numerator for e in values]
    return [e.numerator * (den // e.denominator) for e in values]


def over_leading_entry(
    row: Sequence[int], values: Sequence[int] | None = None, den: int = 1
) -> list[Fraction]:
    """`values` (by default the row itself) divided by den times the row's
    leading (first nonzero) entry.

    A basis row of `rref` or `nullspace` becomes its reduced-row-echelon row.
    """
    scale = den * next(e for e in row if e)
    zero = Fraction(0)
    if values is None:
        values = row
    return [Fraction(e, scale) if e else zero for e in values]


def rref(m: MatrixQ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form, in integers, and the
    pivot columns.

    Gauss-Jordan elimination over the integers: each row is first divided by
    the gcd of its entries, and an update a*row - b*pivot_row is divided by
    the gcd of its entries too, so every returned row is primitive.  Its
    pivot entry is made positive, and it is zero in every other pivot column.
    Such a row is the unique primitive integer multiple with positive pivot
    of the corresponding row of the reduced row echelon form over the
    rationals, so two row spaces are equal exactly when their rows are.
    """
    ints, w = integer_entries(m.entries), m.cols
    work = []
    for i in range(m.rows):
        row = ints[i * w : (i + 1) * w]
        g = math.gcd(*row)
        if g:
            work.append(row if g == 1 else [e // g for e in row])
    pivots: list[int] = []
    r = 0
    for c in range(w):
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
    rows = tuple(
        tuple(row) if row[c] > 0 else tuple(-e for e in row)
        for row, c in zip(work, pivots)
    )
    return rows, tuple(pivots)


def nullspace(m: MatrixQ) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of {v : m @ v = 0}, scaled as the rows of `rref`.

    The dimension is cols - rank; a full-rank square matrix yields no rows.

    One elimination: `rref` of m with its columns in reverse order.  Read in
    the original order, each pivot row is then nonzero only at its pivot p
    and at free columns left of p.  So the kernel vector of a free column f
    (nonzero at f, zero at the other free columns) is zero left of f: these
    vectors, in order of f, already are the reduced row echelon form of the
    kernel.
    """
    w = m.cols
    flipped = MatrixQ.from_rows([m.row(i)[::-1] for i in range(m.rows)], cols=w)
    red, flipped_pivots = rref(flipped)
    reduced = [row[::-1] for row in red]
    pivots = [w - 1 - p for p in flipped_pivots]
    pivot_set = set(pivots)
    basis = []
    for f in range(w):
        if f in pivot_set:
            continue
        terms = [(row, p) for row, p in zip(reduced, pivots) if row[f]]
        scale = math.lcm(*(row[p] for row, p in terms))
        v = [0] * w
        v[f] = scale
        for row, p in terms:
            v[p] = -row[f] * (scale // row[p])
        g = math.gcd(*v)
        basis.append(tuple(v) if g == 1 else tuple(e // g for e in v))
    return tuple(basis)


def solve_upper_triangular(
    rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Back-substitution solve of an upper-triangular square system, given
    by its rows.

    The matrix must be upper triangular in the supplied ordering with nonzero
    diagonal; violations raise NotTriangular / SingularDiagonal.  An entry
    that is not an int or a Fraction raises TypeError.
    """
    k = len(rows)
    if any(type(e) not in (int, Fraction) for row in rows for e in row):
        raise TypeError("matrix entries must be ints or Fractions")
    if any(len(row) != k for row in rows):
        raise ValueError("matrix must be square")
    if len(rhs) != k:
        raise ValueError("right-hand side length does not match")
    for i, row in enumerate(rows):
        for j in range(i):
            if row[j] != 0:
                raise NotTriangular(f"nonzero entry below the diagonal at ({i}, {j})")
    for i, row in enumerate(rows):
        if row[i] == 0:
            raise SingularDiagonal(f"zero diagonal entry at position {i}")
    b = [rat(x) for x in rhs]
    x = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, k):
            acc -= rows[i][j] * x[j]
        x[i] = acc / rows[i][i]
    return tuple(x)
