"""Exact arithmetic substrate: rationals and row-reduction linear algebra
over Q.

Scalars are fractions.Fraction throughout (arbitrary precision, always in
lowest terms, positive denominator) and serialize as "p/q" strings, so no
float ever enters the pipeline.  Matrices are immutable row-major rational
grids.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NotTriangular, SingularDiagonal

__all__ = [
    "rat",
    "rat_str",
    "MatrixQ",
    "rref",
    "nullspace",
    "solve_upper_triangular",
]

RationalLike = Fraction | int | str

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?\Z")


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to a Fraction.

    Strings must match ``-?digits[/digits]``; float syntax is rejected so
    serialized data can never smuggle in rounding.

    >>> str(rat("-6/4"))
    '-3/2'
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise ValueError(f"not a rational literal: {value!r}")
        num, _, den = value.partition("/")
        if den and int(den) == 0:
            raise ValueError(f"zero denominator: {value!r}")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
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


@dataclass(frozen=True)
class MatrixQ:
    """Immutable row-major matrix of rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        es = tuple(rat(e) for e in self.entries)
        if len(es) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(es)}"
            )
        object.__setattr__(self, "entries", es)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[RationalLike]], cols: int | None = None
    ) -> "MatrixQ":
        if not rows:
            if cols is None:
                raise ValueError("cols is required for an empty row list")
            return cls(0, cols, ())
        width = len(rows[0])
        if cols is not None and cols != width:
            raise ValueError("cols disagrees with row width")
        flat: list[RationalLike] = []
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(len(rows), width, tuple(flat))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "MatrixQ":
        return MatrixQ.from_rows(
            [[self.entry(i, j) for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators, divided by the gcd of the
    result: a primitive integer row spanning the same line."""
    den = math.lcm(*(e.denominator for e in row))
    ints = [e.numerator * (den // e.denominator) for e in row]
    g = math.gcd(*ints)
    return ints if g <= 1 else [e // g for e in ints]


def rref(m: MatrixQ) -> tuple[MatrixQ, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns.

    Pivot entries are 1, pivot columns are cleared above and below, zero rows
    sink to the bottom, and the result is idempotent, so two row spaces are
    equal exactly when their reduced forms are identical.

    The elimination runs over Python ints: each row is first scaled to a
    primitive integer row, each update a*row - b*pivot_row is divided by the
    gcd of its entries, and only at the end is each pivot row divided by its
    pivot.  The reduced form is unique, so this is exactly the form that
    Gauss-Jordan elimination over the rationals gives.
    """
    rows = [_integer_row(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pr = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top = rows[r]
        pv = top[c]
        for i, row in enumerate(rows):
            x = row[c]
            if x and i != r:
                g = math.gcd(pv, x)
                a, b = pv // g, x // g
                row = [a * e - b * t for e, t in zip(row, top)]
                g = math.gcd(*row)
                rows[i] = row if g <= 1 else [e // g for e in row]
        pivots.append(c)
        r += 1
    zero = Fraction(0)
    reduced = [[Fraction(e, row[c]) if e else zero for e in row] for row, c in zip(rows, pivots)]
    reduced += [[zero] * m.cols for _ in range(m.rows - r)]
    return MatrixQ.from_rows(reduced, cols=m.cols), tuple(pivots)


def nullspace(m: MatrixQ) -> MatrixQ:
    """Canonical (RREF) basis of {v : m @ v = 0}, one basis vector per row.

    The dimension is cols - rank; a full-rank square matrix yields a matrix
    with zero rows.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vecs: list[list[Fraction]] = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red.entry(i, f)
        vecs.append(v)
    if not vecs:
        return MatrixQ(0, m.cols, ())
    canonical, _ = rref(MatrixQ.from_rows(vecs, cols=m.cols))
    return canonical


def solve_upper_triangular(
    m: MatrixQ, rhs: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Back-substitution solve of an upper-triangular square system.

    The matrix must be upper triangular in the supplied ordering with nonzero
    diagonal; violations raise NotTriangular / SingularDiagonal.
    """
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length does not match")
    for i in range(m.rows):
        for j in range(i):
            if m.entry(i, j) != 0:
                raise NotTriangular(f"nonzero entry below the diagonal at ({i}, {j})")
    for i in range(m.rows):
        if m.entry(i, i) == 0:
            raise SingularDiagonal(f"zero diagonal entry at position {i}")
    b = [rat(x) for x in rhs]
    x = [Fraction(0)] * m.rows
    for i in range(m.rows - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, m.cols):
            acc -= m.entry(i, j) * x[j]
        x[i] = acc / m.entry(i, i)
    return tuple(x)
