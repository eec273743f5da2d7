"""Equivariant cohomology modeled through fixed-point restrictions.

A homogeneous class of even degree d is stored as one rational scalar per
fixed point F, in fixed-point order, meaning its restriction there is
scalar * X^(d/2).  The degree-d piece of the cohomology image is, by
definition here, the span of the shifted downward basis classes: one for each
fixed point of index <= d, whose restriction vector is that point's row of
the alpha_minus table (shifting by a power of X changes the implied exponent,
never the scalar).  A degree basis is therefore a set of rows of one matrix:
coefficient vectors expand to restrictions by one product with those rows,
and pairings and the localization check are weighted Gram products of rows.
Odd-degree pieces are zero; queries about them return empty bases rather
than failing so degree sweeps stay uniform.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from operator import mul

from .errors import Frozen, ValidationError
from .exactmath import MatrixQ, RationalLike, over_leading_entry, rat, rat_str, rref
from .momentdata import (
    ManifoldData,
    negative_euler_scalar,
    positive_euler_scalar,
)

__all__ = [
    "EquivariantClass",
    "ValidationReport",
    "Subspace",
    "make_class",
    "class_to_dict",
    "combine_rows",
    "basis_points",
    "degree_basis",
    "gram_rows",
    "weighted_gram",
    "validate_alpha_basis",
    "subspace_from_rows",
    "subspace_sum",
    "subspace_contains",
    "subspace_scalar_rows",
]

Vector = tuple[Fraction, ...]


class EquivariantClass(Frozen):
    """Homogeneous class of even degree, stored by restriction scalars in
    fixed-point order."""

    __slots__ = ("degree", "restrictions")

    def is_zero(self) -> bool:
        return not any(self.restrictions)


def make_class(
    m: ManifoldData, degree: int, scalars: Mapping[str, RationalLike] | None = None
) -> EquivariantClass:
    """Build a class on m from named scalars, filling unmentioned fixed points
    with zero."""
    if degree < 0 or degree % 2 != 0:
        raise ValidationError(f"class degree must be even and nonnegative, got {degree}")
    given = {} if scalars is None else scalars
    by_position = {m.position(name): value for name, value in given.items()}
    return EquivariantClass(
        degree, tuple(rat(by_position.get(i, 0)) for i in range(len(m.fixed_points)))
    )


def class_to_dict(m: ManifoldData, eta: EquivariantClass) -> dict:
    """Serializable form with restrictions named, in fixed-point order."""
    return {
        "degree": eta.degree,
        "restrictions": {
            fp.name: rat_str(s) for fp, s in zip(m.fixed_points, eta.restrictions)
        },
    }


def combine_rows(
    coeffs: Sequence[Fraction | int], rows: Sequence[Sequence[Fraction | int]], width: int
) -> tuple[Fraction | int, ...]:
    """Sum of coeffs[k] * rows[k] over the nonzero coefficients, each row of
    the given width: coefficients over a degree basis expanded to restriction
    scalars.  Integer coefficients and rows give an integer sum."""
    acc = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * r if r else a for a, r in zip(acc, row)]
    return tuple(acc)


def basis_points(m: ManifoldData, degree: int) -> list[int]:
    """Positions of the fixed points contributing to the degree-d basis:
    index <= d, in fixed-point order.  Empty for odd or negative degrees."""
    if degree < 0 or degree % 2 != 0:
        return []
    return [i for i, ind in enumerate(m.morse_indices) if ind <= degree]


def degree_basis(m: ManifoldData, degree: int) -> list[Vector]:
    """Basis of the degree-d image: the alpha_minus rows of the fixed points
    of index <= d, read as degree-d restriction vectors (scalars are
    unchanged by the X shift).  Odd degrees have zero graded piece and yield
    an empty list."""
    return [m.alpha_minus[i] for i in basis_points(m, degree)]


def gram_rows(m: ManifoldData, points: Sequence[int]) -> tuple[Callable[..., list[int]], int]:
    """`weighted_gram` over points as (row_entries, scale): row_entries(f, cols) is row f at
    the positions in cols, each entry times the scale E * den^2, an integer dot product.
    E, the weights E / e_j and the scale are set up once for all the rows asked."""
    table, den = m.integer_alpha_minus
    euler = m.euler_classes
    common = math.lcm(*(euler[j] for j in points))
    weight = {j: common // euler[j] for j in points}

    def row_entries(f: int, cols: Sequence[int]) -> list[int]:
        row = table[f]
        support = [j for j in points if row[j]]
        terms = [row[j] * weight[j] for j in support]
        return [sum(map(mul, terms, map(table[g].__getitem__, support))) for g in cols]

    return row_entries, common * den * den


def weighted_gram(
    m: ManifoldData, rows: Sequence[int], cols: Sequence[int], points: Sequence[int]
) -> list[list[Fraction | int]]:
    """Fixed-point sums of products of downward classes over Euler classes.

    Entry (f, g), for positions f in rows and g in cols, is the sum over
    positions j in points of alpha_minus[f][j] * alpha_minus[g][j] / e_j,
    with e_j the product of the weights at point j: the coefficient of
    X^((ind f + ind g)/2 - n) in the localization sum of the product class,
    so the residue pairing when that power is -1, an obstruction when it is
    negative and the entry nonzero.

    With a the integer table over its denominator den
    (`ManifoldData.integer_alpha_minus`) and E the lcm of the integer Euler
    classes e_j over points, the entry is the integer dot product, over the
    support of row f, of a_fj * (E / e_j) with a_gj, divided by E * den^2.
    A zero sum stays the int 0; only a nonzero one becomes a Fraction.

    >>> from kirwan.generators import gen_cpn
    >>> weighted_gram(gen_cpn([0, 1]), [0, 1], [0, 1], [0, 1]) == [[0, 1], [1, -1]]
    True
    """
    row_entries, scale = gram_rows(m, points)
    return [[Fraction(e, scale) if e else 0 for e in row_entries(f, cols)] for f in rows]


# --- restriction-table validation ---------------------------------------------


class ValidationReport(Frozen):
    """Every violated restriction-table axiom, in check order."""

    __slots__ = ("violations",)

    @property
    def ok(self) -> bool:
        return not self.violations


def _support_violations(
    m: ManifoldData, label: str, table: Sequence[Vector], upward: bool
) -> Iterable[str]:
    """Nonzero entries of each downward (upward) row at another point of its
    moment level or a lower (higher) one, in table order: with the points
    sorted by (moment, name), one slice per row, up to the end of its level
    (from its start)."""
    pts = m.fixed_points
    side = "below" if upward else "above"
    start = 0
    for end in range(1, len(pts) + 1):
        if end < len(pts) and pts[end].moment == pts[start].moment:
            continue
        for i in range(start, end):
            row = table[i]
            lo, hi = (start, len(pts)) if upward else (0, end)
            if any(row[lo:i]) or any(row[i + 1:hi]):
                yield from (
                    f"{label}[{pts[i].name}][{pts[j].name}] = {rat_str(row[j])} "
                    f"must vanish: {pts[j].name} does not sit strictly {side} {pts[i].name}"
                    for j in range(lo, hi)
                    if row[j] and j != i
                )
        start = end


def validate_alpha_basis(m: ManifoldData) -> ValidationReport:
    """Check the basis axioms on the restriction tables.

    (a) downward classes vanish strictly below their point and at distinct
        same-level points; (b) their diagonal equals the negative-weight
        product; (c) the mirrored checks for the upward table when present,
        with positive-weight diagonal; (d) every product of two downward
        classes has a polynomial localization sum, i.e. its weighted Gram
        entry over all fixed points vanishes whenever ind f + ind g < 2n.
    """
    pts = m.fixed_points
    violations: list[str] = []
    tables = [("alpha_minus", m.alpha_minus, False, negative_euler_scalar)]
    if m.alpha_plus is not None:
        tables.append(("alpha_plus", m.alpha_plus, True, positive_euler_scalar))
    for label, table, upward, product in tables:
        violations.extend(_support_violations(m, label, table, upward))
        sign = "positive" if upward else "negative"
        for i, f in enumerate(pts):
            want = product(f)
            if table[i][i] != want:
                violations.append(
                    f"{label}[{f.name}][{f.name}] = {rat_str(table[i][i])} but the "
                    f"{sign}-weight product is {rat_str(want)}"
                )

    # (d): a product with ind f + ind g >= 2n localizes to a polynomial
    # whatever its entry, so only the lower-degree pairs are computed
    everywhere = range(len(pts))
    ind = m.morse_indices
    row_entries, scale = gram_rows(m, everywhere)
    for i, f in enumerate(pts):
        partners = [j for j in everywhere[i:] if ind[i] + ind[j] < 2 * m.n]
        for j, entry in zip(partners, row_entries(i, partners)):
            if entry:
                g = pts[j]
                power = (ind[i] + ind[j]) // 2 - m.n
                tail = rat_str(Fraction(entry, scale))
                violations.append(
                    f"localization sum of alpha_minus[{f.name}] * "
                    f"alpha_minus[{g.name}] has residue tail {tail} * X^{power}"
                )
    return ValidationReport(tuple(violations))


# --- subspaces of a graded piece ----------------------------------------------


class Subspace(Frozen):
    """A subspace of the degree-d image span, in coefficient coordinates with
    respect to the labeled degree basis.  The rows of `basis` are the rows of
    its reduced row echelon form, each as its primitive integer multiple with
    positive leading entry (as `exactmath.rref` gives them), so equality of
    values is equality of spans."""

    __slots__ = ("degree", "labels", "basis")

    @property
    def dim(self) -> int:
        return len(self.basis)


def subspace_from_rows(
    degree: int, labels: Sequence[str], rows: Sequence[Sequence[Fraction | int]]
) -> Subspace:
    """Canonicalize spanning rows (coefficient coordinates) into a Subspace."""
    basis, _ = rref(MatrixQ.from_rows(rows, cols=len(labels)))
    return Subspace(degree, tuple(labels), basis)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.degree != b.degree or a.labels != b.labels:
        raise ValidationError("subspace sum needs matching ambient bases")
    if not a.basis:
        return b
    if not b.basis:
        return a
    return subspace_from_rows(a.degree, a.labels, a.basis + b.basis)


def subspace_contains(s: Subspace, coeffs: Sequence[Fraction | int]) -> bool:
    """Exact membership test: adding the vector leaves the canonical basis as
    it is."""
    if len(coeffs) != len(s.labels):
        raise ValidationError("coefficient vector has the wrong length")
    return subspace_from_rows(s.degree, s.labels, (*s.basis, coeffs)) == s


def subspace_scalar_rows(m: ManifoldData, s: Subspace) -> list[Vector]:
    """Reduced-row-echelon basis rows expanded to restriction scalars, in
    point order: the coefficient rows times the degree-basis rows.

    The expansion runs over the integer rows of the table
    (`ManifoldData.integer_alpha_minus`); each entry becomes a Fraction only
    once, divided by the table's denominator and the row's leading entry
    (`exactmath.over_leading_entry`).
    """
    pts = basis_points(m, s.degree)
    if tuple(m.fixed_points[i].name for i in pts) != s.labels:
        raise ValidationError("subspace labels do not match the degree basis")
    table, den = m.integer_alpha_minus
    ambient = [table[i] for i in pts]
    width = len(m.fixed_points)
    return [
        tuple(over_leading_entry(row, combine_rows(row, ambient, width), den))
        for row in s.basis
    ]
