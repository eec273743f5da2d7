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
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import Frozen, ValidationError
from .exactmath import MatrixQ, RationalLike, over_leading_entry, rat, rat_str, rref
from .momentdata import (
    ManifoldData,
    Table,
    euler_class,
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

    def __init__(self, degree: int, restrictions: Vector) -> None:
        self._set(degree, restrictions)

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


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators of the values."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def weighted_gram(
    m: ManifoldData,
    rows: Sequence[Vector],
    cols: Sequence[Vector],
    points: Sequence[int],
) -> list[list[Fraction]]:
    """Fixed-point sums of products of restriction vectors over Euler classes.

    Entry (i, k) is sum over positions j in points of rows[i][j] *
    cols[k][j] / e_j, with e_j the product of the weights at fixed point j.
    For downward classes f and g, each summand is the restriction of the
    product class, a_j X^((ind f + ind g)/2), over the tangent Euler class
    e_j X^n, so the entry is the coefficient of X^((ind f + ind g)/2 - n) in
    the localization sum of the product: the residue pairing when that power
    is -1, an obstruction when it is negative and the entry nonzero.

    The sums run over integers: on the points where a row is nonzero, the
    row's weighted terms and each column's entries are put over a common
    denominator, so an entry is one integer dot product divided by the
    product of two denominators.
    """
    euler = {j: euler_class(m.fixed_points[j])[0] for j in points}
    gram = []
    for row in rows:
        support = [j for j in points if row[j]]
        nums, den = _over_common_denominator([row[j] / euler[j] for j in support])
        line = []
        for col in cols:
            col_nums, col_den = _over_common_denominator([col[j] for j in support])
            line.append(Fraction(sum(a * b for a, b in zip(nums, col_nums)), den * col_den))
        gram.append(line)
    return gram


# --- restriction-table validation ---------------------------------------------


class ValidationReport(Frozen):
    """Every violated restriction-table axiom, in check order."""

    __slots__ = ("violations",)

    def __init__(self, violations: list[str]) -> None:
        self._set(violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def _support_violations(
    m: ManifoldData, table_name: str, table: Table, upward: bool
) -> Iterable[str]:
    for f, row in zip(m.fixed_points, table):
        for g, s in zip(m.fixed_points, row):
            if s == 0:
                continue
            below = g.moment < f.moment if not upward else g.moment > f.moment
            tied = g.moment == f.moment and g.name != f.name
            if below or tied:
                side = "above" if not upward else "below"
                yield (
                    f"{table_name}[{f.name}][{g.name}] = {rat_str(s)} must vanish: "
                    f"{g.name} does not sit strictly {side} {f.name}"
                )


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
            diag = table[i][i]
            want = product(f)
            if diag != want:
                violations.append(
                    f"{label}[{f.name}][{f.name}] = {rat_str(diag)} but the "
                    f"{sign}-weight product is {rat_str(want)}"
                )

    # (d): a product with ind f + ind g >= 2n localizes to a polynomial
    # whatever its entry, so only the lower-degree pairs are computed
    everywhere = range(len(pts))
    ind = m.morse_indices
    for i, f in enumerate(pts):
        partners = [j for j in everywhere[i:] if ind[i] + ind[j] < 2 * m.n]
        (entries,) = weighted_gram(
            m, [m.alpha_minus[i]], [m.alpha_minus[j] for j in partners], everywhere
        )
        for j, entry in zip(partners, entries):
            if entry != 0:
                g = pts[j]
                power = (ind[i] + ind[j]) // 2 - m.n
                violations.append(
                    f"localization sum of alpha_minus[{f.name}] * "
                    f"alpha_minus[{g.name}] has residue tail {rat_str(entry)} * X^{power}"
                )
    return ValidationReport(violations)


# --- subspaces of a graded piece ----------------------------------------------


class Subspace(Frozen):
    """A subspace of the degree-d image span, in coefficient coordinates with
    respect to the labeled degree basis.  The rows of `basis` are the rows of
    its reduced row echelon form, each as its primitive integer multiple with
    positive leading entry (as `exactmath.rref` gives them), so equality of
    values is equality of spans."""

    __slots__ = ("degree", "labels", "basis")

    def __init__(
        self, degree: int, labels: tuple[str, ...], basis: tuple[tuple[int, ...], ...]
    ) -> None:
        self._set(degree, labels, basis)

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
