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
from .exactmath import RationalLike, rat, rat_str
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
    "basis_points",
    "gram_rows",
    "validate_alpha_basis",
]


class EquivariantClass(Frozen):
    """Homogeneous class of even degree, stored by restriction scalars in
    fixed-point order."""

    __slots__ = ("degree", "restrictions")


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


def basis_points(m: ManifoldData, degree: int) -> list[int]:
    """Positions of the fixed points contributing to the degree-d basis:
    index <= d, in fixed-point order.  Empty for odd or negative degrees."""
    if degree < 0 or degree % 2 != 0:
        return []
    return [i for i, ind in enumerate(m.morse_indices) if ind <= degree]


def gram_rows(m: ManifoldData, points: Sequence[int]) -> tuple[Callable[..., list[int]], int]:
    """The weighted Gram product of downward classes over the positions in points: entry
    (f, g) is the sum over j in points of alpha_minus[f][j] * alpha_minus[g][j] / e_j, with
    e_j the weight product at j, the X^((ind f + ind g)/2 - n) coefficient of the
    localization sum of the product class (the residue pairing when that power is -1).

    Returned as (row_entries, scale): row_entries(f, cols) is row f at the positions in
    cols times the scale E * den^2, with E the lcm of the e_j and a the integer table over
    den (`ManifoldData.integer_alpha_minus`), each entry the integer dot product over the
    support of row f of a_fj * (E / e_j) with a_gj.  E, the weights and the scale are set
    up once for all the rows asked.

    >>> from kirwan.generators import gen_cpn
    >>> row_entries, scale = gram_rows(gen_cpn([0, 1]), [0, 1])
    >>> [row_entries(f, [0, 1]) for f in (0, 1)], scale
    ([[0, 1], [1, -1]], 1)
    """
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


# --- restriction-table validation ---------------------------------------------


class ValidationReport(Frozen):
    """Every violated restriction-table axiom, in check order."""

    __slots__ = ("violations",)

    @property
    def ok(self) -> bool:
        return not self.violations


def _support_violations(
    m: ManifoldData, label: str, table: Sequence[Sequence[int | Fraction]], upward: bool,
    levels: Sequence[tuple[int, int]],
) -> Iterable[str]:
    """Nonzero entries of each downward (upward) row at another point of its
    moment level or a lower (higher) one, in table order: with the points
    sorted by (moment, name) and levels the (start, end) position runs of equal
    moment, one slice per row, up to the end of its level (from its start).
    Over ints, `any` tests the slice in C."""
    pts = m.fixed_points
    side = "below" if upward else "above"
    for start, end in levels:
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


def validate_alpha_basis(m: ManifoldData) -> ValidationReport:
    """Check the basis axioms on the restriction tables.

    (a) downward classes vanish strictly below their point and at distinct
        same-level points; (b) their diagonal equals the negative-weight
        product; (c) the mirrored checks for the upward table when present,
        with positive-weight diagonal; (d) every product of two downward
        classes has a polynomial localization sum, i.e. its weighted Gram
        entry over all fixed points vanishes whenever ind f + ind g < 2n.
    (a)-(c) scan the tables as stored, an entry an int when integral, else a
    Fraction; (d) dots entry (i, j >= i) over the smaller support, of row j.
    """
    pts = m.fixed_points
    # the moment levels, found once for both tables
    ends = [i for i in range(1, len(pts)) if pts[i].moment != pts[i - 1].moment]
    levels = list(zip([0, *ends], [*ends, len(pts)]))
    violations: list[str] = []
    tables = [("alpha_minus", m.alpha_minus, False, negative_euler_scalar)]
    if m.alpha_plus is not None:
        tables.append(("alpha_plus", m.alpha_plus, True, positive_euler_scalar))
    for label, table, upward, product in tables:
        violations.extend(_support_violations(m, label, table, upward, levels))
        sign = "positive" if upward else "negative"
        for i, f in enumerate(pts):
            want = product(f)
            if table[i][i] != want:
                violations.append(
                    f"{label}[{f.name}][{f.name}] = {rat_str(table[i][i])} but the "
                    f"{sign}-weight product is {rat_str(want)}"
                )

    # (d): a product with ind f + ind g >= 2n localizes to a polynomial whatever its
    # entry, so only the lower-degree pairs are computed, in row j, the smaller support
    everywhere = range(len(pts))
    ind = m.morse_indices
    row_entries, scale = gram_rows(m, everywhere)
    found = []
    for j in everywhere:
        partners = [i for i in everywhere[: j + 1] if ind[i] + ind[j] < 2 * m.n]
        found.extend((i, j, e) for i, e in zip(partners, row_entries(j, partners)) if e)
    for i, j, entry in sorted(found):
        tail = rat_str(Fraction(entry, scale))
        violations.append(
            f"localization sum of alpha_minus[{pts[i].name}] * alpha_minus[{pts[j].name}] "
            f"has residue tail {tail} * X^{(ind[i] + ind[j]) // 2 - m.n}"
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
