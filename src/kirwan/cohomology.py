"""Equivariant cohomology modeled through fixed-point restrictions.

A homogeneous class of even degree d is stored as one rational scalar per
fixed point F, meaning its restriction there is scalar * X^(d/2).  The
degree-d piece of the cohomology image is, by definition here, the span of
the shifted downward basis classes: one for each fixed point of index <= d,
with restriction scalars taken straight from the alpha_minus table (shifting
by a power of X changes the implied exponent, never the scalar).  Odd-degree
pieces are zero; queries about them return empty bases rather than failing so
degree sweeps stay uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import UnknownFixedPoint, ValidationError
from .exactmath import (
    MatrixQ,
    RationalLike,
    nullspace,
    rat,
    rat_str,
    rref,
    vstack,
)
from .momentdata import (
    FixedPoint,
    ManifoldData,
    euler_class,
    morse_index,
    negative_euler_scalar,
    positive_euler_scalar,
)

__all__ = [
    "EquivariantClass",
    "ValidationReport",
    "Subspace",
    "make_class",
    "unit_class",
    "zero_class",
    "class_to_dict",
    "restrict",
    "add_classes",
    "scale_class",
    "linear_combination",
    "basis_points",
    "degree_basis",
    "weighted_gram",
    "validate_alpha_basis",
    "subspace_from_rows",
    "subspace_sum",
    "subspace_contains",
    "subspace_intersection_dim",
    "subspace_classes",
    "subspace_scalar_rows",
]


@dataclass(frozen=True)
class EquivariantClass:
    """Homogeneous class of even degree, stored by restriction scalars."""

    degree: int
    restrictions: dict[str, Fraction]

    def scalar(self, name: str) -> Fraction:
        try:
            return self.restrictions[name]
        except KeyError:
            raise UnknownFixedPoint(f"no fixed point named {name!r}") from None

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.restrictions.values())


def make_class(
    m: ManifoldData, degree: int, scalars: Mapping[str, RationalLike] | None = None
) -> EquivariantClass:
    """Build a class on m, filling unmentioned fixed points with zero."""
    if degree < 0 or degree % 2 != 0:
        raise ValidationError(f"class degree must be even and nonnegative, got {degree}")
    given = {} if scalars is None else dict(scalars)
    for name in given:
        m.fixed_point(name)
    return EquivariantClass(
        degree,
        {
            fp.name: rat(given.get(fp.name, 0))
            for fp in m.fixed_points
        },
    )


def unit_class(m: ManifoldData) -> EquivariantClass:
    return EquivariantClass(0, {fp.name: Fraction(1) for fp in m.fixed_points})


def zero_class(m: ManifoldData, degree: int) -> EquivariantClass:
    return make_class(m, degree, {})


def class_to_dict(m: ManifoldData, eta: EquivariantClass) -> dict:
    """Serializable form with restrictions in fixed-point order."""
    return {
        "degree": eta.degree,
        "restrictions": {
            fp.name: rat_str(eta.restrictions[fp.name]) for fp in m.fixed_points
        },
    }


def restrict(eta: EquivariantClass, fp: FixedPoint | str) -> Fraction:
    """The scalar a_F with eta|_F = a_F * X^(degree/2)."""
    return eta.scalar(fp.name if isinstance(fp, FixedPoint) else fp)


def add_classes(eta: EquivariantClass, zeta: EquivariantClass) -> EquivariantClass:
    if eta.degree != zeta.degree:
        raise ValidationError("cannot add classes of different degrees")
    return EquivariantClass(
        eta.degree,
        {name: v + zeta.restrictions[name] for name, v in eta.restrictions.items()},
    )


def scale_class(eta: EquivariantClass, s: RationalLike) -> EquivariantClass:
    c = rat(s)
    return EquivariantClass(
        eta.degree, {name: c * v for name, v in eta.restrictions.items()}
    )


def linear_combination(
    degree: int, terms: Iterable[tuple[RationalLike, EquivariantClass]]
) -> EquivariantClass:
    """Sum of coefficient * class over terms, all of the given degree."""
    acc: EquivariantClass | None = None
    for coeff, cls in terms:
        if cls.degree != degree:
            raise ValidationError("linear combination mixes degrees")
        piece = scale_class(cls, coeff)
        acc = piece if acc is None else add_classes(acc, piece)
    if acc is None:
        raise ValidationError("empty linear combination needs an ambient manifold")
    return acc


def basis_points(m: ManifoldData, degree: int) -> list[FixedPoint]:
    """Fixed points contributing to the degree-d basis: index <= d, in
    (moment, name) order.  Empty for odd or negative degrees."""
    if degree < 0 or degree % 2 != 0:
        return []
    return [fp for fp in m.fixed_points if morse_index(fp) <= degree]


def degree_basis(m: ManifoldData, degree: int) -> list[EquivariantClass]:
    """Basis of the degree-d image: the downward class of each fixed point of
    index <= d, reinterpreted in degree d (scalars are unchanged by the X
    shift).  Odd degrees have zero graded piece and yield an empty list."""
    return [
        EquivariantClass(
            degree,
            {g.name: m.alpha_minus_scalar(fp.name, g.name) for g in m.fixed_points},
        )
        for fp in basis_points(m, degree)
    ]


def weighted_gram(
    m: ManifoldData,
    rows: Sequence[FixedPoint],
    cols: Sequence[FixedPoint],
    points: Sequence[FixedPoint],
) -> list[list[Fraction]]:
    """Fixed-point sums of products of downward classes over Euler classes.

    Entry (f, g) is sum over F in points of alpha_minus[f][F] *
    alpha_minus[g][F] / e_F, with e_F the product of the weights at F.  Each
    summand is the restriction of the product class, a_F X^((ind f + ind g)/2),
    over the tangent Euler class e_F X^n, so the entry is the coefficient of
    X^((ind f + ind g)/2 - n) in the localization sum of the product: the
    residue pairing when that power is -1, an obstruction when it is negative
    and the entry nonzero.
    """
    euler = {fp.name: euler_class(fp)[0] for fp in points}
    weighted = []
    for f in rows:
        table = m.alpha_minus.get(f.name, {})
        weighted.append({F: s / euler[F] for F, s in table.items() if s and F in euler})
    col_tables = [m.alpha_minus.get(g.name, {}) for g in cols]
    return [
        [
            sum((s * t for F, s in row.items() if (t := table.get(F))), Fraction(0))
            for table in col_tables
        ]
        for row in weighted
    ]


# --- restriction-table validation ---------------------------------------------


@dataclass
class ValidationReport:
    """Every violated restriction-table axiom, in check order."""

    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _support_violations(
    m: ManifoldData, table_name: str, upward: bool
) -> Iterable[str]:
    table = m.alpha_minus if table_name == "alpha_minus" else (m.alpha_plus or {})
    for f in m.fixed_points:
        for g in m.fixed_points:
            s = table.get(f.name, {}).get(g.name, Fraction(0))
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
    violations: list[str] = []
    violations.extend(_support_violations(m, "alpha_minus", upward=False))
    for f in m.fixed_points:
        diag = m.alpha_minus_scalar(f.name, f.name)
        want = negative_euler_scalar(f)
        if diag != want:
            violations.append(
                f"alpha_minus[{f.name}][{f.name}] = {rat_str(diag)} but the "
                f"negative-weight product is {rat_str(want)}"
            )
    if m.alpha_plus is not None:
        violations.extend(_support_violations(m, "alpha_plus", upward=True))
        for f in m.fixed_points:
            diag = m.alpha_plus_scalar(f.name, f.name)
            want = positive_euler_scalar(f)
            if diag != want:
                violations.append(
                    f"alpha_plus[{f.name}][{f.name}] = {rat_str(diag)} but the "
                    f"positive-weight product is {rat_str(want)}"
                )

    # (d): a product with ind f + ind g >= 2n localizes to a polynomial
    # whatever its entry, so only the lower-degree pairs are computed
    pts = m.fixed_points
    for i, f in enumerate(pts):
        partners = [g for g in pts[i:] if morse_index(f) + morse_index(g) < 2 * m.n]
        (entries,) = weighted_gram(m, [f], partners, pts)
        for g, entry in zip(partners, entries):
            if entry != 0:
                power = (morse_index(f) + morse_index(g)) // 2 - m.n
                violations.append(
                    f"localization sum of alpha_minus[{f.name}] * "
                    f"alpha_minus[{g.name}] has residue tail {rat_str(entry)} * X^{power}"
                )
    return ValidationReport(violations)


# --- subspaces of a graded piece ----------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of the degree-d image span, in coefficient coordinates with
    respect to the labeled degree basis; rows of `basis` form the canonical
    reduced-row-echelon basis, so equality of values is equality of spans."""

    degree: int
    labels: tuple[str, ...]
    basis: MatrixQ

    @property
    def dim(self) -> int:
        return self.basis.rows


def subspace_from_rows(
    degree: int, labels: Sequence[str], rows: Sequence[Sequence[RationalLike]]
) -> Subspace:
    """Canonicalize spanning rows (coefficient coordinates) into a Subspace."""
    mat = MatrixQ.from_rows([list(r) for r in rows], cols=len(labels))
    red, pivots = rref(mat)
    kept = MatrixQ.from_rows(red.to_rows()[: len(pivots)], cols=len(labels))
    return Subspace(degree, tuple(labels), kept)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.degree != b.degree or a.labels != b.labels:
        raise ValidationError("subspace sum needs matching ambient bases")
    if a.basis.rows == 0:
        return b
    if b.basis.rows == 0:
        return a
    return subspace_from_rows(
        a.degree, a.labels, vstack([a.basis, b.basis]).to_rows()
    )


def subspace_contains(s: Subspace, coeffs: Sequence[RationalLike]) -> bool:
    """Exact membership test by reduction against the canonical basis."""
    v = [rat(c) for c in coeffs]
    if len(v) != len(s.labels):
        raise ValidationError("coefficient vector has the wrong length")
    for i in range(s.basis.rows):
        row = s.basis.row(i)
        pivot = next(j for j, e in enumerate(row) if e != 0)
        if v[pivot] != 0:
            f = v[pivot]
            v = [a - f * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def subspace_intersection_dim(a: Subspace, b: Subspace) -> int:
    return a.dim + b.dim - subspace_sum(a, b).dim


def subspace_classes(m: ManifoldData, s: Subspace) -> list[EquivariantClass]:
    """Expand each canonical basis row into an actual class."""
    ambient = degree_basis(m, s.degree)
    expected = tuple(fp.name for fp in basis_points(m, s.degree))
    if expected != s.labels:
        raise ValidationError("subspace labels do not match the degree basis")
    out = []
    for i in range(s.basis.rows):
        row = s.basis.row(i)
        out.append(
            linear_combination(
                s.degree, [(c, cls) for c, cls in zip(row, ambient)]
            )
            if ambient
            else zero_class(m, s.degree)
        )
    return out


def subspace_scalar_rows(m: ManifoldData, s: Subspace) -> list[list[Fraction]]:
    """Canonical basis rows expanded to restriction scalars, in point order."""
    return [
        [cls.restrictions[fp.name] for fp in m.fixed_points]
        for cls in subspace_classes(m, s)
    ]
