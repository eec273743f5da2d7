"""Kernel of the reduction map, computed two independent ways, plus the
constructive decomposition that exhibits their agreement.

The pairing of two classes is the sum, over fixed points above the cut, of
the X^-1 coefficient of (eta * zeta)|_F divided by the tangent Euler class
e_F X^n at F.  Every class restricts to a monomial, so that coefficient is
eta_F zeta_F / e_F when the degrees add to 2n-2 and zero otherwise; a whole
pairing matrix is a block of one weighted Gram product of downward classes
over the points above the cut (`cohomology.weighted_gram`, one integer dot
product per entry), and a `Sweep` shares that product among the degrees of a
sweep at one cut; `decompose` pairs a class through its basis coefficients
with the same product.  A degree-d class is in the kernel exactly when it
pairs to zero with the whole complementary degree 2n-2-d; restricting the
test set to that one degree is exact, not an approximation, since
homogeneous classes of any other degree pair to zero identically; the integer
block (the entries times their common scale) is eliminated as it stands.  The
second characterization is the direct sum of the classes vanishing above the
cut and those vanishing below it, the latter read off the basis by the source
paper's triangularity argument.  The two kernels agree on every valid datum,
and `kernels_equal` treats any disagreement as a diagnosable data error.

Residues here are literal X^-1 coefficients; no global orientation constant
is applied.  Kernels and Betti numbers are unaffected by that convention
(scaling a pairing matrix by a nonzero constant preserves its nullspace).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .cohomology import (
    EquivariantClass,
    Subspace,
    basis_points,
    class_to_dict,
    combine_rows,
    degree_basis,
    gram_rows,
    subspace_contains,
    subspace_from_rows,
    subspace_scalar_rows,
    subspace_sum,
    weighted_gram,
)
from .errors import (
    Frozen,
    InternalContradiction,
    MissingAlphaPlus,
    NotInImage,
    NotInKernel,
)
from .exactmath import (
    MatrixQ,
    nullspace,
    over_leading_entry,
    rat_str,
    solve_upper_triangular,
)
from .momentdata import CutLevel, ManifoldData, split_fixed_points

__all__ = [
    "Sweep",
    "PairingMatrix",
    "KernelReport",
    "BMatrixReport",
    "DecompositionCertificate",
    "pairing_matrix",
    "kernel_residue",
    "kernel_tw",
    "kernels_equal",
    "b_matrix",
    "decompose",
    "report_to_dict",
    "certificate_to_dict",
    "bmatrix_to_dict",
    "pairing_to_dict",
]

SIGN_CONVENTION = (
    "residues are literal X^-1 coefficients; no global orientation constant applied"
)


class Sweep:
    """What the degrees of a sweep at one cut share: the fixed points split at
    the cut, and the pairing Gram product over the points above it.

    Entry (f, g) is the weighted Gram entry of the downward classes at f and g
    times `scale` (`cohomology.gram_rows`, set up once per sweep), an integer.
    It is symmetric and computed the first time a block asks for it, so a sweep
    over all degrees computes each pair with ind f + ind g <= 2n - 2 once, and
    a single degree no more than its own block.
    """

    def __init__(self, m: ManifoldData, cut: CutLevel):
        self.m = m
        self.above, self.below = split_fixed_points(m, cut)
        self._row_entries, self.scale = gram_rows(m, self.above)
        self._gram: dict[tuple[int, int], int] = {}

    def gram_block(self, rows: Sequence[int], cols: Sequence[int]) -> list[list[int]]:
        """The integer entries (f, g) for the positions f in rows and g in cols."""
        gram = self._gram
        for f in rows:
            missing = [g for g in cols if (f, g) not in gram]
            if missing:
                for g, entry in zip(missing, self._row_entries(f, missing)):
                    gram[f, g] = gram[g, f] = entry
        return [[gram[f, g] for g in cols] for f in rows]


class PairingMatrix(Frozen):
    """Pairing values between the degree-d basis (rows) and the complementary
    degree-(2n-2-d) basis (columns)."""

    __slots__ = ("cut", "degree", "row_labels", "col_labels", "matrix")


def pairing_matrix(
    m: ManifoldData, cut: CutLevel, degree: int, sweep: Sweep | None = None
) -> PairingMatrix:
    """All pairings between the degree basis and its complementary basis: the
    block of the Gram product over the points above the cut with rows of index
    <= d and columns of index <= 2n - 2 - d.  Pass the Sweep of (m, cut) to
    reuse the entries earlier degrees computed.

    The column set is empty when 2n - 2 - d is negative.
    """
    if sweep is None:
        sweep = Sweep(m, cut)
    rows, cols = basis_points(m, degree), basis_points(m, 2 * m.n - 2 - degree)
    scale, block = sweep.scale, sweep.gram_block(rows, cols)
    return PairingMatrix(
        cut=cut,
        degree=degree,
        row_labels=tuple(m.fixed_points[i].name for i in rows),
        col_labels=tuple(m.fixed_points[i].name for i in cols),
        matrix=MatrixQ.from_rows(
            [[Fraction(e, scale) if e else 0 for e in line] for line in block], cols=len(cols)
        ),
    )


def kernel_residue(
    m: ManifoldData, cut: CutLevel, degree: int, sweep: Sweep | None = None
) -> Subspace:
    """Degree-d classes pairing to zero against the whole complementary basis: the null
    space of the transposed integer Gram block, whose scale changes no null space."""
    if sweep is None:
        sweep = Sweep(m, cut)
    rows, cols = basis_points(m, degree), basis_points(m, 2 * m.n - 2 - degree)
    block = MatrixQ.from_rows(sweep.gram_block(cols, rows), cols=len(rows))
    return Subspace(degree, tuple(m.fixed_points[i].name for i in rows), nullspace(block))


def _evaluation_kernel(m: ManifoldData, degree: int, points: Sequence[int]) -> Subspace:
    """Degree-d classes vanishing at the fixed points in the given positions:
    the null space of the basis rows restricted to those columns, read off
    the integer table."""
    pts = basis_points(m, degree)
    table, _ = m.integer_alpha_minus
    constraints = [[table[i][j] for i in pts] for j in points]
    labels = tuple(m.fixed_points[i].name for i in pts)
    return Subspace(degree, labels, nullspace(MatrixQ.from_rows(constraints, cols=len(pts))))


def kernel_tw(
    m: ManifoldData, cut: CutLevel, degree: int, sweep: Sweep | None = None
) -> tuple[Subspace, Subspace, Subspace]:
    """(vanishing above the cut, vanishing below it, their sum).

    The first is eliminated.  Where the support axioms' triangular block holds
    (checked on every call: the k below-cut basis points come first, their rows
    there are triangular with a nonzero diagonal, and the above-cut basis rows
    vanish below the cut), the second is the unit rows at columns k and up, and
    the sum is those rows after the tw_plus basis cut to its first k columns.
    Elsewhere (data loaded without validation) both are eliminated.
    """
    if sweep is None:
        sweep = Sweep(m, cut)
    tw_plus = _evaluation_kernel(m, degree, sweep.above)
    pts, below, labels = basis_points(m, degree), sweep.below, tw_plus.labels
    low, (table, _) = set(below), m.integer_alpha_minus
    k, w = sum(i in low for i in pts), len(pts)
    if all(
        f in low and table[f][f] and not any(table[f][g] for g in pts[:a])
        for a, f in enumerate(pts[:k])
    ) and not any(table[g][j] for g in pts[k:] for j in below):
        units = tuple((0,) * c + (1,) + (0,) * (w - 1 - c) for c in range(k, w))
        cut_plus = subspace_from_rows(degree, labels[:k], [row[:k] for row in tw_plus.basis])
        padded = tuple(row + (0,) * (w - k) for row in cut_plus.basis)
        return tw_plus, Subspace(degree, labels, units), Subspace(degree, labels, padded + units)
    tw_minus = _evaluation_kernel(m, degree, below)
    return tw_plus, tw_minus, subspace_sum(tw_plus, tw_minus)


class KernelReport(Frozen):
    """Both kernel descriptions in one degree, their comparison, and the
    resulting Betti number of the reduced space."""

    __slots__ = (
        "cut", "degree", "residue_kernel", "tw_plus", "tw_minus", "tw_sum", "equal", "betti",
        "witness",
    )


def _find_witness(
    m: ManifoldData, a: Subspace, b: Subspace
) -> EquivariantClass | None:
    """A class in one subspace but not the other, expanded to restrictions."""
    for first, second in ((a, b), (b, a)):
        for i, row in enumerate(first.basis):
            if not subspace_contains(second, row):
                return EquivariantClass(first.degree, subspace_scalar_rows(m, first)[i])
    return None


def kernels_equal(
    m: ManifoldData, cut: CutLevel, degree: int, sweep: Sweep | None = None
) -> KernelReport:
    """Compute both kernels, each on its own, and compare their canonical bases.

    On valid data `equal` is always True; a False value comes with a witness
    class and means the restriction tables are inconsistent (or the library
    has a bug), never a mathematical possibility.
    """
    if sweep is None:
        sweep = Sweep(m, cut)
    residue = kernel_residue(m, cut, degree, sweep)
    tw_plus, tw_minus, tw_sum = kernel_tw(m, cut, degree, sweep)
    equal = residue == tw_sum
    betti = len(residue.labels) - residue.dim
    return KernelReport(
        cut=cut,
        degree=degree,
        residue_kernel=residue,
        tw_plus=tw_plus,
        tw_minus=tw_minus,
        tw_sum=tw_sum,
        equal=equal,
        betti=betti,
        witness=None if equal else _find_witness(m, residue, tw_sum),
    )


class BMatrixReport(Frozen):
    """Upward-restriction matrix over the high-index points above the cut.

    Rows and columns are ordered by DESCENDING (moment, name): the support
    condition kills entries at strictly higher moments, which in this order
    is exactly the strict lower triangle.  `m_exponents` records, per row
    point, the X power that makes the test class land in degree 2n - 2.
    """

    __slots__ = (
        "cut", "degree", "labels", "matrix", "m_exponents", "upper_triangular",
        "diagonal_nonzero", "violations",
    )

    @property
    def ok(self) -> bool:
        return self.upper_triangular and self.diagonal_nonzero


def b_matrix(m: ManifoldData, cut: CutLevel, degree: int) -> BMatrixReport:
    """Restriction scalars of upward classes among points above the cut with
    index >= degree + 2, with the triangularity diagnostics."""
    if m.alpha_plus is None:
        raise MissingAlphaPlus(f"{m.name!r} carries no alpha_plus table")
    above, _ = split_fixed_points(m, cut)
    pts, ind = m.fixed_points, m.morse_indices
    order = [i for i in above if ind[i] >= degree + 2]
    order.sort(key=lambda i: (-pts[i].moment, pts[i].name))
    labels = tuple(pts[i].name for i in order)
    entries = [[m.alpha_plus[i][j] for j in order] for i in order]
    k = len(order)
    below = [(i, j) for i in range(k) for j in range(i) if entries[i][j] != 0]
    zero_diagonal = [i for i in range(k) if entries[i][i] == 0]
    violations = [
        f"entry ({labels[i]}, {labels[j]}) = "
        f"{rat_str(entries[i][j])} breaks upper triangularity"
        for i, j in below
    ] + [f"diagonal entry at {labels[i]} is zero" for i in zero_diagonal]
    return BMatrixReport(
        cut=cut,
        degree=degree,
        labels=labels,
        matrix=MatrixQ.from_rows(entries, cols=k),
        m_exponents=tuple((ind[i] - degree - 2) // 2 for i in order),
        upper_triangular=not below,
        diagonal_nonzero=not zero_diagonal,
        violations=tuple(violations),
    )


class DecompositionCertificate(Frozen):
    """Outcome of splitting a kernel class into pieces vanishing above and
    below the cut, with every coefficient that produced it."""

    __slots__ = (
        "input", "cut", "coefficients", "corrections", "eta_plus", "eta_minus", "b_exhibit"
    )


def _solve_basis_coefficients(
    m: ManifoldData, eta: EquivariantClass
) -> dict[str, Fraction]:
    """Coefficients of eta over the degree basis, or NotInImage.

    The restriction of the basis class of F at G vanishes unless G sits
    weakly above F, so in descending (moment, name) order the square system
    over the basis points is upper triangular with the negative-weight
    products on the diagonal.  Solving it and then checking the remaining
    fixed points decides membership exactly.
    """
    pts = basis_points(m, eta.degree)
    if not pts:
        if eta.is_zero():
            return {}
        raise NotInImage(
            f"degree {eta.degree} has an empty basis but the class is nonzero"
        )
    desc = pts[::-1]
    a = m.alpha_minus
    system = [[a[f][g] for f in desc] for g in desc]
    solution = solve_upper_triangular(system, [eta.restrictions[g] for g in desc])
    coeffs = solution[::-1]
    # the triangular solve pinned the basis points; membership needs the rest
    rebuilt = combine_rows(coeffs, degree_basis(m, eta.degree), len(m.fixed_points))
    for g, want, got in zip(m.fixed_points, eta.restrictions, rebuilt):
        if got != want:
            raise NotInImage(
                f"restriction at {g.name} is {rat_str(want)} "
                f"but the basis span forces {rat_str(got)}"
            )
    return {m.fixed_points[i].name: c for i, c in zip(pts, coeffs)}


def decompose(
    m: ManifoldData, eta: EquivariantClass, cut: CutLevel
) -> DecompositionCertificate:
    """Split a kernel class as eta_plus + eta_minus with eta_minus vanishing
    at every point above the cut and eta_plus at every point below it.

    Steps: (1) solve the triangular system for the basis coefficients of eta
    (NotInImage when it is not in the degree span); (2) verify the residue
    pairings against the complementary basis vanish (NotInKernel otherwise);
    (3) group basis terms by side of the cut, then zero the low-index above-
    cut restrictions of the minus part by induction up the moment values,
    moving each correction term into the plus part; (4) the remaining above-
    cut restrictions of the minus part vanish automatically for kernel
    classes, and the plus part vanishes below the cut because downward
    classes of above-cut points are supported above the cut.  Step 4 is
    asserted and raises InternalContradiction on inconsistent data.
    """
    above, below = split_fixed_points(m, cut)
    coeffs = _solve_basis_coefficients(m, eta)
    pts = basis_points(m, eta.degree)

    # eta is the combination of its basis classes with coeffs, so its pairing
    # with a complementary basis class is the same combination of Gram entries
    co_degree = 2 * m.n - 2 - eta.degree
    terms = [(f, c) for f, c in zip(pts, coeffs.values()) if c]
    co_pts = basis_points(m, co_degree)
    gram = weighted_gram(m, [f for f, _ in terms], co_pts, above)
    for k, i in enumerate(co_pts):
        value = sum(c * line[k] for (_, c), line in zip(terms, gram) if line[k])
        if value:
            raise NotInKernel(
                f"pairing against the basis class of {m.fixed_points[i].name} "
                f"in degree {co_degree} is {rat_str(value)}, not zero"
            )

    rows = degree_basis(m, eta.degree)
    width = len(m.fixed_points)
    is_above = [m.fixed_points[i].moment > cut.c for i in pts]
    eta_minus = combine_rows(
        [0 if up else c for up, c in zip(is_above, coeffs.values())], rows, width
    )
    eta_plus = combine_rows(
        [c if up else 0 for up, c in zip(is_above, coeffs.values())], rows, width
    )

    corrections: dict[str, Fraction] = {}
    for i, row, up in zip(pts, rows, is_above):
        # induction upward through the above-cut points of index <= degree
        if not up:
            continue
        b = eta_minus[i] / row[i]
        corrections[m.fixed_points[i].name] = b
        if b != 0:
            eta_minus = combine_rows((1, -b), (eta_minus, row), width)
            eta_plus = combine_rows((1, b), (eta_plus, row), width)

    for i in above:
        if eta_minus[i] != 0:
            raise InternalContradiction(
                f"minus part still restricts to {rat_str(eta_minus[i])} at "
                f"{m.fixed_points[i].name}; the restriction tables are inconsistent"
            )
    for i in below:
        if eta_plus[i] != 0:
            raise InternalContradiction(
                f"plus part restricts to {rat_str(eta_plus[i])} at "
                f"{m.fixed_points[i].name}; the restriction tables are inconsistent"
            )
    if combine_rows((1, 1), (eta_plus, eta_minus), width) != eta.restrictions:
        raise InternalContradiction("decomposition does not reassemble the input")

    return DecompositionCertificate(
        input=eta,
        cut=cut,
        coefficients=coeffs,
        corrections=corrections,
        eta_plus=EquivariantClass(eta.degree, eta_plus),
        eta_minus=EquivariantClass(eta.degree, eta_minus),
        b_exhibit=b_matrix(m, cut, eta.degree) if m.alpha_plus is not None else None,
    )


# --- serialization -------------------------------------------------------------


def _subspace_to_dict(m: ManifoldData, s: Subspace) -> dict:
    return {
        "degree": s.degree,
        "labels": list(s.labels),
        "dimension": s.dim,
        "coefficient_rows": [
            [rat_str(e) for e in over_leading_entry(row)] for row in s.basis
        ],
        "restriction_rows": [
            [rat_str(e) for e in row] for row in subspace_scalar_rows(m, s)
        ],
    }


def report_to_dict(m: ManifoldData, report: KernelReport) -> dict:
    out = {
        "cut": rat_str(report.cut.c),
        "degree": report.degree,
        "residue_kernel": _subspace_to_dict(m, report.residue_kernel),
        "tw_plus": _subspace_to_dict(m, report.tw_plus),
        "tw_minus": _subspace_to_dict(m, report.tw_minus),
        "tw_sum": _subspace_to_dict(m, report.tw_sum),
        "equal": report.equal,
        "betti": report.betti,
    }
    if report.witness is not None:
        out["witness"] = class_to_dict(m, report.witness)
    return out


def bmatrix_to_dict(report: BMatrixReport) -> dict:
    return {
        "cut": rat_str(report.cut.c),
        "degree": report.degree,
        "labels": list(report.labels),
        "rows": [
            [rat_str(e) for e in report.matrix.row(i)]
            for i in range(report.matrix.rows)
        ],
        "m_exponents": list(report.m_exponents),
        "upper_triangular": report.upper_triangular,
        "diagonal_nonzero": report.diagonal_nonzero,
        "violations": list(report.violations),
    }


def certificate_to_dict(m: ManifoldData, cert: DecompositionCertificate) -> dict:
    return {
        "cut": rat_str(cert.cut.c),
        "input": class_to_dict(m, cert.input),
        "coefficients": {k: rat_str(v) for k, v in cert.coefficients.items()},
        "corrections": {k: rat_str(v) for k, v in cert.corrections.items()},
        "eta_plus": class_to_dict(m, cert.eta_plus),
        "eta_minus": class_to_dict(m, cert.eta_minus),
        "b_matrix": None if cert.b_exhibit is None else bmatrix_to_dict(cert.b_exhibit),
    }


def pairing_to_dict(pm: PairingMatrix) -> dict:
    return {
        "cut": rat_str(pm.cut.c),
        "degree": pm.degree,
        "row_labels": list(pm.row_labels),
        "col_labels": list(pm.col_labels),
        "entries": [
            [rat_str(e) for e in pm.matrix.row(i)] for i in range(pm.matrix.rows)
        ],
        "convention": SIGN_CONVENTION,
    }
