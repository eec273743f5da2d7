"""Kernel of the reduction map, computed two independent ways, plus the
constructive decomposition that exhibits their agreement.

The pairing of two classes is the sum, over fixed points above the cut, of
the X^-1 coefficient of (eta * zeta)|_F divided by the tangent Euler class
e_F X^n at F.  Every class restricts to a monomial, so that coefficient is
eta_F zeta_F / e_F when the degrees add to 2n-2 and zero otherwise; a whole
pairing matrix is a block of one weighted Gram product of downward classes
over the points above the cut (`cohomology.gram_rows`, one integer dot
product per entry), and a `Sweep` shares that product among the degrees of a
sweep at one cut; `decompose` pairs a class through its basis coefficients
with the Sweep of its cut.  A degree-d class is in the kernel exactly when it
pairs to zero with the whole complementary degree 2n-2-d; restricting the
test set to that one degree is exact, not an approximation, since
homogeneous classes of any other degree pair to zero identically; the integer
block (the entries times their common scale) is eliminated as it stands.  The
second characterization is the direct sum of the classes vanishing above the
cut and those vanishing below it, the latter read off the basis by the source
paper's triangularity argument.  The two kernels agree on every valid datum,
and `kernels_equal` treats any disagreement as a diagnosable data error; the
JSON report (`reports_to_json`) writes the agreed kernel's text once per degree.

Residues here are literal X^-1 coefficients; no global orientation constant
is applied.  Kernels and Betti numbers are unaffected by that convention
(scaling a pairing matrix by a nonzero constant preserves its nullspace).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import mul

from .cohomology import (
    EquivariantClass,
    Subspace,
    basis_points,
    class_to_dict,
    gram_rows,
)
from .errors import (
    Frozen,
    InternalContradiction,
    MissingAlphaPlus,
    NotInImage,
    NotInKernel,
    ValidationError,
)
from .exactmath import meet, nullspace, rat_str, ratio_str, rref
from .momentdata import CutLevel, ManifoldData, split_fixed_points, to_json

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
    "reports_to_json",
    "certificate_to_dict",
    "bmatrix_to_dict",
    "pairing_to_dict",
]

SIGN_CONVENTION = (
    "residues are literal X^-1 coefficients; no global orientation constant applied"
)


class Sweep:
    """What the degrees of a sweep at one cut share: the datum `m` and the
    `cut`, the fixed points split at the cut, the pairing Gram product over the
    points above it, and the last kernel computed on each side.

    Entry (f, g) is the weighted Gram entry of the downward classes at f and g
    times `scale` (`cohomology.gram_rows`, set up once per sweep), an integer.
    It is symmetric and computed the first time a block asks for it, so a sweep
    over all degrees computes each pair with ind f + ind g <= 2n - 2 once, and
    a single degree no more than its own block.

    `residue` and `tw_plus` are the last even-degree residue kernel and tw_plus
    (None before any).  For even d' <= d, basis_points(m, d') is a subset of
    basis_points(m, d), so the degree-d' matrix of either kernel keeps a subset
    of the degree-d columns: the tw_plus rows are the points above the cut in
    every degree, and the residue rows, the complementary basis, only grow as
    the degree falls.  So, on any data, tw_plus at d' is the part of tw_plus at
    d that is zero at each dropped basis point, and the residue kernel at d' is
    that narrowing of the residue kernel at d, met with the Gram rows of the new
    complementary points; `exactmath.meet` takes each condition with no
    elimination, and a zero kernel narrows to zero with no work.  A sweep that
    visits its degrees from the top down (`kirwan betti`, `kirwan kernel`) runs
    one elimination per side, at its top degree; one visiting them upward gets
    the same results with one elimination per degree and side.

    `kernel_residue`, `kernel_tw` and `kernels_equal` take the Sweep of their
    own (m, cut), or make one; a Sweep of another datum or cut is a ValueError.
    """

    def __init__(self, m: ManifoldData, cut: CutLevel):
        self.m, self.cut = m, cut
        self.above, self.below = split_fixed_points(m, cut)
        self._row_entries, self.scale = gram_rows(m, self.above)
        self._gram: dict[tuple[int, int], int] = {}
        self.residue: Subspace | None = None
        self.tw_plus: Subspace | None = None

    @cached_property
    def triangular(self) -> bool:
        """Whether the support axioms' triangular block holds over all points, and
        so on every degree's basis: each row below the cut is zero left of its
        nonzero diagonal entry, and each row above the cut is zero below it."""
        table, _ = self.m.integer_alpha_minus
        k = len(self.below)  # the points below the cut come first
        return all(table[f][f] and not any(table[f][:f]) for f in range(k)) and not any(
            any(table[g][:k]) for g in self.above
        )

    def gram_block(self, rows: Sequence[int], cols: Sequence[int]) -> list[list[int]]:
        """The integer entries (f, g) for the positions f in rows and g in cols."""
        gram = self._gram
        for f in rows:
            missing = [g for g in cols if (f, g) not in gram]
            if missing:
                for g, entry in zip(missing, self._row_entries(f, missing)):
                    gram[f, g] = gram[g, f] = entry
        return [[gram[f, g] for g in cols] for f in rows]


def _sweep_of(m: ManifoldData, cut: CutLevel, sweep: Sweep | None) -> Sweep:
    """The given Sweep, or a new one of (m, cut) when it is None.  A Sweep of
    another datum or cut raises ValueError."""
    if sweep is None:
        return Sweep(m, cut)
    if (sweep.m is m or sweep.m == m) and (sweep.cut is cut or sweep.cut == cut):
        return sweep
    raise ValueError(f"the Sweep is not of {m.name!r} at cut {rat_str(cut.c)}")


class PairingMatrix(Frozen):
    """Pairing values between the degree-d basis (rows) and the complementary
    degree-(2n-2-d) basis (columns): `matrix` is a tuple of row tuples, one
    per row label, each as wide as the column labels."""

    __slots__ = ("cut", "degree", "row_labels", "col_labels", "matrix")


def pairing_matrix(m: ManifoldData, cut: CutLevel, degree: int) -> PairingMatrix:
    """All pairings between the degree basis and its complementary basis: the
    block of the Gram product over the points above the cut with rows of index
    <= d and columns of index <= 2n - 2 - d, and no other entry.

    The column set is empty when 2n - 2 - d is negative.
    """
    sweep = Sweep(m, cut)
    rows, cols = basis_points(m, degree), basis_points(m, 2 * m.n - 2 - degree)
    scale, block = sweep.scale, sweep.gram_block(rows, cols)
    return PairingMatrix(
        cut=cut,
        degree=degree,
        row_labels=tuple(m.fixed_points[i].name for i in rows),
        col_labels=tuple(m.fixed_points[i].name for i in cols),
        matrix=tuple(tuple(Fraction(e, scale) if e else 0 for e in line) for line in block),
    )


def _narrow(m: ManifoldData, kept: Subspace, points: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The vectors of the kept kernel that are zero at each of its basis points
    not in points (a subset of them), as canonical rows over points."""
    basis, keep, cols = kept.basis, set(points), []
    for c, f in enumerate(basis_points(m, kept.degree)):
        if f in keep:
            cols.append(c)
        elif basis:
            basis = meet(basis, [row[c] for row in basis])
    return tuple(tuple(map(row.__getitem__, cols)) for row in basis)


def kernel_residue(
    m: ManifoldData, cut: CutLevel, degree: int, sweep: Sweep | None = None
) -> Subspace:
    """Degree-d classes pairing to zero against the whole complementary basis: the null
    space of the transposed integer Gram block, whose scale changes no null space.
    At or below the degree of the sweep's kept `residue`, that kernel narrowed to the
    degree-d basis and met with the Gram rows of the new complementary points."""
    sweep = _sweep_of(m, cut, sweep)
    rows = basis_points(m, degree)
    labels = tuple(m.fixed_points[i].name for i in rows)
    cols = basis_points(m, 2 * m.n - 2 - degree)
    kept = sweep.residue
    if kept is not None and degree <= kept.degree:
        basis = _narrow(m, kept, rows)
        known = set(basis_points(m, 2 * m.n - 2 - kept.degree))
        for g in cols:
            if basis and g not in known:
                (line,) = sweep.gram_block([g], rows)
                entries = [x for x in line if x]  # dot products over its nonzero entries
                basis = meet(basis, [sum(map(mul, entries, compress(row, line))) for row in basis])
    else:
        basis = nullspace(sweep.gram_block(cols, rows), len(rows))
    residue = Subspace(degree, labels, basis)
    if degree % 2 == 0:
        sweep.residue = residue
    return residue


def _evaluation_kernel(m: ManifoldData, degree: int, points: Sequence[int]) -> Subspace:
    """Degree-d classes vanishing at the fixed points in the given positions:
    the null space of the basis rows restricted to those columns, read off
    the integer table."""
    pts = basis_points(m, degree)
    table, _ = m.integer_alpha_minus
    constraints = [[table[i][j] for i in pts] for j in points]
    labels = tuple(m.fixed_points[i].name for i in pts)
    return Subspace(degree, labels, nullspace(constraints, len(pts)))


def _tw_plus(m: ManifoldData, degree: int, sweep: Sweep) -> Subspace:
    """Degree-d classes vanishing above the cut: at or below the degree of the
    sweep's kept `tw_plus`, that kernel narrowed to the degree-d basis."""
    kept = sweep.tw_plus
    if kept is not None and degree <= kept.degree:
        pts = basis_points(m, degree)
        labels = tuple(m.fixed_points[i].name for i in pts)
        tw_plus = Subspace(degree, labels, _narrow(m, kept, pts))
    else:
        tw_plus = _evaluation_kernel(m, degree, sweep.above)
    if degree % 2 == 0:
        sweep.tw_plus = tw_plus
    return tw_plus


def kernel_tw(
    m: ManifoldData, cut: CutLevel, degree: int, sweep: Sweep | None = None
) -> tuple[Subspace, Subspace, Subspace]:
    """(vanishing above the cut, vanishing below it, their sum).

    The first is eliminated, except at or below the degree of the sweep's kept
    `tw_plus`, which it narrows.  Where the support axioms' triangular block
    holds (`Sweep.triangular`), the k below-cut basis points come first, and
    the second is the unit rows at columns k and up, and the sum is those rows
    after the tw_plus basis cut to its first k columns.  tw_plus is canonical,
    so that cut is read off with no elimination: its rows are the tw_plus rows
    with leading entry left of k, each cut at k and divided by the gcd of what
    is left.  Elsewhere (data loaded without validation) the second is
    eliminated, and the sum is the `rref` of both bases.
    """
    sweep = _sweep_of(m, cut, sweep)
    tw_plus = _tw_plus(m, degree, sweep)
    labels, below = tw_plus.labels, len(sweep.below)
    if not sweep.triangular:
        tw_minus = _evaluation_kernel(m, degree, sweep.below)
        basis, _ = rref(tw_plus.basis + tw_minus.basis, len(labels))
        return tw_plus, tw_minus, Subspace(degree, labels, basis)
    k, w = sum(i < below for i in basis_points(m, degree)), len(labels)
    units = tuple((0,) * c + (1,) + (0,) * (w - 1 - c) for c in range(k, w))
    padded = tuple(
        tuple(e // g for e in row[:k]) + (0,) * (w - k)
        for row in tw_plus.basis
        if (g := math.gcd(*row[:k]))
    )
    return tw_plus, Subspace(degree, labels, units), Subspace(degree, labels, padded + units)


class KernelReport(Frozen):
    """Both kernel descriptions in one degree, their comparison, and the
    resulting Betti number of the reduced space."""

    __slots__ = (
        "cut", "degree", "residue_kernel", "tw_plus", "tw_minus", "tw_sum", "equal", "betti",
        "witness",
    )


def _in_span(basis: Sequence[Sequence[int]], row: Sequence[int | Fraction]) -> bool:
    """Whether row lies in the span of basis, canonical rows as `rref` gives them: each
    is zero at the others' pivots, so row less its multiple of each at that row's pivot
    (in integers) is zero exactly when row is in the span, with no elimination."""
    for line in basis:
        p = next(c for c, e in enumerate(line) if e)
        if x := row[p]:
            row = [line[p] * e - x * t for e, t in zip(row, line)]
    return not any(row)


def _find_witness(
    m: ManifoldData, a: Subspace, b: Subspace
) -> EquivariantClass | None:
    """The first basis row of a, then of b, outside the other's span, expanded to
    restrictions as Fractions."""
    pts = basis_points(m, a.degree)
    for first, second in ((a, b), (b, a)):
        for row in first.basis:
            if not _in_span(second.basis, row):
                ints, scale = _expand(m, tuple(compress(zip(pts, row), row)))
                return EquivariantClass(first.degree, tuple(Fraction(e, scale) for e in ints))
    return None


def kernels_equal(
    m: ManifoldData, cut: CutLevel, degree: int, sweep: Sweep | None = None
) -> KernelReport:
    """Compute both kernels, each on its own, and compare their canonical bases.

    On valid data `equal` is always True; a False value comes with a witness
    class and means the restriction tables are inconsistent (or the library
    has a bug), never a mathematical possibility.
    """
    sweep = _sweep_of(m, cut, sweep)
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

    Rows and columns are ordered by descending moment, then ascending name
    within a level (S2^3's tied level reads mpp, pmp, ppm): the support
    condition kills entries at strictly higher moments, which in this order
    lie in the strict lower triangle.  `matrix` is a tuple of row tuples,
    one per label and as wide as the labels.  `m_exponents` records, per row
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
    entries = tuple(tuple(m.alpha_plus[i][j] for j in order) for i in order)
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
        matrix=entries,
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


def decompose(
    m: ManifoldData, eta: EquivariantClass, cut: CutLevel
) -> DecompositionCertificate:
    """Split a kernel class as eta_plus + eta_minus with eta_minus vanishing
    at every point above the cut and eta_plus at every point below it.

    One pass up the degree basis, in (moment, name) order.  A downward class
    vanishes below its point's level and elsewhere on it, so at basis point f
    the coefficient c_f is `rest` (eta less the terms so far) at f over the
    diagonal entry; below the cut the term also joins the minus part.  Those
    points come first, so at an above-cut f the minus part holds every
    below-cut term, and the correction b_f, the minus part at f over the
    diagonal entry, clears it there for good.  A leftover outside the basis
    then means eta is not in the degree span (NotInImage), a nonzero pairing
    against the complementary basis that it is not in the kernel
    (NotInKernel), and the plus part is eta less the minus part.  That these
    vanish below and above the cut, as they do for kernel classes, is
    asserted; a failed assertion, a zero diagonal entry or a leftover at a
    basis point come only from unvalidated tables (InternalContradiction).
    """
    width = len(m.fixed_points)
    if len(eta.restrictions) != width:
        raise ValidationError(
            f"the class has {len(eta.restrictions)} restrictions but "
            f"{m.name!r} has {width} fixed points"
        )
    sweep = Sweep(m, cut)
    pts, low = basis_points(m, eta.degree), set(sweep.below)
    rest, minus = list(eta.restrictions), [0] * width
    coefficients: dict[str, Fraction] = {}
    corrections: dict[str, Fraction] = {}
    for f in pts:
        row, name = m.alpha_minus[f], m.fixed_points[f].name
        if not row[f]:
            raise InternalContradiction(
                f"alpha_minus[{name}][{name}] is 0; the restriction tables are inconsistent"
            )
        c = coefficients[name] = Fraction(rest[f], row[f])  # exact: both may be ints
        if c:
            rest = [r - c * e if e else r for r, e in zip(rest, row)]
            if f in low:
                minus = [x + c * e if e else x for x, e in zip(minus, row)]
        if f not in low:
            b = corrections[name] = Fraction(minus[f], row[f])
            if b:
                minus = [x - b * e if e else x for x, e in zip(minus, row)]
    for f in pts:
        if rest[f]:
            raise InternalContradiction(
                f"the basis terms leave {rat_str(rest[f])} at the basis point "
                f"{m.fixed_points[f].name}; the restriction tables are inconsistent"
            )
    for g, want, left in zip(m.fixed_points, eta.restrictions, rest):
        if left:
            raise NotInImage(
                f"restriction at {g.name} is {rat_str(want)} "
                f"but the basis span forces {rat_str(want - left)}"
            )

    # eta is the combination of its basis classes with the coefficients, so its
    # pairing with a complementary basis class is the same combination of Gram entries
    co_degree = 2 * m.n - 2 - eta.degree
    terms = [(f, c) for f, c in zip(pts, coefficients.values()) if c]
    co_pts = basis_points(m, co_degree)
    gram = sweep.gram_block([f for f, _ in terms], co_pts)
    for k, i in enumerate(co_pts):
        value = sum(c * line[k] for (_, c), line in zip(terms, gram) if line[k])
        if value:
            raise NotInKernel(
                f"pairing against the basis class of {m.fixed_points[i].name} "
                f"in degree {co_degree} is {rat_str(value / sweep.scale)}, not zero"
            )

    eta_plus = [e - x for e, x in zip(eta.restrictions, minus)]
    for i in sweep.above:
        if minus[i] != 0:
            raise InternalContradiction(
                f"minus part still restricts to {rat_str(minus[i])} at "
                f"{m.fixed_points[i].name}; the restriction tables are inconsistent"
            )
    for i in sweep.below:
        if eta_plus[i] != 0:
            raise InternalContradiction(
                f"plus part restricts to {rat_str(eta_plus[i])} at "
                f"{m.fixed_points[i].name}; the restriction tables are inconsistent"
            )

    return DecompositionCertificate(
        input=eta,
        cut=cut,
        coefficients=coefficients,
        corrections=corrections,
        eta_plus=EquivariantClass(eta.degree, tuple(eta_plus)),
        eta_minus=EquivariantClass(eta.degree, tuple(minus)),
        b_exhibit=b_matrix(m, cut, eta.degree) if m.alpha_plus is not None else None,
    )


# --- serialization -------------------------------------------------------------

# `kirwan kernel --format json` at its fixed depths: a list in a subspace, a basis row
_ITEM, _ENTRY = ",\n          ", '",\n            "'
_ROW = '[\n            "{}"\n          ]'.format


def _list_text(items: list[str]) -> str:
    return f"[\n          {_ITEM.join(items)}\n        ]" if items else "[]"


def _row_text(ints: Sequence[int], scale: int) -> str:
    """The basis row ints / scale: one str() per entry over scale 1, else one
    ratio_str per nonzero entry."""
    if scale == 1:
        try:
            return _ROW(_ENTRY.join(map(str, ints)))
        except ValueError:  # past the 4300 digits to which str() limits an int
            pass
    return _ROW(_ENTRY.join([ratio_str(e, scale) if e else "0" for e in ints]))


def _expand(m: ManifoldData, terms: Sequence[tuple[int, int]]) -> tuple[Sequence[int], int]:
    """A canonical coefficient row, given by its nonzero (basis point, coefficient) terms,
    as restriction scalars in point order: (ints, scale), the scalar at j being ints[j] /
    scale.  ints is the row times the integer table rows (`ManifoldData.integer_alpha_minus`,
    over den), a one-term row's being its table row; scale is den times the lead."""
    table, den = m.integer_alpha_minus
    (f, lead), *rest = terms
    ints = table[f] if lead == 1 else [lead * e for e in table[f]]
    for g, c in rest:
        ints = [a + c * e if e else a for a, e in zip(ints, table[g])]
    return ints, den * lead


def reports_to_json(m: ManifoldData, reports: Sequence[KernelReport]) -> str:
    """The `degrees` list of `kirwan kernel --format json`, written in one pass over
    the reports' Subspaces: each distinct basis of a report once (on valid data
    `tw_sum` is the residue kernel), each coefficient row over its leading entry,
    and each restriction row (`_expand`) once, keyed by its nonzero (point,
    coefficient) terms, so a row that comes back at a lower degree is reused."""
    rows: dict[tuple, str] = {}
    entries = []
    for rep in reports:
        pts, texts = basis_points(m, rep.degree), {}
        labels = _list_text([encode_basestring_ascii(x) for x in rep.residue_kernel.labels])
        subspaces = rep.residue_kernel, rep.tw_plus, rep.tw_minus, rep.tw_sum
        for s in subspaces:
            if s.basis in texts:
                continue
            coefficient_rows, restriction_rows = [], []
            for row in s.basis:
                terms = tuple(compress(zip(pts, row), row))
                coefficient_rows.append(_row_text(row, terms[0][1]))
                if terms not in rows:
                    rows[terms] = _row_text(*_expand(m, terms))
                restriction_rows.append(rows[terms])
            texts[s.basis] = (
                f'{{\n        "degree": {s.degree},\n        "labels": {labels},'
                f'\n        "dimension": {s.dim},'
                f'\n        "coefficient_rows": {_list_text(coefficient_rows)},'
                f'\n        "restriction_rows": {_list_text(restriction_rows)}\n      }}'
            )
        residue, tw_plus, tw_minus, tw_sum = (texts[s.basis] for s in subspaces)
        witness = "" if rep.witness is None else ',\n      "witness": ' + to_json(
            class_to_dict(m, rep.witness)
        ).replace("\n", "\n      ")
        entries.append(
            f'{{\n      "cut": "{rat_str(rep.cut.c)}",\n      "degree": {rep.degree},'
            f'\n      "residue_kernel": {residue},\n      "tw_plus": {tw_plus},'
            f'\n      "tw_minus": {tw_minus},\n      "tw_sum": {tw_sum},'
            f'\n      "equal": {"true" if rep.equal else "false"},'
            f'\n      "betti": {rep.betti}{witness}\n    }}'
        )
    return "[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]"


def bmatrix_to_dict(report: BMatrixReport) -> dict:
    return {
        "cut": rat_str(report.cut.c),
        "degree": report.degree,
        "labels": list(report.labels),
        "rows": [[rat_str(e) for e in row] for row in report.matrix],
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
        "entries": [[rat_str(e) for e in row] for row in pm.matrix],
        "convention": SIGN_CONVENTION,
    }
