"""Independent brute-force oracles used to cross-check the library, and
helpers that build classes and deliberately broken data for the tests.

The oracles deliberately avoid the library's own code paths: Laurent
expansions are dict-based and verified by multiplying back, and fixed-point
sums add up the expansion of every term separately, so a slip in the
library's closed form (entry = sum of a_F b_F / e_F in one power of X) cannot
hide here.  `reference_rref` is the plain Fraction Gauss-Jordan elimination
the library's integer elimination must reproduce, `reference_tw_kernels`
eliminates both vanishing-condition kernels and their sum with no use of the
triangular block the support axioms give, `census_betti` reads
Betti numbers off the index census alone, with no restriction table and no
elimination, and `reference_parser` is the argparse command line the
hand-written `kirwan.cli` parser must read the same way.  `reference_cpn` and
`reference_sphere_product` build the generator data from their closed forms
entry by entry in Fractions, `reference_support_violations` is the pairwise
support check of table validation, and `localization_pairing` the weighted
Gram entry of any two restriction vectors as a plain Fraction sum.
`reference_rat` and `reference_int` read a document's rational strings and
weights the way the loader first did, one value at a time, and
`reference_integer_table` puts a Fraction table over its lcm denominator
with a running lcm.  `basis_rows` reads the degree basis off the weights, and
`basis_coefficients` writes a class over it by plain Fraction elimination.
`reference_document` is the canonical document as a dict of name-keyed dicts,
whose `json.dumps` text the one-pass writer `manifold_to_json` must write.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from kirwan.cohomology import EquivariantClass, Subspace, basis_points, subspace_sum
from kirwan.errors import SchemaError
from kirwan.exactmath import nullspace, rat, rat_str
from kirwan.momentdata import load_manifold, manifold_to_json, morse_index, split_fixed_points


def basis_rows(m, degree):
    """The restriction rows of the degree-d basis classes: the alpha_minus rows
    of the fixed points with at most d/2 negative weights, in fixed-point order;
    none for an odd or negative degree."""
    if degree < 0 or degree % 2:
        return []
    return [
        row for fp, row in zip(m.fixed_points, m.alpha_minus)
        if 2 * sum(w < 0 for w in fp.weights) <= degree
    ]


def combination(m, degree, coeffs):
    """The class sum of coeffs[k] times basis class k, added up point by point."""
    basis = basis_rows(m, degree)
    return EquivariantClass(
        degree,
        tuple(
            sum((c * row[j] for c, row in zip(coeffs, basis)), Fraction(0))
            for j in range(len(m.fixed_points))
        ),
    )


def reduced_row(row):
    """A primitive integer row of `rref` or `nullspace` divided by its leading
    entry: its reduced-row-echelon row, as Fractions."""
    lead = next(e for e in row if e)
    return [Fraction(e, lead) for e in row]


def rref_rows(subspace):
    """The subspace's reduced-row-echelon rows as Fractions."""
    return [reduced_row(row) for row in subspace.basis]


def reference_document(m):
    """Canonical document: fixed points sorted, zero restrictions omitted."""
    def table_dict(table):
        # rows in fixed-point order, zero entries omitted
        return {
            f.name: {g.name: rat_str(s) for g, s in zip(m.fixed_points, row) if s != 0}
            for f, row in zip(m.fixed_points, table)
        }

    doc = {
        "name": m.name,
        "n": m.n,
        "orientation_direction": m.orientation_direction,
        "fixed_points": [
            {"name": fp.name, "moment": rat_str(fp.moment), "weights": list(fp.weights)}
            for fp in m.fixed_points
        ],
        "alpha_minus": table_dict(m.alpha_minus),
    }
    if m.alpha_plus is not None:
        doc["alpha_plus"] = table_dict(m.alpha_plus)
    return doc


def edited(m, *entries):
    """A copy of m with table[f][g] = value for each (table, f, g, value),
    loaded without table validation; value is a rational string."""
    doc = json.loads(manifold_to_json(m))
    for table, f, g, value in entries:
        doc[table][f][g] = value
    return load_manifold(doc, validate_alpha=False)


def laurent_expand(coeffs, epsilon, n):
    """Full Laurent expansion of (sum_k coeffs[k] X^k) / (epsilon * X^n).

    Returns a dict mapping each power of X to its coefficient, with zero
    coefficients omitted.  Verifies itself by multiplying the expansion back
    by epsilon * X^n and comparing against the numerator.
    """
    epsilon = Fraction(epsilon)
    if epsilon == 0:
        raise ZeroDivisionError("epsilon must be nonzero")
    expansion = {}
    for k, c in enumerate(coeffs):
        c = Fraction(c)
        if c != 0:
            expansion[k - n] = c / epsilon
    rebuilt = {power + n: c * epsilon for power, c in expansion.items()}
    numerator = {k: Fraction(c) for k, c in enumerate(coeffs) if Fraction(c) != 0}
    assert rebuilt == numerator, "laurent_expand failed its own reconstruction"
    return expansion


def laurent_residue(coeffs, epsilon, n):
    """X^-1 coefficient extracted from the brute-force expansion."""
    return laurent_expand(coeffs, epsilon, n).get(-1, Fraction(0))


def localization_expansion(points, scalars, degree):
    """Laurent expansion of the fixed-point sum over `points` of
    scalars[F] X^(degree/2) / (e_F X^n), with e_F the product of the weights
    at F and n their count; zero coefficients omitted."""
    total = {}
    for fp in points:
        monomial = [0] * (degree // 2) + [scalars[fp.name]]
        expansion = laurent_expand(monomial, math.prod(fp.weights), len(fp.weights))
        for power, c in expansion.items():
            total[power] = total.get(power, Fraction(0)) + c
    return {power: c for power, c in total.items() if c != 0}


def product_scalars(m, f, g):
    """Restriction scalars of the product of the downward classes of f and g."""
    return {
        fp.name: m.alpha_minus_scalar(f, fp.name) * m.alpha_minus_scalar(g, fp.name)
        for fp in m.fixed_points
    }


def localization_pairing(m, eta, zeta, points):
    """Sum over the positions j in points of eta[j] * zeta[j] / e_j, for two
    restriction vectors of any kind, in Fractions, with e_j the product of
    the weights at fixed point j: the weighted Gram entry of eta and zeta."""
    total = Fraction(0)
    for j in points:
        total += Fraction(eta[j]) * Fraction(zeta[j]) / math.prod(m.fixed_points[j].weights)
    return total


def reference_cpn(lambdas):
    """Projective space from the closed forms alone, all in Fractions:
    (name, [(point name, moment, weights)], alpha_minus, alpha_plus), the
    tables name-keyed with every entry, zeros included.  Point p_i has
    moment lambda_i and weights lambda_j - lambda_i (j != i); its downward
    class restricts at p_k to (-1)^i prod_{j<i} (lambda_k - lambda_j), its
    upward class to (-1)^(n-i) prod_{j>i} (lambda_k - lambda_j)."""
    ls = [Fraction(a) for a in lambdas]
    n = len(ls) - 1
    names = [f"p{i}" for i in range(n + 1)]
    points = [
        (names[i], ls[i], tuple(int(ls[j] - ls[i]) for j in range(n + 1) if j != i))
        for i in range(n + 1)
    ]
    alpha_minus, alpha_plus = {}, {}
    for i in range(n + 1):
        alpha_minus[names[i]], alpha_plus[names[i]] = {}, {}
        for k in range(n + 1):
            down = Fraction((-1) ** i)
            for j in range(i):
                down *= ls[k] - ls[j]
            up = Fraction((-1) ** (n - i))
            for j in range(i + 1, n + 1):
                up *= ls[k] - ls[j]
            alpha_minus[names[i]][names[k]] = down
            alpha_plus[names[i]][names[k]] = up
    name = f"CP{n}[{','.join(str(a) for a in lambdas)}]"
    return name, points, alpha_minus, alpha_plus


def reference_sphere_product(speeds):
    """A product of rotating two-spheres from the closed forms alone, in the
    form of `reference_cpn`.  Vertices are sign vectors, named by "p" for +
    and "m" for -; a vertex has moment sum s_i |w_i| and weights -s_i |w_i|.
    The downward class of f is the product over the factors of -|w_i| at
    vertices with s_i = + where f has s_i = +, of 0 at the other vertices
    there, and of 1 where f has s_i = -; the upward class likewise with
    |w_i| at s_i = - where f has s_i = -."""
    ws = [abs(w) for w in speeds]
    k = len(ws)
    vertices = [
        tuple(1 if (v >> (k - 1 - i)) & 1 else -1 for i in range(k)) for v in range(2 ** k)
    ]

    def name(signs):
        return "".join("p" if s > 0 else "m" for s in signs)

    points = [
        (name(v), Fraction(sum(s * w for s, w in zip(v, ws))),
         tuple(-s * w for s, w in zip(v, ws)))
        for v in vertices
    ]
    alpha_minus, alpha_plus = {}, {}
    for f in vertices:
        alpha_minus[name(f)], alpha_plus[name(f)] = {}, {}
        for g in vertices:
            down = up = Fraction(1)
            for i in range(k):
                if f[i] > 0:
                    down *= -ws[i] if g[i] > 0 else 0
                else:
                    up *= ws[i] if g[i] < 0 else 0
            alpha_minus[name(f)][name(g)] = down
            alpha_plus[name(f)][name(g)] = up
    return f"S2x{k}[{','.join(str(w) for w in speeds)}]", points, alpha_minus, alpha_plus


def reference_support_violations(m, table_name, table, upward):
    """The support check of table validation as it was first written: every
    pair of fixed points, N^2 of them, in table order."""
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


def reference_rat(value, where):
    """A document's rational string as the loader first read it, through
    its own type check and `exactmath.rat`, with ASCII digits only as
    documented: the Fraction, or the SchemaError naming `where`."""
    if not isinstance(value, str):
        raise SchemaError(f'{where} must be a rational string like "p/q"')
    if not re.match(r"-?[0-9]+(?:/[0-9]+)?\Z", value):
        raise SchemaError(f"{where}: not a rational literal: {value!r}")
    num, _, den = value.partition("/")
    try:
        if den and int(den) == 0:
            raise SchemaError(f"{where}: zero denominator: {value!r}")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ValueError as exc:  # a literal longer than int() converts (4300 digits)
        raise SchemaError(f"{where}: {exc}") from None


def reference_int(value, where):
    """A document's integer field as the loader first read it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer")
    return value


def reference_integer_table(table):
    """(rows, den) for a table of Fractions: den the lcm of every
    denominator, accumulated one entry at a time, and each entry times den."""
    den = 1
    for row in table:
        for s in row:
            den = den * s.denominator // math.gcd(den, s.denominator)
    return tuple(tuple(int(s * den) for s in row) for row in table), den


def reference_rref(matrix, width):
    """Reduced row echelon form of the rows, each of length width, and the
    pivot columns.

    Pivot entries are 1, pivot columns are cleared above and below, zero rows
    sink to the bottom, and the result is idempotent, so two row spaces are
    equal exactly when their reduced forms are identical.  Entries are read
    as Fractions, so int input divides exactly.
    """
    rows = [list(map(Fraction, row)) for row in matrix]
    assert all(len(row) == width for row in rows)
    pivots: list[int] = []
    r = 0
    for c in range(width):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [e / pv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def reference_nullspace(matrix, width):
    """Canonical basis of {v : matrix @ v = 0}, as rows, read off
    reference_rref."""
    red, pivots = reference_rref(matrix, width)
    vecs = []
    for f in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        vecs.append(v)
    return reference_rref(vecs, width)[0]


def basis_coefficients(m, eta):
    """The coefficients of eta over its degree basis, as Fractions: Fraction
    elimination of the system with one equation per fixed point, which makes
    no use of its triangular shape.  eta must lie in the span."""
    rows = basis_rows(m, eta.degree)
    k = len(rows)
    system = [[*(row[j] for row in rows), s] for j, s in enumerate(eta.restrictions)]
    red, pivots = reference_rref(system, k + 1)
    assert pivots == tuple(range(k)), "eta is not in the span of independent basis classes"
    return [red[i][k] for i in range(k)]


def reference_tw_kernels(m, cut, degree):
    """(vanishing above the cut, vanishing below it, their sum) by elimination
    alone: the null spaces of the degree basis evaluated, in Fractions, at the
    points on each side of the cut, and `subspace_sum` of the two."""
    pts = basis_points(m, degree)
    labels = tuple(m.fixed_points[i].name for i in pts)
    plus, minus = (
        Subspace(degree, labels, nullspace(
            [[m.alpha_minus[i][j] for i in pts] for j in side], len(pts)
        ))
        for side in split_fixed_points(m, cut)
    )
    return plus, minus, subspace_sum(plus, minus)


def census_betti(m, cut):
    """Betti numbers of the reduction at cut c from the index census alone.

    Kirwan's perfect stratification by |mu - c|^2 gives
    P_t(M_c) = sum over F with mu(F) < c of (t^ind F - t^(2n - ind F)) / (1 - t^2).
    The numerator is summed as a dict of powers, divided by 1 - t^2 as a
    power series, and the quotient checked to be a polynomial of degree at
    most 2n - 2.  Returns {degree: betti} for the even degrees 0..2n-2.
    """
    top = 2 * m.n
    numerator = {}
    for fp in m.fixed_points:
        if fp.moment < cut.c:
            ind = morse_index(fp)
            numerator[ind] = numerator.get(ind, 0) + 1
            numerator[top - ind] = numerator.get(top - ind, 0) - 1
    quotient = {}
    running = 0
    for power in range(0, top + 1, 2):
        running += numerator.get(power, 0)
        quotient[power] = running
    assert quotient[top] == 0, "the census sum is not a polynomial"
    return {d: quotient[d] for d in range(0, top - 1, 2)}


# The argparse parser of kirwan 0.6.0, kept verbatim but for its name.

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse only lets values starting with "-" through when they look
        # like negative numbers; widen that to rationals and comma lists
        # (-1/2, -2,0,3) so cuts below zero need no "=" form
        self._negative_number_matcher = re.compile(
            r"^-\d+(?:/\d+)?(?:,-?\d+(?:/\d+)?)*\Z"
        )

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _degree(text: str) -> int | None:
    if text == "all":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"degree must be an integer or 'all': {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("degree must be nonnegative")
    return value


def reference_parser() -> _Parser:
    parser = _Parser(prog="kirwan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def manifold_command(name: str, help_text: str, *, cut: bool, degree: str | None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="manifold JSON file")
        if cut:
            p.add_argument("--cut", required=True, type=_rational, help="cut level p/q")
        if degree == "required":
            p.add_argument("--degree", required=True, type=_degree)
        elif degree == "all":
            p.add_argument("--degree", default=None, type=_degree, help="even degree or 'all'")
        p.add_argument("--format", choices=("json", "md"), default="md")
        return p

    manifold_command("validate", "check a manifold document", cut=False, degree=None)
    manifold_command("pair", "pairing matrix in one degree", cut=True, degree="required")
    kernel = manifold_command("kernel", "kernel subspaces per degree", cut=True, degree="all")
    kernel.add_argument("--method", choices=("both", "residue", "tw"), default="both")
    manifold_command("betti", "Betti table of the reduced space", cut=True, degree=None)
    dec = manifold_command("decompose", "split a kernel class", cut=True, degree="required")
    group = dec.add_mutually_exclusive_group(required=True)
    group.add_argument("--class-file", help="JSON file with degree and restrictions")
    group.add_argument("--class-json", help="inline JSON class")
    manifold_command("bmatrix", "upward-restriction diagnostics", cut=True, degree="required")

    gen = sub.add_parser("generate", help="emit a built-in manifold datum")
    gen_sub = gen.add_subparsers(dest="family", required=True, parser_class=_Parser)
    cpn = gen_sub.add_parser("cpn", help="projective space")
    cpn.add_argument("--lambda", dest="lambdas", required=True, type=_int_list)
    cpn.add_argument("--out", default=None)
    spheres = gen_sub.add_parser("spheres", help="product of rotating two-spheres")
    spheres.add_argument("--w", dest="speeds", required=True, type=_int_list)
    spheres.add_argument("--out", default=None)
    return parser
