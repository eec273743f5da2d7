"""Independent brute-force oracles used to cross-check the library, and
helpers that build classes and deliberately broken data for the tests.

The oracles deliberately avoid the library's own code paths: Laurent
expansions are dict-based and verified by multiplying back, and fixed-point
sums add up the expansion of every term separately, so a slip in the
library's closed form (entry = sum of a_F b_F / e_F in one power of X) cannot
hide here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from kirwan.cohomology import EquivariantClass, degree_basis
from kirwan.momentdata import load_manifold, manifold_to_dict


def combination(m, degree, coeffs):
    """The class sum of coeffs[k] times basis class k, added up point by point."""
    basis = degree_basis(m, degree)
    return EquivariantClass(
        degree,
        tuple(
            sum((c * row[j] for c, row in zip(coeffs, basis)), Fraction(0))
            for j in range(len(m.fixed_points))
        ),
    )


def edited(m, *entries):
    """A copy of m with table[f][g] = value for each (table, f, g, value),
    loaded without table validation; value is a rational string."""
    doc = manifold_to_dict(m)
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
