"""Built-in families with exact restriction tables: projective spaces under a
linear circle action, and products of rotating two-spheres.

Projective space with strictly increasing homogeneous weights lambda_0 < ... <
lambda_n has fixed points p_i with moment lambda_i and tangent weights
lambda_j - lambda_i.  The downward class of p_i restricts at p_k to
(-1)^i * prod_{j<i} (lambda_k - lambda_j); the sign makes the diagonal equal
the negative-weight product exactly.  The upward class mirrors this over
j > i with sign (-1)^(n-i).

A product of k spheres with rotation speeds w has 2^k fixed points indexed by
sign vectors; moments are signed sums of |w_i| (so the minimum sits at the
all-minus vertex) and the basis classes are products of per-factor classes.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import product

from .errors import SpecError
from .momentdata import FixedPoint, ManifoldData, make_manifold

__all__ = ["gen_cpn", "gen_sphere_product"]


def gen_cpn(lambdas: Sequence[int]) -> ManifoldData:
    """Projective-space datum for the given homogeneous weights, which must be
    at least two strictly increasing integers.

    >>> m = gen_cpn([0, 1])
    >>> [(fp.name, str(fp.moment), fp.weights) for fp in m.fixed_points]
    [('p0', '0', (1,)), ('p1', '1', (-1,))]
    """
    ls = tuple(lambdas)
    if len(ls) < 2:
        raise SpecError("need at least two homogeneous weights")
    if any(isinstance(a, bool) or not isinstance(a, int) for a in ls):
        raise SpecError("homogeneous weights must be integers")
    if any(a >= b for a, b in zip(ls, ls[1:])):
        raise SpecError("homogeneous weights must be strictly increasing")
    n = len(ls) - 1
    points = [
        FixedPoint(
            name=f"p{i}",
            moment=Fraction(ls[i]),
            weights=tuple(ls[j] - ls[i] for j in range(n + 1) if j != i),
        )
        for i in range(n + 1)
    ]
    alpha_minus: dict[str, dict[str, Fraction]] = {}
    alpha_plus: dict[str, dict[str, Fraction]] = {}
    for i in range(n + 1):
        sign_minus = -1 if i % 2 else 1
        sign_plus = -1 if (n - i) % 2 else 1
        row_minus: dict[str, Fraction] = {}
        row_plus: dict[str, Fraction] = {}
        for k in range(n + 1):
            down = Fraction(sign_minus)
            for j in range(i):
                down *= ls[k] - ls[j]
            up = Fraction(sign_plus)
            for j in range(i + 1, n + 1):
                up *= ls[k] - ls[j]
            row_minus[f"p{k}"] = down
            row_plus[f"p{k}"] = up
        alpha_minus[f"p{i}"] = row_minus
        alpha_plus[f"p{i}"] = row_plus
    return make_manifold(
        name=f"CP{n}[{','.join(str(a) for a in ls)}]",
        n=n,
        orientation_direction=1,
        fixed_points=points,
        alpha_minus=alpha_minus,
        alpha_plus=alpha_plus,
    )


def _vertex_name(signs: tuple[int, ...]) -> str:
    return "".join("p" if s > 0 else "m" for s in signs)


def gen_sphere_product(rotation_speeds: Sequence[int]) -> ManifoldData:
    """Sphere-product datum for one nonzero integer rotation speed per sphere
    factor; speeds enter through their absolute values, so the moment minimum
    sits at the all-minus vertex.

    >>> m = gen_sphere_product([1, 1])
    >>> [str(fp.moment) for fp in m.fixed_points]
    ['-2', '0', '0', '2']
    """
    given = tuple(rotation_speeds)
    if not given:
        raise SpecError("need at least one sphere factor")
    for w in given:
        if isinstance(w, bool) or not isinstance(w, int):
            raise SpecError("rotation speeds must be integers")
        if w == 0:
            raise SpecError("rotation speeds must be nonzero")
    speeds = tuple(abs(w) for w in given)
    k = len(speeds)
    vertices = list(product((-1, 1), repeat=k))
    points = [
        FixedPoint(
            name=_vertex_name(signs),
            moment=Fraction(sum(s * w for s, w in zip(signs, speeds))),
            weights=tuple(-s * w for s, w in zip(signs, speeds)),
        )
        for signs in vertices
    ]
    alpha_minus: dict[str, dict[str, Fraction]] = {}
    alpha_plus: dict[str, dict[str, Fraction]] = {}
    for f_signs in vertices:
        row_minus: dict[str, Fraction] = {}
        row_plus: dict[str, Fraction] = {}
        for g_signs in vertices:
            down = Fraction(1)
            up = Fraction(1)
            for i in range(k):
                if f_signs[i] > 0:
                    # factor class vanishing at the factor minimum
                    down *= -speeds[i] if g_signs[i] > 0 else 0
                else:
                    # factor class vanishing at the factor maximum
                    up *= speeds[i] if g_signs[i] < 0 else 0
            row_minus[_vertex_name(g_signs)] = down
            row_plus[_vertex_name(g_signs)] = up
        alpha_minus[_vertex_name(f_signs)] = row_minus
        alpha_plus[_vertex_name(f_signs)] = row_plus
    return make_manifold(
        name=f"S2x{k}[{','.join(str(w) for w in given)}]",
        n=k,
        orientation_direction=1,
        fixed_points=points,
        alpha_minus=alpha_minus,
        alpha_plus=alpha_plus,
    )
