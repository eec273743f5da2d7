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
Both families build their tables over the integers in the sorted point order
and pass those integer rows to `momentdata._assemble` unchanged: a table entry
is an int when integral and a Fraction otherwise, so a generated table holds
no Fraction and is its own integer form.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import product

from .errors import SpecError
from .momentdata import FixedPoint, ManifoldData, _assemble

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
    # the moments increase, so p0..pn is already the sorted order
    points = tuple(
        FixedPoint(f"p{i}", Fraction(li), tuple([lj - li for j, lj in enumerate(ls) if j != i]))
        for i, li in enumerate(ls)
    )
    # down[i][k] = -down[i-1][k] * (lambda_k - lambda_(i-1)), from down[0] = 1;
    # up[i][k] = -up[i+1][k] * (lambda_k - lambda_(i+1)), from up[n] = 1
    down = [[1] * (n + 1)]
    for i in range(n):
        down.append([-d * (lk - ls[i]) for d, lk in zip(down[-1], ls)])
    up = [[1] * (n + 1)]
    for i in range(n, 0, -1):
        up.append([-u * (lk - ls[i]) for u, lk in zip(up[-1], ls)])
    up.reverse()
    name = f"CP{n}[{','.join(str(a) for a in ls)}]"
    return _assemble(name, n, 1, points, tuple(map(tuple, down)), tuple(map(tuple, up)))


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
    names = [_vertex_name(signs) for signs in vertices]
    moments = [sum(s * w for s, w in zip(signs, speeds)) for signs in vertices]
    order = sorted(range(len(vertices)), key=lambda v: (moments[v], names[v]))
    points = tuple(
        FixedPoint(
            names[v], Fraction(moments[v]), tuple([-s * w for s, w in zip(vertices[v], speeds)])
        )
        for v in order
    )
    # bit k-1-i of vertex v is set where v is + in factor i; the downward class
    # of f is nonzero at g when g is + wherever f is (f & g == f), the upward
    # one when g is - wherever f is (f & g == g)
    down = [math.prod(-w for s, w in zip(signs, speeds) if s > 0) for signs in vertices]
    up = [math.prod(w for s, w in zip(signs, speeds) if s < 0) for signs in vertices]
    alpha_minus = tuple(tuple([down[f] if f & g == f else 0 for g in order]) for f in order)
    alpha_plus = tuple(tuple([up[f] if f & g == g else 0 for g in order]) for f in order)
    name = f"S2x{k}[{','.join(str(w) for w in given)}]"
    return _assemble(name, k, 1, points, alpha_minus, alpha_plus)
