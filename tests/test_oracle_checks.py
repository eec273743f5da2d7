"""Pairing matrices and the localization check of table validation, checked
entry by entry against the brute-force Laurent oracle in tests/oracles.py.

Both library values come from one weighted Gram product; here every entry is
recomputed as a fixed-point sum of Laurent expansions instead, on the
acceptance fixtures as generated and with randomly mutated restriction tables.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from kirwan.cohomology import validate_alpha_basis
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.kernels import pairing_matrix
from kirwan.momentdata import CutLevel, morse_index

from oracles import edited, localization_expansion, product_scalars

VIOLATION = re.compile(
    r"localization sum of alpha_minus\[(.+)\] \* alpha_minus\[(.+)\] "
    r"has residue tail (\S+) \* X\^(-?\d+)\Z"
)


def fixtures():
    return [
        gen_cpn([0, 1]),
        gen_cpn([0, 1, 2]),
        gen_cpn([0, 1, 2, 3]),
        gen_sphere_product([1, 1]),
    ]


def all_cuts(m):
    """A cut in every gap between moment values and one beyond each end."""
    levels = sorted({fp.moment for fp in m.fixed_points})
    cuts = [(lo + hi) / 2 for lo, hi in zip(levels, levels[1:])]
    return [CutLevel(c) for c in [levels[0] - 1, *cuts, levels[-1] + 1]]


def mutate(rng, m, count):
    """Overwrite `count` random downward-table entries, zero ones included."""
    names = [fp.name for fp in m.fixed_points]
    entries = []
    for _ in range(count):
        f, g = rng.choice(names), rng.choice(names)
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        entries.append(("alpha_minus", f, g, str(value)))
    return edited(m, *entries)


def mutated_fixtures(seed, copies):
    rng = random.Random(seed)
    return [mutate(rng, m, rng.randint(1, 3)) for _ in range(copies) for m in fixtures()]


def oracle_pairing(m, plus, f, g):
    scalars = product_scalars(m, f, g)
    return localization_expansion(plus, scalars, 2 * m.n - 2).get(-1, Fraction(0))


def oracle_tails(m):
    """(f, g, coefficient, power) for every product of downward classes whose
    localization sum has a negative-power term, g at or after f."""
    pts = m.fixed_points
    tails = []
    for i, f in enumerate(pts):
        for g in pts[i:]:
            scalars = product_scalars(m, f.name, g.name)
            expansion = localization_expansion(pts, scalars, morse_index(f) + morse_index(g))
            tails.extend(
                (f.name, g.name, c, power) for power, c in expansion.items() if power < 0
            )
    return tails


def test_pairing_matrix_entries_match_oracle():
    checked = 0
    for m in fixtures() + mutated_fixtures(31, 5):
        for cut in all_cuts(m):
            plus = [fp for fp in m.fixed_points if fp.moment > cut.c]
            for d in range(0, 2 * m.n + 1):
                pm = pairing_matrix(m, cut, d)
                for i, f in enumerate(pm.row_labels):
                    for j, g in enumerate(pm.col_labels):
                        assert pm.matrix[i][j] == oracle_pairing(m, plus, f, g), (
                            m.name, str(cut.c), d, f, g,
                        )
                        checked += 1
    assert checked > 500


def test_localization_violations_match_oracle():
    broken = 0
    for m in fixtures() + mutated_fixtures(37, 10):
        found = []
        for v in validate_alpha_basis(m).violations:
            hit = VIOLATION.match(v)
            if hit:
                f, g, c, power = hit.groups()
                found.append((f, g, Fraction(c), int(power)))
        assert found == oracle_tails(m), m.name
        broken += bool(found)
    assert broken >= 20
