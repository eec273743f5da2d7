"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Randomized criteria use fixed seeds so every run checks the same instances;
expected values for the regression fixtures were hand-computed and recorded
in tests/fixtures/regression_expected.json before the library was written.
Localization sums and residues (criteria 4 and 5) come from the brute-force
Laurent oracle in tests/oracles.py.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kirwan.cohomology import basis_points, make_class
from kirwan.errors import NotInKernel
from kirwan.exactmath import rat
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.kernels import (
    b_matrix,
    decompose,
    kernel_residue,
    kernel_tw,
    kernels_equal,
    pairing_matrix,
)
from kirwan.momentdata import CutLevel, split_fixed_points

from oracles import (
    basis_rows,
    census_betti,
    combination,
    localization_expansion,
    localization_pairing,
    reference_span,
    rref_rows,
    scalar_rows,
)

EXPECTED = json.loads(
    (Path(__file__).parent / "fixtures" / "regression_expected.json").read_text()
)


def fixtures():
    return [
        gen_cpn([0, 1]),
        gen_cpn([0, 1, 2]),
        gen_cpn([0, 1, 2, 3]),
        gen_sphere_product([1, 1]),
    ]


def mid_gap_cuts(m, rng=None):
    """One cut inside every gap between consecutive distinct moment values."""
    moments = sorted({fp.moment for fp in m.fixed_points})
    cuts = []
    for lo, hi in zip(moments, moments[1:]):
        offset = Fraction(rng.randint(1, 7), 8) if rng else Fraction(1, 2)
        cuts.append(CutLevel(lo + (hi - lo) * offset))
    return cuts


def outside_cuts(m):
    moments = [fp.moment for fp in m.fixed_points]
    return [CutLevel(min(moments) - 1), CutLevel(max(moments) + 1)]


def random_cuts(rng, m, count):
    """Independent regular cuts: a random gap with a random eighth offset each."""
    moments = sorted({fp.moment for fp in m.fixed_points})
    gaps = list(zip(moments, moments[1:]))
    cuts = []
    for _ in range(count):
        lo, hi = rng.choice(gaps)
        cuts.append(CutLevel(lo + (hi - lo) * Fraction(rng.randint(1, 7), 8)))
    return cuts


def sweep_degrees(m):
    return list(range(0, 2 * m.n - 1, 2))


def random_combo(rng, m, degree):
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in basis_points(m, degree)
    ]
    return combination(m, degree, coeffs)


def random_kernel_element(rng, m, kernel):
    rows = rref_rows(kernel)
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in rows]
    coeffs = [
        sum((c * rows[i][k] for i, c in enumerate(cs)), Fraction(0))
        for k in range(len(kernel.labels))
    ]
    return combination(m, kernel.degree, coeffs)


def by_name(m, eta):
    """Restriction scalars of eta keyed by fixed-point name, as the oracle takes them."""
    return {fp.name: s for fp, s in zip(m.fixed_points, eta.restrictions)}


def scalar_span(m, rows):
    return reference_span([[rat(x) for x in row] for row in rows], len(m.fixed_points))


def computed_scalar_span(m, subspace):
    return reference_span(scalar_rows(m, subspace), len(m.fixed_points))


# --- criterion 1 -----------------------------------------------------------------


def test_criterion_1_kernel_equality_cpn():
    rng = random.Random(101)
    start = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        for _ in range(20):
            lambdas = sorted(rng.sample(range(-9, 10), n + 1))
            m = gen_cpn(lambdas)
            for cut in random_cuts(rng, m, 3):
                for d in sweep_degrees(m):
                    report = kernels_equal(m, cut, d)
                    assert report.equal, (lambdas, str(cut.c), d)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"cross-check took {elapsed:.1f}s"
    print(
        f"\n[criterion 1] PASS - residue and vanishing-condition kernels agree on "
        f"{checked} (manifold, cut, degree) instances in {elapsed:.1f}s"
    )


# --- criterion 2 -----------------------------------------------------------------


def test_criterion_2_kernel_equality_sphere_products():
    rng = random.Random(202)
    checked = 0
    specs = [[1, 1]]
    for k in range(1, 4):
        for _ in range(20):
            specs.append([rng.choice([w for w in range(-9, 10) if w]) for _ in range(k)])
    for spec in specs:
        m = gen_sphere_product(spec)
        for cut in random_cuts(rng, m, 3):
            for d in sweep_degrees(m):
                report = kernels_equal(m, cut, d)
                assert report.equal, (spec, str(cut.c), d)
                checked += 1
    print(
        f"\n[criterion 2] PASS - sphere-product kernels agree on {checked} "
        f"instances, tied-moment case included"
    )


# --- criterion 3 -----------------------------------------------------------------


def test_criterion_3_regression_fixtures():
    exp = EXPECTED["cp2_cut_3_2"]
    m = gen_cpn(exp["lambdas"])
    c = CutLevel(rat(exp["cut"]))
    alpha1 = make_class(m, 2, {"p1": -1, "p2": -2})
    x_unit = make_class(m, 2, {"p0": 1, "p1": 1, "p2": 1})
    # the degree-2 pairing matrix: rows x_unit and alpha1, column the unit
    assert basis_rows(m, 2) == [x_unit.restrictions, alpha1.restrictions]
    assert basis_rows(m, 0) == [(1, 1, 1)]
    pm = pairing_matrix(m, c, 2)
    assert pm.matrix[1][0] == rat(exp["pairing_alpha_p1_vs_unit"])
    assert pm.matrix[0][0] == rat(exp["pairing_x_vs_unit"])
    k2 = kernel_residue(m, c, 2)
    assert computed_scalar_span(m, k2) == scalar_span(
        m, exp["kernel_degree_2_scalar_span"]
    )
    for d_str, betti in exp["betti"].items():
        assert kernels_equal(m, c, int(d_str)).betti == betti

    exp = EXPECTED["cp2_cut_1_2"]
    m = gen_cpn(exp["lambdas"])
    c = CutLevel(rat(exp["cut"]))
    for d_str, dim in exp["kernel_dims"].items():
        assert kernel_residue(m, c, int(d_str)).dim == dim
    for d_str, betti in exp["betti"].items():
        assert kernels_equal(m, c, int(d_str)).betti == betti

    exp = EXPECTED["cp1_cut_1_2"]
    m = gen_cpn(exp["lambdas"])
    c = CutLevel(rat(exp["cut"]))
    for d_str, betti in exp["betti"].items():
        assert kernels_equal(m, c, int(d_str)).betti == betti
    tw_plus, tw_minus, tw_sum = kernel_tw(m, c, 2)
    assert tw_sum.dim == exp["kernel_degree_2_dim"]
    assert computed_scalar_span(m, tw_plus) == scalar_span(
        m, exp["tw_plus_degree_2_scalar_span"]
    )
    assert computed_scalar_span(m, tw_minus) == scalar_span(
        m, exp["tw_minus_degree_2_scalar_span"]
    )
    print("\n[criterion 3] PASS - all recorded regression fixtures reproduced")


# --- criterion 4 -----------------------------------------------------------------


def test_criterion_4_localization_invariant_with_mutations():
    rng = random.Random(404)
    ms = fixtures()
    checked = mutated = 0
    while checked < 1000:
        m = rng.choice(ms)
        d = rng.choice([d for d in range(0, 2 * m.n, 2)])
        eta = random_combo(rng, m, d)
        assert localization_expansion(m.fixed_points, by_name(m, eta), d) == {}
        checked += 1
        if checked % 5 == 0:
            name = rng.choice([fp.name for fp in m.fixed_points])
            delta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            broken = by_name(m, eta)
            broken[name] += delta
            expansion = localization_expansion(m.fixed_points, broken, d)
            assert list(expansion) == [d // 2 - m.n]  # a negative-power tail
            mutated += 1
    # exhaustive single-scalar mutations on one class per fixture
    for m in ms:
        eta = random_combo(rng, m, 0)
        for fp in m.fixed_points:
            broken = by_name(m, eta)
            broken[fp.name] += Fraction(1, 3)
            assert list(localization_expansion(m.fixed_points, broken, 0)) == [-m.n]
            mutated += 1
    print(
        f"\n[criterion 4] PASS - {checked} localization sums vanish exactly; "
        f"{mutated} single-scalar mutations all break them"
    )


# --- criterion 5 -----------------------------------------------------------------


def test_criterion_5_residue_complementarity():
    rng = random.Random(505)
    for m in fixtures():
        cut = mid_gap_cuts(m)[0]
        above, below = split_fixed_points(m, cut)
        plus = [m.fixed_points[i] for i in above]
        minus = [m.fixed_points[i] for i in below]
        d = 2 * m.n - 2
        for _ in range(500):
            eta = random_combo(rng, m, d)
            def side_sum(points):
                return localization_expansion(points, by_name(m, eta), d).get(-1, 0)
            assert side_sum(plus) + side_sum(minus) == 0
    print(
        "\n[criterion 5] PASS - above-cut and below-cut residue sums cancel for "
        "500 top-degree image classes per fixture"
    )


# --- criterion 6 -----------------------------------------------------------------


def test_criterion_6_decomposition_soundness():
    rng = random.Random(606)
    for m in fixtures():
        cuts = mid_gap_cuts(m)
        spots = []
        for cut in cuts:
            for d in range(0, 2 * m.n + 1, 2):
                kern = kernel_residue(m, cut, d)
                if kern.dim > 0:
                    spots.append((cut, kern))
        done = 0
        while done < 100:
            cut, kern = rng.choice(spots)
            eta = random_kernel_element(rng, m, kern)
            above, below = split_fixed_points(m, cut)
            cert = decompose(m, eta, cut)
            eta_plus, eta_minus = by_name(m, cert.eta_plus), by_name(m, cert.eta_minus)
            assert all(eta_plus[g] + eta_minus[g] == s for g, s in by_name(m, eta).items())
            assert all(cert.eta_minus.restrictions[i] == 0 for i in above)
            assert all(cert.eta_plus.restrictions[i] == 0 for i in below)
            done += 1

        rejected = 0
        attempts = 0
        while rejected < 20:
            attempts += 1
            assert attempts < 4000, "could not find non-kernel image classes"
            cut = rng.choice(cuts)
            d = rng.choice(sweep_degrees(m))
            eta = random_combo(rng, m, d)
            if kernel_residue(m, cut, d).dim == len(basis_points(m, d)):
                continue
            co_degree = 2 * m.n - 2 - eta.degree
            above, _ = split_fixed_points(m, cut)
            values = [
                localization_pairing(m, eta.restrictions, col, above)
                for col in basis_rows(m, co_degree)
            ]
            in_kernel = all(v == 0 for v in values)
            if in_kernel:
                continue
            with pytest.raises(NotInKernel):
                decompose(m, eta, cut)
            rejected += 1
    print(
        "\n[criterion 6] PASS - 100 random kernel classes per fixture split "
        "correctly; 20 non-kernel classes per fixture rejected"
    )


# --- criterion 7 -----------------------------------------------------------------


def test_criterion_7_b_matrix_diagnostics():
    checked = 0
    for m in fixtures():
        for cut in mid_gap_cuts(m) + outside_cuts(m):
            for d in range(0, 2 * m.n + 1, 2):
                rep = b_matrix(m, cut, d)
                assert rep.upper_triangular and rep.diagonal_nonzero, (
                    m.name,
                    str(cut.c),
                    d,
                    rep.violations,
                )
                if rep.matrix:
                    checked += 1
    print(
        f"\n[criterion 7] PASS - {checked} nonempty upward-restriction matrices, "
        f"all upper triangular with nonzero diagonal"
    )


# --- criterion 8 -----------------------------------------------------------------


def test_criterion_8_poincare_duality():
    rng = random.Random(808)
    ms = fixtures()
    for _ in range(6):
        n = rng.randint(1, 4)
        ms.append(gen_cpn(sorted(rng.sample(range(-9, 10), n + 1))))
    for _ in range(4):
        k = rng.randint(1, 3)
        ms.append(
            gen_sphere_product([rng.choice([w for w in range(-9, 10) if w]) for _ in range(k)])
        )
    for m in ms:
        for cut in mid_gap_cuts(m, rng):
            betti = {d: kernels_equal(m, cut, d).betti for d in sweep_degrees(m)}
            for d, b in betti.items():
                assert b == betti[2 * m.n - 2 - d], (m.name, str(cut.c), d)
    print(
        f"\n[criterion 8] PASS - Betti tables of {len(ms)} data sets are "
        f"symmetric under degree reflection"
    )


def test_criterion_8_duality_through_the_index_census():
    """Criterion 8 holds by construction (P_{2n-2-d} is P_d transposed), so
    it cannot fail.  Here every Betti number must also equal the census one,
    which comes from the indices alone and is symmetric on its own."""
    rng = random.Random(818)
    ms = fixtures()
    ms += [gen_cpn(sorted(rng.sample(range(-9, 10), rng.randint(2, 6)))) for _ in range(6)]
    ms += [
        gen_sphere_product([rng.choice([w for w in range(-9, 10) if w]) for _ in range(k)])
        for k in (1, 2, 3, 3)
    ]
    for m in ms:
        for cut in mid_gap_cuts(m, rng):
            census = census_betti(m, cut)
            for d, b in census.items():
                assert b == census[2 * m.n - 2 - d], (m.name, str(cut.c), d)
                assert kernels_equal(m, cut, d).betti == b, (m.name, str(cut.c), d)


# --- criterion 9 -----------------------------------------------------------------


def test_criterion_9_directness():
    rng = random.Random(909)
    checked = 0
    for m in fixtures():
        for cut in mid_gap_cuts(m, rng) + outside_cuts(m):
            for d in sweep_degrees(m):
                tw_plus, tw_minus, tw_sum = kernel_tw(m, cut, d)
                # the intersection has dimension dim A + dim B - dim(A + B)
                assert tw_plus.dim + tw_minus.dim - tw_sum.dim == 0
                checked += 1
    print(
        f"\n[criterion 9] PASS - vanishing-above and vanishing-below subspaces "
        f"intersect trivially in {checked} cases"
    )
