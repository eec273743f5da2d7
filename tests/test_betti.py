"""Betti tables against checks that share no code with the elimination.

- The index census (`oracles.census_betti`, Kirwan's perfect stratification)
  gives every Betti number without a restriction table or a matrix.
- Metamorphic properties compare two computed tables that must agree:
  renamed fixed points, the reversed circle action on CP^n, and a
  translated moment map.
- The sharing guard counts the Gram entries a degree sweep computes, and
  the elimination guard the eliminations it runs.
- The order guard: a sweep's kernels do not depend on the order it visits
  its degrees in, although a lower degree narrows the kernel above it.
- Cup products: the residue kernel is closed under multiplication by basis
  classes, a check that relates one degree to another.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kirwan import cohomology, exactmath, kernels
from kirwan.cli import main
from kirwan.cohomology import (
    EquivariantClass,
    basis_points,
    subspace_contains,
    subspace_scalar_rows,
)
from kirwan.exactmath import nullspace
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.kernels import (
    Sweep,
    kernel_residue,
    kernel_tw,
    kernels_equal,
    pairing_matrix,
)
from kirwan.momentdata import (
    CutLevel,
    load_manifold,
    manifold_to_json,
    morse_index,
    split_fixed_points,
)

from oracles import basis_coefficients, census_betti, edited, reference_nullspace, rref_rows


def betti_table(m, cut):
    sweep = Sweep(m, cut)
    return {d: kernels_equal(m, cut, d, sweep).betti for d in range(0, 2 * m.n - 1, 2)}


def mid_gap_cuts(m):
    levels = sorted({fp.moment for fp in m.fixed_points})
    return [CutLevel((lo + hi) / 2) for lo, hi in zip(levels, levels[1:])]


def random_data(rng):
    """Random CP^1..CP^6 and S2^1..S2^4, sphere speeds mixed in size and sign."""
    data = []
    for n in range(1, 7):
        for _ in range(4):
            data.append(gen_cpn(sorted(rng.sample(range(-25, 26), n + 1))))
    for k in range(1, 5):
        for _ in range(4):
            data.append(
                gen_sphere_product([rng.choice((-7, -3, -2, -1, 1, 2, 3, 5)) for _ in range(k)])
            )
    return data


def test_betti_matches_the_index_census():
    checked = 0
    for m in random_data(random.Random(2024)):
        for cut in mid_gap_cuts(m):
            assert betti_table(m, cut) == census_betti(m, cut), (m.name, str(cut.c))
            checked += 1
    assert checked >= 100


# --- metamorphic properties ---------------------------------------------------

cpn_weights = st.lists(st.integers(-40, 40), min_size=2, max_size=6, unique=True).map(sorted)
sphere_speeds = st.lists(
    st.sampled_from((-5, -3, -2, -1, 1, 2, 3, 5)), min_size=1, max_size=4
)
data = st.one_of(cpn_weights.map(gen_cpn), sphere_speeds.map(gen_sphere_product))


def a_cut(m, gap: int, eighths: int) -> CutLevel:
    """A regular cut inside one gap between consecutive moment levels."""
    levels = sorted({fp.moment for fp in m.fixed_points})
    lo, hi = levels[gap % (len(levels) - 1)], levels[gap % (len(levels) - 1) + 1]
    return CutLevel(lo + (hi - lo) * Fraction(eighths, 8))


def renamed(m, names):
    """m with fixed point k (in sorted order) renamed names[k], reloaded; the
    new names can reorder points that share a moment level."""
    doc = json.loads(manifold_to_json(m))
    new = {fp.name: name for fp, name in zip(m.fixed_points, names)}
    for point in doc["fixed_points"]:
        point["name"] = new[point["name"]]
    for table in ("alpha_minus", "alpha_plus"):
        if table in doc:
            doc[table] = {
                new[f]: {new[g]: v for g, v in row.items()} for f, row in doc[table].items()
            }
    return load_manifold(doc)


metamorphic = settings(max_examples=40, derandomize=True, deadline=None)


@metamorphic
@given(data, st.integers(0, 99), st.integers(1, 7), st.randoms(use_true_random=False))
def test_renaming_fixed_points_keeps_the_betti_table(m, gap, eighths, rng):
    cut = a_cut(m, gap, eighths)
    names = [f"v{k}" for k in range(len(m.fixed_points))]
    rng.shuffle(names)
    assert betti_table(renamed(m, names), cut) == betti_table(m, cut)


@metamorphic
@given(cpn_weights, st.integers(0, 99), st.integers(1, 7))
def test_reversed_circle_action_on_cpn_keeps_the_betti_table(weights, gap, eighths):
    m = gen_cpn(weights)
    cut = a_cut(m, gap, eighths)
    mirror = gen_cpn([-w for w in reversed(weights)])
    assert betti_table(mirror, CutLevel(-cut.c)) == betti_table(m, cut)


@metamorphic
@given(cpn_weights, st.integers(0, 99), st.integers(1, 7), st.integers(-1000, 1000))
def test_translating_moments_and_cut_keeps_the_betti_table(weights, gap, eighths, t):
    m = gen_cpn(weights)
    cut = a_cut(m, gap, eighths)
    moved = gen_cpn([w + t for w in weights])
    assert betti_table(moved, CutLevel(cut.c + t)) == betti_table(m, cut)


# --- sharing guard --------------------------------------------------------------


def counted_gram_pairs(monkeypatch, argv):
    """Run the CLI and return every (f, g) Gram entry the pairing computed, as
    positions of downward classes, in the order computed."""
    computed = []
    real = kernels.gram_rows

    def counting(m, points):
        row_entries, scale = real(m, points)

        def counted(f, cols):
            computed.extend((f, g) for g in cols)
            return row_entries(f, cols)

        return counted, scale

    monkeypatch.setattr(kernels, "gram_rows", counting)
    assert main(argv) == 0
    monkeypatch.undo()
    return computed


def unordered(pairs):
    return [tuple(sorted(p)) for p in pairs]


def test_betti_sweep_computes_each_gram_pair_at_most_once(tmp_path, monkeypatch, capsys):
    for m in (gen_cpn([-3, -1, 0, 2, 3, 7, 8]), gen_sphere_product([1, 2, 3])):
        path = tmp_path / "m.json"
        path.write_text(manifold_to_json(m))
        ind = [morse_index(fp) for fp in m.fixed_points]
        needed = {
            (f, g)
            for f in range(len(ind))
            for g in range(f, len(ind))
            if ind[f] + ind[g] <= 2 * m.n - 2
        }
        for cut in mid_gap_cuts(m):
            argv = ["betti", "--input", str(path), "--cut", str(cut.c)]
            pairs = unordered(counted_gram_pairs(monkeypatch, argv))
            assert len(pairs) == len(set(pairs)), (m.name, str(cut.c))
            assert set(pairs) == needed
    capsys.readouterr()


def test_pair_computes_only_its_block(tmp_path, monkeypatch, capsys):
    m = gen_cpn([-3, -1, 0, 2, 3, 7, 8])
    path = tmp_path / "m.json"
    path.write_text(manifold_to_json(m))
    for d in range(0, 2 * m.n - 1, 2):
        rows, cols = basis_points(m, d), basis_points(m, 2 * m.n - 2 - d)
        argv = ["pair", "--input", str(path), "--cut", "5/2", "--degree", str(d)]
        pairs = counted_gram_pairs(monkeypatch, argv)
        assert set(pairs) <= {(f, g) for f in rows for g in cols}
        assert len(pairs) <= len(rows) * len(cols)
        block = unordered((f, g) for f in rows for g in cols)
        assert sorted(unordered(pairs)) == sorted(set(block))
    capsys.readouterr()


# --- elimination guard ------------------------------------------------------------


def counted_eliminations(monkeypatch):
    """Replace `rref`, in both modules that bind it, by a wrapper that counts
    its calls."""
    calls = []
    real = exactmath.rref

    def counting(*args):
        calls.append(1)
        return real(*args)

    for module in (exactmath, cohomology):
        monkeypatch.setattr(module, "rref", counting)
    return calls


def test_one_nullspace_call_runs_one_elimination(monkeypatch):
    calls = counted_eliminations(monkeypatch)
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, Fraction(1, 2), 0]]
    assert len(nullspace(rows, 4)) == 2
    assert len(calls) == 1


def test_betti_sweep_runs_two_eliminations_per_degree(monkeypatch):
    """Visited upward, every degree runs one elimination for the residue kernel
    and one for tw_plus; tw_minus and tw_sum are read off with none."""
    calls = counted_eliminations(monkeypatch)
    m = gen_cpn([-3, -1, 0, 2, 3, 7, 8])
    for cut in mid_gap_cuts(m):
        sweep = Sweep(m, cut)
        for d in range(0, 2 * m.n - 1, 2):
            before = len(calls)
            kernels_equal(m, cut, d, sweep)
            assert len(calls) - before == 2, (str(cut.c), d)


def test_a_descending_sweep_eliminates_once_per_side(tmp_path, monkeypatch, capsys):
    """Each lower degree's kernel is the one above narrowed by `exactmath.meet`,
    so a command that visits the degrees from the top down eliminates each
    side once, at 2n-2: `kirwan betti` runs 2 eliminations on CP^8 at these
    cuts, and `kirwan kernel --degree all` 1 per side it computes, where one
    per degree and side would be 16 for betti."""
    m = gen_cpn(range(9))
    path = tmp_path / "m.json"
    path.write_text(manifold_to_json(m))
    real = kernels.nullspace
    for c in ("1/2", "9/2"):
        for argv, want in (
            (["betti"], 2),
            (["kernel", "--degree", "all", "--method", "residue"], 1),
            (["kernel", "--degree", "all", "--method", "tw"], 1),
        ):
            calls = []

            def counting(rows, width):
                calls.append(1)
                return real(rows, width)

            monkeypatch.setattr(kernels, "nullspace", counting)
            assert main([*argv, "--input", str(path), "--cut", c]) == 0
            monkeypatch.undo()
            assert len(calls) == want, (c, argv)
    capsys.readouterr()


# --- order guard --------------------------------------------------------------------

# each edit breaks kernel_tw's triangular block at cut 3/2, so tw_minus and
# tw_sum are eliminated there (tests/test_kernels.py pins which degree)
fallback_edits = (
    ("alpha_minus", "p2", "p0", "5"),
    ("alpha_minus", "p1", "p1", "0"),
    ("alpha_minus", "p1", "p0", "-1"),
)
order_data = st.one_of(
    cpn_weights.map(gen_cpn),
    sphere_speeds.map(gen_sphere_product),
    st.sampled_from(fallback_edits).map(lambda edit: edited(gen_cpn([0, 1, 2, 3]), edit)),
)


def all_cuts(m):
    """Every gap cut, and one below all moments and one above them."""
    levels = sorted({fp.moment for fp in m.fixed_points})
    return [CutLevel(levels[0] - 1), *mid_gap_cuts(m), CutLevel(levels[-1] + 1)]


def sweep_kernels(m, cut, order):
    """(residue kernel, tw_plus, tw_minus, tw_sum) per degree, from one Sweep
    visiting the degrees in the given order."""
    sweep = Sweep(m, cut)
    return {d: (kernel_residue(m, cut, d, sweep), *kernel_tw(m, cut, d, sweep)) for d in order}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(order_data, st.randoms(use_true_random=False))
def test_kernels_do_not_depend_on_the_order_of_the_sweep(m, rng):
    """Descending, ascending and shuffled sweeps give each degree the kernels
    of a fresh Sweep.  The degrees run past 2n - 2 and include the odd ones,
    whose empty bases must not pass a zero kernel down to the even degrees
    below them.  The residue kernel and tw_plus are also checked against the
    Fraction elimination of their matrices."""
    degrees = list(range(2 * m.n + 1))
    shuffled = degrees[:]
    rng.shuffle(shuffled)
    for cut in all_cuts(m):
        fresh = {d: (kernel_residue(m, cut, d), *kernel_tw(m, cut, d)) for d in degrees}
        for order in (degrees[::-1], degrees, shuffled):
            assert sweep_kernels(m, cut, order) == fresh, (m.name, str(cut.c), order)
        above, _ = split_fixed_points(m, cut)
        for d, (residue, tw_plus, _, _) in fresh.items():
            pts = basis_points(m, d)
            pairing = pairing_matrix(m, cut, d).matrix
            assert rref_rows(residue) == reference_nullspace([*zip(*pairing)], len(pts))
            evaluation = [[m.alpha_minus[i][j] for i in pts] for j in above]
            assert rref_rows(tw_plus) == reference_nullspace(evaluation, len(pts))


# --- cup products -----------------------------------------------------------------

closure_data = st.one_of(
    st.lists(st.integers(-20, 20), min_size=2, max_size=6, unique=True).map(sorted).map(gen_cpn),
    st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=2, max_size=4).map(
        gen_sphere_product
    ),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(closure_data, st.integers(0, 99))
def test_residue_kernel_is_closed_under_products_with_basis_classes(m, gap):
    """kappa * alpha_g lies in the residue kernel of degree d + ind g for every
    residue-kernel basis class kappa of degree d and every downward class
    alpha_g with d + ind g <= 2n - 2: the kernel of the reduction map is an
    ideal.  The product is written over the degree basis by the Fraction
    elimination of `oracles.basis_coefficients`, so the check ties the
    elimination in degree d to that in degree d + ind g through no shared
    step."""
    cuts = mid_gap_cuts(m)
    cut = cuts[gap % len(cuts)]
    sweep = Sweep(m, cut)
    top = 2 * m.n - 2
    kernels_by_degree = {
        d: kernel_residue(m, cut, d, sweep) for d in range(0, top + 1, 2)
    }
    checked = 0
    for d, kernel in kernels_by_degree.items():
        for kappa in subspace_scalar_rows(m, kernel):
            for g, ind in enumerate(m.morse_indices):
                if d + ind > top:
                    continue
                product = tuple(a * b for a, b in zip(kappa, m.alpha_minus[g]))
                coeffs = basis_coefficients(m, EquivariantClass(d + ind, product))
                assert subspace_contains(kernels_by_degree[d + ind], coeffs)
                checked += 1
    assert checked or all(not s.basis for s in kernels_by_degree.values())
