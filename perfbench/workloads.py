"""Seeded data and jobs for the three workloads.

Each workload is an endless stream of data that repeats a fixed schedule of
datum sizes; the seed draws everything else (weights, speeds, cuts, degrees,
mutations, class coefficients).  A fixed schedule keeps the mix of cheap and
expensive jobs the same for every seed, so a time-limited run of one seed
measures the same kind of work as a run of another, and percentiles do not
sit on the edge between two size classes.  The stream never wraps around, so
however fast the jobs get, a datum comes back only where a workload reuses it
on purpose (kernel-report's second format, validate-query's eight queries).

- betti-cpn: `kirwan betti` on CP^6..CP^16, one fresh datum per job.  All
  pairing and exact elimination, no serialization.
- kernel-report: `kirwan kernel --degree all` on CP^4..CP^10 and sphere
  products S2^3..S2^5 with speeds from {1, 2, 3, 5} (tied moment levels);
  each datum is reported twice, as json and then as md.  Dominated by
  building the kernel report.
- validate-query: eight short jobs per datum (generate, validate, validate a
  mutated copy, pair, bmatrix, decompose a kernel class, decompose the unit
  class, a cut on a moment value) on CP^n up to n = 20 and S2^4..S2^5, run
  kind by kind across each cycle of six data.  Dominated by loading and
  table validation.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.momentdata import manifold_to_json

WORKLOADS = ("betti-cpn", "kernel-report", "validate-query")


def _spread(groups) -> tuple:
    """A cycle holding `count` copies of each item, each item evenly spaced,
    so that every stretch of the cycle mixes small and large data."""
    slots = sorted(
        ((k + 0.5) / count, j, item) for j, (item, count) in enumerate(groups) for k in range(count)
    )
    return tuple(item for _, _, item in slots)


# CP^6..CP^10 come twice per cycle, which keeps a run above 100 jobs.
BETTI_SIZES = _spread([(n, 2 if n <= 10 else 1) for n in range(6, 17)])
# 48 data, 96 jobs: the one S2^5 datum sits mid-cycle.  The cheap data
# (CP^4..CP^6, S2^3) fill about 70% of the jobs and S2^4 most of the rest, so
# p50 and p90 fall inside a plateau of similar jobs, not on a step between
# size classes.
KERNEL_SIZES = _spread(
    [(("cp", n), 6) for n in (4, 5, 6)]
    + [(("cp", n), 1) for n in (7, 8, 9, 10)]
    + [(("s", 3), 16), (("s", 4), 9), (("s", 5), 1)]
)
QUERY_SIZES = (("cp", 8), ("s", 4), ("cp", 14), ("s", 5), ("cp", 20), ("cp", 11))
# data per schedule cycle: the smallest stretch of a stream that holds its mix
CYCLE = {"betti-cpn": len(BETTI_SIZES), "kernel-report": len(KERNEL_SIZES), "validate-query": len(QUERY_SIZES)}


@dataclass
class Job:
    """One CLI invocation and what its checker needs to know."""

    kind: str
    argv: list[str]
    datum: str  # input file holding the datum the job is about
    reads: list[str] = field(default_factory=list)  # every input file it reads
    expect: dict = field(default_factory=dict)


def _cpn_weights(draws: _Draws, n: int) -> list[int]:
    weights = [draws.rng.randint(-8, 8)]
    for _ in range(n):
        weights.append(weights[-1] + draws.balanced("gap", range(1, 9), spread=8))
    return weights


def _speeds(draws: _Draws, k: int) -> list[int]:
    """k speeds from {1, 2, 3, 5}, balanced within the datum: no speed comes
    twice before every speed has come once, which bounds how much the cost of
    one sphere product can differ from that of another of the same size."""
    speeds: list[int] = []
    while len(speeds) < k:
        deck = [1, 2, 3, 5]
        draws.rng.shuffle(deck)
        speeds.extend(deck)
    return speeds[:k]


def _generate(family: str, params: list[int]):
    return gen_cpn(params) if family == "cp" else gen_sphere_product(params)


class _Draws:
    """Seeded draws.  `balanced` choices cover their options evenly: each key has a
    shuffled pile of `spread` evenly spaced positions in [0, 1); a choice maps
    the next position onto the options.  Cuts of one size class thus spread
    over its moment range, and weight gaps come in balanced proportions,
    instead of clustering by chance in one seed's run."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.piles: dict = {}

    def balanced(self, key, options, spread: int = 4):
        pile = self.piles.setdefault(key, [])
        if not pile:
            pile.extend((k + 0.5) / spread for k in range(spread))
            self.rng.shuffle(pile)
        return options[int(pile.pop() * len(options))]


def _gap_cuts(moments) -> list[Fraction]:
    """Midpoints of the gaps between consecutive distinct moment values."""
    levels = sorted({Fraction(mu) for mu in moments})
    return [(lo + hi) / 2 for lo, hi in zip(levels, levels[1:])]


def _points(m) -> list[tuple[str, Fraction, int]]:
    return [(fp.name, fp.moment, 2 * sum(w < 0 for w in fp.weights)) for fp in m.fixed_points]


def data(workload: str, seed: int) -> Iterator[tuple[dict[str, str], list[Job]]]:
    """The workload's data in schedule order, without end: for each datum its
    input files (name -> text) and the jobs that are ready to run once they
    are written (validate-query releases a cycle's jobs with its last datum)."""
    draws = _Draws(random.Random(f"{workload}:{seed}"))
    cycle: list[list[Job]] = []
    for i in itertools.count():
        name = f"d{i:04d}.json"
        files: dict[str, str] = {}
        if workload == "betti-cpn":
            n = BETTI_SIZES[i % len(BETTI_SIZES)]
            weights = _cpn_weights(draws, n)
            files[name] = manifold_to_json(gen_cpn(weights))
            cut = draws.balanced(n, _gap_cuts(weights))
            jobs = [Job("betti", ["betti", "--input", name, "--cut", str(cut)], name, [name], {"cut": cut})]
        elif workload == "kernel-report":
            family, n = KERNEL_SIZES[i % len(KERNEL_SIZES)]
            params = _cpn_weights(draws, n) if family == "cp" else _speeds(draws, n)
            m = _generate(family, params)
            files[name] = manifold_to_json(m)
            cut = draws.balanced((family, n), _gap_cuts(fp.moment for fp in m.fixed_points))
            jobs = [
                Job("kernel", ["kernel", "--input", name, "--cut", str(cut), "--degree", "all", "--format", fmt],
                    name, [name], {"cut": cut, "format": fmt})
                for fmt in ("json", "md")
            ]
        else:
            # the jobs of a cycle of data run kind by kind, so that the eight
            # jobs of one datum spread over the cycle's run time
            family, n = QUERY_SIZES[i % len(QUERY_SIZES)]
            cycle.append(_query_jobs(draws, i, family, n, files))
            jobs = []
            if len(cycle) == len(QUERY_SIZES):
                jobs = [job for same_kind in zip(*cycle) for job in same_kind]
                cycle = []
        yield files, jobs


def _query_jobs(
    draws: _Draws, i: int, family: str, size: int, files: dict[str, str]
) -> list[Job]:
    rng = draws.rng
    params = _cpn_weights(draws, size) if family == "cp" else _speeds(draws, size)
    m = _generate(family, params)
    name, broken, cls, unit, out = (
        f"d{i:04d}.json", f"d{i:04d}-broken.json", f"d{i:04d}-class.json",
        f"d{i:04d}-unit.json", f"gen{i:04d}.json",
    )
    text = manifold_to_json(m)
    files[name] = text
    n = m.n
    points = _points(m)
    degrees = list(range(0, 2 * n - 1, 2))

    # cut: a mid-gap level with some above-cut point of index <= 2n - 2, so the
    # kernel class below can be nonzero
    levels = sorted({mu for _, mu, _ in points})
    gaps = [
        (lo + hi) / 2
        for lo, hi in zip(levels, levels[1:])
        if any(mu > lo and ind <= 2 * n - 2 for _, mu, ind in points)
    ]
    cut = draws.balanced((family, size), gaps)

    # mutated copy: a support violation or a wrong diagonal in alpha_minus
    doc = json.loads(text)
    f_name, f_mu, _ = rng.choice([p for p in points if p[1] > levels[0]])
    if rng.random() < 0.5:
        g_name = rng.choice([g for g, mu, _ in points if mu < f_mu])
        doc["alpha_minus"][f_name][g_name] = "1"
    else:
        g_name = f_name
        doc["alpha_minus"][f_name][f_name] = str(Fraction(doc["alpha_minus"][f_name][f_name]) + 1)
    files[broken] = json.dumps(doc, indent=2) + "\n"

    # kernel class: integer combination of downward classes of above-cut points
    eligible = [(p, ind) for p, mu, ind in points if mu > cut and ind <= 2 * n - 2]
    d = rng.choice([deg for deg in degrees if deg >= min(ind for _, ind in eligible)])
    terms = [(p, rng.choice((-3, -2, -1, 1, 2, 3))) for p, ind in eligible if ind <= d]
    terms = rng.sample(terms, rng.randint(1, len(terms)))
    scalars = {
        g.name: sum((c * m.alpha_minus_scalar(p, g.name) for p, c in terms), Fraction(0))
        for g in m.fixed_points
    }
    scalars = {g: s for g, s in scalars.items() if s != 0}
    files[cls] = json.dumps({"degree": d, "restrictions": {g: str(s) for g, s in scalars.items()}}) + "\n"
    files[unit] = json.dumps({"degree": 0, "restrictions": {g.name: "1" for g in m.fixed_points}}) + "\n"

    family_args = ["cpn", "--lambda"] if family == "cp" else ["spheres", "--w"]
    on_moment = str(rng.choice(levels))
    pair_degree, b_degree = rng.choice(degrees), rng.choice(degrees)
    q = ["--cut", str(cut), "--format", "json"]
    return [
        Job("generate", ["generate", *family_args, ",".join(map(str, params)), "--out", out], name, [],
            {"name": m.name, "out": out, "text": text}),
        Job("validate", ["validate", "--input", name, "--format", "json"], name, [name]),
        Job("validate-broken", ["validate", "--input", broken, "--format", "json"], name, [broken],
            {"entry": f"alpha_minus[{f_name}][{g_name}]"}),
        Job("pair", ["pair", "--input", name, *q, "--degree", str(pair_degree)], name, [name],
            {"cut": cut, "degree": pair_degree}),
        Job("bmatrix", ["bmatrix", "--input", name, *q, "--degree", str(b_degree)], name, [name]),
        Job("decompose", ["decompose", "--input", name, *q, "--degree", str(d), "--class-file", cls],
            name, [name, cls], {"cut": cut, "class": scalars}),
        Job("decompose-unit", ["decompose", "--input", name, *q, "--degree", "0", "--class-file", unit],
            name, [name, unit], {"code": 4}),
        Job("cut-on-moment", ["betti", "--input", name, "--cut", on_moment], name, [name], {"code": 3}),
    ]
