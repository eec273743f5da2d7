"""Byte-identity of CLI reports against a recorded golden set.

Every subcommand runs in json and md on CP^1..CP^4 and S2^1..S2^3, at every
mid-gap cut and at one cut on a moment value, with one decompose class per
degree and two mutated copies of each datum for `validate`.  Two larger data,
S2^4 with tied levels and sparse tables and a CP^6, run `validate` and, at
every mid-gap cut, `kernel --degree all` in json and md and `betti` in json.
A CP^10 with a wide weight spread, whose tables hold the largest coefficients
of the set, runs `kernel --degree all` and `betti` in json at every mid-gap
cut.  The fixture keeps the exit code and a short sha256 of stdout per job.

Re-record (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py --record

and check without pytest (any Python the package supports; the exit status
is 1 when an output changed or a job is missing or extra) with

    python tests/test_golden.py --check
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

FIXTURE = Path(__file__).parent / "fixtures" / "cli_golden.json"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kirwan.cli import main  # noqa: E402
from kirwan.generators import gen_cpn, gen_sphere_product  # noqa: E402
from kirwan.momentdata import manifold_to_dict, manifold_to_json, morse_index  # noqa: E402

DATA = {
    "cp1": (gen_cpn, [0, 1]),
    "cp2": (gen_cpn, [0, 1, 2]),
    "cp3": (gen_cpn, [-1, 0, 2, 5]),
    "cp4": (gen_cpn, [-2, 0, 1, 3, 7]),
    "s1": (gen_sphere_product, [1]),
    "s2": (gen_sphere_product, [1, 2]),
    "s3": (gen_sphere_product, [1, 1, 1]),
}
# larger data, swept only through validate, kernel --degree all and betti
SWEEP_DATA = {
    "s4": (gen_sphere_product, [1, 2, 3, 5]),
    "cp6": (gen_cpn, [-3, -1, 0, 2, 3, 7, 8]),
}
# the widest coefficient growth, swept only through kernel --degree all and
# betti in json
WIDE_DATA = {
    "cp10w": (gen_cpn, [-1000003, -65537, -977, -31, 0, 2, 17, 101, 4099, 999983, 10**9 + 7]),
}
FORMATS = ("json", "md")


def _mutations(m) -> dict[str, dict]:
    """Two broken copies: one off-diagonal entry of the minimum's downward
    class (breaks only the localization check) and the maximum's diagonal."""
    low, high = m.fixed_points[0].name, m.fixed_points[-1].name
    off = manifold_to_dict(m)
    off["alpha_minus"][low][high] = str(Fraction(off["alpha_minus"][low][high]) + 1)
    diag = manifold_to_dict(m)
    diag["alpha_minus"][high][high] = str(Fraction(diag["alpha_minus"][high][high]) + 1)
    return {"off": off, "diag": diag}


def _decompose_class(m, degree: int) -> str:
    """Downward class of the highest point of index <= degree, shifted into
    that degree: in the kernel for cuts below that point, not above it."""
    top = [fp for fp in m.fixed_points if morse_index(fp) <= degree][-1]
    restrictions = {
        g.name: str(m.alpha_minus_scalar(top.name, g.name)) for g in m.fixed_points
    }
    return json.dumps({"degree": degree, "restrictions": restrictions})


def cases(workdir: Path):
    """Yield (key, argv) for every golden job; inputs are written to workdir."""
    for label, (gen, params) in DATA.items():
        m = gen(params)
        path = workdir / f"{label}.json"
        path.write_text(manifold_to_json(m))
        src = str(path)
        family = "cpn --lambda" if gen is gen_cpn else "spheres --w"
        yield f"{label} generate", ["generate", *family.split(), ",".join(map(str, params))]
        for fmt in FORMATS:
            yield f"{label} validate {fmt}", ["validate", "--input", src, "--format", fmt]
        for kind, doc in _mutations(m).items():
            broken = workdir / f"{label}-{kind}.json"
            broken.write_text(json.dumps(doc))
            for fmt in FORMATS:
                yield (
                    f"{label}-{kind} validate {fmt}",
                    ["validate", "--input", str(broken), "--format", fmt],
                )

        n = m.n
        levels = sorted({fp.moment for fp in m.fixed_points})
        cuts = [(lo + hi) / 2 for lo, hi in zip(levels, levels[1:])]
        on_moment = levels[len(levels) // 2]
        for c in cuts + [on_moment]:
            q = ["--input", src, "--cut", str(c)]
            # an odd degree and degree 2n only at regular cuts; on a moment
            # value test_cli checks that every degree exits 3
            pair_degrees = list(range(0, 2 * n - 1, 2))
            if c != on_moment:
                pair_degrees += [1, 2 * n]
            for fmt in FORMATS:
                f = ["--format", fmt]
                tag = f"{label} cut={c} {fmt}"
                for d in pair_degrees:
                    yield f"{tag} pair {d}", ["pair", *q, "--degree", str(d), *f]
                for method in ("both", "residue", "tw"):
                    yield f"{tag} kernel {method}", ["kernel", *q, "--method", method, *f]
                yield f"{tag} kernel 2", ["kernel", *q, "--degree", "2", *f]
                yield f"{tag} betti", ["betti", *q, *f]
                for d in range(0, 2 * n + 1, 2):
                    yield f"{tag} bmatrix {d}", ["bmatrix", *q, "--degree", str(d), *f]
                    yield (
                        f"{tag} decompose {d}",
                        ["decompose", *q, "--degree", str(d),
                         "--class-json", _decompose_class(m, d), *f],
                    )


def sweep_cases(workdir: Path):
    """Yield (key, argv) for the validate, kernel and betti sweep of SWEEP_DATA
    and the json kernel and betti sweep of WIDE_DATA."""
    for label, (gen, params) in (SWEEP_DATA | WIDE_DATA).items():
        wide = label in WIDE_DATA
        m = gen(params)
        path = workdir / f"{label}.json"
        path.write_text(manifold_to_json(m))
        src = str(path)
        levels = sorted({fp.moment for fp in m.fixed_points})
        for fmt in ("json",) if wide else FORMATS:
            f = ["--format", fmt]
            if not wide:
                yield f"{label} validate {fmt}", ["validate", "--input", src, *f]
            for lo, hi in zip(levels, levels[1:]):
                q = ["--input", src, "--cut", str((lo + hi) / 2), *f]
                tag = f"{label} cut={(lo + hi) / 2} {fmt}"
                yield f"{tag} kernel all", ["kernel", *q, "--degree", "all"]
                # betti computes what kernel does; one format keeps the test short
                if fmt == "json":
                    yield f"{tag} betti", ["betti", *q]


def run_job(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]]


def outputs() -> dict[str, list]:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        jobs = [*cases(workdir), *sweep_cases(workdir)]
        return {key: run_job(argv) for key, argv in jobs}


def test_cli_outputs_match_golden():
    expected = json.loads(FIXTURE.read_text())
    got = outputs()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


def check() -> int:
    """Compare every job with the fixture, print each difference, and return
    the exit status."""
    expected = json.loads(FIXTURE.read_text())
    got = outputs()
    unmatched = sorted(set(got) ^ set(expected))
    changed = [key for key in sorted(expected) if key in got and got[key] != expected[key]]
    for key in unmatched:
        print(f"{'extra' if key in got else 'missing'}: {key}")
    for key in changed:
        print(f"changed: {key}: {expected[key]} -> {got[key]}")
    print(f"{len(got)} jobs; {len(changed)} changed, {len(unmatched)} missing or extra")
    return 1 if changed or unmatched else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    FIXTURE.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {FIXTURE}")
