"""Output oracles for the benchmark, independent of the code under test.

Betti numbers come from Kirwan's perfect stratification by |mu - c|^2, which
needs only the moment value and Morse index of each fixed point:

    P_t(M_c) = sum over F with mu(F) < c of (t^ind(F) - t^(2n - ind(F))) / (1 - t^2)

No restriction table, pairing or elimination of the library enters it.  Every
checker takes the job, the datum it read (as parsed here with plain `json`),
the exit code and the captured stdout, and returns None when the output is
right or a one-line reason when it is not.  Checkers run after the timed loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Datum:
    """What the checkers need from a manifold document."""

    n: int
    moments: dict[str, Fraction]
    index: dict[str, int]
    alpha_minus: dict[str, dict[str, Fraction]]

    @classmethod
    def parse(cls, text: str) -> "Datum":
        doc = json.loads(text)
        moments = {p["name"]: Fraction(p["moment"]) for p in doc["fixed_points"]}
        index = {
            p["name"]: 2 * sum(1 for w in p["weights"] if w < 0)
            for p in doc["fixed_points"]
        }
        alpha = {
            f: {g: Fraction(s) for g, s in row.items()}
            for f, row in doc["alpha_minus"].items()
        }
        return cls(doc["n"], moments, index, alpha)

    def above(self, cut: Fraction) -> list[str]:
        return [p for p, mu in self.moments.items() if mu > cut]

    def below(self, cut: Fraction) -> list[str]:
        return [p for p, mu in self.moments.items() if mu < cut]


def census_betti(n: int, points: list[tuple[Fraction, int]], cut: Fraction) -> dict[int, int]:
    """Betti numbers of the reduction at `cut`, degrees 0, 2, ..., 2n - 2.

    `points` holds (moment, Morse index) pairs.  Each point below the cut adds
    (t^lo - t^hi) / (1 - t^2) with lo = ind, hi = 2n - ind: +1 in degrees
    lo, lo + 2, ..., hi - 2 when lo < hi, and -1 in hi, ..., lo - 2 otherwise.

    >>> census_betti(2, [(Fraction(0), 0), (Fraction(1), 2), (Fraction(2), 4)], Fraction(3, 2))
    {0: 1, 2: 1}
    """
    betti = dict.fromkeys(range(0, 2 * n - 1, 2), 0)
    for moment, ind in points:
        if moment >= cut:
            continue
        lo, hi = ind, 2 * n - ind
        sign = 1 if lo < hi else -1
        for d in range(min(lo, hi), max(lo, hi), 2):
            betti[d] += sign
    return betti


def datum_betti(datum: Datum, cut: Fraction) -> dict[int, int]:
    return census_betti(
        datum.n, [(datum.moments[p], datum.index[p]) for p in datum.moments], cut
    )


def rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by plain Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def md_rows(text: str) -> list[list[str]]:
    """Data rows of the first markdown table in `text` (header and rule dropped)."""
    table = [line for line in text.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in table[2:]]


# --- per-kind checkers ---------------------------------------------------------


def _expect_code(code: int, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def check_betti(job, datum: Datum, code: int, out: str) -> str | None:
    if bad := _expect_code(code, 0):
        return bad
    got = {int(d): int(b) for d, b in md_rows(out)}
    want = datum_betti(datum, job.expect["cut"])
    if got != want:
        return f"betti {got} but the census gives {want}"
    if "Poincare duality: ok" not in out:
        return "Poincare duality not reported ok"
    return None


def check_kernel(job, datum: Datum, code: int, out: str) -> str | None:
    if bad := _expect_code(code, 0):
        return bad
    want = datum_betti(datum, job.expect["cut"])
    if job.expect["format"] == "json":
        rows = [
            (
                e["degree"],
                len(e["residue_kernel"]["labels"]),
                e["residue_kernel"]["dimension"],
                e["tw_sum"]["dimension"],
                e["equal"],
                e["betti"],
            )
            for e in json.loads(out)["degrees"]
        ]
    else:
        rows = [
            (int(d), int(basis), int(res), int(tw), eq == "yes", int(b))
            for d, basis, res, tw, eq, b in md_rows(out)
        ]
    if [r[0] for r in rows] != list(want):
        return f"degrees {[r[0] for r in rows]}, expected {list(want)}"
    for d, basis, res, tw, equal, betti in rows:
        if not equal or res != tw:
            return f"degree {d}: the two kernel descriptions disagree"
        if res + betti != basis:
            return f"degree {d}: kernel {res} + betti {betti} != basis {basis}"
        if betti != want[d]:
            return f"degree {d}: betti {betti} but the census gives {want[d]}"
    return None


def check_pair(job, datum: Datum, code: int, out: str) -> str | None:
    if bad := _expect_code(code, 0):
        return bad
    report = json.loads(out)
    d = job.expect["degree"]
    got = rank([[Fraction(e) for e in row] for row in report["entries"]])
    want = datum_betti(datum, job.expect["cut"])[d]
    if got != want:
        return f"pairing matrix in degree {d} has rank {got}, census betti {want}"
    return None


def check_bmatrix(job, datum: Datum, code: int, out: str) -> str | None:
    if bad := _expect_code(code, 0):
        return bad
    rows = [[Fraction(e) for e in row] for row in json.loads(out)["rows"]]
    for i, row in enumerate(rows):
        if any(row[:i]):
            return f"row {i} has a nonzero entry below the diagonal"
        if row[i] == 0:
            return f"diagonal entry {i} is zero"
    return None


def check_decompose(job, datum: Datum, code: int, out: str) -> str | None:
    if bad := _expect_code(code, 0):
        return bad
    report = json.loads(out)

    def scalars(part: str) -> dict[str, Fraction]:
        return {p: Fraction(s) for p, s in report[part]["restrictions"].items()}

    given = {p: job.expect["class"].get(p, Fraction(0)) for p in datum.moments}
    plus, minus = scalars("eta_plus"), scalars("eta_minus")
    if scalars("input") != given:
        return "the reported input is not the class handed in"
    if any(plus[p] + minus[p] != given[p] for p in given):
        return "eta_plus + eta_minus does not reassemble the input"
    cut = job.expect["cut"]
    if any(minus[p] for p in datum.above(cut)):
        return "eta_minus does not vanish above the cut"
    if any(plus[p] for p in datum.below(cut)):
        return "eta_plus does not vanish below the cut"
    return None


def check_error(job, datum: Datum, code: int, out: str) -> str | None:
    if bad := _expect_code(code, job.expect["code"]):
        return bad
    return None if out.startswith("error: ") else "no error message on stdout"


def check_validate(job, datum: Datum, code: int, out: str) -> str | None:
    if bad := _expect_code(code, 0):
        return bad
    report = json.loads(out)
    return None if report["ok"] and not report["violations"] else "valid datum rejected"


def check_validate_broken(job, datum: Datum, code: int, out: str) -> str | None:
    if bad := _expect_code(code, 2):
        return bad
    report = json.loads(out)
    entry = job.expect["entry"]
    if report["ok"] or not any(entry in v for v in report["violations"]):
        return f"no violation names the mutated entry {entry}"
    return None


def check_generate(job, datum: Datum, code: int, out: str) -> str | None:
    """Byte checks against the set-up copy; the reload is checked by the caller."""
    if bad := _expect_code(code, 0):
        return bad
    if out != f"wrote {job.expect['name']} to {job.expect['out']}\n":
        return f"unexpected stdout {out!r}"
    return None


CHECKERS = {
    "betti": check_betti,
    "kernel": check_kernel,
    "pair": check_pair,
    "bmatrix": check_bmatrix,
    "decompose": check_decompose,
    "decompose-unit": check_error,
    "cut-on-moment": check_error,
    "validate": check_validate,
    "validate-broken": check_validate_broken,
    "generate": check_generate,
}
