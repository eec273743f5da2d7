"""The benchmark's oracles and checkers: hand values, agreement with the
library on small data, acceptance of real CLI outputs and rejection of
corrupted ones."""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

import run
import workloads
from checks import CHECKERS, Datum, census_betti, datum_betti, md_rows
from kirwan.cli import main as kirwan_main
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.kernels import kernels_equal
from kirwan.momentdata import CutLevel, manifold_to_json
from workloads import Job


def test_census_hand_values():
    # CP^2 with weights 0, 1, 2: indices 0, 2, 4
    cp2 = [(Fraction(0), 0), (Fraction(1), 2), (Fraction(2), 4)]
    assert census_betti(2, cp2, Fraction(3, 2)) == {0: 1, 2: 1}
    # S2 x S2 with unit speeds: moments -2, 0, 0, 2 and indices 0, 2, 2, 4
    s2s2 = [(Fraction(-2), 0), (Fraction(0), 2), (Fraction(0), 2), (Fraction(2), 4)]
    assert census_betti(2, s2s2, Fraction(1)) == {0: 1, 2: 1}


@pytest.mark.parametrize(
    "m",
    [gen_cpn(list(range(n + 1))) for n in range(1, 5)]
    + [gen_sphere_product([1, 2, 3][:k]) for k in range(1, 4)]
    + [gen_sphere_product([1, 1, 2])],
    ids=lambda m: m.name,
)
def test_census_agrees_with_the_library(m):
    datum = Datum.parse(manifold_to_json(m))
    levels = sorted(set(datum.moments.values()))
    for lo, hi in zip(levels, levels[1:]):
        cut = (lo + hi) / 2
        library = {d: kernels_equal(m, CutLevel(cut), d).betti for d in range(0, 2 * m.n - 1, 2)}
        assert datum_betti(datum, cut) == library


def _run_cli(argv, cwd, monkeypatch) -> tuple[int, str]:
    monkeypatch.chdir(cwd)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kirwan_main(argv)
    return code, out.getvalue()


@pytest.fixture
def cp3(tmp_path):
    """CP^3[0,1,2,3] on disk; at cut 3/2 its Betti numbers are 1, 2, 1."""
    m = gen_cpn([0, 1, 2, 3])
    text = manifold_to_json(m)
    (tmp_path / "cp3.json").write_text(text)
    return tmp_path, Datum.parse(text)


def _hand_jobs() -> list[tuple[Job, callable]]:
    """(job, corruption of its correct stdout) for the kinds built by hand."""
    cut = Fraction(3, 2)
    base = ["--input", "cp3.json", "--cut", "3/2"]

    def flip_betti_md(out):
        return out.replace("| 2      | 2     |", "| 2      | 1     |")

    def flip_kernel_json(out):
        report = json.loads(out)
        report["degrees"][0]["betti"] += 1
        return json.dumps(report)

    def zero_pairing(out):
        report = json.loads(out)
        report["entries"] = [["0"] * len(row) for row in report["entries"]]
        return json.dumps(report)

    def zero_diagonal(out):
        report = json.loads(out)
        report["rows"][0][0] = "0"
        return json.dumps(report)

    return [
        (Job("betti", ["betti", *base], "cp3.json", ["cp3.json"], {"cut": cut}), flip_betti_md),
        (Job("kernel", ["kernel", *base, "--degree", "all", "--format", "json"], "cp3.json", ["cp3.json"],
             {"cut": cut, "format": "json"}), flip_kernel_json),
        (Job("kernel", ["kernel", *base, "--degree", "all"], "cp3.json", ["cp3.json"],
             {"cut": cut, "format": "md"}), flip_betti_md),
        (Job("pair", ["pair", *base, "--degree", "2", "--format", "json"], "cp3.json", ["cp3.json"],
             {"cut": cut, "degree": 2}), zero_pairing),
        (Job("bmatrix", ["bmatrix", *base, "--degree", "0", "--format", "json"], "cp3.json", ["cp3.json"]),
         zero_diagonal),
    ]


@pytest.mark.parametrize("index", range(5))
def test_checkers_accept_real_output_and_reject_corruption(cp3, monkeypatch, index):
    cwd, datum = cp3
    job, corrupt = _hand_jobs()[index]
    code, out = _run_cli(job.argv, cwd, monkeypatch)
    check = CHECKERS[job.kind]
    assert check(job, datum, code, out) is None
    assert corrupt(out) != out
    assert check(job, datum, code, corrupt(out)) is not None
    assert check(job, datum, code + 1, out) is not None


def _corrupt_query(kind, out):
    if kind in ("decompose-unit", "cut-on-moment"):
        return "done\n"
    if kind == "generate":
        return out.replace("wrote", "skipped")
    report = json.loads(out)
    if kind == "decompose":
        below = next(p for p, s in report["eta_plus"]["restrictions"].items() if s == "0")
        report["eta_plus"]["restrictions"][below] = "1"
    elif kind == "validate":
        report["ok"] = False
    elif kind == "validate-broken":
        report["violations"] = ["something else"]
    elif kind == "pair":
        report["entries"] = [["0"] * len(row) for row in report["entries"]]
    elif kind == "bmatrix":
        report["rows"] = [["0"]]
    return json.dumps(report)


@pytest.mark.parametrize("family,size", [("cp", 4), ("s", 3)])
def test_query_jobs_pass_and_corruptions_fail(tmp_path, monkeypatch, family, size):
    files: dict[str, str] = {}
    jobs = workloads._query_jobs(workloads._Draws(random.Random(5)), 0, family, size, files)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    datum = Datum.parse(files[jobs[0].datum])
    assert [j.kind for j in jobs] == [
        "generate", "validate", "validate-broken", "pair", "bmatrix",
        "decompose", "decompose-unit", "cut-on-moment",
    ]
    for job in jobs:
        code, out = _run_cli(job.argv, tmp_path, monkeypatch)
        check = CHECKERS[job.kind]
        assert check(job, datum, code, out) is None, (job.argv, out)
        if job.kind != "pair" or datum_betti(datum, job.expect["cut"])[job.expect["degree"]]:
            assert check(job, datum, code, _corrupt_query(job.kind, out)) is not None, job.kind
        assert check(job, datum, code + 1, out) is not None


def test_check_all_flags_written_file_and_changed_output(tmp_path, monkeypatch):
    files: dict[str, str] = {}
    jobs = workloads._query_jobs(workloads._Draws(random.Random(6)), 0, "cp", 3, files)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    results = []
    for index, job in enumerate(jobs):
        code, out = _run_cli(job.argv, tmp_path, monkeypatch)
        result = {"job": index, "code": code, "stdout": out}
        if job.kind == "generate":
            result["written"] = (tmp_path / job.expect["out"]).read_text()
        results.append(result)
    store: dict[str, str] = {}
    assert run.check_all(jobs, files, results, store) == []
    assert run.check_all(jobs, files, results, store) == []

    tampered = [dict(r) for r in results]
    tampered[0]["written"] = tampered[0]["written"].replace('"n": 3', '"n": 3 ')
    tampered[1]["stdout"] = tampered[1]["stdout"].replace("\n", " \n")
    failures = run.check_all(jobs, files, tampered, store)
    assert len(failures) == 2
    assert "set-up copy" in failures[0]
    assert "earlier run" in failures[1]


def test_md_rows_drops_header_and_rule():
    text = "title\n| a | b |\n| - | - |\n| 1 | 2 |\nfooter\n"
    assert md_rows(text) == [["1", "2"]]
