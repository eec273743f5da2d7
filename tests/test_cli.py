from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirwan import cli, kernels
from kirwan.cli import main
from kirwan.cohomology import EquivariantClass, basis_points
from kirwan.exactmath import rat
from kirwan.generators import gen_cpn, gen_sphere_product
from kirwan.kernels import KernelReport, kernels_equal
from kirwan.momentdata import CutLevel, load_manifold, manifold_to_json, split_fixed_points, to_json
from oracles import (
    basis_rows,
    census_betti,
    localization_pairing,
    reference_kernel_entry,
    reference_nullspace,
    reference_parser,
)


@pytest.fixture
def cp2_path(tmp_path):
    path = tmp_path / "cp2.json"
    path.write_text(manifold_to_json(gen_cpn([0, 1, 2])))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# --- generate / validate ----------------------------------------------------------


def test_generate_then_validate(tmp_path, capsys):
    out = str(tmp_path / "cp2.json")
    code, _ = run(capsys, "generate", "cpn", "--lambda", "0,1,2", "--out", out)
    assert code == 0
    code, text = run(capsys, "validate", "--input", out)
    assert code == 0
    assert "ok" in text


def test_generate_to_stdout_is_canonical(capsys):
    code, text = run(capsys, "generate", "spheres", "--w", "1,1")
    assert code == 0
    assert text == manifold_to_json(__import__("kirwan").gen_sphere_product([1, 1]))


def test_generate_writes_a_weight_past_the_str_limit_in_full(tmp_path, capsys):
    # two lambdas of 4300 digits, which str() still writes; their difference has 4301
    nines = "9" * 4300
    out = str(tmp_path / "cp1.json")
    code, _ = run(capsys, "generate", "cpn", "--lambda", f"-{nines},{nines}", "--out", out)
    assert code == 0
    text = open(out).read()
    weight = "1" + "9" * 4299 + "8"
    assert f'"weights": [\n        {weight}\n' in text
    assert f'"weights": [\n        -{weight}\n' in text
    # the loader reads no integer literal that long
    code, report = run(capsys, "validate", "--input", out)
    assert code == 2
    assert "invalid JSON" in report and "4301 digits" in report


def test_validate_tampered_document(tmp_path, capsys):
    doc = json.loads(manifold_to_json(gen_cpn([0, 1, 2])))
    doc["alpha_minus"]["p1"]["p1"] = "1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, text = run(capsys, "validate", "--input", str(path))
    assert code == 2
    assert "alpha_minus[p1][p1]" in text


def test_validate_schema_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"name\": \"x\"}")
    code, text = run(capsys, "validate", "--input", str(path))
    assert code == 2
    assert "missing fields" in text


# --- kernel / betti -----------------------------------------------------------------


def test_kernel_table_md(cp2_path, capsys):
    code, text = run(
        capsys, "kernel", "--input", cp2_path, "--cut", "3/2", "--degree", "all",
        "--format", "md",
    )
    assert code == 0
    lines = [l for l in text.splitlines() if l.startswith("|") and "degree" not in l]
    cells = [[c.strip() for c in l.strip("|").split("|")] for l in lines[1:]]
    assert [c[0] for c in cells] == ["0", "2"]
    assert [c[2] for c in cells] == ["0", "1"]  # residue kernel dims
    assert [c[5] for c in cells] == ["1", "1"]  # betti
    assert "entirely kernel" in text


def test_kernel_methods_agree(cp2_path, capsys):
    json_outputs = []
    for method in ("residue", "tw"):
        code, text = run(
            capsys, "kernel", "--input", cp2_path, "--cut", "1/2",
            "--method", method, "--format", "json",
        )
        assert code == 0
        report = json.loads(text)
        json_outputs.append(
            [(e["degree"], e["kernel_dim"], e["betti"]) for e in report["degrees"]]
        )
    assert json_outputs[0] == json_outputs[1]


def test_kernel_single_degree(cp2_path, capsys):
    code, text = run(
        capsys, "kernel", "--input", cp2_path, "--cut", "3/2", "--degree", "2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(text)
    assert len(report["degrees"]) == 1
    entry = report["degrees"][0]
    assert entry["equal"] is True
    assert entry["residue_kernel"]["restriction_rows"] == [["1", "1/2", "0"]]


@pytest.mark.parametrize("method", ["both", "residue", "tw"])
@pytest.mark.parametrize("m", [gen_cpn([0, 1, 2, 3]), gen_sphere_product([1, 2, 3])],
                         ids=["CP3", "S2^3"])
def test_kernel_all_lists_the_single_degree_entries_upward(tmp_path, capsys, m, method):
    """--degree all sweeps from the top degree down, yet its entries are those
    of --degree d for each d, in ascending order."""
    path = tmp_path / "m.json"
    path.write_text(manifold_to_json(m))
    levels = sorted({fp.moment for fp in m.fixed_points})
    for lo, hi in zip(levels, levels[1:]):
        args = ("kernel", "--input", str(path), "--cut", str((lo + hi) / 2),
                "--method", method, "--format", "json")
        code, text = run(capsys, *args)
        assert code == 0
        single = []
        for d in range(0, 2 * m.n - 1, 2):
            code, one = run(capsys, *args, "--degree", str(d))
            assert code == 0
            single.extend(json.loads(one)["degrees"])
        assert json.loads(text)["degrees"] == single, (lo + hi) / 2


def gap_cuts(m):
    levels = sorted({fp.moment for fp in m.fixed_points})
    return [(lo + hi) / 2 for lo, hi in zip(levels, levels[1:])]


@pytest.mark.parametrize(
    "m",
    [gen_cpn(range(n + 1)) for n in range(2, 7)]
    + [gen_sphere_product(range(1, k + 1)) for k in range(2, 5)],
    ids=lambda m: m.name,
)
def test_kernel_rows_match_fraction_elimination(tmp_path, capsys, m):
    """The rows `kernel --degree all` writes, derived degree by degree from the
    one above, are the Fraction elimination of each degree's own matrix: the
    localization pairings against the complementary basis for the residue
    kernel, the basis evaluated above the cut for tw_plus."""
    path = tmp_path / "m.json"
    path.write_text(manifold_to_json(m))
    a = m.alpha_minus
    for c in gap_cuts(m):
        code, text = run(capsys, "kernel", "--input", str(path), "--cut", str(c),
                         "--degree", "all", "--format", "json")
        assert code == 0
        above, _ = split_fixed_points(m, CutLevel(c))
        for entry in json.loads(text)["degrees"]:
            d = entry["degree"]
            pts, cols = basis_points(m, d), basis_points(m, 2 * m.n - 2 - d)
            pairings = [[localization_pairing(m, a[g], a[f], above) for f in pts] for g in cols]
            evaluations = [[a[f][j] for f in pts] for j in above]
            for side, matrix in (("residue_kernel", pairings), ("tw_plus", evaluations)):
                rows = [[rat(e) for e in row] for row in entry[side]["coefficient_rows"]]
                assert rows == reference_nullspace(matrix, len(pts)), (str(c), d, side)


@pytest.mark.parametrize("m", [gen_sphere_product([1] * 6), gen_cpn(range(25))],
                         ids=lambda m: m.name)
def test_long_narrowing_chains_agree_with_the_census(tmp_path, capsys, m):
    """Every degree of a long top-down sweep narrows the kernels above it; the
    Betti numbers still match the index census and the two kernels agree."""
    path = tmp_path / "m.json"
    path.write_text(manifold_to_json(m))
    for c in gap_cuts(m):
        args = ("--input", str(path), "--cut", str(c), "--format", "json")
        want = {str(d): b for d, b in census_betti(m, CutLevel(c)).items()}
        code, text = run(capsys, "betti", *args)
        assert code == 0 and json.loads(text)["betti"] == want, str(c)
        code, text = run(capsys, "kernel", *args, "--degree", "all")
        entries = json.loads(text)["degrees"]
        assert code == 0 and all(e["equal"] for e in entries), str(c)
        assert {str(e["degree"]): e["betti"] for e in entries} == want, str(c)


def test_kernel_md_does_not_expand_subspaces(cp2_path, capsys, monkeypatch):
    # md prints only dimensions, so it must not build the restriction rows; every
    # expansion, that of the JSON report and that of a witness, goes through
    # kernels._expand
    args = ("kernel", "--input", cp2_path, "--cut", "3/2", "--degree", "all")
    _, want = run(capsys, *args)

    def boom(m, terms):
        raise RuntimeError("restriction rows expanded")

    monkeypatch.setattr(kernels, "_expand", boom)
    assert run(capsys, *args, "--format", "md") == (0, want)
    with pytest.raises(RuntimeError):
        main([*args, "--format", "json"])


def test_betti_exits_2_when_the_kernels_disagree(cp2_path, capsys, monkeypatch):
    args = ("--input", cp2_path, "--cut", "3/2")
    _, agreed_json = run(capsys, "betti", *args, "--format", "json")
    _, agreed_md = run(capsys, "betti", *args)
    real = kernels_equal

    def disagreeing(m, cut, degree, sweep=None):
        # no valid datum is known to make the two descriptions differ
        r = real(m, cut, degree, sweep)
        return KernelReport(
            r.cut, r.degree, r.residue_kernel, r.tw_plus, r.tw_minus, r.tw_sum,
            equal=degree != 2, betti=r.betti, witness=r.witness,
        )

    monkeypatch.setattr(cli, "kernels_equal", disagreeing)
    _, kernel_md = run(capsys, "kernel", *args)
    code, betti_md = run(capsys, "betti", *args)
    assert code == 2
    warning = kernel_md.splitlines()[-2:]
    assert warning[0].startswith("DISAGREEMENT")
    assert betti_md.splitlines() == agreed_md.splitlines() + warning
    assert run(capsys, "betti", *args, "--format", "json") == (2, agreed_json)


def test_kernel_json_writes_the_entries_into_its_header(tmp_path, capsys, monkeypatch):
    """The JSON kernel report is its header as to_json writes it, the entries
    written as text in its "degrees", for a datum named like that key and for
    a disagreement with a witness and a tw_sum apart from the residue kernel."""
    doc = json.loads(manifold_to_json(gen_cpn([0, 1, 2])))
    doc["name"] = '"degrees": []\n'
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    m, cut = load_manifold(doc), CutLevel(Fraction(3, 2))
    real = kernels_equal

    def disagreeing(m, cut, degree, sweep=None):
        r = real(m, cut, degree, sweep)
        witness = EquivariantClass(degree, (Fraction(-1, 2), 0, 3))
        return KernelReport(
            r.cut, r.degree, r.residue_kernel, r.tw_plus, r.tw_minus, r.tw_minus,
            equal=False, betti=r.betti, witness=witness,
        )

    for report, code in ((real, 0), (disagreeing, 2)):
        monkeypatch.setattr(cli, "kernels_equal", report)
        for degrees, flags in (([0, 2], ()), ([2], ("--degree", "2"))):
            want = to_json({
                "command": "kernel", "manifold": doc["name"], "cut": "3/2", "method": "both",
                "degrees": [reference_kernel_entry(m, report(m, cut, d)) for d in degrees],
                "note": "degrees above 2n-2 are entirely kernel (betti 0)",
            })
            argv = ("kernel", "--input", str(path), "--cut", "3/2", "--format", "json", *flags)
            assert run(capsys, *argv) == (code, want + "\n"), (code, flags)


def test_betti_table(cp2_path, capsys):
    code, text = run(capsys, "betti", "--input", cp2_path, "--cut", "1/2",
                     "--format", "json")
    assert code == 0
    report = json.loads(text)
    assert report["betti"] == {"0": 1, "2": 1}
    assert report["poincare_dual"] is True


# --- pair / bmatrix -----------------------------------------------------------------


def test_pair_matrix_report(cp2_path, capsys):
    code, text = run(
        capsys, "pair", "--input", cp2_path, "--cut", "3/2", "--degree", "2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(text)
    assert report["entries"] == [["1/2"], ["-1"]]
    assert "convention" in report


def test_negative_rational_cut_parses_bare(cp2_path, capsys):
    code, text = run(capsys, "betti", "--input", cp2_path, "--cut", "-1/2",
                     "--format", "json")
    assert code == 0
    assert json.loads(text)["betti"] == {"0": 0, "2": 0}


def test_non_ascii_digits_are_not_rational_literals(cp2_path, tmp_path, capsys):
    # int() reads U+0661 ARABIC-INDIC DIGIT ONE as 1; -?digits[/digits] means ASCII digits
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--input", cp2_path, "--cut", "\u0661/2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 64 and out == ""
    assert err.endswith("error: argument --cut: not a rational literal: '\u0661/2'\n")

    doc = json.loads(manifold_to_json(gen_cpn([0, 1, 2])))
    doc["alpha_minus"]["p0"]["p1"] = "\u0663"
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(doc))
    code, text = run(capsys, "validate", "--input", str(path))
    assert code == 2
    assert "- alpha_minus['p0']['p1']: not a rational literal: '\u0663'" in text

    # nor integer literals, which take no "_" or blanks either; "-" and one
    # of them is not a negative value but an unknown option
    for argv, message in [
        (["generate", "cpn", "--lambda", "\u0660,\u0661, 2"],
         "--lambda: not an integer literal: '\u0660'"),
        (["generate", "cpn", "--lambda", "0,1, 2"], "--lambda: not an integer literal: ' 2'"),
        (["generate", "spheres", "--w", "1_0"], "--w: not an integer literal: '1_0'"),
        (["generate", "spheres", "--w", "-\u0661"], "--w: expected one argument"),
        (["pair", "--input", cp2_path, "--cut", "1/2", "--degree", "\u0662"],
         "--degree: not an integer literal: '\u0662'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 64 and out == ""
        assert err.endswith(f"error: argument {message}\n")


def test_bmatrix_report(cp2_path, capsys):
    code, text = run(
        capsys, "bmatrix", "--input", cp2_path, "--cut", "-1", "--degree", "0",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(text)
    assert report["labels"] == ["p2", "p1"]
    assert report["rows"] == [["1", "1"], ["0", "1"]]
    assert report["upper_triangular"] and report["diagonal_nonzero"]


# --- decompose ----------------------------------------------------------------------


def test_decompose_success(cp2_path, tmp_path, capsys):
    cls = tmp_path / "eta.json"
    cls.write_text(json.dumps({"degree": 2, "restrictions": {"p0": "2", "p1": "1"}}))
    code, text = run(
        capsys, "decompose", "--input", cp2_path, "--cut", "3/2", "--degree", "2",
        "--class-file", str(cls), "--format", "json",
    )
    assert code == 0
    report = json.loads(text)
    assert report["coefficients"] == {"p0": "2", "p1": "1"}
    assert report["eta_plus"]["restrictions"] == {"p0": "0", "p1": "0", "p2": "0"}


def test_decompose_not_in_kernel_exits_4(cp2_path, capsys):
    inline = json.dumps(
        {"degree": 2, "restrictions": {"p0": "1", "p1": "1", "p2": "1"}}
    )
    code, text = run(
        capsys, "decompose", "--input", cp2_path, "--cut", "3/2", "--degree", "2",
        "--class-json", inline,
    )
    assert code == 4
    assert "pairing" in text


def test_decompose_degree_mismatch_exits_2(cp2_path, capsys):
    inline = json.dumps({"degree": 2, "restrictions": {}})
    code, _ = run(
        capsys, "decompose", "--input", cp2_path, "--cut", "3/2", "--degree", "4",
        "--class-json", inline,
    )
    assert code == 2


# --- exit codes and determinism -------------------------------------------------------


def test_irregular_cut_exits_3(cp2_path, capsys):
    code, text = run(capsys, "kernel", "--input", cp2_path, "--cut", "1")
    assert code == 3
    assert "moment" in text


@pytest.mark.parametrize(
    "command, degree",
    [("pair", "0"), ("pair", "1"), ("pair", "4"), ("kernel", "3"), ("kernel", "4")],
)
def test_irregular_cut_exits_3_at_every_degree(cp2_path, capsys, command, degree):
    extra = ["--method", "residue"] if command == "kernel" else []
    code, text = run(
        capsys, command, "--input", cp2_path, "--cut", "1", "--degree", degree, *extra
    )
    assert code == 3
    assert "moment" in text


@pytest.mark.parametrize(
    "case, want",
    [
        ("missing input", 64),
        ("missing class file", 64),
        ("unwritable out", 64),
        ("float restriction", 2),
        ("integer restriction", 2),
        ("list restrictions", 2),
        ("float degree", 2),
        ("bool degree", 2),
        ("non-UTF-8 input", 2),
        ("non-UTF-8 class file", 2),
        ("deeply nested input", 2),
        ("deeply nested class", 2),
        ("huge integer n", 2),
        ("huge integer weight", 2),
        ("huge integer degree", 2),
        ("huge weight product", 2),
    ],
)
def test_bad_files_and_class_documents_get_documented_exit_codes(
    cp2_path, tmp_path, capsys, case, want
):
    missing = str(tmp_path / "no-such-dir" / "x.json")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000)
    # integer literals longer than the 4300 digits Python converts by default
    doc = json.loads(open(cp2_path).read())
    huge_n = tmp_path / "huge_n.json"
    huge_n.write_text(json.dumps(doc).replace('"n": 2', '"n": ' + "1" * 5000))
    doc["fixed_points"][0]["weights"] = [-424242, 1]
    huge_weight = tmp_path / "huge_weight.json"
    huge_weight.write_text(json.dumps(doc).replace("-424242", "7" * 5000))
    # two 3000-digit negative weights parse, but their product has 6000 digits
    doc = json.loads(open(cp2_path).read())
    doc["fixed_points"][2]["weights"] = [-424242, -424242]
    huge_product = tmp_path / "huge_product.json"
    huge_product.write_text(json.dumps(doc).replace("424242", "7" * 3000))
    huge_degree = '{"degree": ' + "2" * 5000 + ', "restrictions": {}}'
    decompose = ["decompose", "--input", cp2_path, "--cut", "3/2", "--degree", "0"]
    argv, named = {
        "missing input": (["validate", "--input", missing], missing),
        "missing class file": ([*decompose, "--class-file", missing], missing),
        "unwritable out": (["generate", "cpn", "--lambda", "0,1", "--out", missing], missing),
        "float restriction": (
            [*decompose, "--class-json", '{"degree": 0, "restrictions": {"p0": 1.5}}'],
            "restrictions['p0']",
        ),
        "integer restriction": (
            [*decompose, "--class-json", '{"degree": 0, "restrictions": {"p0": 2, "p1": "1"}}'],
            "restrictions['p0']",
        ),
        "list restrictions": (
            [*decompose, "--class-json", '{"degree": 0, "restrictions": [1]}'],
            "restrictions",
        ),
        "float degree": (
            [*decompose, "--class-json", '{"degree": 0.0, "restrictions": {}}'],
            "class degree",
        ),
        "bool degree": (
            [*decompose, "--class-json", '{"degree": false, "restrictions": {}}'],
            "class degree",
        ),
        "non-UTF-8 input": (["betti", "--input", str(latin1), "--cut", "1/2"], str(latin1)),
        "non-UTF-8 class file": ([*decompose, "--class-file", str(latin1)], str(latin1)),
        "deeply nested input": (
            ["betti", "--input", str(nested), "--cut", "1/2"], "invalid JSON"
        ),
        "deeply nested class": (
            [*decompose, "--class-json", "[" * 100000], "invalid class JSON"
        ),
        "huge integer n": (["validate", "--input", str(huge_n)], "invalid JSON"),
        "huge integer weight": (
            ["kernel", "--input", str(huge_weight), "--cut", "1/2"], "invalid JSON"
        ),
        "huge integer degree": (
            [*decompose, "--class-json", huge_degree], "invalid class JSON"
        ),
        "huge weight product": (
            ["validate", "--input", str(huge_product)], "product is 6049382716",
        ),
    }[case]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == want
    assert named in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_usage_error_exits_64(cp2_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--input", cp2_path])  # missing --cut
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--input", cp2_path, "--cut", "x/y"])
    assert exc.value.code == 64


@pytest.mark.parametrize("command", ["pair", "decompose", "bmatrix"])
def test_degree_all_is_a_usage_error_outside_kernel(cp2_path, capsys, command):
    argv = [command, "--input", cp2_path, "--cut", "3/2", "--degree", "all"]
    if command == "decompose":
        argv += ["--class-json", '{"degree": 2, "restrictions": {}}']
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 64
    assert out == ""
    assert f"kirwan {command}: error: argument --degree: " in err


def test_reports_are_deterministic(cp2_path, capsys):
    args = ("kernel", "--input", cp2_path, "--cut", "3/2", "--degree", "all",
            "--format", "json")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    args = ("betti", "--input", cp2_path, "--cut", "1/2", "--format", "md")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_generate_round_trip_reproducible(tmp_path, capsys):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    run(capsys, "generate", "cpn", "--lambda", "-2,0,3", "--out", out1)
    run(capsys, "generate", "cpn", "--lambda=-2,0,3", "--out", out2)
    text1 = open(out1).read()
    assert text1 == open(out2).read()
    code, validated = run(capsys, "validate", "--input", out1, "--format", "json")
    assert code == 0 and json.loads(validated)["ok"]


# --- command-line parsing -------------------------------------------------------------

COMMANDS = ["validate", "pair", "kernel", "betti", "decompose", "bmatrix", "generate"]


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize(
    "words", [[]] + [[c] for c in COMMANDS] + [["generate", "cpn"], ["generate", "spheres"]]
)
def test_help_goes_to_stdout_and_exits_0(capsys, words, flag):
    with pytest.raises(SystemExit) as exc:
        main([*words, flag])
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert out.startswith(" ".join(["usage: kirwan", *words]))
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["--bogus", "betti", "--input", "p.json", "--cut", "1/2"],
        ["betti"],
        ["betti", "--input"],
        ["betti", "--input", "p.json", "--cut", "x/y"],
        ["betti", "--input", "p.json", "--cut", "1/2", "--bogus"],
        ["betti", "--input", "p.json", "--cut", "1/2", "p.json"],
        ["betti", "--input", "p.json", "--cut", "1/2", "--help=x"],
        ["kernel", "--input", "p.json", "--cut", "1/2", "--format", "html"],
        ["kernel", "--input", "p.json", "--cut", "1/2", "--degree", "-2"],
        ["decompose", "--c", "1/2"],
        ["decompose", "--input", "p.json", "--cut", "1/2", "--degree", "0"],
        ["decompose", "--input", "p.json", "--cut", "1/2", "--degree", "0",
         "--class-file", "c.json", "--class-json", "{}"],
        ["generate"],
        ["generate", "cones"],
        ["generate", "cpn"],
        ["generate", "cpn", "--lambda", "0,x"],
    ],
)
def test_usage_errors_go_to_stderr_and_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 64
    assert out == ""
    usage, *_, error = err.splitlines()
    assert usage.startswith("usage: kirwan")
    assert error.startswith("kirwan") and ": error: " in error


def test_a_job_imports_no_argparse_pathlib_or_typing(cp2_path):
    # a fresh interpreter, since the test runner has imported all of them;
    # dataclasses would bring inspect, ast, dis and tokenize with it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import kirwan.cli; "
        "kirwan.cli.main(['betti', '--input', sys.argv[2], '--cut', '1/2']); "
        "print(sorted(set(sys.argv[3:]) & set(sys.modules)))"
    )
    modules = ["argparse", "gettext", "shutil", "pathlib", "typing",
               "dataclasses", "inspect", "ast", "dis", "tokenize", "warnings"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src, cp2_path, *modules],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Betti numbers" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


FLAGS = {
    ("validate",): ["--input", "--format"],
    ("pair",): ["--input", "--cut", "--degree", "--format"],
    ("kernel",): ["--input", "--cut", "--degree", "--format", "--method"],
    ("betti",): ["--input", "--cut", "--format"],
    ("decompose",): ["--input", "--cut", "--degree", "--format", "--class-file", "--class-json"],
    ("bmatrix",): ["--input", "--cut", "--degree", "--format"],
    ("generate", "cpn"): ["--lambda", "--out"],
    ("generate", "spheres"): ["--w", "--out"],
}
VALUES = ["p.json", "3/2", "-1/2", "-2,0,3", "all", "2", "-1", "x/y", "json", "md", "tw", ""]
# the values each flag takes, drawn after it most of the time
FITS = {"--cut": ["3/2", "-1/2", "2", "-1"], "--degree": ["2", "all"], "--format": ["json", "md"],
        "--method": ["tw"], "--lambda": ["-2,0,3", "2", "-1"], "--w": ["-2,0,3", "2", "-1"]}


@st.composite
def command_lines(draw):
    """A command and up to 8 words: its flags, every prefix of them (unique,
    or shared as --c is in decompose), --bogus, -h, values and flag=value
    forms.  Most words are some of the command's flags, each followed by a
    value that fits it, so that many lines parse."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    names = sorted({f[:k] for f in flags for k in range(3, len(f) + 1)}) + ["--bogus", "-h"]
    name, value = st.sampled_from(names), st.sampled_from(VALUES)
    # -h and --bogus are drawn more often than the other names
    word = st.sampled_from(["-h", "--bogus"]) | name | value | st.builds("{}={}".format, name, value)
    items = [
        (f, draw(st.sampled_from(FITS.get(f, VALUES))))
        for f in draw(st.lists(st.sampled_from(flags), unique=True))
    ]
    items += draw(st.lists(word.map(lambda w: (w,)), max_size=2))
    return [*command, *[w for item in draw(st.permutations(items)) for w in item][:8]]


def refuse_all(convert):
    """convert, but a usage error on "all"."""

    def degree(text):
        if text == "all":
            raise argparse.ArgumentTypeError("'all' is read only by kernel")
        return convert(text)

    return degree


@pytest.fixture(scope="module")
def reference():
    """The argparse parser of kirwan 0.6.0, but for the one intended change:
    --degree all is a usage error outside kernel."""
    parser = reference_parser()
    commands = parser._subparsers._group_actions[0].choices
    for name in ("pair", "decompose", "bmatrix"):
        action = commands[name]._option_string_actions["--degree"]
        action.type = refuse_all(action.type)
    return parser.parse_args


def parsed(parse, argv):
    """(values or exit code, stdout, stderr) of one parse of argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=command_lines())
def test_the_parser_reads_argv_as_argparse_did(reference, argv):
    want, _, _ = parsed(reference, argv)
    got, out, err = parsed(lambda a: cli._parse(a)[1], argv)
    assert got == want
    if got == 0:  # -h/--help
        assert out and not err
    elif got == 64:
        assert err and not out
    else:
        assert not out and not err


# --- fuzzing ------------------------------------------------------------------------


class Raw:
    """JSON text spliced into a document as is: json.dumps cannot write it."""

    def __init__(self, text):
        self.text = text


class Again(str):
    """A key that is written like an equal key already in its object, making
    the JSON text repeat that key."""

    __hash__ = object.__hash__
    __eq__ = object.__eq__


def dump(value):
    if isinstance(value, Raw):
        return value.text
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}: {dump(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)


def paths(value, prefix=()):
    """The key-or-index path of every value inside a document."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


# Values that replace or repeat a field: wrong types, bad rationals, integers
# of 20, 4000 and 5000 digits (Python parses at most 4300 from text), two
# 3000-digit weights whose 6000-digit product a report may print, shallow
# nesting and nesting too deep to parse, empty tables.
REPLACEMENTS = [
    None, True, 1.5, "x", "1/0", "-0", 0, -1, 3, [], {}, [[]], {"p0": {}},
    Raw("9" * 20), Raw("-" + "7" * 4000), Raw("3" * 5000), Raw('"' + "1" * 5000 + '"'),
    Raw(f"[-{'7' * 3000}, -{'7' * 3000}]"),
    Raw("[" * 40 + "]" * 40), Raw("[" * 5000 + "]" * 5000),
]
TABLES = ("alpha_minus", "alpha_plus", "restrictions")


@st.composite
def mutated(draw, doc):
    """doc after up to three drops, retypes, repeated keys or emptied tables."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(["drop", "retype", "repeat", "empty"]))
        if kind == "empty":
            tables = [t for t in TABLES if isinstance(doc.get(t), dict)]
            if tables:
                table = doc[draw(st.sampled_from(tables))]
                if table and draw(st.booleans()):
                    table[draw(st.sampled_from(sorted(table)))] = {}
                else:
                    table.clear()
            continue
        where = list(paths(doc))
        if not where:
            continue
        path = draw(st.sampled_from(where))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "retype":
            parent[path[-1]] = value
        elif isinstance(parent, dict):
            parent[Again(path[-1])] = value
    return doc


@st.composite
def fuzz_jobs(draw):
    """(input document text, argv with None for its path) of one CLI job on a
    mutated CP^1-CP^3 or S2^1-S2^2 document."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        lambdas = draw(st.lists(st.integers(-4, 4), min_size=n + 1, max_size=n + 1,
                                unique=True))
        m = gen_cpn(sorted(lambdas))
    else:
        k = draw(st.integers(1, 2))
        m = gen_sphere_product(draw(st.lists(st.sampled_from([-2, -1, 1, 3]),
                                             min_size=k, max_size=k)))
    moments = sorted({fp.moment for fp in m.fixed_points})
    gaps = [(a + b) / 2 for a, b in zip(moments, moments[1:])]
    # cuts in a gap, on a moment value, beyond either end, and unparseable
    cuts = gaps + moments + [moments[0] - 1, moments[-1] + Fraction(1, 3)]
    cut = draw(st.sampled_from([str(c) for c in cuts] + ["1" * 5000, "1/0"]))
    degree = draw(st.integers(0, 2 * m.n + 1))
    doc = draw(mutated(json.loads(manifold_to_json(m))))

    command = draw(st.sampled_from(
        ["validate", "pair", "kernel", "betti", "decompose", "bmatrix"]
    ))
    argv = [command, "--input", None, "--format", draw(st.sampled_from(["json", "md"]))]
    if command != "validate":
        argv += ["--cut", cut]
    if command in ("pair", "kernel", "decompose", "bmatrix"):
        # "all" is a usage error everywhere but kernel
        argv += ["--degree", draw(st.sampled_from(["all", str(degree)]))]
    if command == "kernel":
        argv += ["--method", draw(st.sampled_from(["both", "residue", "tw"]))]
    if command == "decompose":
        even = degree - degree % 2
        basis = basis_rows(m, even)
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                               max_size=len(basis)))
        scalars = [sum(c * row[j] for c, row in zip(coeffs, basis))
                   for j in range(len(m.fixed_points))]
        cls = {
            "degree": draw(st.sampled_from([degree, even])),
            "restrictions": {fp.name: str(s) for fp, s in zip(m.fixed_points, scalars)},
        }
        argv += ["--class-json", dump(draw(mutated(cls)))]
    return dump(doc), argv


def run_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error
                code = exc.code
    return code, out.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(job=fuzz_jobs())
def test_fuzzed_documents_get_documented_exit_codes(fuzz_dir, job):
    text, argv = job
    path = fuzz_dir / "input.json"
    path.write_text(text)
    argv = [str(path) if a is None else a for a in argv]
    first = run_quietly(argv)
    assert first[0] in {0, 2, 3, 4, 64}, first
    assert run_quietly(argv) == first
