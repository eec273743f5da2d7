from __future__ import annotations

import json

import pytest

from kirwan.cli import main
from kirwan.generators import gen_cpn
from kirwan.momentdata import manifold_to_json


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
        ("list restrictions", 2),
        ("float degree", 2),
        ("bool degree", 2),
        ("non-UTF-8 input", 2),
        ("non-UTF-8 class file", 2),
        ("deeply nested input", 2),
        ("deeply nested class", 2),
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
    decompose = ["decompose", "--input", cp2_path, "--cut", "3/2", "--degree", "0"]
    argv, named = {
        "missing input": (["validate", "--input", missing], missing),
        "missing class file": ([*decompose, "--class-file", missing], missing),
        "unwritable out": (["generate", "cpn", "--lambda", "0,1", "--out", missing], missing),
        "float restriction": (
            [*decompose, "--class-json", '{"degree": 0, "restrictions": {"p0": 1.5}}'],
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
