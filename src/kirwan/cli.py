"""Command-line surface: validate data, compute pairings, kernels, Betti
tables, decompositions and upward-restriction diagnostics, and generate
example data.

Reports are byte-deterministic for identical inputs.  Exit codes: 0 success,
2 validation failure, 3 irregular cut level, 4 class outside the image or the
kernel, 64 usage error (including an unreadable input or class file and an
unwritable --out path).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .cohomology import make_class, validate_alpha_basis
from .errors import (
    KirwanError,
    MissingAlphaPlus,
    NotInImage,
    NotInKernel,
    NotRegularValue,
    ParseError,
    SchemaError,
    SpecError,
    UnknownFixedPoint,
    ValidationError,
)
from .exactmath import rat, rat_str
from .generators import gen_cpn, gen_sphere_product
from .kernels import (
    Sweep,
    b_matrix,
    bmatrix_to_dict,
    certificate_to_dict,
    decompose,
    kernels_equal,
    kernel_residue,
    kernel_tw,
    pairing_matrix,
    pairing_to_dict,
    report_to_dict,
)
from .momentdata import CutLevel, _schema_int, load_manifold, manifold_to_json

USAGE_EXIT = 64


class _FileError(Exception):
    """An input file that cannot be read or an --out path that cannot be written."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse only lets values starting with "-" through when they look
        # like negative numbers; widen that to rationals and comma lists
        # (-1/2, -2,0,3) so cuts below zero need no "=" form
        self._negative_number_matcher = re.compile(
            r"^-\d+(?:/\d+)?(?:,-?\d+(?:/\d+)?)*\Z"
        )

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _degree(text: str) -> int | None:
    if text == "all":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"degree must be an integer or 'all': {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("degree must be nonnegative")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="kirwan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def manifold_command(name: str, help_text: str, *, cut: bool, degree: str | None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="manifold JSON file")
        if cut:
            p.add_argument("--cut", required=True, type=_rational, help="cut level p/q")
        if degree == "required":
            p.add_argument("--degree", required=True, type=_degree)
        elif degree == "all":
            p.add_argument("--degree", default=None, type=_degree, help="even degree or 'all'")
        p.add_argument("--format", choices=("json", "md"), default="md")
        return p

    manifold_command("validate", "check a manifold document", cut=False, degree=None)
    manifold_command("pair", "pairing matrix in one degree", cut=True, degree="required")
    kernel = manifold_command("kernel", "kernel subspaces per degree", cut=True, degree="all")
    kernel.add_argument("--method", choices=("both", "residue", "tw"), default="both")
    manifold_command("betti", "Betti table of the reduced space", cut=True, degree=None)
    dec = manifold_command("decompose", "split a kernel class", cut=True, degree="required")
    group = dec.add_mutually_exclusive_group(required=True)
    group.add_argument("--class-file", help="JSON file with degree and restrictions")
    group.add_argument("--class-json", help="inline JSON class")
    manifold_command("bmatrix", "upward-restriction diagnostics", cut=True, degree="required")

    gen = sub.add_parser("generate", help="emit a built-in manifold datum")
    gen_sub = gen.add_subparsers(dest="family", required=True, parser_class=_Parser)
    cpn = gen_sub.add_parser("cpn", help="projective space")
    cpn.add_argument("--lambda", dest="lambdas", required=True, type=_int_list)
    cpn.add_argument("--out", default=None)
    spheres = gen_sub.add_parser("spheres", help="product of rotating two-spheres")
    spheres.add_argument("--w", dest="speeds", required=True, type=_int_list)
    spheres.add_argument("--out", default=None)
    return parser


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def _emit(report: dict, fmt: str, md_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(md_lines))


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _FileError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _load(path: str, *, validate_alpha: bool = True):
    return load_manifold(_read_file(path), validate_alpha=validate_alpha)


_DISAGREEMENT = [
    "DISAGREEMENT between the residue and vanishing-condition kernels:",
    "the input restriction tables are inconsistent",
]


def _even_degrees(n: int) -> list[int]:
    return list(range(0, 2 * n - 1, 2))


def _cmd_validate(args) -> int:
    try:
        m = _load(args.input, validate_alpha=False)
    except (ParseError, SchemaError, ValidationError) as exc:
        report = {"command": "validate", "ok": False, "violations": [str(exc)]}
        _emit(report, args.format, ["validation: FAILED", f"- {exc}"])
        return 2
    result = validate_alpha_basis(m)
    report = {
        "command": "validate",
        "manifold": m.name,
        "ok": result.ok,
        "violations": list(result.violations),
    }
    if result.ok:
        _emit(report, args.format, [f"validation of {m.name}: ok"])
        return 0
    _emit(
        report,
        args.format,
        [f"validation of {m.name}: FAILED"] + [f"- {v}" for v in result.violations],
    )
    return 2


def _cmd_pair(args) -> int:
    m = _load(args.input)
    pm = pairing_matrix(m, CutLevel(args.cut), args.degree)
    report = {"command": "pair", "manifold": m.name} | pairing_to_dict(pm)
    headers = ["pairing"] + [f"{name} (deg {2 * m.n - 2 - args.degree})" for name in pm.col_labels]
    rows = [
        [pm.row_labels[i]] + [rat_str(e) for e in pm.matrix.row(i)]
        for i in range(pm.matrix.rows)
    ]
    md = [
        f"pairing matrix of {m.name} at cut {args.cut}, degree {args.degree}",
        _md_table(headers, rows) if rows else "(empty row basis)",
        f"convention: {report['convention']}",
    ]
    _emit(report, args.format, md)
    return 0


def _cmd_kernel(args) -> int:
    m = _load(args.input)
    cut = CutLevel(args.cut)
    degrees = _even_degrees(m.n) if args.degree is None else [args.degree]
    sweep = Sweep(m, cut)
    entries = []
    reports = []
    for d in degrees:
        if args.method == "residue":
            sub = kernel_residue(m, cut, d, sweep)
            entries.append(
                {
                    "degree": d,
                    "kernel_dim": sub.dim,
                    "betti": len(sub.labels) - sub.dim,
                }
            )
        elif args.method == "tw":
            tw_plus, tw_minus, tw_sum = kernel_tw(m, cut, d, sweep)
            entries.append(
                {
                    "degree": d,
                    "tw_plus_dim": tw_plus.dim,
                    "tw_minus_dim": tw_minus.dim,
                    "kernel_dim": tw_sum.dim,
                    "betti": len(tw_sum.labels) - tw_sum.dim,
                }
            )
        else:
            reports.append(kernels_equal(m, cut, d, sweep))
    if args.format == "json":
        # only the JSON report expands the subspaces to restriction rows
        entries.extend(report_to_dict(m, rep) for rep in reports)
    disagreement = not all(rep.equal for rep in reports)
    report = {
        "command": "kernel",
        "manifold": m.name,
        "cut": str(args.cut),
        "method": args.method,
        "degrees": entries,
        "note": "degrees above 2n-2 are entirely kernel (betti 0)",
    }
    headers = ["degree", "basis", "kernel", "betti"]
    if args.method == "both":
        headers = ["degree", "basis", "residue kernel", "tw sum", "equal", "betti"]
        rows = [
            [
                str(rep.degree),
                str(len(rep.residue_kernel.labels)),
                str(rep.residue_kernel.dim),
                str(rep.tw_sum.dim),
                "yes" if rep.equal else "NO",
                str(rep.betti),
            ]
            for rep in reports
        ]
    else:
        rows = [
            [
                str(e["degree"]),
                str(e["kernel_dim"] + e["betti"]),
                str(e["kernel_dim"]),
                str(e["betti"]),
            ]
            for e in entries
        ]
    md = [
        f"kernel of {m.name} at cut {args.cut} (method: {args.method})",
        _md_table(headers, rows),
        report["note"],
    ]
    if disagreement:
        md.extend(_DISAGREEMENT)
    _emit(report, args.format, md)
    return 2 if disagreement else 0


def _cmd_betti(args) -> int:
    m = _load(args.input)
    cut = CutLevel(args.cut)
    sweep = Sweep(m, cut)
    reports = [kernels_equal(m, cut, d, sweep) for d in _even_degrees(m.n)]
    table = [(rep.degree, rep.betti) for rep in reports]
    disagreement = not all(rep.equal for rep in reports)
    dual = all(
        b == dict(table)[2 * m.n - 2 - d] for d, b in table
    )
    report = {
        "command": "betti",
        "manifold": m.name,
        "cut": str(args.cut),
        "betti": {str(d): b for d, b in table},
        "poincare_dual": dual,
    }
    md = [
        f"Betti numbers of the reduction of {m.name} at {args.cut}",
        _md_table(["degree", "betti"], [[str(d), str(b)] for d, b in table]),
        f"Poincare duality: {'ok' if dual else 'VIOLATED'}",
    ]
    if disagreement:
        md.extend(_DISAGREEMENT)
    _emit(report, args.format, md)
    return 2 if disagreement else 0


def _read_class(m, args):
    if args.class_file is not None:
        text = _read_file(args.class_file)
    else:
        text = args.class_json
    try:
        obj = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, and an integer literal longer than the interpreter
        # converts to int (4300 digits)
        raise ParseError(f"invalid class JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid class JSON: nested too deeply to parse") from None
    if not isinstance(obj, dict) or set(obj) != {"degree", "restrictions"}:
        raise SchemaError("class document needs exactly: degree, restrictions")
    _schema_int(obj["degree"], "class degree")
    if obj["degree"] != args.degree:
        raise ValidationError(
            f"--degree {args.degree} disagrees with the class degree {obj['degree']}"
        )
    if not isinstance(obj["restrictions"], dict):
        raise SchemaError("class restrictions must be an object")
    scalars = {}
    for name, value in obj["restrictions"].items():
        try:
            scalars[name] = rat(value)
        except (TypeError, ValueError):
            raise SchemaError(
                f'class restrictions[{name!r}] must be a rational string like "p/q"'
            ) from None
    return make_class(m, obj["degree"], scalars)


def _cmd_decompose(args) -> int:
    m = _load(args.input)
    eta = _read_class(m, args)
    cert = decompose(m, eta, CutLevel(args.cut))
    report = {"command": "decompose", "manifold": m.name} | certificate_to_dict(m, cert)
    md = [
        f"decomposition on {m.name} at cut {args.cut}, degree {eta.degree}",
        _md_table(
            ["point", "coefficient"],
            [[k, v] for k, v in report["coefficients"].items()],
        ),
        _md_table(
            ["point", "correction"],
            [[k, v] for k, v in report["corrections"].items()],
        )
        if report["corrections"]
        else "corrections: none needed",
        "minus part (vanishes above the cut): "
        + json.dumps(report["eta_minus"]["restrictions"]),
        "plus part (vanishes below the cut): "
        + json.dumps(report["eta_plus"]["restrictions"]),
    ]
    _emit(report, args.format, md)
    return 0


def _cmd_bmatrix(args) -> int:
    m = _load(args.input)
    rep = b_matrix(m, CutLevel(args.cut), args.degree)
    report = {"command": "bmatrix", "manifold": m.name} | bmatrix_to_dict(rep)
    rows = [
        [rep.labels[i]] + [rat_str(e) for e in rep.matrix.row(i)]
        for i in range(rep.matrix.rows)
    ]
    md = [
        f"upward-restriction matrix of {m.name} at cut {args.cut}, degree {args.degree}",
        _md_table(["point"] + list(rep.labels), rows) if rows else "(empty index set)",
        f"upper triangular: {'yes' if rep.upper_triangular else 'NO'}; "
        f"diagonal nonzero: {'yes' if rep.diagonal_nonzero else 'NO'}",
    ]
    _emit(report, args.format, md)
    return 0 if rep.ok else 2


def _cmd_generate(args) -> int:
    if args.family == "cpn":
        m = gen_cpn(args.lambdas)
    else:
        m = gen_sphere_product(args.speeds)
    text = manifold_to_json(m)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise _FileError(f"cannot write {args.out}: {exc.strerror or exc}") from None
        print(f"wrote {m.name} to {args.out}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "pair": _cmd_pair,
    "kernel": _cmd_kernel,
    "betti": _cmd_betti,
    "decompose": _cmd_decompose,
    "bmatrix": _cmd_bmatrix,
    "generate": _cmd_generate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, SchemaError, ValidationError, UnknownFixedPoint,
            MissingAlphaPlus, SpecError) as exc:
        print(f"error: {exc}")
        return 2
    except NotRegularValue as exc:
        print(f"error: {exc}")
        return 3
    except _FileError as exc:
        print(f"error: {exc}")
        return USAGE_EXIT
    except (NotInImage, NotInKernel) as exc:
        print(f"error: {exc}")
        return 4
    except KirwanError as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
