"""Command-line surface: validate data, compute pairings, kernels, Betti
tables, decompositions and upward-restriction diagnostics, and generate
example data.

Reports are byte-deterministic for identical inputs.  Exit codes: 0 success,
2 validation failure, 3 irregular cut level, 4 class outside the image or the
kernel, 64 usage error (including an unreadable input or class file and an
unwritable --out path).  A usage error writes the usage line and
"kirwan <command>: error: ..." to stderr; -h/--help writes usage to stdout.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from .cohomology import make_class, validate_alpha_basis
from .errors import (
    KirwanError,
    NotInImage,
    NotInKernel,
    NotRegularValue,
    ParseError,
    SchemaError,
    ValidationError,
)
from .exactmath import rat
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
    reports_to_json,
)
from .momentdata import (
    CutLevel, _parse_json, _schema_int, load_manifold, manifold_to_json, to_json,
)

USAGE_EXIT = 64


class _FileError(Exception):
    """An input file that cannot be read or an --out path that cannot be written."""


# The command line is read as kirwan 0.6.0's argparse parser read it, from
# the table _COMMANDS at the end of this module: command -> (handler,
# options), where options is a table of subcommands or a list of (flag, dest,
# convert, default).  convert is a function or a tuple of choices; default may
# be _REQUIRED, or _ONE_OF for options of which exactly one must be given.
_REQUIRED, _ONE_OF = object(), object()
_HELP = {"-h": None, "--help": None}
# a word starting with "-" is a value only when it looks like a negative
# rational or comma list (-1/2, -2,0,3), so cuts below zero need no "=" form
_NEGATIVE = re.compile(r"^-[0-9]+(?:/[0-9]+)?(?:,-?[0-9]+(?:/[0-9]+)?)*\Z")
# int() also reads other scripts' digits, "_" between digits and blanks around them
_INTEGER = re.compile(r"-?[0-9]+\Z")


def _integer(text: str) -> int:
    if not _INTEGER.match(text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def _int_list(text: str) -> list[int]:
    return [_integer(part) for part in text.split(",")]


def _degree(text: str) -> int:
    if text == "all":
        raise ValueError("only kernel reads --degree all")
    if (value := _integer(text)) < 0:
        raise ValueError(f"degree must be nonnegative: {text!r}")
    return value


def _usage(prog: str, options) -> str:
    if isinstance(options, dict):
        return f"usage: {prog} [-h] {{{','.join(options)}}} ...\n"
    words = ["usage:", prog, "[-h]"]
    for flag, dest, convert, default in options:
        meta = "{" + ",".join(convert) + "}" if isinstance(convert, tuple) else dest.upper()
        word = f"{flag} {meta}"
        words.append({_REQUIRED: word, _ONE_OF: f"({word})"}.get(default, f"[{word}]"))
    return " ".join(words).replace(") (", " | ") + "\n"  # (a | b) for the _ONE_OF options


def _invalid(word: str, choices) -> str:
    return f"invalid choice: {word!r} (choose from {', '.join(map(repr, choices))})"


def _fail(prog: str, options, message: str):
    sys.stderr.write(f"{_usage(prog, options)}{prog}: error: {message}\n")
    raise SystemExit(USAGE_EXIT)


def _help(prog: str, options, doc: str | None, flag: str, text: str | None):
    # as in argparse, -hh is -h -h, and any other text given to -h is an error
    if text is not None and not (flag == "-h" and text and not text.strip("h")):
        _fail(prog, options, f"argument -h/--help: ignored explicit argument {text!r}")
    lines = [_usage(prog, options), doc or ""]
    if options is _COMMANDS:
        lines += ["commands:"] + [f"  {name:<10} {h.__doc__}" for name, (h, _) in options.items()]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _option(word: str, flags: dict, prog: str, options):
    """(flag, text after "=" or None) when word names an option in flags,
    (None, word) when it is an unknown option, None when it is a value."""
    if word[:1] != "-" or word == "-":
        return None
    if word in flags:
        return word, None
    name, eq, text = word.partition("=")
    if eq and name in flags:
        return name, text
    if word[1] == "-":  # a --flag may be shortened to any unique prefix
        found = [flag for flag in flags if flag.startswith(name)]
        if len(found) > 1:
            _fail(prog, options, f"ambiguous option: {word} could match {', '.join(found)}")
        if found:
            return found[0], text if eq else None
    elif word[:2] == "-h":
        return "-h", word[2:]
    return None if _NEGATIVE.match(word) or " " in word else (None, word)


def _parse(argv: list[str]):
    """The handler and the values that argv asks for; SystemExit(64) on a
    usage error, SystemExit(0) after -h/--help."""
    prog, options, doc, words = "kirwan", _COMMANDS, __doc__, list(argv)
    values, extras = {}, []
    while isinstance(options, dict):  # the command, then the family of generate
        dest, k = "family" if values else "command", 0
        while k < len(words) and words[k] != "--":
            kind = _option(words[k], _HELP, prog, options)
            if not kind:
                break
            if kind[0]:
                _help(prog, options, doc, *kind)
            k += 1
        if k == len(words):
            _fail(prog, options, f"the following arguments are required: {dest}")
        if words[k] not in options:
            _fail(prog, options, f"argument {dest}: {_invalid(words[k], options)}")
        values[dest], prog, (handler, options) = words[k], f"{prog} {words[k]}", options[words[k]]
        words, extras, doc = words[k + 1:], extras + words[:k], handler.__doc__
    flags = _HELP | {option[0]: option for option in options}
    end = words.index("--") if "--" in words else len(words)
    words, extras = words[:end], extras + words[end:]  # "--" and what follows are left over
    kinds = [_option(word, flags, prog, options) for word in words]  # all before any value
    values |= {dest: None if o in (_REQUIRED, _ONE_OF) else o for _, dest, _, o in options}
    chosen, i = None, 0
    while i < len(words):
        kind, i = kinds[i], i + 1
        if not kind or not kind[0]:
            extras.append(words[i - 1])
            continue
        flag, text = kind
        if flags[flag] is None:
            _help(prog, options, doc, flag, text)
        _, dest, convert, default = flags[flag]
        if text is None:
            if i == len(words) or kinds[i]:
                _fail(prog, options, f"argument {flag}: expected one argument")
            text, i = words[i], i + 1
        try:
            if isinstance(convert, tuple) and text not in convert:
                raise ValueError(_invalid(text, convert))
            values[dest] = text if isinstance(convert, tuple) else convert(text)
        except (ValueError, TypeError) as exc:
            _fail(prog, options, f"argument {flag}: {exc}")
        if default is _ONE_OF:
            if chosen not in (None, flag):
                _fail(prog, options, f"argument {flag}: not allowed with argument {chosen}")
            chosen = flag
    missing = [f for f, d, _, o in options if o is _REQUIRED and values[d] is None]
    if missing:
        _fail(prog, options, f"the following arguments are required: {', '.join(missing)}")
    one_of = [f for f, _, _, o in options if o is _ONE_OF]
    if one_of and chosen is None:
        _fail(prog, options, f"one of the arguments {' '.join(one_of)} is required")
    if extras:
        _fail(prog, options, f"unrecognized arguments: {' '.join(extras)}")
    return handler, SimpleNamespace(**values)


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
        print(to_json(report))
    else:
        print("\n".join(md_lines))


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
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


def _degrees_down(n: int) -> list[int]:
    """The even degrees 2n-2, ..., 0: a sweep visits them from the top down, so
    a kernel that is zero spares every lower degree its elimination (`Sweep`);
    reports list them upward."""
    return list(range(2 * n - 2, -1, -2))


def _cmd_validate(args) -> int:
    """check a manifold document"""
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
    md = [f"validation of {m.name}: {'ok' if result.ok else 'FAILED'}"]
    _emit(report, args.format, md + [f"- {v}" for v in result.violations])
    return 0 if result.ok else 2


def _cmd_pair(args) -> int:
    """pairing matrix in one degree"""
    m = _load(args.input)
    pm = pairing_matrix(m, CutLevel(args.cut), args.degree)
    report = {"command": "pair", "manifold": m.name} | pairing_to_dict(pm)
    headers = ["pairing"] + [f"{name} (deg {2 * m.n - 2 - args.degree})" for name in pm.col_labels]
    rows = [[name, *row] for name, row in zip(pm.row_labels, report["entries"])]
    md = [
        f"pairing matrix of {m.name} at cut {args.cut}, degree {args.degree}",
        _md_table(headers, rows) if rows else "(empty row basis)",
        f"convention: {report['convention']}",
    ]
    _emit(report, args.format, md)
    return 0


def _cmd_kernel(args) -> int:
    """kernel subspaces per degree ('all' by default)"""
    m = _load(args.input)
    cut = CutLevel(args.cut)
    degrees = _degrees_down(m.n) if args.degree is None else [args.degree]
    sweep = Sweep(m, cut)
    entries = []
    reports = []
    for d in degrees:
        if args.method == "residue":
            sub = kernel_residue(m, cut, d, sweep)
            entries.append({"degree": d, "kernel_dim": sub.dim,
                            "betti": len(sub.labels) - sub.dim})
        elif args.method == "tw":
            tw_plus, tw_minus, tw_sum = kernel_tw(m, cut, d, sweep)
            entries.append({"degree": d, "tw_plus_dim": tw_plus.dim, "tw_minus_dim": tw_minus.dim,
                            "kernel_dim": tw_sum.dim, "betti": len(tw_sum.labels) - tw_sum.dim})
        else:
            reports.append(kernels_equal(m, cut, d, sweep))
    entries.reverse()
    reports.reverse()
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
            [str(rep.degree), str(len(rep.residue_kernel.labels)), str(rep.residue_kernel.dim),
             str(rep.tw_sum.dim), "yes" if rep.equal else "NO", str(rep.betti)]
            for rep in reports
        ]
    else:
        rows = [
            [str(e["degree"]), str(e["kernel_dim"] + e["betti"]),
             str(e["kernel_dim"]), str(e["betti"])]
            for e in entries
        ]
    md = [
        f"kernel of {m.name} at cut {args.cut} (method: {args.method})",
        _md_table(headers, rows),
        report["note"],
    ]
    if disagreement:
        md.extend(_DISAGREEMENT)
    if args.format == "json" and reports:
        # only the JSON report expands the subspaces, written as text in its "degrees"
        head, _, tail = to_json(report).partition('"degrees": []')
        print(f'{head}"degrees": {reports_to_json(m, reports)}{tail}')
    else:
        _emit(report, args.format, md)
    return 2 if disagreement else 0


def _cmd_betti(args) -> int:
    """Betti table of the reduced space"""
    m = _load(args.input)
    cut = CutLevel(args.cut)
    sweep = Sweep(m, cut)
    reports = [kernels_equal(m, cut, d, sweep) for d in _degrees_down(m.n)][::-1]
    table = [(rep.degree, rep.betti) for rep in reports]
    disagreement = not all(rep.equal for rep in reports)
    dual = all(b == dict(table)[2 * m.n - 2 - d] for d, b in table)
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
    text = args.class_json if args.class_file is None else _read_file(args.class_file)
    obj = _parse_json(text, "class JSON")
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
            if not isinstance(value, str):  # rat would read a bare JSON number
                raise TypeError
            scalars[name] = rat(value)
        except (TypeError, ValueError):
            raise SchemaError(
                f'class restrictions[{name!r}] must be a rational string like "p/q"'
            ) from None
    return make_class(m, obj["degree"], scalars)


def _cmd_decompose(args) -> int:
    """split a kernel class"""
    m = _load(args.input)
    eta = _read_class(m, args)
    cert = decompose(m, eta, CutLevel(args.cut))
    report = {"command": "decompose", "manifold": m.name} | certificate_to_dict(m, cert)
    md = [
        f"decomposition on {m.name} at cut {args.cut}, degree {eta.degree}",
        _md_table(["point", "coefficient"], [[k, v] for k, v in report["coefficients"].items()]),
        _md_table(["point", "correction"], [[k, v] for k, v in report["corrections"].items()])
        if report["corrections"] else "corrections: none needed",
        "minus part (vanishes above the cut): " + json.dumps(report["eta_minus"]["restrictions"]),
        "plus part (vanishes below the cut): " + json.dumps(report["eta_plus"]["restrictions"]),
    ]
    _emit(report, args.format, md)
    return 0


def _cmd_bmatrix(args) -> int:
    """upward-restriction diagnostics"""
    m = _load(args.input)
    rep = b_matrix(m, CutLevel(args.cut), args.degree)
    report = {"command": "bmatrix", "manifold": m.name} | bmatrix_to_dict(rep)
    rows = [[name, *row] for name, row in zip(rep.labels, report["rows"])]
    md = [
        f"upward-restriction matrix of {m.name} at cut {args.cut}, degree {args.degree}",
        _md_table(["point"] + list(rep.labels), rows) if rows else "(empty index set)",
        f"upper triangular: {'yes' if rep.upper_triangular else 'NO'}; "
        f"diagonal nonzero: {'yes' if rep.diagonal_nonzero else 'NO'}",
    ]
    _emit(report, args.format, md)
    return 0 if rep.ok else 2


def _cmd_generate(args) -> int:
    """emit a built-in datum: cpn (projective space) or spheres (two-sphere product)"""
    if args.family == "cpn":
        m = gen_cpn(args.lambdas)
    else:
        m = gen_sphere_product(args.speeds)
    text = manifold_to_json(m)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as exc:
            raise _FileError(f"cannot write {args.out}: {exc.strerror or exc}") from None
        print(f"wrote {m.name} to {args.out}")
    return 0


_INPUT = ("--input", "input", str, _REQUIRED)
_CUT = ("--cut", "cut", rat, _REQUIRED)
_DEGREE = ("--degree", "degree", _degree, _REQUIRED)
_FORMAT = ("--format", "format", ("json", "md"), "md")
_OUT = ("--out", "out", str, None)
_COMMANDS = {  # see _parse
    "validate": (_cmd_validate, [_INPUT, _FORMAT]),
    "pair": (_cmd_pair, [_INPUT, _CUT, _DEGREE, _FORMAT]),
    "kernel": (_cmd_kernel, [
        _INPUT, _CUT, ("--degree", "degree", lambda t: None if t == "all" else _degree(t), None),
        _FORMAT, ("--method", "method", ("both", "residue", "tw"), "both"),
    ]),
    "betti": (_cmd_betti, [_INPUT, _CUT, _FORMAT]),
    "decompose": (_cmd_decompose, [
        _INPUT, _CUT, _DEGREE, _FORMAT,
        ("--class-file", "class_file", str, _ONE_OF), ("--class-json", "class_json", str, _ONE_OF),
    ]),
    "bmatrix": (_cmd_bmatrix, [_INPUT, _CUT, _DEGREE, _FORMAT]),
    "generate": (_cmd_generate, {
        "cpn": (_cmd_generate, [("--lambda", "lambdas", _int_list, _REQUIRED), _OUT]),
        "spheres": (_cmd_generate, [("--w", "speeds", _int_list, _REQUIRED), _OUT]),
    }),
}


def main(argv: list[str] | None = None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except (KirwanError, _FileError) as exc:
        print(f"error: {exc}")
        codes = {NotRegularValue: 3, NotInImage: 4, NotInKernel: 4, _FileError: USAGE_EXIT}
        return codes.get(type(exc), 2)  # 2 for every other KirwanError


if __name__ == "__main__":
    sys.exit(main())
