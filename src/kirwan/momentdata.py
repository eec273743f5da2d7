"""Localization data for a Hamiltonian circle action with isolated fixed
points: fixed points with rational moment values and nonzero integer isotropy
weights, plus restriction tables for the canonical basis classes.

The manifold itself is never represented; this combinatorial datum is all the
kernel computations need.  Conventions: the Morse function is the moment map
itself, the index of a fixed point is twice its count of negative weights, and
a cut level must avoid every moment value (the level set stays smooth).

Storage is positional: fixed points are sorted by (moment, name), and a
restriction table is a tuple of row tuples in that order, zeros included, so
alpha_minus[i][j] is the scalar of the downward class of point i at point j,
an int when integral, else a Fraction.  The integer form of alpha_minus, over
the lcm of its denominators, is derived from it on first use.  Names appear
only at the boundary: `load_manifold` reads the name-keyed tables in one pass
each, placing every entry by position, and ends, like the generators, in one
positional constructor; `manifold_to_json` writes the names back, straight from
the positional tables.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii

from .errors import (
    Frozen,
    NotRegularValue,
    ParseError,
    SchemaError,
    UnknownFixedPoint,
    ValidationError,
)
from .exactmath import rat, rat_str

__all__ = [
    "FixedPoint",
    "ManifoldData",
    "CutLevel",
    "morse_index",
    "negative_euler_scalar",
    "positive_euler_scalar",
    "split_fixed_points",
    "index_census",
    "load_manifold",
    "manifold_to_json",
    "to_json",
]

# positional table: one row per fixed point, one entry (int or Fraction) per fixed point
Table = tuple[tuple[int | Fraction, ...], ...]
# the same over a common denominator: (integer rows, den)
IntegerTable = tuple[tuple[tuple[int, ...], ...], int]


class FixedPoint(Frozen):
    """An isolated fixed point: name, moment value, and isotropy weights."""

    __slots__ = ("name", "moment", "weights")


class CutLevel(Frozen):
    """A reduction level; must differ from every fixed point's moment value."""

    __slots__ = ("c",)


def morse_index(fp: FixedPoint) -> int:
    """Twice the number of strictly negative weights (index of f = moment)."""
    return 2 * sum(1 for w in fp.weights if w < 0)


def negative_euler_scalar(fp: FixedPoint) -> int:
    """Product of the strictly negative weights; 1 at a local minimum."""
    return math.prod(w for w in fp.weights if w < 0)


def positive_euler_scalar(fp: FixedPoint) -> int:
    """Product of the strictly positive weights; 1 at a local maximum."""
    return math.prod(w for w in fp.weights if w > 0)


class ManifoldData(Frozen):
    """Validated localization datum, immutable: every operation in this
    package is a pure function of the loaded data.

    The tables are indexed by position in `fixed_points`: alpha_minus[i][j]
    is the restriction scalar of the downward class of point i at point j,
    moments[i] and morse_indices[i] are the moment and Morse index of point i,
    and euler_classes[i] the scalar of its tangent Euler class, the product of
    its weights (times X^n).  A table entry is an int when integral, else a
    Fraction.  The members derived from the fields live in `__dict__` and take
    no part in equality.
    """

    __slots__ = (
        "name", "n", "orientation_direction", "fixed_points", "alpha_minus", "alpha_plus",
        "__dict__",
    )

    def __init__(
        self,
        name: str,
        n: int,
        orientation_direction: int,
        fixed_points: tuple[FixedPoint, ...],
        alpha_minus: Table,
        alpha_plus: Table | None = None,
    ) -> None:
        fields = name, n, orientation_direction, fixed_points, alpha_minus, alpha_plus
        Frozen.__init__(self, *fields)
        self.__dict__.update(
            _position={fp.name: i for i, fp in enumerate(fixed_points)},
            moments=tuple(fp.moment for fp in fixed_points),
            morse_indices=tuple(morse_index(fp) for fp in fixed_points),
            euler_classes=tuple(math.prod(fp.weights) for fp in fixed_points),
        )

    @cached_property
    def integer_alpha_minus(self) -> IntegerTable:
        """(rows, den) with alpha_minus[i][j] = rows[i][j] / den: the table over
        the lcm of its denominators, derived on first use; (alpha_minus, 1) when
        it has no Fraction.  Rows enter the weighted Gram product and expand
        kernel bases; column j, sliced, is an evaluation constraint at j."""
        return _over_lcm(self.alpha_minus)

    def position(self, name: str) -> int:
        """Index of the named fixed point in `fixed_points` and in every table."""
        try:
            return self._position[name]
        except KeyError:
            raise UnknownFixedPoint(
                f"no fixed point named {name!r} on {self.name!r}"
            ) from None

    def alpha_minus_scalar(self, f: str, g: str) -> int | Fraction:
        """Restriction scalar of the downward class of f at g."""
        return self.alpha_minus[self.position(f)][self.position(g)]


def _over_lcm(table: Table) -> IntegerTable:
    """The table over the lcm of its denominators: a table of ints as it is."""
    if set().union(*(map(type, row) for row in table)) <= {int}:  # the scan runs in C
        return table, 1
    ratios = [[s.as_integer_ratio() for s in row] for row in table]  # one call per entry
    den = math.lcm(*{d for row in ratios for _, d in row})
    return tuple(tuple(a * (den // d) for a, d in row) for row in ratios), den


def index_census(m: ManifoldData) -> dict[int, int]:
    """How many fixed points have each Morse index."""
    census: dict[int, int] = {}
    for ind in m.morse_indices:
        census[ind] = census.get(ind, 0) + 1
    return dict(sorted(census.items()))


def split_fixed_points(
    m: ManifoldData, cut: CutLevel
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition the fixed-point positions into (above cut, below cut), each
    in fixed-point order."""
    moments = m.moments
    k = bisect_left(moments, cut.c)  # the points are sorted by moment
    if k < len(moments) and moments[k] == cut.c:
        raise NotRegularValue(
            f"cut {rat_str(cut.c)} equals the moment of fixed point {m.fixed_points[k].name!r}"
        )
    return tuple(range(k, len(moments))), tuple(range(k))


def _assemble(
    name: str, n: int, orientation_direction: int, points: tuple[FixedPoint, ...],
    alpha_minus: Table, alpha_plus: Table | None, *, validate_alpha: bool = True,
) -> ManifoldData:
    """The one constructor behind `load_manifold` and the generators, taking its
    pieces as they are: points sorted by (moment, name) and the tables as rows in that
    order, an entry an int when integral, else a Fraction.  Warns, naming the caller of
    load_manifold, when the census lacks a minimum or a maximum (generated data never
    does); then, unless validate_alpha is False, raises ValidationError on the first
    table violation."""
    m = ManifoldData(name, n, orientation_direction, points, alpha_minus, alpha_plus)
    census = index_census(m)
    if census.get(0, 0) < 1 or census.get(2 * n, 0) < 1:
        import warnings  # deferred: a closed-manifold datum never warns

        warnings.warn(
            f"index census of {name!r} has no "
            + ("minimum" if census.get(0, 0) < 1 else "maximum")
            + "; this is not a closed-manifold datum",
            stacklevel=3,
        )

    if validate_alpha:
        from .cohomology import validate_alpha_basis  # deferred: cohomology imports this module

        report = validate_alpha_basis(m)
        if not report.ok:
            raise ValidationError(report.violations[0])
    return m


# --- JSON schema -------------------------------------------------------------

_TOP_KEYS = {"name", "n", "orientation_direction", "fixed_points", "alpha_minus"}
_TOP_OPTIONAL = {"alpha_plus"}
_POINT_KEYS = {"name", "moment", "weights"}


def _schema_rat(value: object, where: str, *keys: str) -> int | Fraction:
    """A rational string as an int when integral, else a Fraction, or SchemaError at
    where[key]...  One int() reads a literal of ASCII digits and an optional "-"."""
    if isinstance(value, str):
        if value.isascii() and value.removeprefix("-").isdigit():
            try:
                return int(value)
            except ValueError:  # too long to convert: rat names the error
                pass
        try:
            q = rat(value)
            return q.numerator if q.denominator == 1 else q
        except ValueError as exc:
            problem = f": {exc}"
    else:
        problem = ' must be a rational string like "p/q"'
    raise SchemaError(where + "".join(f"[{k!r}]" for k in keys) + problem)


def _schema_int(value: object, where: str, *keys: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(where + "".join(f"[{k!r}]" for k in keys) + " must be an integer")
    return value


def _place(
    value: object, where: str, position: dict[str, int], size: int, unknown: list[str]
) -> Table:
    """One pass over a name-keyed table: read each entry with `_schema_rat`, a
    repeated string once, and place it by position.  A name without a position
    goes into unknown, unplaced."""
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be an object")
    rows = [[0] * size for _ in range(size)]
    parsed: dict[str, int | Fraction] = {}
    for f, row in value.items():
        if not isinstance(row, dict):
            raise SchemaError(f"{where}[{f!r}] must be an object")
        i = position.get(f)
        if i is None:
            unknown.append(f"{where} references unknown fixed point {f!r}")
        for g, s in row.items():
            q = parsed.get(s) if isinstance(s, str) else None
            if q is None:
                q = parsed[s] = _schema_rat(s, where, f, g)
            j = position.get(g)
            if j is None:
                unknown.append(f"{where}[{f!r}] references unknown fixed point {g!r}")
            elif i is not None:
                rows[i][j] = q
    return tuple(map(tuple, rows))


def _parse_json(text: str | bytes, what: str) -> object:
    """json.loads of text, with a ParseError "invalid <what>: ..." for what it
    cannot parse: JSONDecodeError, UnicodeDecodeError, an integer literal longer
    than the interpreter converts to int (4300 digits) and nesting too deep."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ParseError(f"invalid {what}: {exc}") from None
    except RecursionError:
        raise ParseError(f"invalid {what}: nested too deeply to parse") from None


def load_manifold(
    document: str | bytes | dict[str, object], *, validate_alpha: bool = True
) -> ManifoldData:
    """Parse, schema-check, and validate a manifold document.

    Accepts JSON text or an already-parsed JSON object (dict).  Raises
    ParseError for malformed JSON (bytes that are not UTF-8, nesting too deep
    to parse and integer literals too long to convert included), SchemaError
    for missing/extra/badly-typed fields, and ValidationError (naming the first
    violated invariant) for semantic problems, including restriction-table
    violations unless validate_alpha is False.  Schema errors come first,
    then the structural invariants, then unknown names in the tables.
    """
    obj = _parse_json(document, "JSON") if isinstance(document, (str, bytes)) else document
    if not isinstance(obj, dict):
        raise SchemaError("top-level document must be an object")

    keys = set(obj)
    missing = _TOP_KEYS - keys
    extra = keys - _TOP_KEYS - _TOP_OPTIONAL
    if missing:
        raise SchemaError(f"missing fields: {sorted(missing)}")
    if extra:
        raise SchemaError(f"unexpected fields: {sorted(extra)}")

    if not isinstance(obj["name"], str):
        raise SchemaError("name must be a string")
    n = _schema_int(obj["n"], "n")
    orientation = _schema_int(obj["orientation_direction"], "orientation_direction")
    if not isinstance(obj["fixed_points"], list):
        raise SchemaError("fixed_points must be a list")

    points: list[FixedPoint] = []
    for i, entry in enumerate(obj["fixed_points"]):
        where = f"fixed_points[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where} must be an object")
        if set(entry) != _POINT_KEYS:
            raise SchemaError(
                f"{where} must have exactly the fields name, moment, weights"
            )
        if not isinstance(entry["name"], str):
            raise SchemaError(f"{where}.name must be a string")
        # moments stay Fractions, so that a cut between two, (lo + hi) / 2, is exact
        moment = Fraction(_schema_rat(entry["moment"], f"{where}.moment"))
        weights = entry["weights"]
        if not isinstance(weights, list):
            raise SchemaError(f"{where}.weights must be a list of integers")
        if not {*map(type, weights)} <= {int}:  # one type test per list, then the culprit
            for j, w in enumerate(weights):
                _schema_int(w, f"{where}.weights", j)
        points.append(FixedPoint(entry["name"], moment, tuple(weights)))

    ordered = tuple(sorted(points, key=lambda fp: (fp.moment, fp.name)))
    position, size = {fp.name: i for i, fp in enumerate(ordered)}, len(ordered)
    unknown: list[str] = []
    placed = [
        _place(obj[label], label, position, size, unknown) if label in obj else None
        for label in ("alpha_minus", "alpha_plus")
    ]
    if n < 1:
        raise ValidationError("n must be a positive integer")
    if orientation not in (1, -1):
        raise ValidationError("orientation_direction must be 1 or -1")
    if not points:
        raise ValidationError("at least one fixed point is required")
    seen: set[str] = set()
    for fp in points:
        if not fp.name:
            raise ValidationError("fixed point names must be nonempty")
        if fp.name in seen:
            raise ValidationError(f"duplicate fixed point name {fp.name!r}")
        seen.add(fp.name)
        if len(fp.weights) != n:
            raise ValidationError(
                f"fixed point {fp.name!r} has {len(fp.weights)} weights, expected {n}"
            )
        if any(w == 0 for w in fp.weights):
            raise ValidationError(f"weights must be nonzero (fixed point {fp.name!r})")
    if unknown:
        raise ValidationError(unknown[0])
    return _assemble(obj["name"], n, orientation, ordered, *placed, validate_alpha=validate_alpha)


def manifold_to_json(m: ManifoldData) -> str:
    """Canonical JSON text, as `json.dumps(doc, indent=2)` writes it: fixed points
    sorted, each table keyed by name in fixed-point order with its zero entries
    omitted, numbers as rational strings but for n, the orientation and the
    weights; loading and re-emitting reproduces it byte for byte.  Written in one
    pass from the positional tables, each name escaped once."""
    names = [encode_basestring_ascii(fp.name) for fp in m.fixed_points]
    points = []
    for name, fp in zip(names, m.fixed_points):
        try:
            weights = ",\n        ".join(map(str, fp.weights))
        except ValueError:  # past the 4300 digits to which str() limits an int
            weights = ",\n        ".join(map(rat_str, fp.weights))
        points.append(
            f'\n    {{\n      "name": {name},\n      "moment": "{rat_str(fp.moment)}",'
            f'\n      "weights": [\n        {weights}\n      ]\n    }}'
        )
    parts = [
        f'{{\n  "name": {encode_basestring_ascii(m.name)},\n  "n": {m.n},'
        f'\n  "orientation_direction": {m.orientation_direction},'
        f'\n  "fixed_points": [{",".join(points)}\n  ]'
    ]
    cells = [f'\n      {name}: "' for name in names]
    for label, table in (("alpha_minus", m.alpha_minus), ("alpha_plus", m.alpha_plus)):
        if table is None:
            continue
        rows = []
        for name, row in zip(names, table):
            try:  # str() writes an int or a Fraction as rat_str does
                entries = [cell + str(s) for cell, s in zip(cells, row) if s]
            except ValueError:  # an entry past the 4300-digit limit
                entries = [cell + rat_str(s) for cell, s in zip(cells, row) if s]
            rows.append(
                f"\n    {name}: " + ("{" + '",'.join(entries) + '"\n    }' if entries else "{}")
            )
        parts.append(f',\n  "{label}": {{{",".join(rows)}\n  }}')
    parts.append("\n}\n")
    return "".join(parts)


def to_json(value: object) -> str:
    """The text `json.dumps` writes at indent=2 for the values documents and
    reports are made of: dicts with str keys, lists, tuples, str, int, bool
    and None.  Any other type or key raises TypeError.
    """
    parts: list[str] = []
    _write_json(value, "\n", parts)
    return "".join(parts)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_json(value: object, newline: str, parts: list[str]) -> None:
    """Append the text of value, indented as at the line break newline."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        parts.append(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        try:  # a list of strings, such as a row of rationals, in one join
            parts.append("[" + inner + ("," + inner).join(map(encode_basestring_ascii, value)))
        except TypeError:
            parts.append("[")
            for k, item in enumerate(value):
                parts.append("," + inner if k else inner)
                _write_json(item, inner, parts)
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        parts.append("{")
        for k, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(("," + inner if k else inner) + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, parts)
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
