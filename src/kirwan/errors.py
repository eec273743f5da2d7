"""Exception types raised across the package, and the base of its immutable
values.

Every exception derives from KirwanError so callers (and the CLI) can tell the
package's own failures apart from genuine bugs.
"""

from __future__ import annotations

import sys

__all__ = [
    "Frozen",
    "KirwanError",
    "ParseError",
    "SchemaError",
    "ValidationError",
    "NotRegularValue",
    "UnknownFixedPoint",
    "MissingAlphaPlus",
    "NotInImage",
    "NotInKernel",
    "InternalContradiction",
    "SpecError",
]


class KirwanError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(KirwanError):
    """Input document is not syntactically valid JSON."""


class SchemaError(KirwanError):
    """Input document does not match the manifold-data schema."""


class ValidationError(KirwanError):
    """Structurally well-formed data violates a semantic invariant."""


class NotRegularValue(KirwanError):
    """The cut level equals the moment value of some fixed point."""


class UnknownFixedPoint(KirwanError):
    """A fixed-point name does not belong to the manifold at hand."""


class MissingAlphaPlus(KirwanError):
    """The operation needs the upward restriction table, which this datum lacks."""


class NotInImage(KirwanError):
    """The class is not a combination of the canonical basis classes."""


class NotInKernel(KirwanError):
    """The class has a nonzero residue pairing, so it survives reduction."""


class InternalContradiction(KirwanError):
    """A step the theory guarantees has failed; the input data must be inconsistent."""


class SpecError(KirwanError):
    """Invalid generator specification."""


class Frozen:
    """Immutable value: its fields are the names in a subclass's `__slots__`
    (`__dict__`, where listed, holds derived members).  The constructor takes
    each field once, in `__slots__` order by position and then by keyword;
    a subclass that checks or derives more calls it from its own `__init__`.
    Values are equal when of the same class with equal fields."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        # the slots' own setters, which bypass the __setattr__ below
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, *values: object, **named: object) -> None:
        fields = self._fields
        if named:
            values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
        if named or len(values) != len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes each of the fields {', '.join(fields)} once"
            )
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return type(self), self._values()  # copy and pickle through __init__

    def __repr__(self) -> str:
        try:
            return f"{type(self).__name__}({', '.join(map(repr, self._values()))})"
        except ValueError:  # an int past the 4300 digits str() writes: lift that limit
            if not (limit := sys.get_int_max_str_digits()):  # no limit: not an int's error
                raise
            sys.set_int_max_str_digits(0)
            try:
                return repr(self)
            finally:
                sys.set_int_max_str_digits(limit)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__
