"""Exception types raised across the package.

Everything derives from KirwanError so callers (and the CLI) can tell the
package's own failures apart from genuine bugs.
"""

from __future__ import annotations

__all__ = [
    "KirwanError",
    "SingularDiagonal",
    "NotTriangular",
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


class SingularDiagonal(KirwanError):
    """Triangular solve hit a zero diagonal entry."""


class NotTriangular(KirwanError):
    """Matrix handed to the triangular solver has a nonzero entry below the diagonal."""


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
