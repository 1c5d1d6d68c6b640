"""Exact toolkit for flat pencils of contravariant metrics, Frobenius
structures built from them, and the associated first-order Poisson
brackets on loop spaces.

All arithmetic is exact over Q: scalars are quasi-polynomials (polynomials
in the coordinates and in declared exponentials of coordinates) or
quotients of such, and every geometric identity is certified by exact
normal-form comparison.
"""

from .errors import FlatPencilError, ParseError
from .exprparse import parse_expr, parse_rational
from .frobenius import FrobeniusData
from .geometry import Connection, ContraMetric, PencilData
from .identity import ZeroCertificate, is_zero_identity
from .qpoly import QPoly, RatFunc

__all__ = [
    "Connection",
    "ContraMetric",
    "FlatPencilError",
    "FrobeniusData",
    "ParseError",
    "PencilData",
    "QPoly",
    "RatFunc",
    "ZeroCertificate",
    "is_zero_identity",
    "parse_expr",
    "parse_rational",
]
