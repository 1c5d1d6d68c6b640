"""Certified zero-testing for exact scalars.

Quasi-polynomials are kept in normal form, and a fraction vanishes iff its
numerator does, so a scalar vanishes identically iff that normal form is
zero; the comparison is a proof.
"""

from __future__ import annotations

from .qpoly import QPoly, RatFunc


class ZeroCertificate:
    def __init__(self, zero: bool, witness: str | None = None):
        self.zero = zero
        self.witness = witness


def is_zero_identity(value: QPoly | RatFunc) -> ZeroCertificate:
    """Decide whether a scalar vanishes identically.

    A scalar vanishes iff its numerator does: a QPoly is its own numerator,
    and a RatFunc's denominator is nonzero by the type invariant.
    """
    num = value.num
    if num.is_zero():
        return ZeroCertificate(True)
    return ZeroCertificate(False, witness=f"nonzero normal form: {num}")
