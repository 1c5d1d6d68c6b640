"""Certificates and reports; every certificate is formed here.

A certificate is a verdict on one named claim: :func:`verdict` for a claim
decided by a boolean, :func:`residual_certificate` for a sequence of
labelled residuals, each of which must vanish identically, and
:func:`tensor_certificate` for a tensor identity lhs = rhs checked entry by
entry in index order.
"""

from __future__ import annotations

from .identity import is_zero_identity

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class Certificate:
    """Outcome of one named identity check; equal to another with the same
    name, status and witness."""

    def __init__(self, name: str, status: str, witness: str | None = None):
        self.name = name
        self.status = status
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.status, self.witness) == (other.name, other.status, other.witness)

    @property
    def passed(self) -> bool:
        return self.status == PASS


def verdict(name: str, ok: bool, witness: str | None = None) -> Certificate:
    """PASS when ``ok``, else FAIL with ``witness``."""
    return Certificate(name, PASS) if ok else Certificate(name, FAIL, witness)


def residual_certificate(name: str, residuals) -> Certificate:
    """PASS when every value of the ``(label, value)`` pairs vanishes, else
    FAIL at the first nonzero one, its label prefixed to the witness."""
    for label, value in residuals:
        cert = is_zero_identity(value)
        if not cert.zero:
            witness = f"{label}: {cert.witness}" if label else cert.witness
            return Certificate(name, FAIL, witness=witness)
    return Certificate(name, PASS)


def tensor_certificate(name: str, lhs, rhs=None) -> Certificate:
    """:func:`residual_certificate` of lhs - rhs, or of lhs alone when rhs
    is None, for two tensors given as nested lists of one shape; the
    entries are walked in index order and labelled ``entry (i,j,...)``."""
    return residual_certificate(name, _tensor_residuals(lhs, rhs, ()))


def _tensor_residuals(lhs, rhs, idx: tuple[int, ...]):
    if not isinstance(lhs, list):
        yield f"entry {index_label(idx)}", lhs if rhs is None else lhs - rhs
        return
    for i, sub in enumerate(lhs):
        yield from _tensor_residuals(sub, None if rhs is None else rhs[i], idx + (i,))


def index_label(idx: tuple[int, ...]) -> str:
    """A 0-based index tuple written 1-based, as ``(i,j,...)``."""
    return "(" + ",".join(str(i + 1) for i in idx) + ")"


def skipped(name: str, reason: str) -> Certificate:
    return Certificate(name, SKIPPED, witness=reason)


class Report:
    """A bundle of certificates produced by one operation."""

    def __init__(self, certificates: list[Certificate] | None = None):
        self.certificates = [] if certificates is None else certificates

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.certificates)

    def add(self, cert: Certificate) -> None:
        self.certificates.append(cert)

    def extend(self, certs) -> None:
        self.certificates.extend(certs)

    def find(self, name: str) -> Certificate:
        for c in self.certificates:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.certificates:
            line = f"[{c.status.upper():>7}] {c.name}"
            if c.witness:
                line += f"  -- {c.witness}"
            lines.append(line)
        return "\n".join(lines)
