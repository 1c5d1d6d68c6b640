"""Certificate and report containers shared by the certification pipelines."""

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


def residual_certificate(name: str, residuals) -> Certificate:
    """PASS when every value of the ``(label, value)`` pairs vanishes, else
    FAIL at the first nonzero one, its label prefixed to the witness."""
    for label, value in residuals:
        cert = is_zero_identity(value)
        if not cert.zero:
            witness = f"{label}: {cert.witness}" if label else cert.witness
            return Certificate(name, FAIL, witness=witness)
    return Certificate(name, PASS)


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
