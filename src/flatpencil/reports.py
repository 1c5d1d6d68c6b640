"""Certificate and report containers shared by the certification pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field

from .identity import is_zero_identity

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class Certificate:
    """Outcome of one named identity check."""

    name: str
    status: str
    witness: str | None = None

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


@dataclass
class Report:
    """A bundle of certificates produced by one operation."""

    certificates: list[Certificate] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.certificates)

    def add(self, cert: Certificate) -> None:
        self.certificates.append(cert)

    def failures(self) -> list[Certificate]:
        return [c for c in self.certificates if c.status == FAIL]

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
