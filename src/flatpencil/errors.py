"""Exception hierarchy for the toolkit.

Certification *failures* (an identity that does not hold for the given input)
are reported through certificate objects, not exceptions.  Exceptions are for
inputs that violate an operation's preconditions, for malformed files, and
for internal consistency guards that should never fire on correct code.
"""


class FlatPencilError(Exception):
    """Base class for all toolkit errors."""


class ParseError(FlatPencilError):
    """Malformed expression; carries 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class InputFormatError(FlatPencilError):
    """Malformed or non-conforming JSON input file."""


class OutOfRingError(FlatPencilError):
    """Requested value cannot be represented as an exact quasi-polynomial."""


class RingBoundError(OutOfRingError):
    """A coordinate power or an exp rate exceeds its bound: the input is
    too large."""


class NoSolutionError(FlatPencilError):
    """Linear system is inconsistent."""


class UnderdeterminedError(FlatPencilError):
    """Linear system has rank smaller than the number of unknowns."""


class SingularMetricError(FlatPencilError):
    """Metric determinant is identically zero."""


class InternalCheckError(FlatPencilError):
    """A redundant internal verification failed; indicates a bug, not bad input."""


class UnityViolationError(FlatPencilError):
    """Multiplication by the unity field does not reproduce the flat metric."""


class AssociativityError(FlatPencilError):
    """The associativity (WDVV) equations fail for the potential."""


class CommutativityError(FlatPencilError):
    """Reconstructed multiplication is not commutative (invalid input pencil)."""


class NotQuasihomogeneousError(FlatPencilError):
    """Euler scaling of the potential leaves a residual of degree > 2."""


class DegreeInferenceError(FlatPencilError):
    """No constant rational scaling degree fits the metric's Euler scaling."""


class NotFlatCoordinatesError(FlatPencilError):
    """Operation requires the second metric to be constant in these coordinates."""


class NonlinearEulerError(FlatPencilError):
    """Euler field has non-constant Jacobian (fails the affine-linearity test)."""


class TauHessianError(FlatPencilError):
    """The scaling potential has a non-vanishing Hessian in flat coordinates."""


class NormalizationError(FlatPencilError):
    """No admissible affine change of flat coordinates exists."""


class KernelError(FlatPencilError):
    """Degenerate-R construction is inapplicable (wrong kernel shape)."""


class IntegrabilityError(FlatPencilError):
    """Symmetry of mixed partial derivatives fails; no potential exists."""


class NotFlatError(FlatPencilError):
    """Metric has non-vanishing curvature; carries a witness entry."""


class DEqualsOneError(FlatPencilError):
    """Operation is undefined at scaling degree d = 1."""


class RewriteError(FlatPencilError):
    """Polynomial could not be rewritten in the invariant generators."""


class GradingError(FlatPencilError):
    """A graded linear solve for flat generators was inconsistent."""
