"""Exception types raised by the opineq kernel.

Everything derives from OpineqError so callers can catch the whole
family with one clause.  Schema and request errors (bad JSON, unknown
check id) are separated from numerical errors (non-convergence, loss
of positivity) because the CLI maps them to different exit codes.
"""


class OpineqError(Exception):
    """Base class for all errors raised by this package."""


class NotSymmetric(OpineqError):
    """Input matrix is not symmetric within tolerance."""


class NotFinite(OpineqError, ValueError):
    """A matrix holds inf or nan: in the input, or where a power or
    product of finite operands overflowed."""


class NotPositiveDefinite(OpineqError):
    """A positive (semi)definite matrix was required and not supplied."""


class NoConvergence(OpineqError):
    """An eigenvalue computation failed to converge."""


class DimensionMismatch(OpineqError):
    """Operands have incompatible shapes."""


class ZeroParameter(OpineqError):
    """The parameter p must be nonzero for this operation."""


class DomainError(OpineqError):
    """A scalar argument is outside the domain of the formula."""


class NotDensity(OpineqError):
    """Matrix is not a density matrix (PSD with unit trace)."""


class UnnormalizedVector(OpineqError):
    """Vector argument must have unit Euclidean norm."""


class SingularDifference(OpineqError):
    """B - A is singular where invertibility is required."""


class ZeroMatrix(OpineqError):
    """A nonzero matrix was required."""


class InvalidSpec(OpineqError):
    """A map specification or sampler configuration is inconsistent."""


class UnknownCheck(OpineqError):
    """Requested check id is not in the registry."""


class SchemaError(OpineqError):
    """An instance file does not match the expected JSON schema."""
