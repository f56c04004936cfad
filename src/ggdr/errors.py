"""Exception hierarchy shared across the package.

Three families matter to callers: validation errors (bad shapes, bad
parameters), numerical errors (rank loss, singular matrices), and data-format
errors (unreadable or malformed files). The CLI maps them to exit codes.
"""


class GgdrError(Exception):
    """Base class for all package errors."""


class ValidationError(GgdrError):
    """Invalid argument: wrong shape, inconsistent or out-of-range parameters."""


class NumericalError(GgdrError):
    """Computation cannot proceed: rank deficiency, singular matrix."""


class DataFormatError(GgdrError):
    """Malformed dataset directory, manifest, or matrix file."""


class DimensionMismatch(ValidationError):
    pass


class InvalidShape(ValidationError):
    pass


class NotSquare(ValidationError):
    pass


class InvalidK(ValidationError):
    pass


class DegenerateClass(ValidationError):
    pass


class EmptyTrainingSet(ValidationError):
    pass


class RankDeficient(NumericalError):
    pass


class SingularR(NumericalError):
    pass


class NumericalHealthWarning(UserWarning):
    """Emitted when a guarded roundoff condition is absorbed (not fatal)."""
