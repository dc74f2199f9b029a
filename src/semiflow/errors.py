"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: resource limits exit 2, numerical
failures exit 3, and every other error (parse, validation, invalid
argument, domain) exits 1.
"""


class SemiflowError(Exception):
    """Base class for all package errors."""


class InvalidArgument(SemiflowError, ValueError):
    """An argument is outside its documented range."""


class DomainViolation(SemiflowError, ValueError):
    """Input violates a domain constraint (e.g. a nonpositive ceiling)."""


class PreconditionViolation(SemiflowError, ValueError):
    """A documented precondition of the operation does not hold."""


class ResourceLimit(SemiflowError, RuntimeError):
    """A configured resource cap would be exceeded.

    ``details`` carries machine-readable payload data, e.g. the largest
    time ``t_limit`` for which the computation stays under the cap.
    """

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = dict(details)


class NumericalFailure(SemiflowError, RuntimeError):
    """An iterative numerical routine failed to converge."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = dict(details)


class ParseError(SemiflowError, ValueError):
    """Config text could not be parsed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(SemiflowError, ValueError):
    """Config parsed but violates the schema; lists every violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
