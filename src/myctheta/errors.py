"""Exception hierarchy shared by all myctheta modules."""


class MycthetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MycthetaError):
    """A precondition on the inputs is violated (bad family, bad range, ...)."""


class SizeLimitError(DomainError):
    """A construction would exceed the configured vertex / enumeration bound."""


class ConvergenceError(MycthetaError):
    """An iterative solver hit its iteration cap before reaching tolerance.

    Carries the best value and the residuals reached so far.
    """

    def __init__(self, message, best_value=None, residual=None, iterations=None):
        super().__init__(message)
        self.best_value = best_value
        self.residual = residual
        self.iterations = iterations


class CertificateError(MycthetaError):
    """A certificate construction produced inconsistent parameters."""


class InconclusiveError(MycthetaError):
    """An exhaustive search ran out of budget before settling the question."""


class MycthetaInternal(AssertionError):
    """A result failed its own re-verification: a bug, never bad input.

    Deliberately not a MycthetaError, so no handler of expected failures
    records it; the CLI reports it as an internal error with exit code 1.
    """
