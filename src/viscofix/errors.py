"""Exception types shared across the package."""


class ViscofixError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ViscofixError, ValueError):
    """A value handed to an operation is outside its contract.

    Examples: dimension mismatch between a point and a space, evaluating a
    schedule below its start index, a non-finite coordinate.
    """


class ConfigurationError(ViscofixError, ValueError):
    """A problem, map, or run was assembled from inconsistent pieces.

    Examples: an averaging weight outside its admissible interval, a step
    size violating the monotonicity bound, an unknown config key.
    """


class InnerSolveError(ViscofixError, RuntimeError):
    """The implicit inner solve ran out of its certified budget or went non-finite.

    Under the documented preconditions (nonexpansive map, contraction
    factor < 1) the budget suffices, so running out signals a map that is
    not nonexpansive.  A non-finite gap means a non-finite ``T`` value or start.
    """


class NotConvergedError(ViscofixError, RuntimeError):
    """A diagnostic was requested for a run that did not converge."""
