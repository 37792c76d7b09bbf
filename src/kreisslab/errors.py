"""Exception types shared across the laboratory."""


class DimensionError(ValueError):
    """A vector or block does not match the operator dimension."""


class SizeError(ValueError):
    """A dense materialization would exceed the configured cap."""


class ValidationError(ValueError):
    """Parameters violate a construction's admissible range."""


class SingularError(ArithmeticError):
    """A resolvent system is numerically singular."""


class ConvergenceError(RuntimeError):
    """A norm estimate failed: an iteration stalled or a matrix had no norm.

    Only structured operators are iterated: the norm of a shift, direct
    sum or rotation above SVD_CAP, and the resolvent norm of a shift
    block above it.  A stalled iteration carries the best estimate seen,
    the residual it achieved and the iterations spent.  An explicit
    matrix with a non-finite entry, or whose Gram eigensolve fails,
    raises it with none of them.
    """

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations
