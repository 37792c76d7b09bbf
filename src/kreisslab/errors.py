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

    Only the spectral norm of a structured operator (a shift, direct sum
    or rotation) is iterated, at every size; only above SVD_CAP does a
    stall raise, carrying the best estimate seen, the residual it
    achieved and the iterations spent.  An explicit matrix with a non-finite entry, or
    whose Gram eigensolve fails, and a resolvent system whose SVD fails
    (in resolvent_norm, which the kreiss grid sweep calls once, as the
    oracle at its sup) raise it with none of them.
    """

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations
