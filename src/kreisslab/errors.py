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
    """A norm could not be computed.

    An explicit matrix with a non-finite entry, or whose Gram eigensolve
    fails, a resolvent system whose SVD fails (in resolvent_norm, which
    the kreiss grid sweep calls once, as the oracle at its sup) and an
    orbit norm of the claims that is not finite raise it.  A stalled
    power iteration does not: spectral_norm then takes its structural
    oracle's value.
    """
