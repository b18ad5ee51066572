"""Exception hierarchy shared by all sct modules."""


class SctError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SctError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(SctError):
    """A trajectory parameter hits the pole of nc(u, k), i.e. the endpoint
    q0 would be infinite for the requested (q_t, Theta)."""


class DegenerateError(SctError):
    """A construction degenerates: a zero mode (Omega(0, Theta) = 0), or a
    q_t = 0 path passed to an operation that needs the anharmonic branch."""


class ConvergenceError(SctError):
    """An iterative solve (shooting, root bracketing, finite differences)
    failed to reach its target accuracy."""


class SingularMatrixError(SctError):
    """A matrix inversion hit condition number above 1e12; for fluctuation
    flows this signals a conjugate point."""


class QuadratureError(SctError):
    """A quadrature could not meet the requested tolerance, or an endpoint
    tail bound exceeds it."""


class TruncationError(SctError):
    """A spectral sum was truncated too early for the requested temperature."""


class RouteMismatchError(SctError):
    """Two supposedly equivalent evaluation routes disagree beyond tolerance."""
