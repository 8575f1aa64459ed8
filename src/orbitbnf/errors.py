"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class,
and each class carries in ``exit_code`` the code the command line returns
for it: 2 (bad input) on the base class and the classes that keep it, 3 for
a resonance, 4 for an inversion that cannot be trusted, 5 for an oracle
window or quadrature that cannot be certified.
"""


class OrbitBNFError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class ResonanceError(OrbitBNFError):
    """A small divisor fell below the configured margin.

    Raised by the homological solvers when a frequency combination that must
    be inverted is (numerically) resonant, and by the trace assembly when
    1 - e^{2*pi*i*l*theta_j} is too close to zero.
    """

    exit_code = 3


class NonNilpotentError(OrbitBNFError):
    """A generator fails the minimum-weight requirement for convergent
    conjugation (its lowest-weight term sits below weight three)."""


class IllConditionedError(OrbitBNFError):
    """The linear system in the inverse trace problem is too ill-conditioned
    to trust (condition number above the configured ceiling)."""

    exit_code = 4


class InconsistentDataError(OrbitBNFError):
    """Input trace data is incompatible with any coefficient vector at the
    requested tolerance (large least-squares residual, or a failed
    zeroth-order consistency check)."""

    exit_code = 4


class JetDepthError(OrbitBNFError):
    """A test-function jet was queried beyond the derivative depth it
    carries."""


class UnsafeWindowError(OrbitBNFError):
    """A truncated-basis computation failed its self-consistency gate
    (eigenvalue drift under cut doubling exceeded tolerance), so the
    requested window cannot be certified."""

    exit_code = 5


class CoverageError(OrbitBNFError):
    """A spectral window does not contain the states needed for the
    requested comparison (e.g. the plateau region is empty)."""

    exit_code = 5
