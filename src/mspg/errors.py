"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` so the command line front end can map
failure categories to process exit codes: 2 for configuration/usage problems,
3 for numerical failures, 4 for I/O problems.
"""


class MspgError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidMeshError(MspgError):
    """Fine mesh parameters out of range."""

    exit_code = 2


class IncompatibleGridError(MspgError):
    """Coarse grid does not nest into the fine grid."""

    exit_code = 2


class ConfigError(MspgError):
    """Experiment configuration violates an invariant."""

    exit_code = 2


class UnknownExampleError(MspgError):
    """Example id outside the built-in catalogue."""

    exit_code = 2


class InvalidCoefficientError(MspgError):
    """Non-positive diffusion coefficient encountered."""

    exit_code = 3


class SolverFailureError(MspgError):
    """A solve failed: a linear solve missed its residual contract, a
    reduced system lost rank, or a Gram matrix was not positive definite.

    ``residual`` holds the achieved relative residual when known.
    """

    exit_code = 3

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class LocalSolverError(SolverFailureError):
    """A solve through the checked direct-solve kernel failed (a local
    snapshot, bubble or extension solve, or the fine reference solve)."""


class SingularMetricError(MspgError):
    """The right-hand matrix of a generalized eigenproblem is not SPD."""

    exit_code = 3


class RasterParseError(MspgError):
    """Malformed permeability raster file.

    ``line`` is the 1-based line number where parsing stopped.
    """

    exit_code = 4

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
