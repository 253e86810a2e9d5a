"""Exception hierarchy shared across the package."""


class OddflowError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(OddflowError, ValueError):
    """Bad configuration, malformed file, or invalid argument; a ValueError,
    so that callers catching the builtin class still catch it."""


class GridMismatchError(OddflowError):
    """Operands live on different grids or have the wrong shape."""


class HermitianSymmetryError(ValidationError):
    """A field claiming to be real-valued has a complex residue."""


class MeanModeError(OddflowError):
    """Operator requires a mean-zero field and got one with nonzero mean."""


class UnsolvedPressureError(OddflowError):
    """A state's pressure was read before pressure.solve_pressure stored it."""


class ConvergenceError(OddflowError):
    """Iterative solver ran out of iterations before reaching tolerance."""


class RuntimeAbort(OddflowError):
    """Integration aborted (vacuum breach or non-finite values); the message
    names the quantity, and the time when a state has one."""
