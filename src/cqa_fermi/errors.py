"""Exception and warning types shared across the package."""


class CqaFermiError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveKappaError(CqaFermiError, ValueError):
    """Loss rate must be strictly positive for a unique steady state."""


class BadLengthError(CqaFermiError, ValueError):
    """Chain length below the minimum of two sites."""


class OutOfRangeError(CqaFermiError, ValueError):
    """Dimer number outside the valid range for the given chain."""


class TooLargeError(CqaFermiError, ValueError):
    """Requested work beyond a size guard (dimer enumeration, Liouvillian
    dimension, RK4 step count)."""


class BoundaryUnsupportedError(CqaFermiError, ValueError):
    """Closed-form correlations exist only for even-length periodic chains."""


class NoBistableWindowError(CqaFermiError, ValueError):
    """No two-well / three-root window exists for the given parameters."""


class DomainError(CqaFermiError, ValueError):
    """Argument outside the mathematical domain of the expression."""


class StepTooLargeError(CqaFermiError, ValueError):
    """Integrator step exceeds the accuracy cap of the fixed-step RK4."""


class InvalidStateError(CqaFermiError, ValueError):
    """Density-matrix parameters violate positivity constraints."""


class TooManyModesError(CqaFermiError, ValueError):
    """Fock-space construction beyond the memory guard."""


class DimensionMismatchError(CqaFermiError, ValueError):
    """Operator or matrix dimensions are inconsistent."""


class DegenerateKernelError(CqaFermiError, RuntimeError):
    """More than one candidate steady state found."""


class IterationLimitError(CqaFermiError, RuntimeError):
    """A bisection reached its iteration cap before its tolerance."""


class OddParityStateError(CqaFermiError, ValueError):
    """Partial trace requires a parity-even pure state."""


class OddPbcLengthWarning(UserWarning):
    """Odd periodic chains are legal but lack closed-form correlations."""
