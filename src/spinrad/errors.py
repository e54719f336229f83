"""Exception types shared across the package."""


class SpinradError(Exception):
    """Base class for all spinrad errors."""


class DomainError(SpinradError, ValueError):
    """Input outside the mathematical or physical domain of an operation."""


class BoseDivergenceError(DomainError):
    """Bose-Einstein occupation evaluated at its omega = 0 divergence.

    Callers integrating through omega = Omega*m must take the product limit
    with the vanishing flux factor instead of evaluating the factors alone.
    """


class NumericDomainError(DomainError):
    """A computation left the domain where its numbers are finite.

    Raised while evaluating, not while validating input: a special function
    that overflows or an argument past its cap, met at a node of an integral.
    """


class ResonanceError(NumericDomainError):
    """Scattering denominator or polarizability hit a material resonance."""


class ConvergenceError(SpinradError, RuntimeError):
    """Quadrature or partial-wave sum failed to meet its tolerance.

    ``m`` names the partial wave, ``index`` the integral of a quadrature
    batch that stalled.
    """

    def __init__(self, message, m=None, index=None):
        super().__init__(message)
        self.m = m
        self.index = index


class StepSizeError(SpinradError, RuntimeError):
    """Langevin time step too large for the stiffness of the drift."""


class TableFormatError(SpinradError, ValueError):
    """Channel-table or tabulated-epsilon file violates the documented schema."""

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class ConfigError(SpinradError, ValueError):
    """Scenario configuration failed validation."""
