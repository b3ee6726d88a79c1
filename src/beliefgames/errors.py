"""Exception hierarchy shared across the package."""


class BeliefGameError(Exception):
    """Base class for all package-specific failures."""


class NonFiniteStateError(BeliefGameError):
    """A NaN or infinity appeared in a numerical state; the run is aborted."""


class TraceCoverageError(BeliefGameError):
    """A signal trace does not cover the requested time range."""


class TraceFormatError(BeliefGameError):
    """A persisted trace file is malformed."""


class DegenerateDiscountError(BeliefGameError):
    """The discounting denominator 1 - x_bar*delta - rho is numerically singular."""


class SingularSystemError(BeliefGameError):
    """A linear system arising in the equilibrium computation is singular."""


class UndefinedVarianceError(BeliefGameError):
    """A variance is undefined: the estimator variance at gamma shape <= 1, or
    a discrete Kalman error variance P_j that is no longer positive."""


class GridUnderflowError(BeliefGameError):
    """All posterior grid weights underflowed to zero."""


class ConfigError(BeliefGameError):
    """Scenario configuration failed validation; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )
