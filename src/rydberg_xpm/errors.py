"""Exception and warning types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, numerical failures
(NoEITFeatureError, QuadratureError, FitNonConvergenceError,
DegenerateJacobianError) -> 3, InsufficientStatisticsError -> 4.
"""


class RydbergXPMError(Exception):
    """Base class for structured errors raised by this package."""


class ConfigError(RydbergXPMError):
    """Invalid run configuration; ``path`` names the offending key."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class NoEITFeatureError(RydbergXPMError):
    """No transparency feature exists for the given parameters."""


class QuadratureError(RydbergXPMError):
    """Blockade integral: node-doubling error estimate above the tolerance."""

    def __init__(self, achieved: float, requested: float):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"quadrature reached relative tolerance {achieved:.3e}, "
            f"requested {requested:.3e}"
        )


class InsufficientStatisticsError(RydbergXPMError):
    """A measurement basis has no counts after postselection."""

    def __init__(self, basis: str):
        self.basis = basis
        super().__init__(f"no counts in basis {basis} after postselection")


class FitNonConvergenceError(RydbergXPMError):
    """Least-squares fit hit the iteration cap; carries the best point."""

    def __init__(self, best_result):
        self.best_result = best_result
        super().__init__(
            f"fit did not converge within {best_result.iterations} iterations "
            f"(gradient norm {best_result.gradient_norm:.3e})"
        )


class DegenerateJacobianError(RydbergXPMError):
    """The Jacobian at the optimum is singular; parameters are degenerate."""


class ExactEITWarning(UserWarning):
    """The susceptibility was evaluated exactly at a lossless EIT point."""


class BlockadeClampWarning(UserWarning):
    """The blockade sphere exceeds the medium; its length was clamped to L."""
