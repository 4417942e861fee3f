"""Exception and warning types shared across the package.

Each error class carries the CLI's exit code and stderr label for it:
``rydberg-xpm`` prints ``<label>: <message>`` and exits with ``exit_code``.
ConfigError is 2, InsufficientStatisticsError 4, and every other
RydbergXPMError (NoEITFeatureError, FitNonConvergenceError,
DegenerateJacobianError) a numerical failure, 3.
"""

from .constants import mhz_from_angular


class RydbergXPMError(Exception):
    """Base class for structured errors raised by this package."""

    exit_code = 3
    label = "numerical failure"


class ConfigError(RydbergXPMError):
    """Invalid run configuration; ``path`` names the offending key."""

    exit_code = 2
    label = "config error"

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class NoEITFeatureError(RydbergXPMError):
    """No transparency feature exists for the given parameters."""


class InsufficientStatisticsError(RydbergXPMError):
    """Too few detected photons for a Stokes estimate; ``basis`` names a
    measurement basis with no counts after postselection, if that is why."""

    exit_code = 4
    label = "insufficient statistics"

    def __init__(self, message: str, basis: str | None = None):
        self.basis = basis
        super().__init__(message)


class FitNonConvergenceError(RydbergXPMError):
    """Least-squares fit hit the iteration cap; carries the best point."""

    label = "fit failed to converge"

    def __init__(self, best_result):
        self.best_result = best_result
        p = best_result.params
        super().__init__(
            f"fit did not converge within {best_result.iterations} iterations "
            f"(gradient norm {best_result.gradient_norm:.3e})\n"
            f"best point: od_res={p.od_res:.6g} "
            f"omega_c={mhz_from_angular(p.omega_c):.6g} MHz "
            f"gamma_rg={mhz_from_angular(p.gamma_rg):.6g} MHz "
            f"delta_c={mhz_from_angular(p.delta_c):.6g} MHz "
            f"(reduced chisq {best_result.reduced_chisq:.6g})"
        )


class DegenerateJacobianError(RydbergXPMError):
    """The Jacobian at the optimum is singular; parameters are degenerate."""


class ExactEITWarning(UserWarning):
    """The susceptibility was evaluated exactly at a lossless EIT point."""


class BlockadeClampWarning(UserWarning):
    """The blockade sphere exceeds the medium; its length was clamped to L."""
