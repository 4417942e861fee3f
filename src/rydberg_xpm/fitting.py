"""Nonlinear least-squares fitting of transmission (and optionally phase)
spectra to the ladder-EIT model.

A spectrum measures the susceptibility only in optical-depth units: the model
is od_res x, with x = chi / chi0 = i Gamma_e / D the normalized response
(``susceptibility.normalized_chi``) and od_res = k_s L chi0 the resonant
two-level optical depth, so transmission exp(-od_res Im(x)) and phase
od_res Re(x) / 2.  Density, dipole moment and length never enter.  The
free parameters are od_res, the coupling Rabi frequency, the ground-Rydberg
dephasing rate and the coupling detuning offset.  Positive-definite
parameters are fitted in log space so bounds stay implicit; the detuning is
fitted in units of gamma_e for conditioning.

Minimization is a damped Gauss-Newton (Levenberg-Marquardt) iteration with a
central-difference Jacobian (step 1e-6 (1 + |u|) per component), declared
converged when the relative cost change drops below 1e-10 or the gradient
infinity-norm below 1e-8.  The parameter covariance is (J^T J)^-1 at the
optimum, mapped back to physical units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import DegenerateJacobianError, FitNonConvergenceError, RydbergXPMError
from .susceptibility import SpectrumTable, normalized_chi, transmission

# rad/s, intermediate-state decay rate
GAMMA_E_DEFAULT = 1.0 / (defaults.EXCITED_LIFETIME_NS * 1e-9)
_COST_RTOL = 1e-10
_GRAD_TOL = 1e-8
_FD_SCALE = 1e-6
_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12


@dataclass(frozen=True)
class SpectrumData:
    """Measured spectrum rows; phase rows are optional."""

    delta_s: np.ndarray  # rad/s, strictly increasing
    transmission: np.ndarray
    sigma: np.ndarray
    phase: np.ndarray | None = None
    phase_sigma: np.ndarray | None = None

    def __post_init__(self):
        ds = np.asarray(self.delta_s, dtype=float)
        if ds.size < 8:
            raise ValueError("need at least 8 spectrum points")
        if not np.all(np.diff(ds) > 0):
            raise ValueError("delta_s must be strictly increasing")
        if np.any(np.asarray(self.sigma) <= 0):
            raise ValueError("sigma must be positive")
        if (self.phase is None) != (self.phase_sigma is None):
            raise ValueError("phase and phase_sigma must be given together")
        if self.phase is not None and np.any(np.asarray(self.phase_sigma) <= 0):
            raise ValueError("phase_sigma must be positive")


@dataclass(frozen=True)
class FitParameters:
    """Physical parameter vector of the spectrum model."""

    od_res: float  # resonant two-level optical depth k_s L chi0
    omega_c: float  # rad/s
    gamma_rg: float  # rad/s
    delta_c: float  # rad/s

    def as_array(self) -> np.ndarray:
        return np.array([self.od_res, self.omega_c, self.gamma_rg, self.delta_c])


@dataclass(frozen=True)
class FitResult:
    params: FitParameters
    stderr: FitParameters
    covariance: np.ndarray  # 4x4, physical units, order (od_res, omega_c, gamma_rg, delta_c)
    reduced_chisq: float
    iterations: int
    final_damping: float
    gradient_norm: float
    converged: bool


def predict(
    params: FitParameters,
    delta_s_grid,
    gamma_e: float = GAMMA_E_DEFAULT,
) -> SpectrumTable:
    """Forward model spectrum: transmission exp(-od_res Im(chi / chi0)) and
    phase od_res Re(chi / chi0) / 2 of the susceptibility at ``params``."""
    x = params.od_res * normalized_chi(gamma_e, params.gamma_rg, params.omega_c,
                                       params.delta_c, delta_s_grid)
    return SpectrumTable(transmission=transmission(x.imag), phase=x.real / 2.0)


def _encode(p: FitParameters, gamma_e: float) -> np.ndarray:
    if min(p.od_res, p.omega_c, p.gamma_rg) <= 0:
        raise ValueError("od_res, omega_c and gamma_rg must be positive to fit")
    return np.array(
        [math.log(p.od_res), math.log(p.omega_c), math.log(p.gamma_rg),
         p.delta_c / gamma_e]
    )


def _decode(u: np.ndarray, gamma_e: float) -> FitParameters:
    p = FitParameters(math.exp(u[0]), math.exp(u[1]), math.exp(u[2]),
                      u[3] * gamma_e)
    # an infinite start or step, or u[3] * gamma_e beyond the float range
    if not np.all(np.isfinite(p.as_array())):
        raise OverflowError("a fit parameter is not finite")
    return p


def finite_difference_jacobian(fun, u: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian, step 1e-6 (1 + |u_i|) per parameter."""
    columns = []
    for i in range(u.size):
        h = _FD_SCALE * (1.0 + abs(u[i]))
        up = u.copy()
        up[i] += h
        um = u.copy()
        um[i] -= h
        columns.append((fun(up) - fun(um)) / (2.0 * h))
    return np.column_stack(columns)


def fit_spectrum(
    data: SpectrumData,
    initial: FitParameters,
    include_phase: bool = False,
    max_iterations: int = defaults.FIT_MAX_ITERATIONS,
    gamma_e: float = GAMMA_E_DEFAULT,
) -> FitResult:
    """Weighted least-squares fit of the spectrum model.

    Raises FitNonConvergenceError (carrying the best point so far) at the
    iteration cap, DegenerateJacobianError when the normal equations are
    singular, and RydbergXPMError when the model cannot be evaluated at
    ``initial`` or gamma_e is not finite and positive.  A trial step where
    it cannot be evaluated has an infinite cost and is rejected: the
    damping rises.
    """
    if include_phase and data.phase is None:
        raise ValueError("include_phase requires phase rows in the data")
    t_data = np.asarray(data.transmission, dtype=float)
    t_sigma = np.asarray(data.sigma, dtype=float)
    n_res = t_data.size * (2 if include_phase else 1)

    def residuals(u: np.ndarray) -> np.ndarray:
        try:
            table = predict(_decode(u, gamma_e), data.delta_s, gamma_e=gamma_e)
        except OverflowError:
            # a parameter, or omega_c squared, overflows: an infinite cost, which
            # a step is rejected for like any non-finite one
            return np.full(n_res, math.inf)
        r = (table.transmission - t_data) / t_sigma
        if include_phase:
            r_ph = (table.phase - np.asarray(data.phase)) / np.asarray(data.phase_sigma)
            r = np.concatenate((r, r_ph))
        return r

    cost = math.inf
    if 0.0 < gamma_e < math.inf:  # else the detuning's scale is 0 or infinite
        u = _encode(initial, gamma_e)
        r = residuals(u)
        cost = float(r @ r)
    if not math.isfinite(cost):
        raise RydbergXPMError("the spectrum model cannot be evaluated at the "
                              "fit's starting point")
    lam = _LAMBDA_INIT
    grad_norm = math.inf
    converged = False
    iterations = 0
    jac = None  # the Jacobian at u, None once a step moves u

    for iterations in range(1, max_iterations + 1):
        jac = finite_difference_jacobian(residuals, u)
        grad = jac.T @ r
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < _GRAD_TOL:
            converged = True
            break
        hess = jac.T @ jac
        diag = np.diag(hess).copy()
        if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
            raise DegenerateJacobianError(
                "a parameter has no effect on the model (zero Jacobian column)"
            )
        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(hess + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError as exc:
                raise DegenerateJacobianError(str(exc)) from exc
            u_try = u + step
            r_try = residuals(u_try)
            cost_try = float(r_try @ r_try)
            if math.isfinite(cost_try) and cost_try <= cost:
                rel_drop = (cost - cost_try) / max(cost, 1e-300)
                u, r, cost = u_try, r_try, cost_try
                jac = None
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                if rel_drop < _COST_RTOL:
                    converged = True
                break
            lam *= 10.0
        if converged:
            break
        if not accepted:
            # damping exhausted without improvement: local optimum reached
            converged = grad_norm < 1e-3 * max(1.0, math.sqrt(cost))
            break

    params = _decode(u, gamma_e)
    if jac is None:
        jac = finite_difference_jacobian(residuals, u)
        grad_norm = float(np.max(np.abs(jac.T @ r)))
    hess = jac.T @ jac
    try:
        cov_u = np.linalg.inv(hess)
    except np.linalg.LinAlgError as exc:
        raise DegenerateJacobianError(str(exc)) from exc
    # map covariance from internal to physical coordinates
    scale = np.array([params.od_res, params.omega_c, params.gamma_rg, gamma_e])
    cov = cov_u * np.outer(scale, scale)
    n_res = r.size
    red_chisq = cost / max(n_res - 4, 1)
    stderr_vec = np.sqrt(np.maximum(np.diag(cov), 0.0))
    result = FitResult(
        params=params,
        stderr=FitParameters(*stderr_vec),
        covariance=cov,
        reduced_chisq=float(red_chisq),
        iterations=iterations,
        final_damping=float(lam),
        gradient_norm=grad_norm,
        converged=converged,
    )
    if not converged:
        raise FitNonConvergenceError(result)
    return result
