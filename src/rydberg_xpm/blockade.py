"""Effect of one stored Rydberg excitation on the target susceptibility.

A stored excitation at distance r shifts the Rydberg pair state by the van
der Waals potential V = -C6/r^6 (attractive for C6 > 0), which moves the
two-photon resonance of the target transition.  The shift enters the
susceptibility (the ``shift`` argument of ``susceptibility.chi``) by
substituting

    Delta_c + Delta_s  ->  Delta_c + Delta_s - V(r)/hbar

in the two-photon term, so the EIT feature is pushed to smaller signal
detuning as r shrinks.  Geometry is one-dimensional along the propagation
axis: r = |z - z0| with z0 the position of the stored excitation.

The controlled phase shift is the difference between the propagation phase
with and without a stored excitation.  The phase with one excitation is the
integral of the shifted susceptibility along the axis, evaluated by
composite Gauss-Legendre quadrature with a node-doubling error estimate; a
hard-sphere estimate replaces the gradual r^-6 crossover with a fully
blockaded slab of length 2 R_b.

The susceptibility is proportional to the atomic density at every shift
(through chi0; nothing else in chi depends on rho), so both phases are
linear in rho: a density scan evaluates the two integrals once, at its
largest density, and scales them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR
from .errors import BlockadeClampWarning, QuadratureError
from .susceptibility import EITParams, MediumGeometry, chi, od_and_phase

_REL_TOL = 1e-6  # requested relative accuracy of the blockade integral
_PANELS_PER_DECADE = 16  # in r; the vdW shift changes 6 decades per decade of r

# the 16- and 32-node Gauss-Legendre rules on [-1, 1], computed once (leggauss
# costs more than a blockade integral): nodes side by side, one weight row
# per rule that is zero on the other rule's nodes
(_X16, _W16), (_X32, _W32) = (np.polynomial.legendre.leggauss(n) for n in (16, 32))
_GL_NODES = np.concatenate((_X16, _X32))
_GL_WEIGHTS = np.array([np.r_[_W16, 0.0 * _W32], np.r_[0.0 * _W16, _W32]])


@dataclass(frozen=True)
class BlockadeParams:
    """Interaction constant and geometry of the stored excitation.

    c6 > 0 corresponds to the attractive pair potential V = -C6/r^6.
    ``sign_reversed`` flips the signs of both detunings (Delta_s and Delta_c)
    to probe the asymmetry of the blockade-shifted response; the interaction
    itself is unchanged.
    """

    c6: float  # [J m^6]
    excitation_z: float  # [m], position of the stored excitation on the axis
    sign_reversed: bool = False

    def __post_init__(self):
        for name in ("c6", "excitation_z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.c6 < 0:
            raise ValueError(f"c6 must be >= 0, got {self.c6}")


def blockade_radius(c6: float, delta_t: float) -> float:
    """Radius where the |vdW shift| equals the EIT linewidth delta_t [rad/s]."""
    if not delta_t > 0:
        raise ValueError(f"delta_t must be positive, got {delta_t}")
    return (abs(c6) / (HBAR * delta_t)) ** (1.0 / 6.0)


def _radial_panels(c6: float, w_ref: float, r_max: float) -> np.ndarray:
    """Panel edges in r on [0, r_max]: one panel out to where the shift is
    1e9 w_ref (the two-level limit to ~1e-9), then geometric panels through
    the r^-6 crossover, where the shift equals w_ref."""
    r_lo = blockade_radius(c6, w_ref) * 10.0**-1.5
    if not 0.0 < r_lo < r_max:  # no interaction, or blockaded throughout
        return np.array([0.0, r_max])
    n = math.ceil(math.log10(r_max / r_lo) * _PANELS_PER_DECADE)
    return np.concatenate(([0.0], np.geomspace(r_lo, r_max, n + 1)))


def integrated_phase(
    params: EITParams,
    geom: MediumGeometry,
    blk: BlockadeParams,
    delta_s: float,
    n_excitations: int,
) -> tuple[float, float]:
    """(OD, phase) of the target after the full medium, with 0 or 1 stored
    excitations.

    n = 0 is the uniform medium.  n = 1 integrates the blockade-shifted
    susceptibility chi(shift = C6/(hbar r^6)) along the axis, r = |z - z0|,
    by composite Gauss-Legendre quadrature on panels spaced geometrically
    around the r^-6 crossover on each side of z0.  The 16-node result is
    compared with the 32-node one; QuadratureError is raised when they
    differ by more than 1e-6 relative.
    """
    if n_excitations not in (0, 1):
        raise ValueError("n_excitations must be 0 or 1")
    ds, p = delta_s, params
    if blk.sign_reversed:  # flip both detunings; the interaction is unchanged
        ds, p = -delta_s, replace(params, delta_c=-params.delta_c)
    if n_excitations == 0:
        od, phase = od_and_phase(chi(p, ds), geom)
        return float(od), float(phase)

    z0 = blk.excitation_z
    length = geom.length
    if not 0.0 <= z0 <= length:
        raise ValueError(
            f"excitation_z = {z0} must lie within the medium [0, {length}]"
        )

    # the crossover scale: the larger of the decay rate and the operating
    # two-photon detuning
    w_ref = max(params.gamma_e, abs(params.delta_c + delta_s), params.gamma_rg)
    edges = [_radial_panels(blk.c6, w_ref, side)
             for side in (z0, length - z0) if side > 0.0]
    a = np.concatenate([e[:-1] for e in edges])[:, None]
    half = 0.5 * np.concatenate([np.diff(e) for e in edges])[:, None]
    r = a + half * (1.0 + _GL_NODES)
    with np.errstate(divide="ignore", over="ignore"):
        shift = blk.c6 / (HBAR * r**6)
    # the n- and 2n-node estimates of the integral of chi over z
    coarse, fine = np.sum((half * chi(p, ds, shift=shift)) @ _GL_WEIGHTS.T, axis=0)
    achieved = max(abs(c - f) / max(abs(f), 1e-12 * length)
                   for c, f in ((coarse.imag, fine.imag), (coarse.real, fine.real)))
    if achieved > _REL_TOL:
        raise QuadratureError(achieved=achieved, requested=_REL_TOL)
    od = geom.k_s * fine.imag
    phase = geom.k_s * fine.real / 2.0
    return float(od), float(phase)


def hard_sphere_controlled_phase(
    r_b: float,
    geom: MediumGeometry,
    phase_two_level: float,
    phase_eit: float,
) -> float:
    """Hard-sphere estimate (2 R_b / L) * (phase_two_level - phase_eit).

    The two phase arguments are full-medium propagation phases of the
    two-level and EIT configurations at the operating detuning.  When the
    blockade sphere exceeds the medium (2 R_b > L) the fraction is clamped
    to 1 and a BlockadeClampWarning is emitted.
    """
    if r_b < 0:
        raise ValueError(f"r_b must be >= 0, got {r_b}")
    frac = 2.0 * r_b / geom.length
    if frac > 1.0:
        warnings.warn(
            "blockade sphere exceeds the medium; clamping 2 R_b to L",
            BlockadeClampWarning,
            stacklevel=2,
        )
        frac = 1.0
    return frac * (phase_two_level - phase_eit)


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    max_rel_residual: float


@dataclass(frozen=True)
class DensityScan:
    """Controlled phase versus atomic density, with its linear law."""

    rho: np.ndarray  # [1/m^3]
    phase0: np.ndarray
    phase1: np.ndarray
    controlled_phase: np.ndarray
    fit_phase0: LinearFit
    fit_phase1: LinearFit
    fit_controlled: LinearFit


def _linear_law(rho: np.ndarray, phase: np.ndarray, slope: float) -> LinearFit:
    """The law phase = slope * rho through the origin, and the largest
    residual of ``phase`` from it relative to the largest |phase|."""
    resid = phase - slope * rho
    scale = max(np.max(np.abs(phase)), 1e-300)
    return LinearFit(float(slope), 0.0, float(np.max(np.abs(resid)) / scale))


def density_scan(
    base: EITParams,
    geom: MediumGeometry,
    blk: BlockadeParams,
    delta_s: float,
    rho_grid,
) -> DensityScan:
    """Phases with and without a stored excitation on a density grid.

    Both integrals are evaluated once, at the grid's largest density, and
    scaled by rho / rho_max (the phases are linear in rho); the
    largest-density row is the integral itself, and each linear law's slope
    is that integral over rho_max.
    """
    rho = np.asarray(rho_grid, dtype=float)
    if rho.size == 0:
        raise ValueError("rho_grid must be non-empty")
    if np.any(rho <= 0):
        raise ValueError("rho_grid entries must be positive")
    rho_max = float(rho.max())
    p = replace(base, rho=rho_max)
    _, phi0 = integrated_phase(p, geom, blk, delta_s, 0)
    _, phi1 = integrated_phase(p, geom, blk, delta_s, 1)
    scale = rho / rho_max
    phase0, phase1 = phi0 * scale, phi1 * scale
    ctrl = phase1 - phase0
    return DensityScan(
        rho=rho,
        phase0=phase0,
        phase1=phase1,
        controlled_phase=ctrl,
        fit_phase0=_linear_law(rho, phase0, phi0 / rho_max),
        fit_phase1=_linear_law(rho, phase1, phi1 / rho_max),
        fit_controlled=_linear_law(rho, ctrl, (phi1 - phi0) / rho_max),
    )
