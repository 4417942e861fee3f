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
integral of the shifted susceptibility along the axis, in closed form (chi
is a Moebius function of the shift with the pole ``shift_pole``, see
``integrated_phase``); a hard-sphere estimate replaces the gradual r^-6
crossover with a fully blockaded slab of length 2 R_b.

The susceptibility is proportional to the atomic density at every shift
(through chi0; nothing else in chi depends on rho), so both phases are
linear in rho: a density scan evaluates the two integrals once, at its
largest density, and scales them.  The module works on Python numbers and
imports no numpy.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .constants import HBAR
from .errors import BlockadeClampWarning
from .susceptibility import EITParams, MediumGeometry, chi, od_and_phase, shift_pole

if TYPE_CHECKING:
    from array import array

# _blockaded_length sums a series below this side^6 / |q| (to 1e-14 with
# _SERIES_TERMS terms) and takes the large-side limit above _LIMIT_ABOVE
_SERIES_BELOW, _SERIES_TERMS, _LIMIT_ABOVE = 0.1, 12, 1e9
_ROOTS = tuple(cmath.rect(1.0, (2 * k + 1) * math.pi / 6) for k in range(6))  # of -1


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


def _blockaded_length(q: complex, side: float) -> complex:
    """The integral of q / (r^6 + q) over r in [0, side], q != 0.

    With t = side / |q|^(1/6), it is -sum_k rho_k log(1 - side / rho_k) / 6
    over the roots rho_k of r^6 = -q (none on the positive real axis for a
    passive medium); for t^6 <= 0.1, where that sum cancels, the series
    side * sum_n (-side^6 / q)^n / (6n + 1); for t^6 >= 1e9 the limit
    (pi / 3) q^(1/6) - q / (5 side^5) (to 1e-15).  Infinite q gives ``side``.
    """
    theta = cmath.phase(q)
    try:
        scale = abs(q) ** (1.0 / 6.0)
    except OverflowError:  # |q| beyond the float range
        scale = math.inf
    t = side / scale
    try:
        t6 = t**6
    except OverflowError:  # t^6 beyond the float range
        t6 = math.inf
    if t6 <= _SERIES_BELOW:
        w = -t6 * cmath.exp(-1j * theta)  # -side^6 / q
        return side * sum(w**n / (6 * n + 1) for n in range(_SERIES_TERMS))
    if t6 >= _LIMIT_ABOVE:
        return scale * (math.pi / 3.0 * cmath.exp(1j * theta / 6.0)
                        - cmath.exp(1j * theta) * (1.0 / t) ** 5 / 5.0)
    turn = cmath.exp(1j * theta / 6.0)
    return -scale * sum(rho * cmath.log(1.0 - t / rho)
                        for rho in (turn * root for root in _ROOTS)) / 6.0


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
    susceptibility chi(shift = K / r^6), K = C6/hbar, along the axis,
    r = |z - z0|, in closed form: with chi's pole s_p = ``shift_pole``,

        chi(r) = chi_EIT + (chi_2L - chi_EIT) q / (r^6 + q),  q = -K / s_p,

    between chi at no shift and at an infinite one (the two-level value).
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
    chi_eit, chi_2l = chi(p, ds, shift=0.0), chi(p, ds, shift=math.inf)
    s_p = shift_pole(p, ds)
    # s_p = 0 where chi is chi_2L at every shift, and q = 0 where C6 = 0 or
    # K / s_p underflows (chi is chi_EIT)
    q = -(blk.c6 / HBAR) / s_p if s_p != 0 else complex(math.inf)
    if q != 0:
        blockaded = sum(_blockaded_length(q, side) for side in (z0, length - z0))
        chi_eit = chi_eit + (chi_2l - chi_eit) * (blockaded / length)
    od, phase = od_and_phase(chi_eit, geom)
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
    """Controlled phase versus atomic density, with its linear law.  Each
    column is an array of doubles, 8 bytes a value, as in a numpy array."""

    rho: array  # [1/m^3]
    phase0: array
    phase1: array
    controlled_phase: array
    fit_phase0: LinearFit
    fit_phase1: LinearFit
    fit_controlled: LinearFit


def _linear_law(rho: array, phase: array, slope: float) -> LinearFit:
    """The law phase = slope * rho through the origin, and the largest
    residual of ``phase`` from it relative to the largest |phase|."""
    resid = max(abs(y - slope * x) for x, y in zip(rho, phase))
    scale = max(max(map(abs, phase)), 1e-300)
    return LinearFit(float(slope), 0.0, float(resid / scale))


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
    from array import array  # loaded only by the scan that builds arrays

    rho = array("d", rho_grid)
    if not rho:
        raise ValueError("rho_grid must be non-empty")
    if any(r <= 0 for r in rho):
        raise ValueError("rho_grid entries must be positive")
    rho_max = max(rho)
    p = replace(base, rho=rho_max)
    _, phi0 = integrated_phase(p, geom, blk, delta_s, 0)
    _, phi1 = integrated_phase(p, geom, blk, delta_s, 1)
    scale = [r / rho_max for r in rho]
    phase0 = array("d", (phi0 * s for s in scale))
    phase1 = array("d", (phi1 * s for s in scale))
    ctrl = array("d", (y1 - y0 for y0, y1 in zip(phase0, phase1)))
    return DensityScan(
        rho=rho,
        phase0=phase0,
        phase1=phase1,
        controlled_phase=ctrl,
        fit_phase0=_linear_law(rho, phase0, phi0 / rho_max),
        fit_phase1=_linear_law(rho, phase1, phi1 / rho_max),
        fit_controlled=_linear_law(rho, ctrl, (phi1 - phi0) / rho_max),
    )
