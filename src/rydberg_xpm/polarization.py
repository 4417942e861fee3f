"""Two-component polarization states, the medium transform, and Stokes
analysis.

Basis conventions used throughout (fixed here once; all tests reference this
table):

    |sigma+> = (|H> + i|V>) / sqrt(2)        (identified with L)
    |sigma-> = (|H> - i|V>) / sqrt(2)        (identified with R)
    |D>      = (|H> + |V>) / sqrt(2)
    |A>      = (|H> - |V>) / sqrt(2)

For a state c+|sigma+> + c-|sigma-> with total power N = |c+|^2 + |c-|^2 the
normalized Stokes parameters S_kl = (P_k - P_l)/(P_k + P_l) are

    S_HV = 2 Re(c+* c-) / N
    S_DA = 2 Im(c+* c-) / N
    S_LR = (|c+|^2 - |c-|^2) / N

so a pure sigma- state maps to (0, 0, -1) and, in the spherical decomposition
(S_HV, S_DA, S_LR) = S0 (sin(theta) cos(phi), sin(theta) sin(phi),
cos(theta)), the azimuth phi equals the phase of c- relative to c+.  With
real positive input amplitudes the azimuth therefore reads out the medium
phase shift directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InsufficientStatisticsError


@dataclass(frozen=True)
class PolarizationState:
    """Amplitudes of the sigma+ / sigma- components; not necessarily
    normalized (lossy propagation shrinks the total power)."""

    c_plus: complex
    c_minus: complex

    def __post_init__(self):
        if self.power == 0.0:
            raise ValueError("polarization state must carry nonzero power")

    @property
    def power(self) -> float:
        return abs(self.c_plus) ** 2 + abs(self.c_minus) ** 2

    def normalized(self) -> "PolarizationState":
        n = math.sqrt(self.power)
        return PolarizationState(self.c_plus / n, self.c_minus / n)


@dataclass(frozen=True)
class StokesVector:
    """Normalized Stokes parameters in the H/V, D/A, L/R bases."""

    s_hv: float
    s_da: float
    s_lr: float

    @property
    def s0(self) -> float:
        """Radius of the Stokes vector (1 for pure states)."""
        return math.sqrt(self.s_hv**2 + self.s_da**2 + self.s_lr**2)

    @property
    def theta(self) -> float:
        """Polar angle; 0 is pure sigma+ (L pole)."""
        s0 = self.s0
        if s0 == 0.0:
            return 0.0
        return math.acos(max(-1.0, min(1.0, self.s_lr / s0)))

    @property
    def phi(self) -> float:
        """Azimuth in (-pi, pi]; equals the sigma- phase relative to sigma+."""
        return math.atan2(self.s_da, self.s_hv)


def apply_medium(
    state: PolarizationState,
    od_minus: float,
    phi_minus: float,
    sigma_plus_suppression: float = math.inf,
) -> PolarizationState:
    """Propagate through the medium: the sigma- amplitude is attenuated by
    exp(-OD/2) and phase-shifted by phi_minus; sigma+ picks up the residual
    phase phi_minus / sigma_plus_suppression (none at the default infinite
    suppression; 15 models the measured reference-arm suppression).
    Raises InsufficientStatisticsError when no power is left, as when the
    medium absorbs all of a target without a sigma+ component.
    """
    if od_minus < 0:
        raise ValueError(f"od_minus must be >= 0, got {od_minus}")
    c_minus = state.c_minus * math.exp(-od_minus / 2.0) * cmath.exp(1j * phi_minus)
    c_plus = state.c_plus * cmath.exp(1j * phi_minus / sigma_plus_suppression)
    if abs(c_plus) ** 2 + abs(c_minus) ** 2 == 0.0:
        raise InsufficientStatisticsError(
            f"no photon reaches a detector: the medium (OD {od_minus:.6g}) "
            "absorbs the whole target")
    return PolarizationState(c_plus, c_minus)


def stokes(state: PolarizationState) -> StokesVector:
    """Normalized Stokes parameters of the (renormalized) state."""
    n = state.power
    if n == 0.0:
        raise ValueError("cannot form Stokes parameters of a zero-power state")
    cross = state.c_plus.conjugate() * state.c_minus
    return StokesVector(
        s_hv=2.0 * cross.real / n,
        s_da=2.0 * cross.imag / n,
        s_lr=(abs(state.c_plus) ** 2 - abs(state.c_minus) ** 2) / n,
    )


def visibility(s: StokesVector) -> float:
    """Fringe visibility sqrt(S_HV^2 + S_DA^2) = S0 sin(theta)."""
    return math.sqrt(s.s_hv**2 + s.s_da**2)


def balanced_input_state(od_minus: float) -> PolarizationState:
    """Input with |c+| = |c-| exp(-OD/2): output powers balance after the
    lossy medium, maximizing the visibility of the phase readout."""
    if od_minus < 0:
        raise ValueError(f"od_minus must be >= 0, got {od_minus}")
    c_plus = math.exp(-od_minus / 2.0)
    return PolarizationState(c_plus, 1.0).normalized()
