"""Two-component polarization states, the medium transform, and Stokes
analysis.

Basis conventions used throughout (fixed here once; all tests reference this
table):

    |sigma+> = (|H> + i|V>) / sqrt(2)        (identified with L)
    |sigma-> = (|H> - i|V>) / sqrt(2)        (identified with R)
    |D>      = (|H> + |V>) / sqrt(2)
    |A>      = (|H> - |V>) / sqrt(2)

For a state c+|sigma+> + c-|sigma-> of total power N = |c+|^2 + |c-|^2
whose sigma+/sigma- coherence is scaled by ``coherence`` (1 when pure),
the port powers are

    P_H, P_V = N/2 +- coherence Re(c+* c-)        P_L = |c+|^2
    P_D, P_A = N/2 +- coherence Im(c+* c-)        P_R = |c-|^2

and the normalized Stokes parameters are S_kl = (P_k - P_l) / N (S_HV =
2 Re(c+* c-) / N for a pure state).  A pure sigma- state maps to
(0, 0, -1) and, in the spherical decomposition (S_HV, S_DA, S_LR) =
S0 (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)), the azimuth phi
equals the phase of c- relative to c+.  With real positive input
amplitudes the azimuth therefore reads out the medium phase shift directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InsufficientStatisticsError

BASIS_NAMES = ("HV", "DA", "LR")


@dataclass(frozen=True)
class PolarizationState:
    """Amplitudes of the sigma+ / sigma- components; not necessarily
    normalized (lossy propagation shrinks the total power)."""

    c_plus: complex
    c_minus: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.c_plus) and cmath.isfinite(self.c_minus)):
            raise ValueError("polarization amplitudes must be finite")
        try:
            power = self.power
        except OverflowError:  # a float ** 2 beyond the float range
            power = math.inf
        if not 0.0 < power < math.inf:
            raise ValueError("polarization state must carry nonzero, finite power")

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


def port_powers(
    state: PolarizationState, coherence: float
) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float]]:
    """(P_H, P_V), (P_D, P_A) and (P_L, P_R), in the order of BASIS_NAMES, of
    the state's density matrix with its sigma+/sigma- coherence scaled by
    ``coherence`` (populations untouched)."""
    pp = abs(state.c_plus) ** 2
    mm = abs(state.c_minus) ** 2
    pm = coherence * state.c_plus.conjugate() * state.c_minus
    half = (pp + mm) / 2.0
    return ((half + pm.real, half - pm.real),
            (half + pm.imag, half - pm.imag),
            (pp, mm))


def stokes(state: PolarizationState, coherence: float = 1.0) -> StokesVector:
    """Normalized Stokes parameters (P_k - P_l) / (P_L + P_R) of the port
    powers at ``coherence``.  Both amplitudes are first scaled by the power
    of two that brings their largest component into [1/2, 1), which is
    exact: a weak state, whose own powers would be subnormal, keeps its
    digits."""
    amplitudes = (state.c_plus, state.c_minus)
    _, e = math.frexp(max(abs(x) for c in amplitudes for x in (c.real, c.imag)))
    scaled = (complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e))
              for c in amplitudes)
    hv, da, lr = port_powers(PolarizationState(*scaled), coherence)
    n = lr[0] + lr[1]
    return StokesVector(*((k - l) / n for k, l in (hv, da, lr)))


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
