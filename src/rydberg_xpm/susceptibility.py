"""Complex EIT susceptibility for a ladder scheme, and propagation to
optical depth and phase.

The medium response to the signal field is chi = i chi0 Gamma_e / D, with

    D = Gamma_e - 2i Delta_s + |Omega_c|^2 / (gamma_rg - 2i (Delta_c + Delta_s + s)),

chi0 = 2 rho |d_eg|^2 / (epsilon0 hbar Gamma_e) the peak two-level value and
s the pair-state shift of a stored Rydberg excitation.  D is written out here
only: under ``chi`` and the fit's chi / chi0, and in chi's pole in s.
Omega_c = 0 or s = inf recovers the two-level Lorentzian.  Propagating
through a homogeneous medium of length L gives an optical depth
OD = k_s L Im(chi) and a phase shift phi = k_s L Re(chi) / 2; the intensity
transmission is exp(-OD).

Sign conventions: Im(chi) >= 0 is absorption (passive medium); positive
detunings are blue.  The medium is treated as axially homogeneous (box-like
trap) and radial structure is ignored.

D is written once, for numbers and arrays alike, in the functions of a
namespace ``xp``: numpy for arrays, and for plain Python numbers
``_Numbers``, which has numpy's names and numpy's bits (its division is
numpy's complex128 formula, ``_quotient``).  So ``chi`` at Python numbers
imports no numpy, and gives the bits of the same detuning in an array.
numpy is imported only where an array is built: by ``spectrum``,
``transmission`` and the width search.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import operator
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .constants import EPSILON_0, HBAR, K_S
from .errors import ExactEITWarning, NoEITFeatureError

if TYPE_CHECKING:
    import numpy as np

# width search: the feature must rise this far above the background; the
# peak and the half-height edges are located to these fractions of gamma_e
_MIN_HEIGHT = 1e-6
_PEAK_XTOL = 1e-10
_EDGE_XTOL = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section ratio


@dataclass(frozen=True)
class EITParams:
    """Atomic and drive parameters entering the susceptibility.

    All rates and detunings are angular (rad/s).

    gamma_e:  population decay rate of the intermediate state
    gamma_rg: dephasing rate of the ground-Rydberg coherence
    omega_c:  coupling Rabi frequency (magnitude)
    delta_c:  coupling detuning
    rho:      atomic number density [1/m^3]
    d_eg:     signal-transition dipole matrix element [C m]
    """

    gamma_e: float
    gamma_rg: float
    omega_c: float
    delta_c: float
    rho: float
    d_eg: float

    def __post_init__(self):
        for name in ("gamma_e", "gamma_rg", "omega_c", "delta_c", "rho", "d_eg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.gamma_e > 0:
            raise ValueError(f"gamma_e must be positive, got {self.gamma_e}")
        if self.gamma_rg < 0:
            raise ValueError(f"gamma_rg must be >= 0, got {self.gamma_rg}")
        if self.omega_c < 0:
            raise ValueError(f"omega_c must be >= 0, got {self.omega_c}")
        if self.rho < 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if not self.d_eg > 0:
            raise ValueError(f"d_eg must be positive, got {self.d_eg}")
        # float ** overflows with OverflowError, and an underflowing
        # denominator in chi0 divides by zero
        for name, derived in (("chi0", lambda: chi0(self)),
                              ("omega_c**2", lambda: self.omega_c**2)):
            try:
                value = derived()
            except (OverflowError, ZeroDivisionError):
                value = math.inf
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite for these parameters")


@dataclass(frozen=True)
class MediumGeometry:
    """Axial extent of the medium and the signal wave vector."""

    length: float  # axial FWHM of the cloud [m]
    k_s: float = K_S  # [1/m]

    def __post_init__(self):
        for name in ("length", "k_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not math.isfinite(self.k_s * self.length):
            raise ValueError("k_s * length must be finite")


@dataclass(frozen=True)
class SpectrumTable:
    """Row-wise susceptibility spectrum over a signal-detuning grid."""

    transmission: np.ndarray
    phase: np.ndarray  # rad


def chi0(params: EITParams) -> float:
    """Peak two-level susceptibility magnitude 2 rho |d_eg|^2 / (eps0 hbar Gamma_e)."""
    return 2.0 * params.rho * params.d_eg**2 / (EPSILON_0 * HBAR * params.gamma_e)


def _quotient(a: complex, b: complex) -> complex:
    """a / b as numpy divides complex128 numbers: Smith's method with a
    reciprocal, in floats.  CPython's complex ``/`` rounds differently in
    the last bit, and raises at b = 0 where numpy gives inf or NaN."""
    a, b = complex(a), complex(b)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if abs(br) >= abs(bi):
        if br == 0.0:  # and bi == 0: x / +0.0 is x * inf
            return complex(ar * math.inf, ai * math.inf)
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    if bi == 0.0:  # br is NaN
        return complex(math.nan, math.nan)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


class _Numbers:
    """The numpy functions that D uses, for plain Python numbers: on them
    chi imports no numpy and gives numpy's bits."""

    isinf = staticmethod(math.isinf)
    isfinite = staticmethod(cmath.isfinite)
    logical_not = staticmethod(operator.not_)
    any = staticmethod(bool)
    divide = staticmethod(_quotient)

    @staticmethod
    def asarray(x, dtype):
        return dtype(x)

    @staticmethod
    def isscalar(x) -> bool:
        return True

    @staticmethod
    def where(cond, a, b):
        return a if cond else b

    @staticmethod
    def errstate(**kwargs):  # float arithmetic sets no numpy error state
        return contextlib.nullcontext()


_PLAIN_NUMBERS = frozenset((int, float, complex))


def _namespace(*operands):
    """``_Numbers`` when every operand is a plain Python number, else numpy
    (for arrays and numpy scalars alike)."""
    if _PLAIN_NUMBERS.issuperset(map(type, operands)):
        return _Numbers
    import numpy as np

    return np


def _denominator(gamma_e, gamma_rg, omega_c, delta_c, delta_s, shift=0.0):
    """chi's denominator D at detuning(s) ``delta_s``, broadcast against
    ``shift``, in the arithmetic of ``_namespace``.  An infinite shift (r^6
    underflowing to 0 included) or no coupling beam removes the coupling
    term.  At an exact lossless EIT point (gamma_rg = 0 and
    Delta_c + Delta_s + shift = 0 with Omega_c > 0), or where the coupling
    term overflows, D is infinite (chi = 0), flagged with
    :class:`ExactEITWarning`."""
    xp = _namespace(gamma_e, gamma_rg, omega_c, delta_c, delta_s, shift)
    ds = xp.asarray(delta_s, dtype=float)
    with xp.errstate(all="ignore"):
        two_photon = delta_c + shift + ds
        off = xp.isinf(two_photon) | (omega_c == 0.0)
        coupling = xp.divide(omega_c**2, xp.where(off, 1.0, gamma_rg - 2j * two_photon))
        exact = xp.logical_not(off | xp.isfinite(coupling))
        den = gamma_e - 2j * ds + xp.where(
            off, 0j, xp.where(exact, complex(math.inf), coupling))
    if xp.any(exact):
        warnings.warn("susceptibility evaluated at an exact lossless EIT point; "
                      "returning the analytic limit chi = 0", ExactEITWarning,
                      stacklevel=3)
    return den


def chi(params: EITParams, delta_s, shift=0.0):
    """Evaluate the susceptibility at signal detuning(s) ``delta_s`` [rad/s].

    ``shift`` = C6/(hbar r^6) [rad/s] is the pair-state shift of a stored
    Rydberg excitation at distance r.  It moves the two-photon resonance,
    Delta_c + Delta_s -> Delta_c + Delta_s + shift, and broadcasts against
    ``delta_s``.  Scalars give a complex scalar, arrays a matching array.
    The limits are those of ``_denominator``.
    """
    den = _denominator(params.gamma_e, params.gamma_rg, params.omega_c,
                       params.delta_c, delta_s, shift)
    xp = _namespace(den)
    with xp.errstate(invalid="ignore"):  # chi0 Gamma_e overflowing: NaN
        out = xp.divide(1j * chi0(params) * params.gamma_e, den)
    return complex(out) if xp.isscalar(delta_s) and xp.isscalar(shift) else out


def normalized_chi(gamma_e, gamma_rg, omega_c, delta_c, delta_s):
    """chi / chi0 = i Gamma_e / D at detuning(s) ``delta_s`` [rad/s], with
    chi's limits and no density or dipole moment; all rates angular."""
    den = _denominator(gamma_e, gamma_rg, omega_c, delta_c, delta_s)
    return _namespace(den).divide(1j * gamma_e, den)


def shift_pole(params: EITParams, delta_s: float) -> complex:
    """The shift s_p [rad/s] where D vanishes at detuning ``delta_s``, 0 only
    where Omega_c^2 / (Gamma_e - 2i Delta_s) does; chi is a Moebius function of s:

        chi(s) = chi(inf) + (chi(0) - chi(inf)) s_p / (s_p - s)."""
    return (params.gamma_rg - 2j * (params.delta_c + delta_s)
            + params.omega_c**2 / (params.gamma_e - 2j * delta_s)) / 2j


def two_level(params: EITParams) -> EITParams:
    """The same medium with the coupling beam off (Omega_c = 0)."""
    return EITParams(
        gamma_e=params.gamma_e,
        gamma_rg=params.gamma_rg,
        omega_c=0.0,
        delta_c=0.0,
        rho=params.rho,
        d_eg=params.d_eg,
    )


def od_and_phase(chi_value, geom: MediumGeometry):
    """Optical depth k_s L Im(chi) and phase shift k_s L Re(chi) / 2."""
    kl = geom.k_s * geom.length
    return kl * chi_value.imag, kl * chi_value.real / 2.0


def transmission(od):
    """Intensity transmission exp(-OD); underflows cleanly to 0 at huge OD."""
    import numpy as np

    with np.errstate(under="ignore"):
        return np.exp(-np.asarray(od, dtype=float))[()]


def spectrum(params: EITParams, geom: MediumGeometry, delta_s_grid) -> SpectrumTable:
    """Transmission and phase over a strictly increasing detuning grid."""
    import numpy as np

    ds = np.atleast_1d(np.asarray(delta_s_grid, dtype=float))
    if ds.size == 0:
        raise ValueError("delta_s_grid must be non-empty")
    if ds.size > 1 and not np.all(np.diff(ds) > 0):
        raise ValueError("delta_s_grid must be strictly increasing")
    od, phase = od_and_phase(chi(params, ds), geom)
    return SpectrumTable(transmission=transmission(od), phase=phase)


def _feature_height(params: EITParams, geom: MediumGeometry, ds):
    """Transmission height of the EIT feature above the two-level background
    at detuning(s) ``ds``: one chi call, at shifts 0 and infinity."""
    import numpy as np

    shift = np.array([0.0, math.inf]).reshape((2,) + (1,) * np.ndim(ds))
    t_eit, t_bg = transmission(od_and_phase(chi(params, ds, shift), geom)[0])
    return t_eit - t_bg


def _golden_max(f, a: float, b: float, xtol: float) -> tuple[float, float]:
    """(x, f(x)) at the maximum of a unimodal f on [a, b], by golden-section
    search down to a bracket of width ``xtol`` (or 1e-14 relative)."""
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol + 1e-14 * abs(a):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, float(f(x))


def transmission_fwhm(params: EITParams, geom: MediumGeometry) -> float:
    """Full width at half maximum of the EIT transmission feature [rad/s].

    The feature height is measured relative to the two-level background at
    the same detuning.  A 401-point grid around the two-photon resonance
    Delta_s = -Delta_c brackets the peak, which golden-section search then
    locates to 1e-10 gamma_e.  Each half-height edge is bracketed by steps
    doubling away from the peak and bisected to 1e-9 gamma_e.

    Raises NoEITFeatureError when the coupling beam is off or the peak does
    not exceed the background by 1e-6.
    """
    import numpy as np

    if params.omega_c == 0.0:
        raise NoEITFeatureError("no EIT feature: omega_c = 0")
    # the transparency feature lies between the dressed absorption lines at
    # roughly +-omega_c/2 around the two-photon resonance
    center = -params.delta_c
    half_span = 0.5 * max(params.omega_c, params.gamma_e)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactEITWarning)

        def height(ds):
            return _feature_height(params, geom, ds)

        grid = np.linspace(center - half_span, center + half_span, 401)
        i_pk = int(np.argmax(height(grid)))
        peak, h_peak = _golden_max(
            height,
            grid[max(i_pk - 1, 0)],
            grid[min(i_pk + 1, grid.size - 1)],
            _PEAK_XTOL * params.gamma_e,
        )
        if not h_peak > _MIN_HEIGHT:
            raise NoEITFeatureError(
                f"no EIT feature: peak height {h_peak:.3e} above background "
                f"is below the measurable margin {_MIN_HEIGHT:.1e}"
            )
        half = h_peak / 2.0
        # bracket each edge (rows: left, right) between the last of the
        # doubling steps away from the peak above half height and the first below
        sides = np.array([[-1.0], [1.0]])
        offsets = params.gamma_e / 16.0 * np.r_[0.0, 2.0 ** np.arange(200)]
        below = height(peak + sides * offsets[1:]) < half
        if not below.any(axis=1).all():
            raise NoEITFeatureError("EIT feature has no half-height crossing")
        k = np.argmax(below, axis=1)[:, None]
        inside, outside = (peak + sides * offsets[np.hstack((k, k + 1))]).T
        xtol = _EDGE_XTOL * params.gamma_e + 1e-14 * np.abs(inside)
        while np.any(np.abs(outside - inside) > xtol):
            mid = 0.5 * (inside + outside)
            above = height(mid) >= half
            inside = np.where(above, mid, inside)
            outside = np.where(above, outside, mid)
    left, right = 0.5 * (inside + outside)
    return float(right - left)
