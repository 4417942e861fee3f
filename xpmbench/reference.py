"""Independent references for the benchmark's output checks.

Everything here is written from the physics, with numpy only, and calls no
function of the package under test.  The formulas follow the modelled
experiment:

* ladder-EIT susceptibility
      chi = i chi0 Gamma_e / (Gamma_e - 2i Delta_s
                              + Omega_c^2 / (gamma_rg - 2i (Delta_c + Delta_s + V)))
  with chi0 = 2 rho d^2 / (eps0 hbar Gamma_e) and V = C6 / (hbar r^6) the
  van der Waals shift of a stored excitation at distance r (V = 0 without
  one); propagation gives OD = k L Im(chi) and phase = k L Re(chi) / 2;
* the blockade-shifted susceptibility integrated along the axis by
  composite Gauss-Legendre quadrature on panels spaced geometrically around
  the r^-6 crossover, whose accuracy is shown by doubling the nodes;
* the half-maximum width of the transparency feature (EIT minus two-level
  transmission) found on a dense grid;
* Stokes parameters from closed-form port powers of the output density
  matrix, mixed over stored and unstored shots when not postselected;
* binomial expectations of postselected shot counts;
* the retrieval curve eta(t) = eta0 exp(-t / tau), tau = t_d / ln(eta0 / eta_d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# CODATA 2018
HBAR = 1.054571817e-34
EPS0 = 8.8541878128e-12
C6_ATOMIC_UNIT = 4.3597447222071e-18 * 5.29177210903e-11**6  # J m^6

# The program's documented default parameter set, in config units.
DEFAULTS = {
    "excited_lifetime_ns": 26.0,
    "gamma_rg_mhz": 0.2,
    "omega_c_mhz": 11.556026135894836,
    "delta_c_mhz": 9.15,
    "delta_s_mhz": -10.0,
    "density_cm3": 1.8e12,
    "dipole_moment_cm": 2.534e-29,
    "signal_wavelength_nm": 780.0,
    "length_um": 61.0,
    "excitation_z_um": 30.5,
    "c6_atomic_units": 2.3e23,
    "mean_photons_control": 0.6,
    "mean_photons_target": 0.9,
    "detection_efficiency": 0.25,
    "storage_retrieval_efficiency_zero_delay": 0.2,
    "storage_retrieval_efficiency_delayed": 0.07,
    "delayed_at_us": 4.5,
    "sigma_plus_suppression": 15.0,
    "coherence_factor": 0.75,
}


def angular(mhz):
    return 2.0 * math.pi * 1e6 * mhz


@dataclass(frozen=True)
class Medium:
    """SI model parameters; rates and detunings angular (rad/s)."""

    gamma_e: float
    gamma_rg: float
    omega_c: float
    delta_c: float
    delta_s: float
    rho: float  # 1/m^3
    d_eg: float
    length: float
    k_s: float
    c6: float  # J m^6
    z0: float

    @classmethod
    def from_values(cls, **overrides) -> "Medium":
        v = {**DEFAULTS, **overrides}
        return cls(
            gamma_e=1.0 / (v["excited_lifetime_ns"] * 1e-9),
            gamma_rg=angular(v["gamma_rg_mhz"]),
            omega_c=angular(v["omega_c_mhz"]),
            delta_c=angular(v["delta_c_mhz"]),
            delta_s=angular(v["delta_s_mhz"]),
            rho=v["density_cm3"] * 1e6,
            d_eg=v["dipole_moment_cm"],
            length=v["length_um"] * 1e-6,
            k_s=2.0 * math.pi / (v["signal_wavelength_nm"] * 1e-9),
            c6=v["c6_atomic_units"] * C6_ATOMIC_UNIT,
            z0=v["excitation_z_um"] * 1e-6,
        )

    @property
    def chi0(self) -> float:
        """Peak two-level susceptibility 2 rho d^2 / (eps0 hbar Gamma_e)."""
        return 2.0 * self.rho * self.d_eg**2 / (EPS0 * HBAR * self.gamma_e)

    @property
    def od_res(self) -> float:
        """Resonant two-level optical depth k L chi0."""
        return self.k_s * self.length * self.chi0

    def reversed(self) -> "Medium":
        """Both detunings sign-flipped; the interaction is unchanged."""
        return replace(self, delta_c=-self.delta_c, delta_s=-self.delta_s)

    def at_density(self, rho: float) -> "Medium":
        return replace(self, rho=rho)


def chi(m: Medium, delta_s, shift=0.0, coupled: bool = True):
    """Susceptibility at signal detuning(s) delta_s with pair shift(s) [rad/s]."""
    ds = np.asarray(delta_s, dtype=float)
    den = m.gamma_e - 2j * ds
    if coupled and m.omega_c > 0.0:
        den = den + m.omega_c**2 / (m.gamma_rg - 2j * (m.delta_c + ds + shift))
    return 1j * m.chi0 * m.gamma_e / den


def od_phase(m: Medium, chi_value):
    kl = m.k_s * m.length
    return kl * np.imag(chi_value), kl * np.real(chi_value) / 2.0


def uniform_od_phase(m: Medium, coupled: bool = True) -> tuple[float, float]:
    """(OD, phase) of the uniform medium at its operating detuning."""
    od, ph = od_phase(m, chi(m, m.delta_s, coupled=coupled))
    return float(od), float(ph)


# -- blockade integral ------------------------------------------------------

_PANELS_PER_DECADE = 16  # in r; the vdW shift changes 6 decades per decade of r


def _radial_panels(m: Medium, r_max: float) -> np.ndarray:
    """Panel edges in r on [0, r_max], geometric around the crossover."""
    w_ref = max(m.gamma_e, abs(m.delta_c + m.delta_s), m.gamma_rg)
    r_ref = (m.c6 / (HBAR * w_ref)) ** (1.0 / 6.0)
    # r_lo: shift 1e9 x w_ref, the two-level limit to ~1e-9
    r_lo = r_ref * 10.0 ** (-1.5)
    if r_lo >= r_max:
        return np.array([0.0, r_max])
    n = int(math.ceil(math.log10(r_max / r_lo) * _PANELS_PER_DECADE))
    return np.concatenate(([0.0], np.geomspace(r_lo, r_max, n + 1)))


def _gl_radial(m: Medium, r_max: float, nodes: int) -> complex:
    edges = _radial_panels(m, r_max)
    x, w = np.polynomial.legendre.leggauss(nodes)
    a, b = edges[:-1, None], edges[1:, None]
    r = 0.5 * (b - a) * x + 0.5 * (b + a)
    with np.errstate(over="ignore"):
        shift = m.c6 / (HBAR * r**6)
    vals = chi(m, m.delta_s, shift=shift)
    return complex(np.sum(0.5 * (b - a) * w * vals))


def blockaded_od_phase(m: Medium, nodes: int = 32) -> tuple[float, float, float]:
    """(OD, phase, relative accuracy) with one excitation stored at z0.

    The integral over z in [0, L] is split at z0 into two radial integrals.
    The accuracy is |I(nodes) - I(2 nodes)| / |I(2 nodes)| per component.
    """
    if m.c6 == 0.0:
        od, ph = uniform_od_phase(m)
        return od, ph, 0.0
    sides = (m.z0, m.length - m.z0)
    coarse = sum(_gl_radial(m, s, nodes) for s in sides if s > 0)
    fine = sum(_gl_radial(m, s, 2 * nodes) for s in sides if s > 0)
    acc = max(
        abs(fine.real - coarse.real) / abs(fine.real),
        abs(fine.imag - coarse.imag) / abs(fine.imag),
    )
    return m.k_s * fine.imag, m.k_s * fine.real / 2.0, acc


# -- transparency width ------------------------------------------------------


def _feature_height(m: Medium, ds: np.ndarray) -> np.ndarray:
    kl = m.k_s * m.length
    t_eit = np.exp(-kl * np.imag(chi(m, ds)))
    t_two = np.exp(-kl * np.imag(chi(m, ds, coupled=False)))
    return t_eit - t_two


def feature_fwhm(m: Medium, points: int = 400_001) -> float:
    """FWHM [rad/s] of the EIT transmission feature above the two-level
    background, from a dense grid with a parabolic peak and linearly
    interpolated half-height crossings."""
    center = -m.delta_c
    span = max(m.omega_c, m.gamma_e)
    grid = np.linspace(center - 2.0 * span, center + 2.0 * span, points)
    h = _feature_height(m, grid)
    inner = np.abs(grid - center) <= 0.5 * span  # where the feature lies
    i = int(np.flatnonzero(inner)[np.argmax(h[inner])])
    y0, y1, y2 = h[i - 1], h[i], h[i + 1]
    peak = y1 + (y0 - y2) ** 2 / (8.0 * (2.0 * y1 - y0 - y2))
    half = peak / 2.0
    below = h < half
    j = int(np.flatnonzero(below[:i])[-1])  # left crossing in [j, j+1]
    k = i + int(np.flatnonzero(below[i:])[0])  # right crossing in [k-1, k]

    def cross(a: int, b: int) -> float:
        return grid[a] + (half - h[a]) * (grid[b] - grid[a]) / (h[b] - h[a])

    return cross(k - 1, k) - cross(j, j + 1)


def blockade_radius(c6: float, width: float) -> float:
    return (c6 / (HBAR * width)) ** (1.0 / 6.0)


# -- spectrum fits -------------------------------------------------------------


def fit_model(od_res, omega_c, gamma_rg, delta_c, gamma_e, delta_s):
    """Transmission and phase from the resonant OD k L chi0 = od_res."""
    ds = np.asarray(delta_s, dtype=float)
    den = gamma_e - 2j * ds + omega_c**2 / (gamma_rg - 2j * (delta_c + ds))
    z = gamma_e / den  # k L chi = i od_res z
    return np.exp(-od_res * z.real), -od_res * z.imag / 2.0


# -- polarization tomography -------------------------------------------------

_SQ2 = math.sqrt(2.0)
# port vectors in the (sigma+, sigma-) basis, sigma+- = (H +- iV)/sqrt2
_H = np.array([1.0, 1.0]) / _SQ2
_V = np.array([-1j, 1j]) / _SQ2
PORTS = {
    "HV": (_H, _V),
    "DA": ((_H + _V) / _SQ2, (_H - _V) / _SQ2),
    "LR": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
}


@dataclass(frozen=True)
class Tomography:
    mean_photons_control: float
    mean_photons_target: float
    detection_efficiency: float
    eta0: float
    eta_delayed: float
    delayed_at: float  # s
    delay: float  # s
    suppression: float
    coherence: float

    @classmethod
    def from_values(cls, **overrides) -> "Tomography":
        v = {**DEFAULTS, "delay_us": 0.0, **overrides}
        return cls(
            mean_photons_control=v["mean_photons_control"],
            mean_photons_target=v["mean_photons_target"],
            detection_efficiency=v["detection_efficiency"],
            eta0=v["storage_retrieval_efficiency_zero_delay"],
            eta_delayed=v["storage_retrieval_efficiency_delayed"],
            delayed_at=v["delayed_at_us"] * 1e-6,
            delay=v["delay_us"] * 1e-6,
            suppression=v["sigma_plus_suppression"],
            coherence=v["coherence_factor"],
        )

    @property
    def p_stored(self) -> float:
        """Probability that a shot stores the control photon, with the
        storage probability sqrt(eta0) per photon."""
        return 1.0 - math.exp(-self.mean_photons_control * math.sqrt(self.eta0))

    @property
    def p_retrieved(self) -> float:
        """Probability that a shot stores and then retrieves the photon."""
        if self.eta0 == 0.0:
            return 0.0
        return self.p_stored * retrieval(self, self.delay) / math.sqrt(self.eta0)


def retrieval(t: Tomography, delay):
    """eta(t) = eta0 exp(-t / tau) through the two measured points."""
    d = np.asarray(delay, dtype=float)
    if t.eta0 == 0.0 or t.eta_delayed == 0.0:
        return np.where(d == 0.0, t.eta0, 0.0)
    if t.eta_delayed == t.eta0:
        return np.full(d.shape, t.eta0)
    tau = t.delayed_at / math.log(t.eta0 / t.eta_delayed)
    return t.eta0 * np.exp(-d / tau)


def balanced_input(od1: float) -> tuple[float, float]:
    """Normalized (c+, c-) with |c+| = |c-| exp(-od1/2)."""
    cp = math.exp(-od1 / 2.0)
    n = math.sqrt(cp * cp + 1.0)
    return cp / n, 1.0 / n


def port_powers(t: Tomography, c_in, od: float, phase: float) -> dict:
    """Power in each port (basis -> (k, l)) after the medium (od, phase)."""
    cp = c_in[0] * np.exp(1j * phase / t.suppression)
    cm = c_in[1] * math.exp(-od / 2.0) * np.exp(1j * phase)
    rho = np.array([[abs(cp) ** 2, t.coherence * cp * np.conj(cm)],
                    [t.coherence * np.conj(cp) * cm, abs(cm) ** 2]])
    out = {}
    for name, (ek, el) in PORTS.items():
        out[name] = tuple(float(np.real(np.conj(e) @ rho @ e)) for e in (ek, el))
    return out


def stokes_truth(t: Tomography, c_in, media, weights) -> dict:
    """Stokes parameter per basis for a mixture of media (od, phase) with
    weights: (sum w (P_k - P_l)) / (sum w (P_k + P_l))."""
    powers = [port_powers(t, c_in, od, ph) for od, ph in media]
    out = {}
    for name in PORTS:
        num = sum(w * (p[name][0] - p[name][1]) for w, p in zip(weights, powers))
        den = sum(w * (p[name][0] + p[name][1]) for w, p in zip(weights, powers))
        out[name] = num / den
    return out


def stokes_sigma(t: Tomography, c_in, unstored, stored, postselect: bool,
                 counts: dict, shots_per_basis: dict) -> dict:
    """One standard deviation of each Stokes estimate: binomial splitting of
    the observed counts, plus, without postselection, the spread of the
    stored fraction among a basis's shots."""
    ps = t.p_stored
    sig = {}
    for name, (a, c) in counts.items():
        n_counts = a + c
        if postselect:
            s = stokes_truth(t, c_in, [stored], [1.0])[name]
            sig[name] = math.sqrt(max(1.0 - s * s, 0.0) / n_counts)
            continue
        s = stokes_truth(t, c_in, [unstored, stored], [1.0 - ps, ps])[name]
        var = max(1.0 - s * s, 0.0) / n_counts
        if 0.0 < ps < 1.0:
            eps = 1e-6
            lo = stokes_truth(t, c_in, [unstored, stored], [1 - ps + eps, ps - eps])
            hi = stokes_truth(t, c_in, [unstored, stored], [1 - ps - eps, ps + eps])
            slope = (hi[name] - lo[name]) / (2 * eps)
            var += slope**2 * ps * (1.0 - ps) / shots_per_basis[name]
        sig[name] = math.sqrt(var)
    return sig


def binomial_ok(k: int, n: int, p: float, z: float = 6.0) -> bool:
    """Whether k successes in n trials lie within z sigma of n p."""
    sd = math.sqrt(n * p * (1.0 - p))
    return abs(k - n * p) <= z * sd + 1e-9
