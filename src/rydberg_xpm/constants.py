"""Physical constants and frequency-unit conversions.

All internal frequencies, detunings and rates are angular (rad/s).
Ordinary frequencies in MHz appear only at I/O boundaries; convert with
:func:`angular_from_mhz` / :func:`mhz_from_angular`.

Constants are CODATA 2018 recommended values,
https://physics.nist.gov/cuu/Constants/
"""

from __future__ import annotations

import math

HBAR = 1.054571817e-34  # reduced Planck constant [J s]
EPSILON_0 = 8.8541878128e-12  # vacuum permittivity [F/m]
BOHR_RADIUS = 5.29177210903e-11  # [m]
HARTREE = 4.3597447222071e-18  # Hartree energy [J]

# Rb D2 sigma+- cycling transition dipole matrix element, Steck,
# "Rubidium 87 D Line Data", rev. 2.3.3 (2024), Table 7 [C m]
RB87_D2_CYCLING_DIPOLE = 2.534e-29

TWO_PI = 2.0 * math.pi

SIGNAL_WAVELENGTH = 780e-9  # Rb D2 line [m]
K_S = TWO_PI / SIGNAL_WAVELENGTH  # vacuum wave vector of the signal light [1/m]
C6_ATOMIC_UNIT = HARTREE * BOHR_RADIUS**6  # atomic unit of C6 [J m^6]


def c6_from_atomic_units(c6_au: float) -> float:
    """Convert a van der Waals coefficient from atomic units to J m^6."""
    if not math.isfinite(c6_au):
        raise ValueError(f"c6_au must be finite, got {c6_au}")
    return c6_au * C6_ATOMIC_UNIT


def angular_from_mhz(f: float) -> float:
    """Convert an ordinary frequency in MHz to an angular one in rad/s."""
    if not math.isfinite(f):
        raise ValueError(f"frequency must be finite, got {f}")
    return TWO_PI * f * 1e6


def mhz_from_angular(omega: float) -> float:
    """Inverse of :func:`angular_from_mhz`."""
    if not math.isfinite(omega):
        raise ValueError(f"angular frequency must be finite, got {omega}")
    return omega / (TWO_PI * 1e6)
