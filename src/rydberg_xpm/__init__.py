"""Rydberg-EIT cross-phase modulation toolkit.

Model chain: complex susceptibility -> propagation (optical depth, phase)
-> blockade-modified phase of a stored excitation -> output polarization
state -> Stokes tomography and photon-counting statistics; plus spectrum
fitting and a reproducible CLI.
"""

__version__ = "0.1.0"

from .blockade import (
    BlockadeParams,
    DensityScan,
    blockade_radius,
    density_scan,
    hard_sphere_controlled_phase,
    integrated_phase,
    vdw_shift,
)
from .constants import (
    CONSTANTS,
    PhysicalConstants,
    angular_from_mhz,
    c6_from_atomic_units,
    mhz_from_angular,
)
from .fitting import FitParameters, FitResult, SpectrumData, fit_spectrum, predict
from .photostatistics import (
    CountSummary,
    ExperimentConfig,
    estimate_stokes,
    output_state,
    retrieval_efficiency,
    simulate_batch,
    truth_stokes,
)
from .polarization import (
    PolarizationState,
    StokesVector,
    apply_medium,
    balanced_input_state,
    fringe_power,
    stokes,
    visibility,
)
from .susceptibility import (
    EITParams,
    MediumGeometry,
    SpectrumTable,
    chi,
    chi0,
    od_and_phase,
    spectrum,
    transmission,
    transmission_fwhm,
    two_level,
)

__all__ = [
    "BlockadeParams",
    "CONSTANTS",
    "CountSummary",
    "DensityScan",
    "EITParams",
    "ExperimentConfig",
    "FitParameters",
    "FitResult",
    "MediumGeometry",
    "PhysicalConstants",
    "PolarizationState",
    "SpectrumData",
    "SpectrumTable",
    "StokesVector",
    "angular_from_mhz",
    "apply_medium",
    "balanced_input_state",
    "blockade_radius",
    "c6_from_atomic_units",
    "chi",
    "chi0",
    "density_scan",
    "estimate_stokes",
    "fit_spectrum",
    "fringe_power",
    "hard_sphere_controlled_phase",
    "integrated_phase",
    "mhz_from_angular",
    "od_and_phase",
    "output_state",
    "predict",
    "retrieval_efficiency",
    "truth_stokes",
    "simulate_batch",
    "spectrum",
    "stokes",
    "transmission",
    "transmission_fwhm",
    "two_level",
    "vdw_shift",
    "visibility",
]
