"""Default parameter set of the modeled experiment, in config units.

Every default of the run configuration is written here once, as a value:
``config`` pairs each with its check and builds the model objects from
them, and the model dataclasses take their field defaults from here.  The
signal wavelength and the dipole matrix element are literature values kept
in ``constants``.

The physical, source and loss values are measured inputs, except three
calibrated ones (marked): the dephasing rate, coupling Rabi frequency and coupling
detuning were not measured directly; they are fixed here so that the model
reproduces three measured observables simultaneously: the transparency-
feature width FEATURE_FWHM_MHZ, the two-level-minus-EIT phase difference at
the operating point, and an operating point near the minimum of the
no-control phase spectrum.  The model gives a phase difference of 5.999 rad,
inside the 6.6 rad +- 10 % band of acceptance test 02 by 0.06 rad.
OMEGA_C_MHZ was solved for the width condition at the calibrated detuning,
but the width at these defaults is 3.6997904 MHz, -5.7e-5 relative to
FEATURE_FWHM_MHZ; re-solving it would change every output.  Treat these
three like fitted parameters, not measured ones.
"""

# physics
EXCITED_LIFETIME_NS = 26.0
GAMMA_RG_MHZ = 0.2  # calibrated
OMEGA_C_MHZ = 11.556026135894836  # calibrated: see module docstring
DELTA_C_MHZ = 9.15  # calibrated: see module docstring
DELTA_S_OPERATING_MHZ = -10.0
DENSITY_CM3 = 1.8e12
FEATURE_FWHM_MHZ = 3.7

# geometry and blockade
LENGTH_UM = 61.0
EXCITATION_Z_UM = LENGTH_UM / 2.0
C6_ATOMIC_UNITS = 2.3e23
SIGN_REVERSED = False

# counting statistics
MEAN_PHOTONS_CONTROL = 0.6
MEAN_PHOTONS_TARGET = 0.9
DETECTION_EFFICIENCY = 0.25
STORAGE_RETRIEVAL_EFFICIENCY_ZERO_DELAY = 0.2
STORAGE_RETRIEVAL_EFFICIENCY_DELAYED = 0.07
DELAYED_AT_US = 4.5
DELAY_US = 0.0
REPETITIONS = 60000
RNG_SEED = 12345
POSTSELECT = True
BASIS_MODE = "round_robin"
SIGMA_PLUS_SUPPRESSION = 15.0  # reference-arm phase suppression
# phenomenological; reproduces the measured fringe visibility
COHERENCE_FACTOR = 0.75

# grids of the CLI outputs
SPECTRUM_MIN_MHZ = -30.0
SPECTRUM_MAX_MHZ = 30.0
SPECTRUM_POINTS = 241
DENSITY_MIN_CM3 = 2.0e11
DENSITY_POINTS = 9
RETRIEVAL_MAX_US = 10.0
RETRIEVAL_POINTS = 101

# starting point of spectrum fits
FIT_OD_RES = 30.0
FIT_OMEGA_C_MHZ = 12.0
FIT_GAMMA_RG_MHZ = 0.3
FIT_DELTA_C_MHZ = 9.0
FIT_INCLUDE_PHASE = False
FIT_MAX_ITERATIONS = 500


def eit_params(**physics):
    """EIT parameters of the default run with some ``physics`` config keys
    overridden, e.g. ``eit_params(gamma_rg_mhz=0.0)``; shorthand for
    ``RunConfig({"physics": physics}).eit_params()``."""
    from .config import RunConfig

    return RunConfig({"physics": physics}).eit_params()
