"""Physics invariants over the config space.

Each test draws config keys from their ``config._TABLE`` ranges (0 where
the range allows it, and the default times 10^k with |k| <= 3, either sign
where the range allows it), builds the model objects through ``RunConfig``
as the CLI does, skips a draw that the config rejects, and checks an
invariant of the model.  The settings are those of
``tests/test_exit_codes.py``: derandomized, with a fixed example count.
"""

import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from rydberg_xpm.blockade import density_scan, integrated_phase
from rydberg_xpm.config import _TABLE, RunConfig, linspace
from rydberg_xpm.errors import (
    ExactEITWarning,
    InsufficientStatisticsError,
    RydbergXPMError,
)
from rydberg_xpm.photostatistics import MAX_REPETITIONS, tally_stokes, truth_stokes
from rydberg_xpm.polarization import BASIS_NAMES, balanced_input_state
from rydberg_xpm.susceptibility import chi

from conftest import (angle_diff, assert_matches_reference, complex_bits,
                      reference_od_phase)

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def in_range(section: str, key: str):
    """Values of the float key ``section.key`` in its ``_TABLE`` range."""
    default, (_, allowed) = _TABLE[section][key]
    signs = [sign for sign in (1.0, -1.0) if allowed(sign * abs(default))]
    values = st.builds(lambda k, sign: sign * abs(default) * 10.0**k,
                       st.floats(-3.0, 3.0), st.sampled_from(signs))
    if allowed(0.0):
        values = st.one_of(st.just(0.0), values)
    return values.filter(allowed)  # the range's upper bound, if any


@st.composite
def medium_configs(draw):
    """A RunConfig with every physics key and the medium's length, C6 and
    excitation position drawn."""
    overrides = {
        "physics": {key: draw(in_range("physics", key)) for key in _TABLE["physics"]},
        "geometry": {"length_um": draw(in_range("geometry", "length_um"))},
        "blockade": {"c6_atomic_units": draw(in_range("blockade", "c6_atomic_units")),
                     "sign_reversed": draw(st.booleans())},
    }
    overrides["geometry"]["excitation_z_um"] = (
        draw(st.floats(0.0, 1.0)) * overrides["geometry"]["length_um"])
    return RunConfig(overrides)


def built(cfg: RunConfig, *builders: str):
    """The named model objects of ``cfg``; the draw is skipped when the
    config rejects them."""
    try:
        return [getattr(cfg, name)() for name in builders]
    except RydbergXPMError:
        assume(False)


@PROPERTY
@given(cfg=medium_configs())
def test_susceptibility_is_passive(cfg):
    # Im chi >= 0 at every detuning and every pair-state shift, the
    # two-photon resonance, 0 and an infinite shift included
    (params,) = built(cfg, "eit_params")
    width = max(params.omega_c, params.gamma_e, params.gamma_rg)
    ds = np.concatenate((-params.delta_c + width * np.linspace(-4.0, 4.0, 81),
                         [0.0, cfg.delta_s, -params.delta_c]))
    shift = np.concatenate(([0.0, math.inf], np.geomspace(1e-3, 1e3, 13) * width,
                            -np.geomspace(1e-3, 1e3, 13) * width))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactEITWarning)
        values = chi(params, ds[:, None], shift=shift[None, :])
    assert np.all(values.imag >= 0.0)


@PROPERTY
@given(start=st.floats(allow_nan=False, allow_infinity=False),
       stop=st.floats(allow_nan=False, allow_infinity=False),
       num=st.integers(1, 50))
@example(start=0.0, stop=1e-320, num=7)  # a step that underflows to 0
@example(start=-1.7e308, stop=1.7e308, num=3)  # stop - start overflows
@example(start=-0.0, stop=1.0, num=1)
def test_linspace_is_numpys(start, stop, num):
    # the config grids and the retrieval delays have numpy.linspace's bits
    with np.errstate(all="ignore"):
        want = np.linspace(start, stop, num)
    got = linspace(start, stop, num)
    assert struct.pack(f"<{num}d", *got) == want.astype("<f8").tobytes()


def recorded_chi(params, delta_s, shift):
    """chi and the (class, message) of each warning it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = chi(params, delta_s, shift)
    return value, [(w.category, str(w.message)) for w in caught]


# detunings and shifts, given a medium: on and off its two-photon
# resonance, zero, infinite, and the smallest subnormal, which makes the
# coupling term overflow at gamma_rg = 0 and Delta_c + Delta_s = 0
DETUNINGS = {
    "operating": lambda cfg, params, x: cfg.delta_s,
    "two-photon": lambda cfg, params, x: -params.delta_c,
    "scaled": lambda cfg, params, x: x * params.gamma_e,
}
SHIFTS = {
    "zero": lambda params, ds, x: 0.0,
    "infinite": lambda params, ds, x: math.inf,
    "two-photon": lambda params, ds, x: -(params.delta_c + ds),
    "subnormal": lambda params, ds, x: 5e-324,
    "scaled": lambda params, ds, x: x * params.gamma_e,
}


@PROPERTY
@given(cfg=medium_configs(), detuning=st.sampled_from(sorted(DETUNINGS)),
       shift=st.sampled_from(sorted(SHIFTS)),
       x=st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300)))
@example(cfg=RunConfig({"physics": {"omega_c_mhz": 0.0}}), detuning="two-photon",
         shift="zero", x=0.0)
@example(cfg=RunConfig(), detuning="operating", shift="infinite", x=0.0)
@example(cfg=RunConfig({"physics": {"gamma_rg_mhz": 0.0}}), detuning="two-photon",
         shift="zero", x=0.0)
@example(cfg=RunConfig({"physics": {"gamma_rg_mhz": 0.0, "delta_c_mhz": 0.0}}),
         detuning="two-photon", shift="subnormal", x=0.0)
def test_chi_of_numbers_is_chi_of_arrays(cfg, detuning, shift, x):
    # chi at a detuning and a shift given as numbers has the bits and the
    # warnings of chi with either of them in a one-element array: D and its
    # limits are written once for both
    (params,) = built(cfg, "eit_params")
    ds = DETUNINGS[detuning](cfg, params, x)
    s = SHIFTS[shift](params, ds, x)
    number, warned = recorded_chi(params, ds, s)
    assert type(number) is complex
    for args in ((np.array([ds]), s), (ds, np.array([s]))):
        array, array_warned = recorded_chi(params, *args)
        assert array.shape == (1,)
        assert complex_bits(array[0]) == complex_bits(number)
        assert array_warned == warned


@PROPERTY
@given(cfg=medium_configs(),
       fractions=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4, unique=True))
def test_density_scan_is_the_per_point_integrals(cfg, fractions):
    # the scan scales two integrals at its largest density; each row must
    # equal the integrals evaluated afresh at its own density
    params, geom, blk = built(cfg, "eit_params", "geometry", "blockade")
    rho = np.sort(params.rho * np.array(fractions))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactEITWarning)
        scan = density_scan(params, geom, blk, cfg.delta_s, rho)
        direct = np.array([
            [integrated_phase(replace(params, rho=r), geom, blk, cfg.delta_s, n)[1]
             for n in (0, 1)] for r in rho]).T
    for got, want in ((scan.phase0, direct[0]), (scan.phase1, direct[1])):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                   equal_nan=False)


@PROPERTY
@given(cfg=medium_configs())
# |chi| >> 1 with Re chi ~ 0: a phase of 2.5e-12 at an OD of 1.4e6, which
# rounding moves by 0.2 %, or 3e-21 of the integral's modulus
@example(cfg=RunConfig({
    "physics": {"excited_lifetime_ns": 4.2, "gamma_rg_mhz": 0.00515,
                "omega_c_mhz": 0.075, "delta_c_mhz": 0.769, "delta_s_mhz": 0,
                "density_cm3": 2.3e12, "dipole_moment_cm": 5.7e-27,
                "signal_wavelength_nm": 2.25},
    "geometry": {"length_um": 0.72, "excitation_z_um": 0.263},
    "blockade": {"c6_atomic_units": 1.19e26, "sign_reversed": True},
}))
def test_blockade_integral_matches_the_reference(cfg):
    # the closed-form n = 1 integral against a node-doubled quadrature
    params, geom, blk = built(cfg, "eit_params", "geometry", "blockade")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactEITWarning)
        got = integrated_phase(params, geom, blk, cfg.delta_s, 1)
        want = reference_od_phase(params, geom, blk, cfg.delta_s)
    assert_matches_reference(got, want, rtol=1e-6)


STATISTICS = ("mean_photons_control", "mean_photons_target", "detection_efficiency",
              "storage_retrieval_efficiency_zero_delay",
              "storage_retrieval_efficiency_delayed", "delayed_at_us", "delay_us",
              "sigma_plus_suppression", "coherence_factor")


@st.composite
def statistics_overrides(draw):
    """Up to three of the float statistics keys drawn in their ranges (the
    rest at their defaults, where every basis counts photons)."""
    keys = draw(st.lists(st.sampled_from(STATISTICS), max_size=3, unique=True))
    return {key: draw(in_range("statistics", key)) for key in keys}


@PROPERTY
@given(statistics=statistics_overrides(),
       basis_mode=st.sampled_from(["round_robin", "random"]),
       postselect=st.booleans(),
       repetitions=st.one_of(st.integers(1, 4000), st.integers(1, MAX_REPETITIONS)),
       seed=st.integers(0, 2**128 - 1),
       truth=st.tuples(st.floats(0.0, 4.0), st.floats(-10.0, 10.0),
                       st.floats(0.0, 4.0), st.floats(-10.0, 10.0)))
def test_tally_summarizes_every_shot(statistics, basis_mode, postselect,
                                     repetitions, seed, truth):
    # at any repetition count the tally counts every shot, keeps every shot
    # without postselection and at most all of them with it, sums integer
    # counts, or names a basis without counts
    cfg = RunConfig({"statistics": dict(statistics, basis_mode=basis_mode,
                                        repetitions=repetitions, rng_seed=seed)})
    (experiment,) = built(cfg, "experiment")
    state = balanced_input_state(truth[2])
    try:
        summary = tally_stokes(experiment, truth, state, postselect)
    except InsufficientStatisticsError as exc:
        assert exc.basis in BASIS_NAMES
        return
    assert summary.n_total == repetitions
    if postselect:
        assert 0 <= summary.n_postselected <= repetitions
    else:
        assert summary.n_postselected == repetitions
    for a, c in summary.counts.values():
        assert isinstance(a, int) and isinstance(c, int)
        assert a >= 0 and c >= 0 and a + c > 0
    assert all(abs(x) <= 1.0 for x in (summary.stokes.s_hv, summary.stokes.s_da,
                                        summary.stokes.s_lr))


# OD up to 745: apply_medium raises InsufficientStatisticsError from about
# 745.2, where the output power underflows to 0; below it the port powers,
# subnormal from about 708, are formed after an exact power-of-two scaling
@PROPERTY
@given(coherence=st.one_of(st.just(1.0), in_range("statistics", "coherence_factor")),
       suppression=in_range("statistics", "sigma_plus_suppression"),
       od=st.floats(0.0, 745.0), phi=st.floats(-100.0, 100.0))
def test_truth_stokes_radius_at_most_one(coherence, suppression, od, phi):
    # a pure state (coherence 1) is on the sphere, a depolarized one inside
    cfg = RunConfig({"statistics": {"coherence_factor": coherence,
                                    "sigma_plus_suppression": suppression}})
    (experiment,) = built(cfg, "experiment")
    truth = truth_stokes(experiment, od, phi, balanced_input_state(od))
    assert truth.s0 <= 1.0 + 1e-15


@PROPERTY
@given(od=st.floats(0.0, 745.0), phi=st.floats(-100.0, 100.0))
def test_truth_azimuth_is_the_medium_phase(od, phi):
    # a pure state and no sigma+ phase: the azimuth reads phi out directly
    experiment = replace(RunConfig().experiment(), coherence_factor=1.0,
                         sigma_plus_suppression=math.inf)
    truth = truth_stokes(experiment, od, phi, balanced_input_state(od))
    assert angle_diff(truth.phi, phi) == pytest.approx(0.0, abs=1e-13)
