"""Physics invariants over the config space.

Each test draws config keys from their ``config._TABLE`` ranges (0 where
the range allows it, and the default times 10^k with |k| <= 3, either sign
where the range allows it), builds the model objects through ``RunConfig``
as the CLI does, skips a draw that the config rejects, and checks an
invariant of the model.  The settings are those of
``tests/test_exit_codes.py``: derandomized, with a fixed example count.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rydberg_xpm.blockade import density_scan, integrated_phase
from rydberg_xpm.config import _TABLE, RunConfig
from rydberg_xpm.constants import HBAR
from rydberg_xpm.errors import (
    ExactEITWarning,
    InsufficientStatisticsError,
    QuadratureError,
    RydbergXPMError,
)
from rydberg_xpm.photostatistics import (
    CHUNK_SHOTS,
    estimate_stokes,
    simulate_batch,
    tally_stokes,
    truth_stokes,
)
from rydberg_xpm.polarization import balanced_input_state
from rydberg_xpm.susceptibility import chi

from conftest import angle_diff

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
@given(cfg=medium_configs(),
       fractions=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4, unique=True))
def test_density_scan_is_the_per_point_integrals(cfg, fractions):
    # the scan scales two integrals at its largest density; each row must
    # equal the integrals evaluated afresh at its own density
    params, geom, blk = built(cfg, "eit_params", "geometry", "blockade")
    rho = np.sort(params.rho * np.array(fractions))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExactEITWarning)
            scan = density_scan(params, geom, blk, cfg.delta_s, rho)
            direct = np.array([
                [integrated_phase(replace(params, rho=r), geom, blk, cfg.delta_s, n)[1]
                 for n in (0, 1)] for r in rho]).T
    except QuadratureError:
        assume(False)
    for got, want in ((scan.phase0, direct[0]), (scan.phase1, direct[1])):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                   equal_nan=False)


def reference_integral(params, blk, delta_s, side: float) -> complex:
    """The integral of chi over r in [0, side] on one side of the stored
    excitation, shift C6 / (hbar r^6): composite Gauss-Legendre on one
    panel out to side 1e-30 and ten geometric panels per decade beyond,
    with the nodes per panel doubled from 16 until two results agree to
    1e-10 relative."""
    edges = np.concatenate(([0.0], side * np.geomspace(1e-30, 1.0, 301)))
    a, half = edges[:-1, None], np.diff(edges)[:, None] / 2.0
    previous = None
    for nodes in (16, 32, 64, 128, 256, 512):
        x, w = np.polynomial.legendre.leggauss(nodes)
        r = a + half * (1.0 + x)
        with np.errstate(divide="ignore", over="ignore"):
            shift = blk.c6 / (HBAR * r**6) if blk.c6 > 0.0 else np.zeros_like(r)
        total = complex(np.sum(half * chi(params, delta_s, shift=shift) @ w))
        if previous is not None and abs(total - previous) <= 1e-10 * abs(total):
            return total
        previous = total
    raise AssertionError(f"the reference did not converge: {previous}")


@PROPERTY
@given(cfg=medium_configs())
def test_blockade_integral_matches_the_reference(cfg):
    # the n = 1 integral on its panels against a finer, node-doubled
    # reference on panels of its own, to the integral's 1e-6 tolerance
    params, geom, blk = built(cfg, "eit_params", "geometry", "blockade")
    ds, flipped = cfg.delta_s, params
    if blk.sign_reversed:  # both detunings flip (BlockadeParams)
        ds, flipped = -ds, replace(params, delta_c=-params.delta_c)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExactEITWarning)
            od, phase = integrated_phase(params, geom, blk, cfg.delta_s, 1)
            total = sum(reference_integral(flipped, blk, ds, side)
                        for side in (blk.excitation_z, geom.length - blk.excitation_z)
                        if side > 0.0)
    except QuadratureError:
        assume(False)
    floor = 1e-12 * geom.k_s * geom.length  # the integral's own, for a small part
    for got, want in ((od, geom.k_s * total.imag),
                      (phase, geom.k_s * total.real / 2.0)):
        assert abs(got - want) <= 1e-6 * max(abs(want), floor)


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
       repetitions=st.one_of(st.integers(1, 4000),
                             st.integers(CHUNK_SHOTS - 3, CHUNK_SHOTS + 4000)),
       seed=st.integers(0, 2**128 - 1),
       truth=st.tuples(st.floats(0.0, 4.0), st.floats(-10.0, 10.0),
                       st.floats(0.0, 4.0), st.floats(-10.0, 10.0)))
def test_tally_is_the_estimate_of_one_batch(statistics, basis_mode, postselect,
                                            repetitions, seed, truth):
    # the chunked tally gives the counts, the kept count, and the empty
    # basis, of one batch of every shot
    cfg = RunConfig({"statistics": dict(statistics, basis_mode=basis_mode,
                                        repetitions=repetitions, rng_seed=seed)})
    (experiment,) = built(cfg, "experiment")
    state = balanced_input_state(truth[2])
    try:
        whole = estimate_stokes(simulate_batch(experiment, truth, state), postselect)
    except InsufficientStatisticsError as exc:
        with pytest.raises(InsufficientStatisticsError) as err:
            tally_stokes(experiment, truth, state, postselect)
        assert err.value.basis == exc.basis
    else:
        assert tally_stokes(experiment, truth, state, postselect) == whole


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
