import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydberg_xpm import defaults, susceptibility
from rydberg_xpm.config import RunConfig
from rydberg_xpm.constants import angular_from_mhz, mhz_from_angular
from rydberg_xpm.errors import ConfigError, ExactEITWarning, NoEITFeatureError
from rydberg_xpm.susceptibility import (
    _EDGE_XTOL,
    _MIN_HEIGHT,
    _PEAK_XTOL,
    EITParams,
    MediumGeometry,
    _golden_max,
    chi,
    chi0,
    normalized_chi,
    od_and_phase,
    shift_pole,
    spectrum,
    transmission,
    transmission_fwhm,
    two_level,
)

from conftest import complex_bits

# frozen from an independent 50-digit evaluation of the closed-form expression
CHI0_REF = 0.064367135022858280
CHI_OP_REF = -0.006404594059466964 + 0.001697686375905064j


def reference_chi(params: EITParams, ds: float) -> complex:
    """Independent evaluation with rationalized real arithmetic only."""
    x0 = 2.0 * params.rho * params.d_eg**2 / (8.8541878128e-12 * 1.054571817e-34
                                              * params.gamma_e)
    if params.omega_c == 0.0:
        den_re, den_im = params.gamma_e, -2.0 * ds
    else:
        in_re = params.gamma_rg
        in_im = -2.0 * (params.delta_c + ds)
        mag = in_re**2 + in_im**2
        den_re = params.gamma_e + params.omega_c**2 * in_re / mag
        den_im = -2.0 * ds - params.omega_c**2 * in_im / mag
    mag_d = den_re**2 + den_im**2
    return complex(x0 * params.gamma_e * den_im / mag_d,
                   x0 * params.gamma_e * den_re / mag_d)


class TestChi0:
    def test_zero_density(self, params):
        assert chi0(replace(params, rho=0.0)) == 0.0

    def test_linear_in_density(self, params):
        assert chi0(replace(params, rho=2 * params.rho)) == 2 * chi0(params)

    def test_golden_value(self, params):
        assert chi0(params) == pytest.approx(CHI0_REF, rel=1e-12)


class TestChi:
    def test_two_level_resonance_is_imaginary_peak(self, params):
        p = two_level(params)
        assert chi(p, 0.0) == pytest.approx(1j * chi0(p), rel=1e-15)

    def test_exact_eit_point_returns_zero_and_warns(self, params):
        p = replace(params, gamma_rg=0.0)
        with pytest.warns(ExactEITWarning):
            value = chi(p, -p.delta_c)
        assert value == 0.0

    def test_golden_operating_point(self, params, ds_op):
        assert chi(params, ds_op) == pytest.approx(CHI_OP_REF, rel=1e-12)

    def test_golden_estimated_coupling(self, ds_op):
        # same golden procedure at the estimated (uncalibrated) coupling
        # strength with the coupling laser on resonance
        p = defaults.eit_params(omega_c_mhz=18.0, delta_c_mhz=0.0)
        ref = 0.0277733920728318008 + 0.0459039391159985825j
        assert chi(p, ds_op) == pytest.approx(ref, rel=1e-12)

    def test_matches_rationalized_reference(self, params):
        for ds_mhz in (-25.0, -10.0, -3.3, 0.7, 18.0):
            ds = angular_from_mhz(ds_mhz)
            assert chi(params, ds) == pytest.approx(
                reference_chi(params, ds), rel=1e-13
            )

    @settings(max_examples=100, derandomize=True)
    @given(ds_mhz=st.floats(-100, 100, allow_nan=False))
    def test_two_level_reduction(self, ds_mhz):
        params = two_level(defaults.eit_params())
        ds = angular_from_mhz(ds_mhz)
        expected = 1j * chi0(params) * params.gamma_e / (params.gamma_e - 2j * ds)
        assert chi(params, ds) == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=200, derandomize=True)
    @given(
        ds_mhz=st.floats(-100, 100, allow_nan=False),
        dc_mhz=st.floats(-100, 100, allow_nan=False),
        oc_mhz=st.floats(0, 50, allow_nan=False),
        grg_mhz=st.floats(0, 5, allow_nan=False),
    )
    def test_passivity(self, ds_mhz, dc_mhz, oc_mhz, grg_mhz):
        params = defaults.eit_params(
            gamma_rg_mhz=grg_mhz, omega_c_mhz=oc_mhz, delta_c_mhz=dc_mhz
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExactEITWarning)
            value = chi(params, angular_from_mhz(ds_mhz))
        assert value.imag >= -1e-15 * chi0(params)

    def test_underflowing_two_photon_detuning_is_transparency(self):
        # a denormal two-photon detuning overflows the inner fraction; the
        # analytic limit is still exact transparency, never NaN
        p = defaults.eit_params(
            gamma_rg_mhz=0.0, omega_c_mhz=50.0, delta_c_mhz=5e-324
        )
        with pytest.warns(ExactEITWarning):
            assert chi(p, 0.0) == 0.0

    def test_large_detuning_decay(self, params):
        for ds in (angular_from_mhz(1e4), angular_from_mhz(-1e4)):
            assert abs(chi(params, ds)) < 1e-3 * chi0(params)

    def test_exact_linearity_in_density(self, params, ds_op):
        doubled = replace(params, rho=2 * params.rho)
        assert chi(doubled, ds_op) == 2 * chi(params, ds_op)

    def test_vectorized_matches_scalar(self, params):
        grid = angular_from_mhz(1.0) * np.array([-12.0, -3.0, 4.5])
        vec = chi(params, grid)
        for i, ds in enumerate(grid):
            assert vec[i] == chi(params, float(ds))

    def test_no_coupling_at_two_photon_resonance_is_two_level(self, params):
        # omega_c = 0 removes the coupling term even where its denominator
        # gamma_rg - 2i (Delta_c + Delta_s) vanishes: no exact EIT point
        p = replace(params, omega_c=0.0, gamma_rg=0.0)
        ds = -p.delta_c
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExactEITWarning)
            value = chi(p, ds)
        expected = 1j * chi0(p) * p.gamma_e / (p.gamma_e - 2j * ds)
        assert value == pytest.approx(expected, rel=1e-15)

    def test_normalized_chi_is_chi_over_chi0(self, params):
        grid = angular_from_mhz(1.0) * np.linspace(-40.0, 40.0, 161)
        x = normalized_chi(params.gamma_e, params.gamma_rg, params.omega_c,
                           params.delta_c, grid)
        np.testing.assert_allclose(x, chi(params, grid) / chi0(params),
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("ds_mhz", [-12.0, -10.0, -3.3, 0.7, 18.0])
    def test_moebius_form_in_the_shift(self, params, ds_mhz):
        # chi(s) = chi(inf) + (chi(0) - chi(inf)) s_p / (s_p - s), at shifts
        # of both signs, out to 1e3 gamma_e and within 1e-6 relative of Re(s_p)
        ds = angular_from_mhz(ds_mhz)
        s_p = shift_pole(params, ds)
        shifts = np.concatenate((
            s_p.real * np.array([1.0 - 1e-6, 1.0 + 1e-6]),
            params.gamma_e * np.array([-1e3, -10.0, -1.0, -0.1, 0.1, 1.0, 10.0, 1e3]),
        ))
        chi_0, chi_inf = chi(params, ds, shift=np.array([0.0, np.inf]))
        moebius = chi_inf + (chi_0 - chi_inf) * s_p / (s_p - shifts)
        np.testing.assert_allclose(moebius, chi(params, ds, shift=shifts),
                                   rtol=1e-13, atol=0.0)


class TestPropagation:
    def test_zero_susceptibility(self, geom):
        od, phase = od_and_phase(0.0 + 0.0j, geom)
        assert od == 0.0 and phase == 0.0

    def test_pure_absorption(self, geom):
        od, phase = od_and_phase(0.01j, geom)
        assert od == pytest.approx(geom.k_s * geom.length * 0.01, rel=1e-15)
        assert phase == 0.0

    def test_length_linearity(self, params, ds_op):
        g1 = MediumGeometry(length=30e-6)
        g2 = MediumGeometry(length=60e-6)
        c = chi(params, ds_op)
        od1, ph1 = od_and_phase(c, g1)
        od2, ph2 = od_and_phase(c, g2)
        assert od2 == pytest.approx(2 * od1, rel=1e-15)
        assert ph2 == pytest.approx(2 * ph1, rel=1e-15)

    def test_huge_od_clamps_to_zero_transmission(self):
        assert transmission(1e4) == 0.0


class TestSpectrum:
    def test_empty_grid_rejected(self, params, geom):
        with pytest.raises(ValueError):
            spectrum(params, geom, [])

    def test_non_monotone_grid_rejected(self, params, geom):
        with pytest.raises(ValueError):
            spectrum(params, geom, angular_from_mhz(1.0) * np.array([0.0, 2.0, 1.0]))

    def test_two_level_parity(self, params, geom):
        grid = angular_from_mhz(1.0) * np.linspace(-20, 20, 81)
        table = spectrum(two_level(params), geom, grid)
        assert table.transmission == pytest.approx(table.transmission[::-1], rel=1e-12)
        assert table.phase == pytest.approx(-table.phase[::-1], abs=1e-12)

    def test_lossless_eit_full_transmission(self, geom):
        p = defaults.eit_params(gamma_rg_mhz=0.0, delta_c_mhz=0.0)
        with pytest.warns(ExactEITWarning):
            table = spectrum(p, geom, [0.0])
        assert table.transmission[0] == 1.0
        assert table.phase[0] == 0.0

    def test_golden_rows_match_reference(self, params, geom):
        grid = angular_from_mhz(1.0) * np.array([-20.0, -10.0, 1.5])
        table = spectrum(params, geom, grid)
        kl = geom.k_s * geom.length
        for i, ds in enumerate(grid):
            ref = reference_chi(params, float(ds))
            assert table.transmission[i] == pytest.approx(
                np.exp(-kl * ref.imag), rel=1e-12
            )
            assert table.phase[i] == pytest.approx(kl * ref.real / 2, rel=1e-12)

    def test_operating_point_snapshot(self, params, geom, ds_op):
        table = spectrum(params, geom, [ds_op])
        assert table.transmission[0] == pytest.approx(0.4342197360126303, rel=1e-10)
        assert table.phase[0] == pytest.approx(-1.5735361082477184, rel=1e-10)


def grid_fwhm(params, geom, n=400001, span_mhz=60.0):
    """Brute-force dense-grid width, used as the oracle for the bisection."""
    ds = angular_from_mhz(1.0) * np.linspace(-span_mhz, span_mhz, n) + 0.1
    eit = spectrum(params, geom, ds)
    ref = spectrum(two_level(params), geom, ds)
    h = eit.transmission - ref.transmission
    ipk = int(np.argmax(h))
    half = h[ipk] / 2
    left = ipk
    while left > 0 and h[left] > half:
        left -= 1
    right = ipk
    while right < n - 1 and h[right] > half:
        right += 1
    return float(ds[right] - ds[left])


# The width search as an array search: every grid point and doubling step
# in one chi call, both edges bisected together.  The oracle of the search
# over plain numbers.


def array_feature_height(params: EITParams, geom: MediumGeometry, ds):
    """Transmission height of the EIT feature above the two-level background
    at detuning(s) ``ds``: one chi call, at shifts 0 and infinity."""
    import numpy as np

    shift = np.array([0.0, math.inf]).reshape((2,) + (1,) * np.ndim(ds))
    t_eit, t_bg = transmission(od_and_phase(chi(params, ds, shift), geom)[0])
    return t_eit - t_bg


def array_transmission_fwhm(params: EITParams, geom: MediumGeometry) -> float:
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
            return array_feature_height(params, geom, ds)

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


def search_outcome(search, params, geom):
    """The width a search finds, or None where it finds no EIT feature."""
    try:
        return search(params, geom)
    except NoEITFeatureError:
        return None


def peak_height(params, geom) -> float:
    """The largest feature height on a 4001-point grid across the window."""
    half_span = 0.5 * max(params.omega_c, params.gamma_e)
    grid = np.linspace(-params.delta_c - half_span, -params.delta_c + half_span, 4001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExactEITWarning)
        return float(np.max(array_feature_height(params, geom, grid)))


class TestTransmissionFWHM:
    def test_no_coupling_raises(self, params, geom):
        with pytest.raises(NoEITFeatureError):
            transmission_fwhm(two_level(params), geom)

    def test_buried_feature_raises(self, geom):
        # heavy dephasing swamps the transparency window
        p = defaults.eit_params(gamma_rg_mhz=500.0, omega_c_mhz=0.05)
        with pytest.raises(NoEITFeatureError):
            transmission_fwhm(p, geom)

    def test_monotone_in_coupling_with_grid_oracle(self, geom):
        widths = []
        for oc in (9.0, 11.556026135894836, 14.0):
            p = defaults.eit_params(omega_c_mhz=oc)
            w = transmission_fwhm(p, geom)
            assert w == pytest.approx(grid_fwhm(p, geom), rel=5e-3)
            widths.append(w)
        assert widths[0] < widths[1] < widths[2]

    def test_default_parameters_reproduce_measured_width(self, params, geom):
        width_mhz = mhz_from_angular(transmission_fwhm(params, geom))
        assert width_mhz == pytest.approx(3.7, rel=0.02)

    def test_default_search_evaluates_at_most_534_points(self, params, geom,
                                                          monkeypatch):
        # a chi call evaluates the (detuning, shift) points its arguments
        # broadcast to: one point at plain numbers
        points = []

        def counted(params, delta_s, shift=0.0):
            points.append(np.broadcast(delta_s, shift).size)
            return chi(params, delta_s, shift)

        monkeypatch.setattr(susceptibility, "chi", counted)
        transmission_fwhm(params, geom)
        assert sum(points) <= 534

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        oc_mhz=st.floats(0.01, 40.0),
        grg_mhz=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2), st.floats(0.0, 5.0)),
        dc_mhz=st.floats(-20.0, 20.0),
        density_scale=st.floats(0.01, 10.0),
        margin=st.one_of(st.none(), st.floats(0.98, 1.02)),
    )
    # exact EIT, a narrow feature at exact EIT (Omega_c << Gamma_e), and the
    # default medium thinned to within 0.1 % of the height margin
    @example(oc_mhz=11.556026135894836, grg_mhz=0.0, dc_mhz=9.15,
             density_scale=1.0, margin=None)
    @example(oc_mhz=0.05, grg_mhz=0.0, dc_mhz=0.0, density_scale=1.0, margin=None)
    @example(oc_mhz=0.05, grg_mhz=1e-6, dc_mhz=2.0, density_scale=1.0, margin=None)
    @example(oc_mhz=11.556026135894836, grg_mhz=0.2, dc_mhz=9.15,
             density_scale=1.0, margin=0.999)
    @example(oc_mhz=11.556026135894836, grg_mhz=0.2, dc_mhz=9.15,
             density_scale=1.0, margin=1.001)
    def test_matches_array_search(self, oc_mhz, grg_mhz, dc_mhz, density_scale,
                                  margin):
        # the same width within 2e-9 gamma_e, and the same media without a
        # feature; ``margin`` scales the density so that the peak height is
        # about ``margin`` times the 1e-6 margin
        geom = RunConfig().geometry()
        params = defaults.eit_params(omega_c_mhz=oc_mhz, gamma_rg_mhz=grg_mhz,
                                     delta_c_mhz=dc_mhz)
        params = replace(params, rho=density_scale * params.rho)
        if margin is not None:
            for _ in range(2):
                height = peak_height(params, geom)
                if not height > 0.0:
                    break
                params = replace(params, rho=params.rho * margin * 1e-6 / height)
        expected = search_outcome(array_transmission_fwhm, params, geom)
        width = search_outcome(transmission_fwhm, params, geom)
        assert (width is None) == (expected is None)
        if width is not None:
            assert abs(width - expected) <= 2e-9 * params.gamma_e

    def test_default_width_matches_calibration_target(self, params, geom):
        # OMEGA_C_MHZ was solved for FEATURE_FWHM_MHZ; the width at the
        # defaults is 3.6997904 MHz, -5.7e-5 relative to the target
        width_mhz = mhz_from_angular(transmission_fwhm(params, geom))
        assert width_mhz == pytest.approx(defaults.FEATURE_FWHM_MHZ, rel=1e-4)


def test_kramers_kronig_consistency(params, ds_op):
    """Hilbert-transform reconstruction of the dispersion from the absorption."""
    from scipy.signal import hilbert

    span = 500.0 * params.gamma_e
    n = 1 << 18
    grid = np.linspace(-span, span, n)
    values = chi(params, grid)
    reconstructed = -np.imag(hilbert(np.imag(values)))
    i_op = int(np.argmin(np.abs(grid - ds_op)))
    assert reconstructed[i_op] == pytest.approx(values[i_op].real, rel=0.02)


def test_invalid_params_rejected():
    with pytest.raises(ConfigError):
        defaults.eit_params(gamma_rg_mhz=-1.0)
    with pytest.raises(ValueError):
        EITParams(gamma_e=0.0, gamma_rg=0.0, omega_c=0.0, delta_c=0.0,
                  rho=1e18, d_eg=2.5e-29)
    with pytest.raises(ValueError):
        MediumGeometry(length=0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name", ["gamma_e", "gamma_rg", "omega_c", "delta_c", "rho", "d_eg"]
)
def test_non_finite_params_rejected(params, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        replace(params, **{name: value})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["length", "k_s"])
def test_non_finite_geometry_rejected(geom, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        replace(geom, **{name: value})


def test_infinite_optical_path_rejected(geom):
    # length and k_s finite, k_s L overflows
    with pytest.raises(ValueError, match="k_s \\* length must be finite"):
        replace(geom, length=1e303)


@pytest.mark.parametrize("field,value,name", [
    # eps0 hbar gamma_e underflows to 0: chi0 divides by zero
    ("gamma_e", 1e-291, "chi0"),
    # d_eg**2 and omega_c**2 overflow a float
    ("d_eg", 1e300, "chi0"),
    ("omega_c", 1e300, "omega_c\\*\\*2"),
    # every factor finite, the product infinite
    ("rho", 1e308, "chi0"),
])
def test_non_finite_derived_quantities_rejected(params, field, value, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        replace(params, **{field: value})


# the parts of the divisions' operands: signed zeros, subnormals, the
# smallest normal, the largest float, infinities, NaN, and numbers whose
# ratios lie near either end of the float range
QUOTIENT_PARTS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, math.inf,
                  -math.inf, math.nan, 1.0, -3.0, 1e-300, 1e300, 0.7)


def test_quotient_of_numbers_is_numpys():
    # _quotient divides two numbers as numpy divides complex128 arrays,
    # bit for bit, also where CPython's "/" rounds differently or raises;
    # |re| = |im| pairs (1 + 1j, -3 - 3j, ...) pick the first of Smith's
    # two branches
    values = [complex(re, im) for re in QUOTIENT_PARTS for im in QUOTIENT_PARTS]
    a = np.repeat(values, len(values))
    b = np.tile(values, len(values))
    with np.errstate(all="ignore"):
        want = a / b
    for x, y, w in zip(a.tolist(), b.tolist(), want.tolist()):
        got = susceptibility._quotient(x, y)
        assert type(got) is complex
        if cmath.isnan(w):  # which part, not the NaN's sign bit
            assert (math.isnan(got.real), math.isnan(got.imag)) == (
                math.isnan(w.real), math.isnan(w.imag)), (x, y)
        else:
            assert complex_bits(got) == complex_bits(w), (x, y)
