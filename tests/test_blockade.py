import warnings
from dataclasses import replace

import numpy as np
import pytest

from rydberg_xpm import defaults
from rydberg_xpm.blockade import (
    BlockadeParams,
    blockade_radius,
    density_scan,
    hard_sphere_controlled_phase,
    integrated_phase,
)
from rydberg_xpm.constants import HBAR, angular_from_mhz, c6_from_atomic_units
from rydberg_xpm.errors import BlockadeClampWarning
from rydberg_xpm.susceptibility import chi, spectrum, two_level

DELTA_T = angular_from_mhz(3.7)


class TestVdwShift:
    def test_consistency_with_blockade_radius(self, blk):
        # the pair-state shift C6/(hbar r^6) equals the linewidth at R_b
        r_b = blockade_radius(blk.c6, DELTA_T)
        assert blk.c6 / (HBAR * r_b**6) == pytest.approx(DELTA_T, rel=1e-9)


class TestBlockadeRadius:
    def test_measured_feature_width_gives_14_um(self):
        c6 = c6_from_atomic_units(2.3e23)
        r_b = blockade_radius(c6, DELTA_T)
        assert abs(r_b - 14e-6) < 0.5e-6

    def test_sixth_root_scaling_in_c6(self, blk):
        assert blockade_radius(64 * blk.c6, DELTA_T) == pytest.approx(
            2 * blockade_radius(blk.c6, DELTA_T), rel=1e-12
        )

    def test_sixth_root_scaling_in_width(self, blk):
        assert blockade_radius(blk.c6, 4 * DELTA_T) == pytest.approx(
            blockade_radius(blk.c6, DELTA_T) / 4 ** (1 / 6), rel=1e-12
        )

    def test_nonpositive_width_rejected(self, blk):
        with pytest.raises(ValueError):
            blockade_radius(blk.c6, 0.0)


def chi_at(params, blk, ds, r):
    """chi at distances r from a stored excitation, through the ``shift``
    argument, with the sign_reversed flag applied to both detunings."""
    if blk.sign_reversed:
        params, ds = replace(params, delta_c=-params.delta_c), -ds
    with np.errstate(divide="ignore", over="ignore"):
        shift = blk.c6 / (HBAR * np.asarray(r, dtype=float) ** 6)
    return chi(params, ds, shift=shift)


class TestChiBlockaded:
    def test_far_away_reduces_to_plain_susceptibility(self, params, blk, ds_op):
        far = chi_at(params, blk, ds_op, [1.0])[0]
        assert far == pytest.approx(chi(params, ds_op), rel=1e-9)

    def test_contact_limit_is_two_level(self, params, blk, ds_op):
        near = chi_at(params, blk, ds_op, [10e-9])[0]
        assert near == pytest.approx(chi(two_level(params), ds_op), rel=1e-6)

    def test_tiny_radius_does_not_overflow(self, params, blk, ds_op):
        # r^6 underflows to 0: the infinite shift gives the two-level value
        value = chi_at(params, blk, ds_op, [1e-60])[0]
        assert np.isfinite(value.real) and np.isfinite(value.imag)
        assert value == chi(two_level(params), ds_op)

    def test_monotone_approach_for_default_signs(self, params, blk, ds_op):
        r = np.logspace(-7, -3, 1000)
        values = chi_at(params, blk, ds_op, r).real
        diffs = np.diff(values)
        assert np.all(diffs >= 0) or np.all(diffs <= 0)

    def test_reversed_signs_overshoot(self, params, blk, ds_op):
        rev = replace(blk, sign_reversed=True)
        r = np.logspace(-7, -3, 1000)
        values = chi_at(params, rev, ds_op, r).real
        diffs = np.diff(values)
        assert not (np.all(diffs >= 0) or np.all(diffs <= 0))
        lo, hi = min(values[0], values[-1]), max(values[0], values[-1])
        assert values.max() > hi or values.min() < lo

    def test_shift_broadcasts_against_detuning(self, params, blk, ds_op):
        r = np.array([5e-6, 14e-6, 40e-6])
        grid = chi_at(params, blk, np.array([[ds_op], [0.5 * ds_op]]), r)
        assert grid.shape == (2, 3)
        for i, ds in enumerate((ds_op, 0.5 * ds_op)):
            for j, x in enumerate(r):
                assert grid[i, j] == chi_at(params, blk, ds, x)

    def test_zero_shift_is_bit_identical(self, params):
        ds = np.linspace(-2e8, 2e8, 101)
        assert np.array_equal(chi(params, ds, shift=0.0), chi(params, ds))
        assert np.array_equal(chi(params, ds, shift=np.zeros(101)), chi(params, ds))


class TestIntegratedPhase:
    def test_no_interaction_limit(self, params, geom, ds_op):
        free = BlockadeParams(c6=0.0, excitation_z=geom.length / 2)
        od0, phi0 = integrated_phase(params, geom, free, ds_op, 0)
        od1, phi1 = integrated_phase(params, geom, free, ds_op, 1)
        assert phi1 == pytest.approx(phi0, rel=1e-9)
        assert od1 == pytest.approx(od0, rel=1e-9)

    def test_no_interaction_where_r6_underflows(self, params, geom, ds_op):
        # C6 = 0 beside an excitation so close to the edge that r^6
        # underflows at its nodes: a zero shift, not 0 / 0
        free = BlockadeParams(c6=0.0, excitation_z=1e-306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            od1, phi1 = integrated_phase(params, geom, free, ds_op, 1)
        od0, phi0 = integrated_phase(params, geom, free, ds_op, 0)
        assert phi1 == pytest.approx(phi0, rel=1e-12)
        assert od1 == pytest.approx(od0, rel=1e-12)

    def test_full_blockade_limit(self, params, geom, blk, ds_op):
        huge = replace(blk, c6=blk.c6 * 1e12)
        _, phi1 = integrated_phase(params, geom, huge, ds_op, 1)
        _, phi_ref = integrated_phase(two_level(params), geom, huge, ds_op, 0)
        assert phi1 == pytest.approx(phi_ref, rel=1e-3)

    def test_controlled_phase_in_measured_band(self, params, geom, blk, ds_op):
        _, phi0 = integrated_phase(params, geom, blk, ds_op, 0)
        _, phi1 = integrated_phase(params, geom, blk, ds_op, 1)
        assert 2.5 <= phi1 - phi0 <= 3.3

    def test_reflection_symmetry(self, params, geom, blk, ds_op):
        left = replace(blk, excitation_z=10e-6)
        right = replace(blk, excitation_z=geom.length - 10e-6)
        od_l, phi_l = integrated_phase(params, geom, left, ds_op, 1)
        od_r, phi_r = integrated_phase(params, geom, right, ds_op, 1)
        assert phi_l == pytest.approx(phi_r, rel=1e-9)
        assert od_l == pytest.approx(od_r, rel=1e-9)

    def test_excitation_outside_medium_rejected(self, params, geom, blk, ds_op):
        outside = replace(blk, excitation_z=geom.length + 1e-6)
        with pytest.raises(ValueError):
            integrated_phase(params, geom, outside, ds_op, 1)

    def test_bad_excitation_count_rejected(self, params, geom, blk, ds_op):
        with pytest.raises(ValueError):
            integrated_phase(params, geom, blk, ds_op, 2)

    @pytest.mark.parametrize("sign_reversed", [False, True])
    @pytest.mark.parametrize("c6_scale", [1.0, 64.0, 1024.0])
    def test_matches_independent_dense_quadrature(
        self, params, geom, blk, ds_op, c6_scale, sign_reversed
    ):
        # oracle: re-derived vectorized integrand + composite Simpson on each
        # side of the cusp, fully independent of the Gauss-Legendre path
        from scipy.integrate import simpson

        blk = replace(blk, c6=blk.c6 * c6_scale, sign_reversed=sign_reversed)
        sign = -1.0 if sign_reversed else 1.0
        ds, dc = sign * ds_op, sign * params.delta_c

        def chi_vec(z):
            r6 = np.abs(z - blk.excitation_z) ** 6
            shift = blk.c6 / (HBAR * r6)
            inner = params.gamma_rg - 2j * (dc + ds + shift)
            den = params.gamma_e - 2j * ds + params.omega_c**2 / inner
            return 1j * (
                2 * params.rho * params.d_eg**2
                / (8.8541878128e-12 * HBAR * params.gamma_e)
            ) * params.gamma_e / den

        z0 = blk.excitation_z
        total = 0j
        for a, b in ((0.0, z0), (z0, geom.length)):
            z = np.linspace(a, b, 200_001)
            z[z == z0] = z0 + (1e-12 if a == z0 else -1e-12)
            vals = chi_vec(z)
            total += simpson(vals, x=np.linspace(a, b, 200_001))
        od_oracle = geom.k_s * total.imag
        phase_oracle = geom.k_s * total.real / 2
        od1, phi1 = integrated_phase(params, geom, blk, ds_op, 1)
        assert phi1 == pytest.approx(phase_oracle, rel=1e-6)
        assert od1 == pytest.approx(od_oracle, rel=1e-6)

    def test_quadrature_failure_is_structured(
        self, monkeypatch, params, geom, blk, ds_op
    ):
        import rydberg_xpm.blockade as blockade_mod
        from rydberg_xpm.errors import QuadratureError

        # a 1 % error in the coarse rule's weights puts the node-doubling
        # estimate far above the requested tolerance
        monkeypatch.setattr(
            blockade_mod, "_GL_WEIGHTS", blockade_mod._GL_WEIGHTS * [[1.01], [1.0]]
        )
        with pytest.raises(QuadratureError) as err:
            integrated_phase(params, geom, blk, ds_op, 1)
        assert err.value.achieved > err.value.requested
        assert "tolerance" in str(err.value)

    def test_sign_reversal_shrinks_controlled_phase(self, params, geom, blk, ds_op):
        _, phi0 = integrated_phase(params, geom, blk, ds_op, 0)
        _, phi1 = integrated_phase(params, geom, blk, ds_op, 1)
        rev = replace(blk, sign_reversed=True)
        _, phi0_r = integrated_phase(params, geom, rev, ds_op, 0)
        _, phi1_r = integrated_phase(params, geom, rev, ds_op, 1)
        assert phi0_r == pytest.approx(-phi0, rel=1e-12)
        assert abs(phi1_r - phi0_r) < abs(phi1 - phi0)


class TestHardSphere:
    def test_zero_radius(self, geom):
        assert hard_sphere_controlled_phase(0.0, geom, 4.4, -1.6) == 0.0

    def test_reference_numbers(self, geom):
        # 2 * 14 um / 61 um * 6.6 rad
        estimate = hard_sphere_controlled_phase(14e-6, geom, 6.6, 0.0)
        assert estimate == pytest.approx(3.0, abs=0.1)

    def test_sphere_fills_medium(self, geom):
        value = hard_sphere_controlled_phase(geom.length / 2, geom, 5.0, -1.0)
        assert value == pytest.approx(6.0, rel=1e-12)

    def test_clamped_with_warning(self, geom):
        with pytest.warns(BlockadeClampWarning):
            value = hard_sphere_controlled_phase(geom.length, geom, 5.0, -1.0)
        assert value == pytest.approx(6.0, rel=1e-12)

    def test_negative_radius_rejected(self, geom):
        with pytest.raises(ValueError):
            hard_sphere_controlled_phase(-1e-6, geom, 5.0, -1.0)


def test_hard_sphere_converges_to_integral_for_sharp_blockade(
    params, geom, blk, ds_op
):
    """Scaling up the interaction pushes the crossover shell outward until the
    sphere fills the medium; the box estimate and the integral approach each
    other (the blockade-radius input tracks the scaled interaction)."""
    table = spectrum(params, geom, [ds_op])
    ref = spectrum(two_level(params), geom, [ds_op])
    phi_eit = float(table.phase[0])
    phi_ref = float(ref.phase[0])
    rels = []
    for scale in (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0):
        scaled = replace(blk, c6=blk.c6 * scale)
        r_b = blockade_radius(scaled.c6, DELTA_T)
        _, phi0 = integrated_phase(params, geom, scaled, ds_op, 0)
        _, phi1 = integrated_phase(params, geom, scaled, ds_op, 1)
        with np.errstate(all="ignore"):
            import warnings as _w

            with _w.catch_warnings():
                _w.simplefilter("ignore", BlockadeClampWarning)
                box = hard_sphere_controlled_phase(r_b, geom, phi_ref, phi_eit)
        rels.append(abs((phi1 - phi0) - box) / box)
    assert all(r <= 0.15 for r in rels)
    assert rels[-1] < 0.02
    assert rels[-1] < rels[0]


class TestDensityScan:
    def test_rejects_bad_grid(self, params, geom, blk, ds_op):
        with pytest.raises(ValueError):
            density_scan(params, geom, blk, ds_op, [])
        with pytest.raises(ValueError):
            density_scan(params, geom, blk, ds_op, [1e18, -1e18])

    def test_linearity(self, params, geom, blk, ds_op):
        rho = np.linspace(2e17, 1.8e18, 7)
        scan = density_scan(params, geom, blk, ds_op, rho)
        assert scan.fit_phase0.max_rel_residual < 1e-10
        assert scan.fit_phase1.max_rel_residual < 1e-10
        assert scan.fit_controlled.max_rel_residual < 1e-10

    @pytest.mark.parametrize("sign_reversed", [False, True])
    def test_linear_law_matches_least_squares(self, params, geom, blk, ds_op,
                                              sign_reversed):
        # the closed-form law through the origin is the least-squares line
        blk = replace(blk, sign_reversed=sign_reversed)
        scan = density_scan(params, geom, blk, ds_op, np.linspace(2e17, 1.8e18, 9))
        for law, phase in ((scan.fit_phase0, scan.phase0),
                           (scan.fit_phase1, scan.phase1),
                           (scan.fit_controlled, scan.controlled_phase)):
            slope, intercept = np.polyfit(scan.rho, phase, 1)
            assert law.slope == pytest.approx(slope, rel=1e-12)
            assert law.intercept == 0.0
            assert abs(intercept) <= 1e-12 * np.max(np.abs(phase))

    def test_controlled_phase_at_operating_density(self, params, geom, blk, ds_op):
        scan = density_scan(params, geom, blk, ds_op, [1.8e18])
        assert 2.5 <= scan.controlled_phase[0] <= 3.3

    def test_phases_proportional_to_density(self, params, geom, blk, ds_op):
        scan = density_scan(params, geom, blk, ds_op, [0.9e18, 1.8e18])
        assert scan.phase0[1] == pytest.approx(2 * scan.phase0[0], rel=1e-9)
        assert scan.phase1[1] == pytest.approx(2 * scan.phase1[0], rel=1e-9)

    @pytest.mark.parametrize("rho", [[1.8e18], [0.2e18, 1.8e18]])
    @pytest.mark.parametrize("sign_reversed", [False, True])
    @pytest.mark.parametrize("c6_scale", [1.0, 64.0, 1024.0])
    def test_scaled_scan_matches_per_point_integrals(
        self, params, geom, blk, ds_op, c6_scale, sign_reversed, rho
    ):
        # reference: both integrals evaluated afresh at every density
        blk = replace(blk, c6=blk.c6 * c6_scale, sign_reversed=sign_reversed)
        phase0, phase1 = np.array([
            [integrated_phase(replace(params, rho=r), geom, blk, ds_op, n)[1]
             for n in (0, 1)] for r in rho]).T
        scan = density_scan(params, geom, blk, ds_op, rho)
        for got, ref in ((scan.phase0, phase0), (scan.phase1, phase1),
                         (scan.controlled_phase, phase1 - phase0)):
            np.testing.assert_allclose(got, ref, rtol=4e-15, atol=0.0)
        # the largest density is the integral itself
        assert scan.phase1[-1] == phase1[-1] and scan.phase0[-1] == phase0[-1]

    @pytest.mark.parametrize("points", [1, 2, 9, 50])
    def test_two_integrals_for_any_grid(self, monkeypatch, params, geom, blk,
                                        ds_op, points):
        import rydberg_xpm.blockade as blockade_mod

        calls = []

        def counting(*args):
            calls.append(args[4])
            return integrated_phase(*args)

        monkeypatch.setattr(blockade_mod, "integrated_phase", counting)
        density_scan(params, geom, blk, ds_op, np.linspace(2e17, 1.8e18, points))
        assert sorted(calls) == [0, 1]

    def test_quadrature_failure_propagates(self, monkeypatch, params, geom, blk,
                                           ds_op):
        import rydberg_xpm.blockade as blockade_mod
        from rydberg_xpm.errors import QuadratureError

        monkeypatch.setattr(
            blockade_mod, "_GL_WEIGHTS", blockade_mod._GL_WEIGHTS * [[1.01], [1.0]]
        )
        with pytest.raises(QuadratureError):
            density_scan(params, geom, blk, ds_op, np.linspace(2e17, 1.8e18, 5))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["c6", "excitation_z"])
def test_non_finite_blockade_params_rejected(blk, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        replace(blk, **{name: value})
