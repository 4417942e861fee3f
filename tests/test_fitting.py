import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rydberg_xpm.config import RunConfig
from rydberg_xpm.constants import (
    EPSILON_0,
    HBAR,
    RB87_D2_CYCLING_DIPOLE,
    angular_from_mhz,
)
from rydberg_xpm.errors import (
    DegenerateJacobianError,
    FitNonConvergenceError,
    RydbergXPMError,
)
from rydberg_xpm.fitting import (
    GAMMA_E_DEFAULT,
    FitParameters,
    SpectrumData,
    _decode,
    _encode,
    finite_difference_jacobian,
    fit_spectrum,
    predict,
)
from rydberg_xpm.susceptibility import EITParams, MediumGeometry, spectrum

TRUTH = FitParameters(
    od_res=31.628549819862732,
    omega_c=angular_from_mhz(11.556026135894836),
    gamma_rg=angular_from_mhz(0.2),
    delta_c=angular_from_mhz(9.15),
)
GRID = angular_from_mhz(1.0) * np.linspace(-30.0, 10.0, 200)


def synthetic_data(noise_rng=None, sigma=0.01):
    table = predict(TRUTH, GRID)
    t = np.asarray(table.transmission, dtype=float)
    if noise_rng is not None:
        t = t + noise_rng.normal(0.0, sigma, t.size)
    return SpectrumData(delta_s=GRID, transmission=t, sigma=np.full(t.size, sigma))


def physical_medium(params: FitParameters, geom: MediumGeometry) -> EITParams:
    """A medium of the Rb87 D2 dipole whose density gives the resonant
    optical depth params.od_res = k_s L chi0 in ``geom``."""
    d_eg = RB87_D2_CYCLING_DIPOLE
    rho = (params.od_res * EPSILON_0 * HBAR * GAMMA_E_DEFAULT
           / (2.0 * d_eg**2 * geom.k_s * geom.length))
    return EITParams(gamma_e=GAMMA_E_DEFAULT, gamma_rg=params.gamma_rg,
                     omega_c=params.omega_c, delta_c=params.delta_c, rho=rho,
                     d_eg=d_eg)


def perturbed_initial():
    return FitParameters(
        od_res=TRUTH.od_res * 1.2,
        omega_c=TRUTH.omega_c * 0.85,
        gamma_rg=TRUTH.gamma_rg * 1.4,
        delta_c=TRUTH.delta_c + angular_from_mhz(0.4),
    )


def rel_err(a, b):
    return abs(a - b) / abs(b)


class TestPredict:
    def test_single_point_two_level_resonance(self):
        p = FitParameters(od_res=2.0, omega_c=0.0, gamma_rg=1.0, delta_c=0.0)
        table = predict(p, [0.0])
        assert table.transmission[0] == pytest.approx(np.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("geom", [
        RunConfig().geometry(),
        MediumGeometry(length=1e-6),
        MediumGeometry(length=5e-3, k_s=2.0 * np.pi / 1e-6),
    ])
    def test_matches_spectrum_of_physical_media(self, geom):
        # the model in optical-depth units is the spectrum of every medium
        # whose density gives od_res: length, density and dipole cancel
        direct = spectrum(physical_medium(TRUTH, geom), geom, GRID)
        model = predict(TRUTH, GRID)
        np.testing.assert_allclose(model.transmission, direct.transmission,
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(model.phase, direct.phase, rtol=1e-14, atol=0.0)

    def test_snapshot_row(self):
        table = predict(TRUTH, [angular_from_mhz(-10.0)])
        assert table.transmission[0] == pytest.approx(0.4342197360126303, rel=1e-9)
        assert table.phase[0] == pytest.approx(-1.5735361082477184, rel=1e-9)


class TestDataValidation:
    def test_too_few_points(self):
        ds = angular_from_mhz(1.0) * np.arange(5.0)
        with pytest.raises(ValueError):
            SpectrumData(delta_s=ds, transmission=np.ones(5), sigma=np.ones(5))

    def test_non_increasing(self):
        ds = angular_from_mhz(1.0) * np.array([0, 1, 1, 2, 3, 4, 5, 6], float)
        with pytest.raises(ValueError):
            SpectrumData(delta_s=ds, transmission=np.ones(8), sigma=np.ones(8))

    def test_bad_sigma(self):
        ds = angular_from_mhz(1.0) * np.arange(8.0)
        with pytest.raises(ValueError):
            SpectrumData(delta_s=ds, transmission=np.ones(8), sigma=np.zeros(8))


class TestFitRecovery:
    def test_noiseless_recovery_to_tenth_percent(self):
        result = fit_spectrum(synthetic_data(), perturbed_initial())
        assert result.converged
        for name in ("od_res", "omega_c", "gamma_rg", "delta_c"):
            assert rel_err(getattr(result.params, name), getattr(TRUTH, name)) < 1e-3

    def test_noisy_coverage_sample(self):
        # 10-trial slice of the acceptance coverage study
        hits = 0
        for trial in range(10):
            rng = np.random.default_rng(1000 + trial)
            result = fit_spectrum(synthetic_data(rng), perturbed_initial())
            ok = all(
                abs(getattr(result.params, n) - getattr(TRUTH, n))
                <= 3 * getattr(result.stderr, n)
                for n in ("od_res", "omega_c", "gamma_rg", "delta_c")
            )
            hits += ok
        assert hits >= 8

    def test_iteration_cap_raises_with_best_point(self):
        far = FitParameters(
            od_res=TRUTH.od_res * 8,
            omega_c=TRUTH.omega_c * 3,
            gamma_rg=TRUTH.gamma_rg * 20,
            delta_c=TRUTH.delta_c - angular_from_mhz(6.0),
        )
        with pytest.raises(FitNonConvergenceError) as err:
            fit_spectrum(synthetic_data(), far, max_iterations=2)
        best = err.value.best_result
        assert best.iterations == 2
        assert not best.converged
        assert np.isfinite(best.reduced_chisq)

    def test_degenerate_parameter_flagged(self):
        # with a vanishing coupling the dephasing has no effect on the model
        degenerate = FitParameters(
            od_res=TRUTH.od_res, omega_c=1e-6, gamma_rg=TRUTH.gamma_rg,
            delta_c=TRUTH.delta_c,
        )
        with pytest.raises(DegenerateJacobianError):
            fit_spectrum(synthetic_data(), degenerate)

    @pytest.mark.parametrize("gamma_e", [math.inf, 0.0, math.nan])
    def test_unusable_gamma_e_rejected_at_the_start(self, gamma_e):
        # gamma_e scales the fitted detuning: 0 * inf must not be formed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RydbergXPMError, match="cannot be evaluated at "
                               "the fit's starting point"):
                fit_spectrum(synthetic_data(), TRUTH, gamma_e=gamma_e)

    @pytest.mark.parametrize("name", ["od_res", "omega_c", "gamma_rg", "delta_c"])
    def test_non_finite_start_rejected(self, name):
        # an infinite parameter is an infinite cost, not a limit of the model
        # (omega_c = inf would read as an exact transparency point)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RydbergXPMError, match="cannot be evaluated at "
                               "the fit's starting point"):
                fit_spectrum(synthetic_data(), replace(TRUTH, **{name: math.inf}))


class TestFitInvariants:
    def test_idempotent_refit(self):
        rng = np.random.default_rng(7)
        data = synthetic_data(rng)
        first = fit_spectrum(data, perturbed_initial())
        second = fit_spectrum(data, first.params)
        assert second.iterations <= 2
        cost1 = first.reduced_chisq * (GRID.size - 4)
        cost2 = second.reduced_chisq * (GRID.size - 4)
        assert abs(cost2 - cost1) <= 1e-12 * max(1.0, cost1)

    def test_refit_at_optimum_reuses_last_jacobian(self, monkeypatch):
        # the start is the optimum, so the fit leaves on the gradient test:
        # one residual evaluation and one Jacobian (8 model evaluations),
        # whose Jacobian is still current for the covariance
        from rydberg_xpm import fitting

        calls = []

        def counting_predict(*args, **kwargs):
            calls.append(1)
            return predict(*args, **kwargs)

        monkeypatch.setattr(fitting, "predict", counting_predict)
        result = fit_spectrum(synthetic_data(), TRUTH)
        assert result.converged and result.iterations == 1
        assert len(calls) == 9

    def test_reported_gradient_is_at_the_returned_point(self):
        # this fit's last iteration accepts a step, so the Jacobian behind
        # the gradient norm and the covariance must be taken again at the end
        data = synthetic_data(np.random.default_rng(7))
        result = fit_spectrum(data, perturbed_initial())

        def residuals(u):
            table = predict(_decode(u, GAMMA_E_DEFAULT), data.delta_s)
            return (table.transmission - data.transmission) / data.sigma

        u = _encode(result.params, GAMMA_E_DEFAULT)
        grad = finite_difference_jacobian(residuals, u).T @ residuals(u)
        assert result.gradient_norm == pytest.approx(np.max(np.abs(grad)), rel=1e-6)

    def test_jacobian_matches_central_difference_recompute(self):
        data = synthetic_data(np.random.default_rng(3))

        def residuals(u):
            table = predict(_decode(u, GAMMA_E_DEFAULT), data.delta_s)
            return (table.transmission - data.transmission) / data.sigma

        rng = np.random.default_rng(5)
        for _ in range(3):
            u = _encode(TRUTH, GAMMA_E_DEFAULT) + rng.normal(0.0, 0.05, 4)
            j_fit = finite_difference_jacobian(residuals, u)
            j_check = np.empty_like(j_fit)
            for i in range(u.size):  # central differences at twice the step
                h = 2e-6 * (1.0 + abs(u[i]))
                step = np.zeros(u.size)
                step[i] = h
                j_check[:, i] = (residuals(u + step) - residuals(u - step)) / (2 * h)
            col_scale = np.abs(j_check).max(axis=0)
            assert np.all(np.abs(j_fit - j_check) <= 1e-6 * col_scale)

    def test_reparameterization_leaves_model_curve_unchanged(self):
        # cross-check with an independent optimizer: fitting omega_c versus
        # omega_c^2 as the free parameter must give the same best-fit curve
        from scipy.optimize import least_squares

        rng = np.random.default_rng(11)
        data = synthetic_data(rng)

        def model(od, oc, grg, dc):
            return predict(
                FitParameters(od, oc, grg, dc), data.delta_s
            ).transmission

        def res_direct(x):
            return (model(x[0], x[1], x[2], x[3]) - data.transmission) / data.sigma

        def res_squared(x):
            return (
                model(x[0], np.sqrt(x[1]), x[2], x[3]) - data.transmission
            ) / data.sigma

        x0 = perturbed_initial()
        positive = ([0.0, 0.0, 0.0, -np.inf], [np.inf] * 4)
        sol_a = least_squares(
            res_direct,
            [x0.od_res, x0.omega_c, x0.gamma_rg, x0.delta_c],
            bounds=positive, xtol=1e-14, ftol=1e-14, gtol=1e-14,
        )
        sol_b = least_squares(
            res_squared,
            [x0.od_res, x0.omega_c**2, x0.gamma_rg, x0.delta_c],
            bounds=positive, xtol=1e-14, ftol=1e-14, gtol=1e-14,
        )
        cost_a = float(sol_a.fun @ sol_a.fun)
        cost_b = float(sol_b.fun @ sol_b.fun)
        assert abs(cost_a - cost_b) < 1e-10 * max(1.0, cost_a)
        # and the package fitter lands on the same optimum
        ours = fit_spectrum(data, x0)
        assert rel_err(ours.params.omega_c, sol_a.x[1]) < 1e-6

    def test_fitted_parameters_reproduce_feature_width(self):
        # the generator was built for a 3.7 MHz transparency feature; the
        # fitted parameter set must reproduce that width
        from rydberg_xpm.constants import mhz_from_angular
        from rydberg_xpm.susceptibility import transmission_fwhm

        result = fit_spectrum(synthetic_data(), perturbed_initial())
        geom = RunConfig().geometry()
        width = mhz_from_angular(
            transmission_fwhm(physical_medium(result.params, geom), geom))
        assert width == pytest.approx(3.7, rel=0.02)

    def test_transmission_fit_predicts_phase_curve(self):
        result = fit_spectrum(synthetic_data(), perturbed_initial())
        truth_phase = predict(TRUTH, GRID).phase
        fitted_phase = predict(result.params, GRID).phase
        scale = np.max(np.abs(truth_phase))
        assert np.max(np.abs(fitted_phase - truth_phase)) < 0.01 * scale

    def test_joint_phase_fit_option(self):
        table = predict(TRUTH, GRID)
        data = SpectrumData(
            delta_s=GRID,
            transmission=np.asarray(table.transmission),
            sigma=np.full(GRID.size, 0.01),
            phase=np.asarray(table.phase),
            phase_sigma=np.full(GRID.size, 0.02),
        )
        result = fit_spectrum(data, perturbed_initial(), include_phase=True)
        assert result.converged
        assert rel_err(result.params.od_res, TRUTH.od_res) < 1e-3

    def test_covariance_positive_semidefinite(self):
        result = fit_spectrum(synthetic_data(np.random.default_rng(2)),
                              perturbed_initial())
        eigenvalues = np.linalg.eigvalsh(result.covariance)
        assert np.all(eigenvalues >= -1e-12 * eigenvalues.max())
