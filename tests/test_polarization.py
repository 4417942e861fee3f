import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angle_diff
from rydberg_xpm.errors import InsufficientStatisticsError
from rydberg_xpm.polarization import (
    BASIS_NAMES,
    PolarizationState,
    StokesVector,
    apply_medium,
    balanced_input_state,
    port_powers,
    stokes,
    visibility,
)

# medium response at the default operating point (frozen)
OD1 = 1.3725115599448552
PHI1 = 1.6191819221302537

amplitudes = st.floats(min_value=0.05, max_value=10.0, allow_nan=False)
angles = st.floats(min_value=-math.pi + 1e-9, max_value=math.pi, allow_nan=False)


class TestConventions:
    def test_pure_sigma_minus_is_south_pole(self):
        s = stokes(PolarizationState(0.0, 1.0))
        assert (s.s_hv, s.s_da, s.s_lr) == (0.0, 0.0, -1.0)

    def test_pure_sigma_plus_is_north_pole(self):
        s = stokes(PolarizationState(1.0, 0.0))
        assert (s.s_hv, s.s_da, s.s_lr) == (0.0, 0.0, 1.0)

    def test_equal_superposition_is_linear_h(self):
        s = stokes(PolarizationState(1.0, 1.0))
        assert s.s_lr == 0.0
        assert s.phi == 0.0
        assert s.s_hv == pytest.approx(1.0, rel=1e-15)

    def test_quarter_phase_gives_diagonal(self):
        s = stokes(PolarizationState(1.0, cmath.exp(1j * math.pi / 2)))
        assert s.phi == pytest.approx(math.pi / 2, abs=1e-15)


class TestPortPowers:
    STATE = PolarizationState(0.9 * cmath.exp(0.4j), 1.1 * cmath.exp(-1.3j))

    def test_projections_onto_the_basis_table(self):
        # |<k|psi>|^2 with psi written in H/V from the table in the module
        # docstring: psi_H = (c+ + c-)/sqrt2, psi_V = i (c+ - c-)/sqrt2
        cp, cm = self.STATE.c_plus, self.STATE.c_minus
        h, v = (cp + cm) / math.sqrt(2), 1j * (cp - cm) / math.sqrt(2)
        expected = ((abs(h) ** 2, abs(v) ** 2),
                    (abs(h + v) ** 2 / 2, abs(h - v) ** 2 / 2),
                    (abs(cp) ** 2, abs(cm) ** 2))
        got = port_powers(self.STATE, 1.0)
        assert len(got) == len(BASIS_NAMES)
        for pair, want in zip(got, expected):
            assert pair == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("coherence", [0.0, 0.3, 0.75])
    def test_coherence_scales_the_linear_ports(self, coherence):
        full = port_powers(self.STATE, 1.0)
        mixed = port_powers(self.STATE, coherence)
        half = self.STATE.power / 2
        for (k1, l1), (k, l) in zip(full[:2], mixed[:2]):
            assert k - half == pytest.approx(coherence * (k1 - half), abs=1e-15)
            assert k + l == pytest.approx(self.STATE.power, rel=1e-15)
        assert mixed[2] == full[2]

    @pytest.mark.parametrize("exponent", [-530, -515, -300, 500])
    def test_weak_and_strong_states_keep_every_bit(self, exponent):
        # scaling both amplitudes by a power of two is exact, so the Stokes
        # vector is that of the unscaled state, although the powers of a
        # state scaled by 2^-515 or less are subnormal floats
        def scaled(c):
            return complex(math.ldexp(c.real, exponent),
                           math.ldexp(c.imag, exponent))

        weak = PolarizationState(scaled(self.STATE.c_plus),
                                 scaled(self.STATE.c_minus))
        for coherence in (1.0, 0.75):
            assert stokes(weak, coherence) == stokes(self.STATE, coherence)


class TestApplyMedium:
    def test_identity(self):
        state = PolarizationState(0.6, 0.8)
        out = apply_medium(state, 0.0, 0.0)
        assert out.c_plus == state.c_plus and out.c_minus == state.c_minus

    def test_pi_phase_flips_azimuth(self):
        state = PolarizationState(1 / math.sqrt(2), 1 / math.sqrt(2))
        out = apply_medium(state, 0.0, math.pi)
        assert abs(angle_diff(stokes(out).phi, math.pi)) < 1e-12

    def test_negative_od_rejected(self):
        with pytest.raises(ValueError):
            apply_medium(PolarizationState(1.0, 1.0), -0.1, 0.0)

    def test_fully_absorbed_target_has_no_counts(self):
        # a balanced input at OD 1e298 has no sigma+ left, and exp(-OD/2)
        # takes the sigma- amplitude to 0
        with pytest.raises(InsufficientStatisticsError,
                           match="no photon reaches a detector"):
            apply_medium(balanced_input_state(1e298), 1e298, 0.5)

    def test_golden_operating_point(self):
        # direct complex arithmetic, checked by hand once and frozen
        state = balanced_input_state(OD1)
        assert state.c_plus == pytest.approx(0.44968252044829066, rel=1e-12)
        assert state.c_minus == pytest.approx(0.893188463205427, rel=1e-12)
        out = apply_medium(state, OD1, PHI1, sigma_plus_suppression=15.0)
        assert out.c_plus == pytest.approx(
            0.44706516300658156 + 0.04844697330717389j, rel=1e-12
        )
        assert out.c_minus == pytest.approx(
            -0.02174966754879217 + 0.4491562324606488j, rel=1e-12
        )
        s = stokes(out)
        assert s.s_hv == pytest.approx(0.0595246588288787, rel=1e-10)
        assert s.s_da == pytest.approx(0.9982268354393734, rel=1e-10)
        assert s.s_lr == pytest.approx(0.0, abs=1e-12)
        assert s.phi == pytest.approx(PHI1 * (1 - 1 / 15), rel=1e-10)


class TestStokesInvariants:
    @settings(max_examples=100, derandomize=True)
    @given(cp=amplitudes, cm=amplitudes, rel_phase=angles)
    def test_pure_states_have_unit_radius(self, cp, cm, rel_phase):
        s = stokes(PolarizationState(cp, cm * cmath.exp(1j * rel_phase)))
        assert s.s0 == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, derandomize=True)
    @given(cp=amplitudes, cm=amplitudes, rel_phase=angles)
    def test_spherical_decomposition_reconstructs(self, cp, cm, rel_phase):
        s = stokes(PolarizationState(cp, cm * cmath.exp(1j * rel_phase)))
        assert s.s0 * math.sin(s.theta) * math.cos(s.phi) == pytest.approx(
            s.s_hv, abs=1e-12
        )
        assert s.s0 * math.sin(s.theta) * math.sin(s.phi) == pytest.approx(
            s.s_da, abs=1e-12
        )
        assert s.s0 * math.cos(s.theta) == pytest.approx(s.s_lr, abs=1e-12)

    @settings(max_examples=200, derandomize=True)
    @given(cp=amplitudes, cm=amplitudes, phi=angles,
           od=st.floats(0.0, 20.0, allow_nan=False))
    def test_azimuth_reads_out_medium_phase(self, cp, cm, phi, od):
        out = apply_medium(PolarizationState(cp, cm), od, phi)
        assert abs(angle_diff(stokes(out).phi, phi)) < 1e-9

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            PolarizationState(0.0, 0.0)

    @pytest.mark.parametrize("c_plus, c_minus", [
        (math.nan, 1.0), (1.0, complex(0.0, math.nan)), (math.inf, 0.0),
        (1.0, complex(-math.inf, 1.0)),
        (1e200, 0.0),  # abs ** 2 raises OverflowError
        (0.0, complex(1.7e308, 1.7e308)),  # abs raises OverflowError
        (1e154, 1e154),  # each power is finite, their sum is not
    ])
    def test_non_finite_state_rejected(self, c_plus, c_minus):
        with pytest.raises(ValueError):
            PolarizationState(c_plus, c_minus)

    def test_largest_finite_power_accepted(self):
        big = math.sqrt(np.finfo(float).max) * (1 - 1e-15)
        assert PolarizationState(big, 0.0).power < math.inf
        assert stokes(PolarizationState(big, 0.0)) == StokesVector(0.0, 0.0, 1.0)


class TestVisibility:
    def test_direct_formula(self):
        assert visibility(StokesVector(0.6, 0.0, 0.8)) == pytest.approx(0.6)

    def test_pure_circular_vanishes(self):
        assert visibility(stokes(PolarizationState(1.0, 0.0))) == 0.0

    def test_equals_s0_sin_theta(self):
        s = stokes(PolarizationState(0.7, 0.5 * cmath.exp(0.3j)))
        assert visibility(s) == pytest.approx(s.s0 * math.sin(s.theta), rel=1e-12)

    def test_balanced_input_maximizes_output_visibility(self):
        od = 1.7
        best = visibility(stokes(apply_medium(balanced_input_state(od), od, 0.4)))
        for detune in (0.8, 1.25):
            state = balanced_input_state(od)
            perturbed = PolarizationState(state.c_plus * detune, state.c_minus)
            v = visibility(stokes(apply_medium(perturbed, od, 0.4)))
            assert v < best
        assert best == pytest.approx(1.0, abs=1e-12)


class TestFringePower:
    def test_consistent_with_stokes(self):
        # polarizer scan of the state itself: the power behind a linear
        # polarizer at angle alpha is |<alpha|psi>|^2 with
        # <alpha|sigma+-> = exp(+-i alpha) / sqrt(2), a fringe in 2 alpha
        # whose visibility and phase the Stokes vector must give
        psi = apply_medium(PolarizationState(0.9, 1.1), 0.8, 1.3)
        state = stokes(psi)
        alpha = np.linspace(0, math.pi, 25, endpoint=False)
        powers = np.abs(psi.c_plus * np.exp(1j * alpha)
                        + psi.c_minus * np.exp(-1j * alpha)) ** 2 / 2
        design = np.column_stack(
            [np.ones_like(alpha), np.cos(2 * alpha), np.sin(2 * alpha)]
        )
        coef, *_ = np.linalg.lstsq(design, powers, rcond=None)
        assert math.hypot(coef[1], coef[2]) / coef[0] == pytest.approx(
            visibility(state), abs=1e-9
        )
        assert abs(angle_diff(math.atan2(coef[2], coef[1]), state.phi)) < 1e-9
