import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydberg_xpm.constants import (
    BOHR_RADIUS,
    C6_ATOMIC_UNIT,
    HARTREE,
    K_S,
    SIGNAL_WAVELENGTH,
    TWO_PI,
    angular_from_mhz,
    c6_from_atomic_units,
    mhz_from_angular,
)

# frozen from an independent 50-digit evaluation of hartree * a0^6
C6_UNIT_REF = 9.5734364422728840e-80
C6_PAPER_REF = 2.2018903817227633e-56


def test_c6_zero():
    assert c6_from_atomic_units(0.0) == 0.0


def test_c6_one_atomic_unit():
    assert c6_from_atomic_units(1.0) == pytest.approx(C6_UNIT_REF, rel=1e-12)


def test_c6_default_interaction_strength():
    assert c6_from_atomic_units(2.3e23) == pytest.approx(C6_PAPER_REF, rel=1e-12)


def test_c6_unit_invariant():
    assert C6_ATOMIC_UNIT == HARTREE * BOHR_RADIUS**6


def test_wave_vector_invariant():
    assert K_S * SIGNAL_WAVELENGTH == pytest.approx(TWO_PI, rel=1e-15)


def test_angular_zero():
    assert angular_from_mhz(0.0) == 0.0


def test_angular_minus_ten_mhz():
    # 2*pi * 1e7, evaluated by hand
    assert angular_from_mhz(-10.0) == pytest.approx(-6.2831853071795865e7, rel=1e-14)


def test_angular_three_point_seven_mhz():
    assert angular_from_mhz(3.7) == pytest.approx(2.3247785636564470e7, rel=1e-14)


@settings(max_examples=100, derandomize=True)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_round_trip(f):
    assert mhz_from_angular(angular_from_mhz(f)) == pytest.approx(
        f, rel=1e-12, abs=1e-15
    )


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_rejected(bad):
    with pytest.raises(ValueError):
        angular_from_mhz(bad)
    with pytest.raises(ValueError):
        c6_from_atomic_units(bad)
