import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from rydberg_xpm.config import RunConfig
from rydberg_xpm.constants import HBAR
from rydberg_xpm.susceptibility import chi

# A goodness-of-fit or two-sample test of a sampler runs on fixed seeds and
# fails below this p-value: a correct sampler fails one comparison with this
# probability.
FALSE_ALARM = 1e-4
# The odds of the seeded checks, for a change that draws them afresh.  At
# FALSE_ALARM: 21 sampler laws (tests/test_variates.py), 88 tally-against-
# shots laws and 144 port-count laws (tests/test_photostatistics.py), so a
# correct change fails one of the 253 with probability about 2.5 %.
# Acceptance test 08 has fixed bounds instead.  Over the 40 base seeds
# 1234 + 1000 j (slope seeds base + k, postselected seed 2024 + 1000 j), the
# per-shot model of blocks of 2^14 shots with one total count per shot gives
# - an error slope of -0.4996 +- 0.0243 (min -0.556, max -0.446): the bounds
#   -0.6 and -0.4 lie 4.1 sd below and above its mean, about 2e-5 each if
#   the slope is normal;
# - a postselected azimuth z = (azimuth - truth) / sigma with mean -0.12 and
#   sd 1.16, |z| > 2 in 5 and |z| >= 3 in 1 of the 40 (3.09).  Over 400
#   seeds z has sd 1.02 and |z| >= 3 in 2 (0.5 %; 0.27 % for a normal z),
#   so the 3 sigma bound fails about 1 seed in 200 to 400.
# At the test's own seeds the slope is -0.490 and z is -2.10.


@pytest.fixture
def params():
    return RunConfig().eit_params()


@pytest.fixture
def geom():
    return RunConfig().geometry()


@pytest.fixture
def blk():
    return RunConfig().blockade()


@pytest.fixture
def ds_op():
    return RunConfig().delta_s


def complex_bits(z: complex) -> bytes:
    """The bits of both parts of ``z``, for comparisons bit for bit."""
    return struct.pack("<dd", z.real, z.imag)


def angle_diff(a: float, b: float) -> float:
    """Signed difference of two angles folded into (-pi, pi]."""
    return float((np.asarray(a) - b + np.pi) % (2 * np.pi) - np.pi)


def reference_integral(params, blk, delta_s, side: float) -> complex:
    """The integral of chi over r in [0, side] on one side of the stored
    excitation, shift C6 / (hbar r^6): composite Gauss-Legendre in r / side
    on one panel out to 1e-30 and ten geometric panels per decade beyond,
    with edges closing in on the Rydberg resonance to 1e-14 relative where
    it lies in the range, and with the nodes per panel doubled from 16
    until two results agree to 1e-10 relative.  The resonance is the real
    part of chi's pole in the shift, -(Delta_c + Delta_s) plus the light
    shift Omega_c^2 Delta_s / |Gamma_e - 2i Delta_s|^2."""
    edges = np.geomspace(1e-30, 1.0, 301)
    light = params.omega_c**2 * delta_s / (params.gamma_e**2 + 4.0 * delta_s**2)
    s_res = light - (params.delta_c + delta_s)
    if blk.c6 > 0.0 and s_res > 0.0:
        r_res = (blk.c6 / (HBAR * s_res)) ** (1.0 / 6.0) / side
        steps = 10.0 ** -np.arange(1.0, 15.0)
        near = r_res * np.concatenate(([1.0], 1.0 - steps, 1.0 + steps))
        edges = np.union1d(edges, near[near < 1.0])
    edges = np.concatenate(([0.0], edges))
    a, half = edges[:-1, None], np.diff(edges)[:, None] / 2.0
    previous = None
    for nodes in (16, 32, 64, 128, 256, 512):
        x, w = np.polynomial.legendre.leggauss(nodes)
        r = side * (a + half * (1.0 + x))
        with np.errstate(divide="ignore", over="ignore"):
            shift = blk.c6 / (HBAR * r**6) if blk.c6 > 0.0 else np.zeros_like(r)
        total = complex(np.sum(half * chi(params, delta_s, shift=shift) @ w))
        if previous is not None and abs(total - previous) <= 1e-10 * abs(total):
            return side * total
        previous = total
    raise AssertionError(f"the reference did not converge: {side * previous}")


def reference_od_phase(params, geom, blk, delta_s) -> tuple[float, float]:
    """(OD, phase) with one stored excitation: ``reference_integral`` on
    each side of it, with both detunings flipped for ``sign_reversed``."""
    if blk.sign_reversed:
        params, delta_s = replace(params, delta_c=-params.delta_c), -delta_s
    total = sum(reference_integral(params, blk, delta_s, side)
                for side in (blk.excitation_z, geom.length - blk.excitation_z)
                if side > 0.0)
    return geom.k_s * total.imag, geom.k_s * total.real / 2.0


def assert_matches_reference(got, want, rtol: float):
    """(OD, phase) ``got`` within ``rtol`` of ``want``, both relative to the
    modulus of the integral they come from.  OD is k_s times its imaginary
    part and the phase half k_s times its real part, so that modulus is
    hypot(OD, 2 phase) in OD units, and half of it in phase units: a part
    near 0 carries the rounding of the whole complex integral."""
    modulus = math.hypot(want[0], 2.0 * want[1])
    assert abs(got[0] - want[0]) <= rtol * modulus
    assert abs(got[1] - want[1]) <= rtol * modulus / 2.0
