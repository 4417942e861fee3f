"""Exact Poisson and binomial variates from a stream of uniforms.

The variates are drawn from ``random.Random.random()`` alone, whose
sequence Python keeps for an integer seed; a logarithm is taken only of
1 - random(), which lies in (0, 1].  Each sampler is exact and takes O(1)
expected time: CDF inversion below a mean of REJECTION_FROM, and from there
transformed rejection with squeeze, PTRS for the Poisson law and BTRS for
the binomial one, after the symmetry p <= 1/2.  The acceptance tests
evaluate the log-pmf in Loader's saddle-point form, which keeps its digits
at means up to 2^53, where k log lam - lam - log k! loses about 50 to
cancellation.
"""

from __future__ import annotations

import math
import random

# a variate of a smaller mean is drawn by CDF inversion, and of this mean
# or more by transformed rejection
REJECTION_FROM = 10.0


def poisson(rng: random.Random, lam: float) -> int:
    """A Poisson(lam) variate: CDF inversion below REJECTION_FROM, else
    PTRS (Hoermann, "The transformed rejection method for generating
    Poisson random variables", Insurance Math. Econ. 12, 1993)."""
    if lam < REJECTION_FROM:
        u = rng.random()
        k, pmf = 0, math.exp(-lam)
        cdf = pmf
        # the summed CDF can round to below the largest uniform: stop where
        # the pmf underflows
        while u >= cdf and pmf > 0.0:
            k += 1
            pmf *= lam / k
            cdf += pmf
        return k
    slam = math.sqrt(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    # k = floor(x + lam + 0.43) is taken as floor(lam) plus a floor of small
    # numbers, so that it is exact at every mean
    whole = math.floor(lam)
    shift = lam - whole + 0.43
    while True:
        u = rng.random() - 0.5
        v = 1.0 - rng.random()
        us = 0.5 - abs(u)
        if us < 0.013 and v > us:  # also rejects us = 0, where x is infinite
            continue
        k = whole + math.floor((2.0 * a / us + b) * u + shift)
        if us >= 0.07 and v <= v_r:
            return k
        if k >= 0 and (math.log(v * inv_alpha / (a / (us * us) + b))
                       <= log_poisson_pmf(k, lam)):
            return k


def binomial(rng: random.Random, n: int, p: float) -> int:
    """A Bin(n, p) variate: n minus a Bin(n, 1 - p) one if p > 1/2, else CDF
    inversion where n p < REJECTION_FROM and BTRS from there (Hoermann,
    "The generation of binomial random variates", J. Statist. Comput.
    Simul. 46, 1993)."""
    if p > 0.5:
        return n - binomial(rng, n, 1.0 - p)
    q = 1.0 - p
    if n * p < REJECTION_FROM:
        u = rng.random()
        k, pmf = 0, math.exp(n * math.log1p(-p))
        cdf = pmf
        while u >= cdf and pmf > 0.0 and k < n:
            pmf *= (n - k) / (k + 1) * (p / q)
            k += 1
            cdf += pmf
        return k
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    num, den = p.as_integer_ratio()
    mode = (n + 1) * num // den  # floor((n + 1) p), exactly
    log_pmf_mode = log_binomial_pmf(mode, n, p)
    c = n * p + 0.5
    whole = math.floor(c)
    shift = c - whole
    while True:
        u = rng.random() - 0.5
        v = 1.0 - rng.random()
        us = 0.5 - abs(u)
        if us == 0.0:  # x is infinite
            continue
        k = whole + math.floor((2.0 * a / us + b) * u + shift)
        if not 0 <= k <= n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        if (math.log(v * alpha / (a / (us * us) + b))
                <= log_binomial_pmf(k, n, p) - log_pmf_mode):
            return k


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(k: int) -> float:
    """log k! - log(sqrt(2 pi k) (k / e)^k) for k >= 1: directly up to 15,
    and by its asymptotic series, accurate to rounding, from 16 (Loader,
    "Fast and accurate computation of binomial probabilities", 2000)."""
    if k <= 15:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LOG_SQRT_2PI
    k2 = 1.0 / (k * k)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - k2 / 1188) * k2) * k2) * k2) / k


def _deviance(x: float, mu: float) -> float:
    """x log(x / mu) + mu - x for x > 0, by its series in (x - mu) / (x + mu)
    near x = mu, where the direct form cancels (Loader 2000)."""
    if abs(x - mu) < 0.1 * (x + mu):
        v = (x - mu) / (x + mu)
        total = (x - mu) * v
        term = 2.0 * x * v
        j = 1
        while True:
            term *= v * v
            j += 2
            nxt = total + term / j
            if nxt == total:
                return total
            total = nxt
    return x * math.log(x / mu) + mu - x


def log_poisson_pmf(k: int, lam: float) -> float:
    """log of the Poisson(lam) pmf at k, without the cancellation of
    k log lam - lam - log k! at a large mean."""
    if k == 0:
        return -lam
    return -_stirling_tail(k) - _deviance(k, lam) - _LOG_SQRT_2PI - 0.5 * math.log(k)


def log_binomial_pmf(k: int, n: int, p: float) -> float:
    """log of the Bin(n, p) pmf at k, in the same form."""
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    return (_stirling_tail(n) - _stirling_tail(k) - _stirling_tail(n - k)
            - _deviance(k, n * p) - _deviance(n - k, n * (1.0 - p))
            - _LOG_SQRT_2PI - 0.5 * math.log(k * (n - k) / n))
