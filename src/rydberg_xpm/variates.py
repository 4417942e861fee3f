"""Exact Poisson and binomial variates from a stream of uniforms.

The variates are drawn from ``random.Random.random()`` alone, whose
sequence Python keeps for an integer seed; a logarithm is taken only of
1 - random(), which lies in (0, 1].  Both laws are discrete log-concave, so
one rejection loop, ``_log_concave``, draws both exactly in O(1) expected
time (Devroye, "A simple generator for discrete log-concave
distributions", Computing 39, 1987).  It evaluates the log-pmf in Loader's
saddle-point form, which keeps its digits at means up to 2^53, where
k log lam - lam - log k! loses about 50 to cancellation.
"""

from __future__ import annotations

import math
import random


def poisson(rng: random.Random, lam: float) -> int:
    """A Poisson(lam) variate."""
    if lam == 0.0:
        return 0
    return _log_concave(rng, math.floor(lam), lambda k: log_poisson_pmf(k, lam),
                        math.inf)


def binomial(rng: random.Random, n: int, p: float) -> int:
    """A Bin(n, p) variate."""
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    num, den = p.as_integer_ratio()
    mode = (n + 1) * num // den  # floor((n + 1) p), exactly
    return _log_concave(rng, mode, lambda k: log_binomial_pmf(k, n, p), n)


def _log_concave(rng: random.Random, mode: int, log_pmf, top: float) -> int:
    """A variate of the log-concave law on [0, top] with this mode and
    log-pmf, by Devroye's rejection from the pmf p_m at the mode alone.

    Y has density proportional to min(1, e^(w - p_m y)) on y >= 0, with
    w = 1 + p_m / 2, and k = mode +- round(Y) is accepted with probability
    p(k) / (p_m min(1, e^(w - p_m Y))): the accepted Y is flat on each unit
    cell, so P(k) is proportional to p(k).  That probability is at most 1
    because p(mode + j) <= p_m e^(1 - p_m |j|) for a log-concave law, which
    is the envelope at the far edge, Y = |j| + 1/2, of the cell of j.
    """
    log_pm = log_pmf(mode)
    pm = math.exp(log_pm)
    w = 1.0 + 0.5 * pm
    while True:
        if rng.random() < w / (1.0 + w):
            y = rng.random() * w / pm
        else:
            y = (w - math.log(1.0 - rng.random())) / pm
        x = math.floor(y + 0.5)
        k = mode + x if rng.random() < 0.5 else mode - x
        if not 0 <= k <= top:
            continue
        if math.log(1.0 - rng.random()) + min(0.0, w - pm * y) <= log_pmf(k) - log_pm:
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
