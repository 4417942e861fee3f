"""The samplers of ``rydberg_xpm.variates`` against the exact laws."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import FALSE_ALARM
from rydberg_xpm import variates
from rydberg_xpm.photostatistics import MAX_REPETITIONS


def goodness_of_fit(draws, law, cells=40):
    """Chi-square p-value of integer ``draws`` against the frozen scipy
    distribution ``law``, in cells between its quantiles.  The cells of a
    law of few values collapse: a cell the law cannot reach must stay empty
    and is left out, and a value holding every quantile is split from the
    values below it."""
    from scipy import stats

    edges = np.unique(law.ppf(np.linspace(0.0, 1.0, cells + 1)[1:-1]))
    if edges.size == 1:
        edges = np.array([edges[0] - 1.0, edges[0]])
    # cell i holds the values in (edges[i - 1], edges[i]]
    observed = np.bincount(np.searchsorted(edges, draws), minlength=edges.size + 1)
    expected = np.diff(np.concatenate(([0.0], law.cdf(edges), [1.0]))) * len(draws)
    reached = expected > 0.0
    assert not observed[~reached].any()
    observed, expected = observed[reached], expected[reached]
    return stats.chi2.sf(((observed - expected) ** 2 / expected).sum(),
                         expected.size - 1)


class NormalLimit:
    """The continuity-corrected normal law of a large Poisson mean lam, for
    goodness-of-fit cells: at lam = 6.4e15 it differs from the Poisson law
    by about the skewness, lam^-1/2 ~ 1e-8, far below what 20000 draws see."""

    def __init__(self, lam):
        self.lam, self.sd = lam, math.sqrt(lam)

    def ppf(self, q):
        from scipy import stats

        return np.floor(self.lam + self.sd * stats.norm.ppf(q))

    def cdf(self, k):
        from scipy import stats

        # k - lam is exact: both are integers below 2^53
        return stats.norm.cdf((k - self.lam + 0.5) / self.sd)


class TestSamplers:
    # means whose mode is 0 or a few, an integer mean (two modes), and the
    # largest sums a tally draws
    @pytest.mark.parametrize("lam", [0.0, 0.001, 0.3, 0.5, 3.7, 9.9, 10.0, 50.0,
                                     1e6, 6.4e15])
    def test_poisson_matches_the_pmf(self, lam):
        from scipy import stats

        rng = random.Random(101)
        draws = [variates.poisson(rng, lam) for _ in range(20000)]
        if lam == 0.0:
            assert set(draws) == {0}
        else:
            law = NormalLimit(lam) if lam > 1e12 else stats.poisson(lam)
            assert goodness_of_fit(draws, law) > FALSE_ALARM

    @pytest.mark.parametrize("n,p", [
        (99, 0.1), (100, 0.1), (150, 1 / 3), (3_000_000, 1 / 3),
        (1000, 0.9), (90, 0.9),
        (MAX_REPETITIONS, 1 / 3), (MAX_REPETITIONS, 1e-12),
        # a few values, where the quantile cells collapse, down to a mode at
        # the top of the support
        (1, 0.3), (2, 0.5), (5, 0.5), (3, 0.999),
    ])
    def test_binomial_matches_the_pmf(self, n, p):
        from scipy import stats

        rng = random.Random(202)
        draws = [variates.binomial(rng, n, p) for _ in range(20000)]
        assert goodness_of_fit(draws, stats.binom(n, p)) > FALSE_ALARM

    @pytest.mark.parametrize("n,p,value", [(0, 0.3, 0), (10, 0.0, 0), (10, 1.0, 10),
                                           (MAX_REPETITIONS, 1.0, MAX_REPETITIONS)])
    def test_binomial_without_spread(self, n, p, value):
        rng = random.Random(3)
        assert {variates.binomial(rng, n, p) for _ in range(100)} == {value}

    @pytest.mark.parametrize("k,lam", [(0, 3.0), (1, 0.5), (9, 10.0), (60, 50.0),
                                       (10**6 + 7, 1e6)])
    def test_log_poisson_pmf(self, k, lam):
        # scipy's logpmf is itself good to about 1e-11 at a mean of 10^6
        from scipy import stats

        assert variates.log_poisson_pmf(k, lam) == pytest.approx(
            stats.poisson.logpmf(k, lam), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("k,n,p", [(0, 100, 0.1), (100, 100, 0.4), (12, 100, 0.1),
                                       (10**6 + 300, 3 * 10**6, 1 / 3)])
    def test_log_binomial_pmf(self, k, n, p):
        # scipy's logpmf is itself good to about 1e-9 at n = 3 10^6
        from scipy import stats

        assert variates.log_binomial_pmf(k, n, p) == pytest.approx(
            stats.binom.logpmf(k, n, p), rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("offset", [-10**8, -1, 0, 3, 10**8])
    def test_log_pmfs_keep_their_ratios_at_the_largest_means(self, offset):
        # log f(k + 1) - log f(k) is a short closed form; k log lam - lam
        # - log k! would lose about 50 to cancellation here
        lam = 6.4e15
        k = int(lam) + offset
        step = (variates.log_poisson_pmf(k + 1, lam)
                - variates.log_poisson_pmf(k, lam))
        assert step == pytest.approx(math.log(lam / (k + 1)), abs=1e-12)
        n, p = MAX_REPETITIONS, 1 / 3
        k = n // 3 + offset // 100
        step = (variates.log_binomial_pmf(k + 1, n, p)
                - variates.log_binomial_pmf(k, n, p))
        assert step == pytest.approx(math.log((n - k) / (k + 1) * p / (1 - p)),
                                     abs=1e-12)

    # Poisson means 1e-6 to 6.4e15, and binomials from a few values to the
    # largest a tally draws, each with its mode
    @pytest.mark.parametrize("log_pmf,mode,top,args", [
        *[(variates.log_poisson_pmf, math.floor(lam), math.inf, (lam,))
          for lam in np.geomspace(1e-6, 6.4e15, 45)],
        *[(variates.log_binomial_pmf, math.floor((n + 1) * Fraction(p)), n, (n, p))
          for n, p in [(1, 0.3), (2, 0.5), (5, 0.5), (3, 0.999), (90, 0.9),
                       (3_000_000, 1 / 3), (MAX_REPETITIONS, 1 / 3),
                       (MAX_REPETITIONS, 1e-12), (MAX_REPETITIONS, 0.999)]],
    ])
    def test_devroye_bound(self, log_pmf, mode, top, args):
        # p(m + k) <= p_m e^(1 - p_m |k|), the envelope variates._log_concave
        # rejects from, next to the mode and out to 64 / p_m (about 160
        # standard deviations) on both sides
        log_pm = log_pmf(mode, *args)
        pm = math.exp(log_pm)
        offsets = set(range(-30, 31)) | {
            sign * round(t / pm) for sign in (-1, 1) for t in (0.5, 1, 2, 4, 8, 16, 64)}
        for k in sorted(offsets):
            if 0 <= mode + k <= top:
                gap = log_pmf(mode + k, *args) - log_pm
                assert gap <= min(0.0, 1.0 - pm * abs(k)) + 1e-12, k
