import math
import random
import time
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FALSE_ALARM, angle_diff
from rydberg_xpm import photostatistics
from rydberg_xpm.errors import InsufficientStatisticsError
from rydberg_xpm.photostatistics import (
    MAX_MEAN_PHOTONS_TARGET,
    MAX_REPETITIONS,
    ExperimentConfig,
    ShotBatch,
    estimate_stokes,
    output_state,
    retrieval_efficiency,
    simulate_batch,
    tally_stokes,
    truth_stokes,
)
from rydberg_xpm.polarization import PolarizationState, stokes, visibility

# frozen medium response at the default operating point
TRUTH = (0.834204568833878, -1.5735361082477184,
         1.3725115599448552, 1.6191819221302537)
# the shots of a block, which draws its uniforms from one Generator
B = photostatistics._BLOCK_SHOTS


def balanced_state():
    from rydberg_xpm.polarization import balanced_input_state

    return balanced_input_state(TRUTH[2])


# the documented ShotBatch dtypes: int8 bases, int16 counts
KERNEL_DTYPES = {"basis_index": np.int8, "control_stored": np.bool_,
                 "control_retrieved": np.bool_, "counts_k": np.int16,
                 "counts_l": np.int16}
FIELDS = tuple(KERNEL_DTYPES)


def retrieved_batch(basis, counts_k, counts_l):
    """Shots that all stored and retrieved the control excitation."""
    retrieved = np.ones(len(basis), dtype=bool)
    return ShotBatch(
        basis_index=np.array(basis, dtype=np.int8),
        control_stored=retrieved,
        control_retrieved=retrieved,
        counts_k=np.array(counts_k, dtype=np.int16),
        counts_l=np.array(counts_l, dtype=np.int16),
    )


def oracle_poisson(u, lam):
    """Poisson counts by float CDF inversion of one uniform per draw."""
    if lam == 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    kmax = int(lam + 12.0 * math.sqrt(lam) + 25.0)
    k = np.arange(1, kmax + 1, dtype=float)
    log_pmf = np.concatenate(([0.0], np.cumsum(np.log(lam / k)))) - lam
    cdf = np.cumsum(np.exp(log_pmf))
    return np.searchsorted(cdf, u, side="left").astype(np.int64)


def oracle_batch(config, truth, input_state, start_index, n):
    """Reference kernel: every block that covers the shots, drawn whole from
    its own Generator in the documented order.  The rows are the control
    uniform (stored below p_stored, retrieved below p_stored p_retrieve),
    the total count and, for random bases, the basis.  Every shot of each
    (stored, basis) group is inverted with the CDF of the group's total
    mean and no cut.  Then the counting shots are split one at a time, in
    shot order: a uniform each, which sends a single photon to port k below
    the group's port-k share, then a binomial for each that counts two or
    more.  simulate_batch must reproduce it bit for bit."""
    round_robin = config.basis_mode == "round_robin"
    p_stored = 1.0 - math.exp(-config.mean_photons_control * config.p_store)
    p_retrieved = p_stored * config.p_retrieve(config.delay)
    lams = photostatistics._port_lambdas(config, truth, input_state)
    share = [lk / (lk + ll) if lk + ll > 0.0 else 0.0 for lk, ll in lams]
    first, last = start_index // B, (start_index + n - 1) // B
    blocks = []
    for block in range(first, last + 1):
        rng = np.random.default_rng([config.rng_seed, block])
        u = rng.random((2 if round_robin else 3, B))
        stored = u[0] < p_stored
        if round_robin:
            basis = np.arange(block * B, (block + 1) * B) % 3
        else:
            basis = np.minimum((u[2] * 3.0).astype(np.int64), 2)
        group = basis + 3 * stored
        total = np.zeros(B, dtype=np.int64)
        for g, (lk, ll) in enumerate(lams):
            total[group == g] = oracle_poisson(u[1][group == g], lk + ll)
        counting = np.flatnonzero(total)
        counts_k = np.zeros(B, dtype=np.int64)
        for i in counting:
            counts_k[i] = rng.random() < share[group[i]]
        for i in counting[total[counting] >= 2]:
            counts_k[i] = rng.binomial(total[i], share[group[i]])
        blocks.append((basis, stored, u[0] < p_retrieved, counts_k, total - counts_k))
    offset = start_index - first * B
    return ShotBatch(*(np.concatenate(field)[offset:offset + n] for field in zip(*blocks)))


def assert_same_batch(batch, reference):
    """``batch``, from the kernel, has the documented dtypes and the values
    of ``reference`` (the int64 oracle, or another kernel batch).  The values
    are compared as they are, never cast down, so a count that wrapped in
    the kernel's narrow dtype would differ."""
    for field in FIELDS:
        x, y = getattr(batch, field), getattr(reference, field)
        assert x.dtype == KERNEL_DTYPES[field], field
        assert np.array_equal(x, y), field


def mask_basis_sums(batch, postselect):
    """Per-basis (port k, port l) count sums by boolean masks, one basis at
    a time: a reference independent of the kernel's tally."""
    keep = batch.control_retrieved if postselect else np.ones(len(batch), bool)
    return {
        name: (int(batch.counts_k[(batch.basis_index == b) & keep].sum()),
               int(batch.counts_l[(batch.basis_index == b) & keep].sum()))
        for b, name in enumerate(photostatistics.BASIS_NAMES)
    }, int(keep.sum())


def azimuth_sigma(summary):
    """1-sigma azimuth uncertainty from the HV/DA component errors."""
    s = summary.stokes
    r2 = s.s_hv**2 + s.s_da**2
    return math.sqrt(
        (s.s_da * summary.stderr[0]) ** 2 + (s.s_hv * summary.stderr[1]) ** 2
    ) / r2


class TestRetrievalEfficiency:
    def test_zero_delay_endpoint(self):
        cfg = ExperimentConfig()
        assert retrieval_efficiency(cfg, 0.0) == 0.2

    def test_delayed_endpoint(self):
        cfg = ExperimentConfig()
        assert retrieval_efficiency(cfg, 4.5e-6) == pytest.approx(0.07, abs=1e-9)

    def test_time_constant_definition(self):
        cfg = ExperimentConfig()
        tau = 4.5e-6 / math.log(0.2 / 0.07)
        assert tau == pytest.approx(4.2864404311815092e-6, rel=1e-12)
        assert retrieval_efficiency(cfg, tau) == pytest.approx(0.2 / math.e, rel=1e-12)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            retrieval_efficiency(ExperimentConfig(), -1e-9)

    def test_no_delayed_efficiency_is_a_step(self):
        cfg = ExperimentConfig(storage_retrieval_efficiency_delayed=0.0)
        assert retrieval_efficiency(cfg, 0.0) == 0.2
        assert retrieval_efficiency(cfg, 1e-9) == 0.0
        assert cfg.p_retrieve(0.0) == pytest.approx(math.sqrt(0.2), rel=1e-12)

    def test_no_storage_never_retrieves(self):
        cfg = ExperimentConfig(
            storage_retrieval_efficiency_zero_delay=0.0,
            storage_retrieval_efficiency_delayed=0.0,
        )
        assert cfg.p_store == 0.0
        assert cfg.p_retrieve(0.0) == 0.0 and cfg.p_retrieve(1e-6) == 0.0


class TestConfigValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError):
            ExperimentConfig(detection_efficiency=1.5)

    def test_delayed_efficiency_must_not_exceed_prompt(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                storage_retrieval_efficiency_zero_delay=0.1,
                storage_retrieval_efficiency_delayed=0.2,
            )

    def test_bad_basis_mode(self):
        with pytest.raises(ValueError):
            ExperimentConfig(basis_mode="sequential")

    @pytest.mark.parametrize("suppression", [1.0, 0.5, -15.0, math.nan])
    def test_bad_suppression(self, suppression):
        with pytest.raises(ValueError):
            ExperimentConfig(sigma_plus_suppression=suppression)

    @pytest.mark.parametrize("name", ["mean_photons_control", "mean_photons_target"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_bad_mean_photons(self, name, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("value", [1000.001, 1e12])
    def test_target_mean_bounded(self, value):
        ExperimentConfig(mean_photons_target=photostatistics.MAX_MEAN_PHOTONS_TARGET)
        with pytest.raises(ValueError, match="mean_photons_target"):
            ExperimentConfig(mean_photons_target=value)

    def test_repetitions_bounded(self):
        # count sums of the most shots at the largest mean stay below 2^53
        size = photostatistics._poisson_cdf(MAX_MEAN_PHOTONS_TARGET).size
        assert MAX_REPETITIONS * size < 2**53 <= (MAX_REPETITIONS + 1) * size
        ExperimentConfig(repetitions=MAX_REPETITIONS)
        for value in (0, MAX_REPETITIONS + 1, 2**64):
            with pytest.raises(ValueError, match="repetitions"):
                ExperimentConfig(repetitions=value)

    def test_repetitions_bound_keeps_its_value(self):
        # the bound comes from the 1405-entry CDF at the largest mean
        assert photostatistics._poisson_cdf(MAX_MEAN_PHOTONS_TARGET).size == 1405
        assert MAX_REPETITIONS == 6410817974904

    def test_default_split_is_symmetric(self):
        cfg = ExperimentConfig()
        assert cfg.p_store == pytest.approx(math.sqrt(0.2), rel=1e-15)
        assert cfg.p_retrieve(0.0) == pytest.approx(math.sqrt(0.2), rel=1e-12)


class TestPoissonThinning:
    def test_detected_counts_follow_thinned_poisson(self):
        # mean 0.6 photons thinned by 0.25 detection: Poisson(0.15) at the
        # sigma+ output port; compare against the analytic moments
        cfg = ExperimentConfig(
            mean_photons_control=0.0,
            mean_photons_target=0.6,
            detection_efficiency=0.25,
            repetitions=100_000,
            rng_seed=777,
        )
        batch = simulate_batch(cfg, TRUTH, PolarizationState(1.0, 0.0))
        lr = batch.basis_index == 2
        counts = batch.counts_k[lr]
        lam = 0.15
        n = counts.size
        assert counts.mean() == pytest.approx(lam, abs=3 * math.sqrt(lam / n))
        assert counts.var() == pytest.approx(lam, rel=0.05)
        p0 = np.mean(counts == 0)
        assert p0 == pytest.approx(math.exp(-lam), abs=3 * math.sqrt(p0 * (1 - p0) / n))

    def test_zero_detection_efficiency_gives_no_counts(self):
        cfg = ExperimentConfig(detection_efficiency=0.0, repetitions=300)
        batch = simulate_batch(cfg, TRUTH, balanced_state())
        assert batch.counts_k.sum() == 0 and batch.counts_l.sum() == 0
        with pytest.raises(InsufficientStatisticsError):
            estimate_stokes(batch, postselect=False)

    def test_no_control_photons_never_stores(self):
        cfg = ExperimentConfig(mean_photons_control=0.0, repetitions=2000)
        batch = simulate_batch(cfg, TRUTH, balanced_state())
        assert not batch.control_stored.any()
        assert not batch.control_retrieved.any()


class TestDeterminism:
    def test_identical_seed_identical_records(self):
        cfg = ExperimentConfig(repetitions=500, rng_seed=42)
        a = simulate_batch(cfg, TRUTH, balanced_state())
        b = simulate_batch(cfg, TRUTH, balanced_state())
        for field in ("basis_index", "control_stored", "control_retrieved",
                      "counts_k", "counts_l"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_chunked_equals_monolithic(self):
        cfg = ExperimentConfig(repetitions=400, rng_seed=9)
        whole = simulate_batch(cfg, TRUTH, balanced_state())
        first = simulate_batch(cfg, TRUTH, balanced_state(), start_index=0, n=150)
        second = simulate_batch(cfg, TRUTH, balanced_state(), start_index=150, n=250)
        for field in ("basis_index", "control_stored", "control_retrieved",
                      "counts_k", "counts_l"):
            assert np.array_equal(
                getattr(whole, field),
                np.concatenate([getattr(first, field), getattr(second, field)]),
            )

    def test_scalar_shot_matches_batch_row(self):
        # a single shot drawn on its own equals that row of the full batch
        cfg = ExperimentConfig(repetitions=100, rng_seed=321)
        batch = simulate_batch(cfg, TRUTH, balanced_state())
        for i in (0, 1, 17, 49, 99):
            shot = simulate_batch(cfg, TRUTH, balanced_state(), start_index=i, n=1)
            for field in ("basis_index", "control_stored", "control_retrieved",
                          "counts_k", "counts_l"):
                assert np.array_equal(
                    getattr(shot, field), getattr(batch, field)[i:i + 1]
                )

    def test_random_basis_mode_is_deterministic(self):
        cfg = ExperimentConfig(repetitions=300, rng_seed=5, basis_mode="random")
        a = simulate_batch(cfg, TRUTH, balanced_state())
        b = simulate_batch(cfg, TRUTH, balanced_state())
        assert np.array_equal(a.basis_index, b.basis_index)
        assert set(np.unique(a.basis_index)) <= {0, 1, 2}


class TestKernelOracle:
    @pytest.mark.parametrize("target", [0.0, 0.9, 40.0, 1000.0])
    @pytest.mark.parametrize("n", [1, 1000, 2**17 + 3])
    @pytest.mark.parametrize("start_index", [0, 150, 2**40])
    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    def test_matches_oracle(self, basis_mode, start_index, n, target):
        # full detection, so that the largest accepted mean reaches the
        # largest Poisson table
        cfg = ExperimentConfig(
            mean_photons_target=target, detection_efficiency=1.0,
            basis_mode=basis_mode, rng_seed=2718,
        )
        assert_same_batch(
            simulate_batch(cfg, TRUTH, balanced_state(), start_index, n),
            oracle_batch(cfg, TRUTH, balanced_state(), start_index, n),
        )

    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    @pytest.mark.parametrize("changes", [
        {"mean_photons_control": 0.0},
        {"storage_retrieval_efficiency_zero_delay": 0.0,
         "storage_retrieval_efficiency_delayed": 0.0},
        {"delay": 3e-6, "mean_photons_control": 4.0},
    ])
    def test_matches_oracle_at_storage_limits(self, basis_mode, changes):
        cfg = ExperimentConfig(basis_mode=basis_mode, rng_seed=11, **changes)
        assert_same_batch(
            simulate_batch(cfg, TRUTH, balanced_state(), 150, 5000),
            oracle_batch(cfg, TRUTH, balanced_state(), 150, 5000),
        )

    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    def test_matches_oracle_at_the_largest_counts(self, basis_mode):
        # all the light in port L: mean 1000 in the LR basis, whose counts
        # pass int8's range; three blocks, the first and last in part
        cfg = ExperimentConfig(mean_photons_target=MAX_MEAN_PHOTONS_TARGET,
                               detection_efficiency=1.0, basis_mode=basis_mode,
                               rng_seed=2718)
        state = PolarizationState(1.0, 0.0)
        batch = simulate_batch(cfg, TRUTH, state, 150, 2 * B + 1)
        assert batch.counts_k.max() > 1000
        assert_same_batch(batch, oracle_batch(cfg, TRUTH, state, 150, 2 * B + 1))

    def test_count_dtype_holds_the_largest_table(self):
        # a count is at most the size of its group's Poisson table, whose
        # mean is the sum of both ports' means: at most the largest mean, as
        # the port powers of a basis sum to the output power, at most 1
        cfg = ExperimentConfig(mean_photons_target=MAX_MEAN_PHOTONS_TARGET,
                               detection_efficiency=1.0)
        lossless = (0.0, 0.0, 0.0, 0.0)
        totals = [lk + ll for truth in (TRUTH, lossless)
                  for state in (balanced_state(), PolarizationState(1.0, 0.0))
                  for lk, ll in photostatistics._port_lambdas(cfg, truth, state)]
        assert max(totals) == pytest.approx(MAX_MEAN_PHOTONS_TARGET, rel=1e-15)
        size = photostatistics._poisson_cdf(max(totals)).size
        assert size == photostatistics._poisson_cdf(MAX_MEAN_PHOTONS_TARGET).size
        assert size < np.iinfo(photostatistics.COUNT_DTYPE).max

    @pytest.mark.parametrize("lam", [1e-300, 0.9, 40.0, 1000.0, 3000.0])
    def test_poisson_cdf_at_its_edges(self, lam):
        # the grid uniforms around every CDF value, where a slip between the
        # zero cut, cdf[0] and cdf[1] and the search would show; and the
        # floats next to cdf[0] and cdf[1] at or below cdf[1], which the
        # kernel tells apart by float compares alone
        cdf = photostatistics._poisson_cdf(lam)
        u = np.concatenate([grid_around(cdf), np.nextafter(cdf[:2], 0.0), cdf[:2],
                            np.nextafter(cdf[:1], 1.0)])
        u = u[(u < 1.0) & ((u <= (cdf[1] if cdf.size > 1 else 1.0)) | on_grid(u))]
        assert np.array_equal(total_counts([(lam, 0.0)], np.zeros(u.size, np.int8), u),
                              oracle_poisson(u, lam))

    @pytest.mark.parametrize("lams", [
        [1e-300, 0.011, 0.106, 0.9, 40.0, 1000.0],
        [0.0, 0.011, 0.0, 0.9, 0.0, 1000.0],  # only some groups empty
        [0.0] * 6,
    ])
    def test_zero_count_cut_at_its_edges(self, lams):
        # each group's cdf[0] and the grid uniforms around it, and both ends
        # of [0, 1), drawn through the zero cut in one call, the groups
        # interleaved; each group's mean is split between the ports in its
        # own way, which the totals do not see
        cdfs = [photostatistics._poisson_cdf(lam) for lam in lams]
        us, expected = [], []
        for lam, cdf in zip(lams, cdfs):
            u = np.concatenate([grid_around(cdf[:1]), [0.0, 1.0 - 2.0**-53]])
            us.append(u)
            expected.append(oracle_poisson(u, lam))
            if 2.0**-52 < cdf[0] < 1.0:
                assert expected[-1][1:3].tolist() == [0, 1]
        group = np.tile(np.arange(len(lams), dtype=np.int8), 5)
        shares = [0.0, 1.0, 0.5, 0.25, 1e-3, 0.999]
        means = [(lam * share, lam - lam * share) for lam, share in zip(lams, shares)]
        assert [lk + ll for lk, ll in means] == lams
        assert np.array_equal(total_counts(means, group, np.stack(us, axis=1).ravel()),
                              np.stack(expected, axis=1).ravel())

    @pytest.mark.parametrize("lams", [
        [(0.066, 0.057), (0.017, 0.106), (0.045, 0.078),
         (0.048, 0.043), (0.080, 0.011), (0.045, 0.045)],
        [(1000.0, 0.0), (0.0, 40.0), (0.9, 0.9), (1e-300, 3.0), (0.0, 0.0), (7.0, 1e-3)],
    ])
    def test_ports_split_by_each_groups_share(self, monkeypatch, lams):
        # each group's total count split by its own share lk / (lk + ll),
        # all of it to one port, none, half or nearly all, against the
        # oracle over two blocks, the first in part, both basis modes
        monkeypatch.setattr(photostatistics, "_port_lambdas", lambda *args: lams)
        for basis_mode in ("round_robin", "random"):
            cfg = ExperimentConfig(mean_photons_control=4.0, basis_mode=basis_mode,
                                   rng_seed=99)
            batch = simulate_batch(cfg, TRUTH, balanced_state(), 150, 2 * B - 150)
            assert_same_batch(batch, oracle_batch(cfg, TRUTH, balanced_state(), 150,
                                                  2 * B - 150))
            # a port with no light counts nothing
            group = batch.basis_index + 3 * batch.control_stored
            for g, (lk, ll) in enumerate(lams):
                assert batch.counts_k[group == g].any() or lk < 1.0, (basis_mode, g)
                assert not batch.counts_k[group == g].any() or lk > 0.0, (basis_mode, g)
                assert not batch.counts_l[group == g].any() or ll > 0.0, (basis_mode, g)

    @pytest.mark.parametrize("target", [0.9, 40.0, 1000.0])
    def test_port_counts_are_independent_poissons(self, target):
        # per (stored, basis) group, the shots' K, L, K + L and K - L against
        # those of independent Poisson draws of the group's two means, both
        # basis modes (6 x 4 x 2 comparisons a case)
        for basis_mode in ("round_robin", "random"):
            cfg = ExperimentConfig(mean_photons_target=target, mean_photons_control=1.5,
                                   basis_mode=basis_mode, rng_seed=31)
            batch = simulate_batch(cfg, TRUTH, balanced_state(), 0, 4 * B)
            group = batch.basis_index + 3 * batch.control_stored.astype(np.int64)
            lams = photostatistics._port_lambdas(cfg, TRUTH, balanced_state())
            rng = np.random.default_rng([31, int(target)])
            for g, (lk, ll) in enumerate(lams):
                k = batch.counts_k[group == g].astype(np.int64)
                l = batch.counts_l[group == g].astype(np.int64)
                assert k.size > 1000, g
                xk, xl = rng.poisson(lk, k.size), rng.poisson(ll, k.size)
                for x, y in ((k, xk), (l, xl), (k + l, xk + xl), (k - l, xk - xl)):
                    assert same_law(x, y) > FALSE_ALARM, (basis_mode, g)


def total_counts(lams, group, u):
    """Every shot's total count through ``_total_counts`` with the
    ``_count_table`` of the means lams[group] = (port k, port l): 0 where
    the kernel finds no count."""
    hit, g, total, deep = photostatistics._total_counts(
        photostatistics._count_table(tuple(lams)), group, u)
    assert np.array_equal(g, group.take(hit))
    assert np.array_equal(deep, np.flatnonzero(total >= 2))
    out = np.zeros(u.size, dtype=np.int64)
    out[hit] = total
    return out


def on_grid(u):
    """Whether each u is a multiple of 2^-53, as every uniform of
    ``Generator.random`` is."""
    return u * 2.0**53 == np.floor(u * 2.0**53)


def grid_around(values):
    """The multiples of 2^-53 next to each value: the largest at or below
    it, the one below that and the smallest above it, clipped to [0, 1)."""
    m = np.floor(np.asarray(values) * 2.0**53)
    return np.clip(np.concatenate([m - 1.0, m, m + 1.0]), 0.0, 2.0**53 - 1.0) * 2.0**-53


class TestGeneratorContract:
    """The properties of numpy's Generator that simulate_batch relies on:
    its uniforms lie on the 2^-53 grid, where the count search is exact,
    and the variates of one array call are those of one call per variate
    in turn, so that the split of a block's counting shots, drawn in two
    array calls, is the oracle's, drawn one shot at a time."""

    @pytest.mark.parametrize("seed", [[0, 0], [2718, 5], [2**70 + 3, 2**40 // B]])
    def test_uniforms_are_the_top_53_bits(self, seed):
        u = np.random.default_rng(seed).random(5 * B)
        raw = np.random.default_rng(seed).bit_generator.random_raw(5 * B)
        assert np.array_equal(u, (raw >> np.uint64(11)).astype(float) * 2.0**-53)
        assert on_grid(u).all()

    @pytest.mark.parametrize("seed", [[0, 0], [404, 2**40 // B]])
    def test_array_draws_match_single_draws(self, seed):
        # binomials by inversion and by rejection, at shares 0, 1 and in
        # between, after a block's rows and uniforms, and what follows them
        rng = np.random.default_rng(0)
        n = np.concatenate([rng.integers(2, 1405, 500), [2, 2, 1404, 1404]])
        p = np.concatenate([rng.random(500), [0.0, 1.0, 0.0, 1.0]])
        whole, alone = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(whole.random((3, B)), alone.random((3, B)))
        assert np.array_equal(whole.random(1000), [alone.random() for _ in range(1000)])
        drawn = whole.binomial(n.astype(np.int16), p)
        assert drawn.tolist() == [alone.binomial(int(m), float(q)) for m, q in zip(n, p)]
        assert whole.random() == alone.random()


# derandomized at a fixed example count, as in tests/test_properties.py
PROPERTY = settings(max_examples=60, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
EFFICIENCY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@PROPERTY
@given(seed=st.one_of(st.integers(0, 2**32), st.integers(2**64, 2**96)),
       start_index=st.one_of(st.integers(0, 3 * B), st.integers(0, 2**40)),
       n=st.integers(1, 3 * B + 7),
       target=st.one_of(st.sampled_from([0.0, 0.9, 1000.0]), st.floats(0.0, 1000.0)),
       control=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
       detection=EFFICIENCY, storage=EFFICIENCY, decay=st.floats(0.0, 1.0),
       delay_us=st.floats(0.0, 10.0),
       basis_mode=st.sampled_from(["round_robin", "random"]))
def test_kernel_matches_oracle_and_masks(seed, start_index, n, target, control, detection,
                                         storage, decay, delay_us, basis_mode):
    cfg = ExperimentConfig(
        mean_photons_target=target, mean_photons_control=control,
        detection_efficiency=detection, storage_retrieval_efficiency_zero_delay=storage,
        storage_retrieval_efficiency_delayed=storage * decay, delay=delay_us * 1e-6,
        basis_mode=basis_mode, rng_seed=seed)
    batch = simulate_batch(cfg, TRUTH, balanced_state(), start_index, n)
    assert_same_batch(batch, oracle_batch(cfg, TRUTH, balanced_state(), start_index, n))
    for postselect in (True, False):
        sums, n_kept = photostatistics._basis_sums(batch, postselect)
        counts, expected_kept = mask_basis_sums(batch, postselect)
        assert sums.tolist() == [list(counts[name]) for name in photostatistics.BASIS_NAMES]
        assert n_kept == expected_kept


def fed_uniforms(monkeypatch, rows, after=()):
    """Make every block draw ``rows`` as the first columns of its rows of
    uniforms (control, total count and, for random bases, basis), the other
    columns 0.5, and then the uniforms ``after``: each Generator's stream is
    those rows in order and then ``after``.  No block may draw a binomial."""
    u = np.full((len(rows), B), 0.5)
    rows = np.asarray(rows, dtype=float)
    u[:, :rows.shape[1]] = rows

    class Fed:
        def __init__(self):
            self.stream = np.concatenate([u.ravel(), after])

        def random(self, size=None, out=None):
            out = np.empty(size) if out is None else out
            out[...] = self.stream[:out.size].reshape(out.shape)
            self.stream = self.stream[out.size:]
            return out

        def binomial(self, n, p):
            assert len(n) == 0
            return np.zeros(0, dtype=np.int64)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Fed())


def concat_batches(batches):
    return ShotBatch(*(np.concatenate([getattr(b, f) for b in batches]) for f in FIELDS))


class TestBlocks:
    # the edges of blocks of B shots, and those of blocks of 2^13 shots,
    # which now fall inside a block
    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    @pytest.mark.parametrize("start_index", sorted({0, 1, 2**13 - 1, 2**13, B - 1, B,
                                                    2**40 + 1}))
    @pytest.mark.parametrize("n", sorted({1, 2, B - 1, B, B + 1, 2 * B, 2 * B + 1, 3 * B + 7,
                                          2**13 - 1, 2**13, 2**13 + 1, 2**14, 2**14 + 1,
                                          3 * 2**13 + 7, 2**15 - 1, 2**15 + 1}))
    def test_matches_oracle_at_block_edges(self, n, start_index, basis_mode):
        cfg = ExperimentConfig(basis_mode=basis_mode, rng_seed=404)
        assert_same_batch(
            simulate_batch(cfg, TRUTH, balanced_state(), start_index, n),
            oracle_batch(cfg, TRUTH, balanced_state(), start_index, n),
        )

    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    def test_one_call_equals_one_call_per_block(self, basis_mode):
        cfg = ExperimentConfig(repetitions=5 * B + 3, basis_mode=basis_mode,
                               rng_seed=17)
        whole = simulate_batch(cfg, TRUTH, balanced_state(), start_index=2)
        edges = [2, B, 2 * B, 3 * B, 4 * B, 5 * B, 5 * B + 5]
        parts = [simulate_batch(cfg, TRUTH, balanced_state(), a, b - a)
                 for a, b in zip(edges, edges[1:])]
        assert_same_batch(whole, concat_batches(parts))

    @pytest.mark.parametrize("start_index, n, blocks", [
        # edges of blocks of 2^13 shots, inside blocks of 2^14
        (0, 3 * 2**13 + 7, [0, 1]),
        (2**13 - 1, 2, [0]),
        (2**13, 2**13, [0]),
        (3 * 2**13, 2 * 2**13, [1, 2]),
        (2**40 + 1, 1, [2**40 // B]),
        # edges of blocks of B shots
        (0, 3 * B + 7, [0, 1, 2, 3]),
        (B - 1, 2, [0, 1]),
        (B, B, [1]),
        (3 * B, 2 * B, [3, 4]),
    ])
    def test_draws_each_covering_block_once(self, monkeypatch, start_index, n,
                                            blocks):
        # whole blocks, each keyed [rng_seed, block], and no other
        real, keys = np.random.default_rng, []

        def spy(seed):
            keys.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        simulate_batch(ExperimentConfig(rng_seed=77), TRUTH, balanced_state(),
                       start_index, n)
        assert keys == [[77, block] for block in blocks]

    def test_no_shots(self):
        batch = simulate_batch(ExperimentConfig(), TRUTH, balanced_state(), 5, 0)
        assert len(batch) == 0
        assert_same_batch(batch, concat_batches([batch]))

    @pytest.mark.parametrize("p", [0.0, 2.0**-53, 1e-300, math.sqrt(0.2),
                                   1.0 - math.exp(-0.6 * math.sqrt(0.2)),
                                   1.0 - 2.0**-53, 1.0])
    def test_storage_and_retrieval_at_their_edge(self, monkeypatch, p):
        # one uniform u decides both: a shot stores when u < p_stored and
        # retrieves when u < p_stored p_retrieve; the floats next to p and
        # to p^2, and both ends of [0, 1), at p_retrieve p and 1
        for q in (p, 1.0):
            edges = [p, p * q]
            u = np.concatenate([[0.0, 1.0 - 2.0**-53], edges, np.nextafter(edges, 0.0),
                                np.nextafter(edges, 1.0)])
            u = np.minimum(u, 1.0 - 2.0**-53)
            monkeypatch.setattr(ExperimentConfig, "p_stored", property(lambda self: p))
            monkeypatch.setattr(ExperimentConfig, "p_retrieve", lambda self, t: q)
            fed_uniforms(monkeypatch, [u, np.full(u.size, 0.5), np.full(u.size, 0.5)])
            batch = simulate_batch(ExperimentConfig(), TRUTH, balanced_state(), 0, u.size)
            assert np.array_equal(batch.control_stored, u < p)
            assert np.array_equal(batch.control_retrieved, u < p * q)
            assert not (batch.control_retrieved & ~batch.control_stored).any()

    def test_random_basis_at_its_edges(self, monkeypatch):
        # each basis boundary k / 3 and the floats next to it, and both ends
        # of [0, 1); the float 2/3 lies below the real 2/3, yet its product
        # with 3 rounds up to 2
        edges = [np.nextafter(k / 3, d) for k in (1, 2) for d in (0.0, 1.0)]
        u = np.array([0.0, 1.0 - 2.0**-53, 1 / 3, 2 / 3] + edges)
        half = np.full(u.size, 0.5)
        fed_uniforms(monkeypatch, [half, half, u])
        cfg = ExperimentConfig(basis_mode="random")
        basis = simulate_batch(cfg, TRUTH, balanced_state(), 0, u.size).basis_index
        assert np.array_equal(basis, np.minimum((u * 3.0).astype(np.int64), 2))
        assert Fraction(2 / 3) < Fraction(2, 3)
        assert basis[:4].tolist() == [0, 2, 1, 2]

    def test_single_photon_split_at_its_edge(self, monkeypatch):
        # a single photon goes to port k when its uniform, drawn after the
        # rows, is below the group's port-k share: the floats next to the
        # share, and both ends of [0, 1); at a total mean of 0.1, the count
        # uniform 0.95 counts one photon, and 0.5 none
        lams = [(0.03, 0.07)] * 6
        share = 0.03 / (0.03 + 0.07)
        v = np.array([0.0, 1.0 - 2.0**-53, share, np.nextafter(share, 0.0),
                      np.nextafter(share, 1.0)])
        monkeypatch.setattr(photostatistics, "_port_lambdas", lambda *args: lams)
        fed_uniforms(monkeypatch, [np.full(v.size, 0.5), np.full(v.size, 0.95)], after=v)
        batch = simulate_batch(ExperimentConfig(), TRUTH, balanced_state(), 0, v.size)
        assert np.array_equal(batch.counts_k, v < share)
        assert np.array_equal(batch.counts_l, v >= share)

    def test_memory_is_output_plus_blocks(self):
        # the five output arrays take 7.3 MB at 2^20 shots; one buffer of a
        # block's rows of uniforms (256 kB with round-robin bases and 384 kB
        # with random ones, at 2^14 shots), reused by every block, and the
        # block's temporaries add 0.5-0.6 MB, for peaks of 7.80 and 7.95 MB
        for basis_mode in ("round_robin", "random"):
            cfg = ExperimentConfig(repetitions=2**20, rng_seed=3, basis_mode=basis_mode)
            # numpy imports its random modules on first use, outside the trace
            simulate_batch(cfg, TRUTH, balanced_state(), n=1)
            tracemalloc.start()
            try:
                simulate_batch(cfg, TRUTH, balanced_state())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8.0e6, basis_mode


def same_law(x, y, cells=20):
    """Chi-square p-value that the samples x and y share one law, in cells
    between the quantiles of both; 1 where both hold one and the same value."""
    from scipy import stats

    pooled = np.concatenate([x, y])
    if np.all(pooled == pooled[0]):
        return 1.0
    edges = np.unique(np.quantile(pooled, np.linspace(0.0, 1.0, cells + 1)[1:-1]))
    table = np.array([np.bincount(np.searchsorted(edges, z), minlength=edges.size + 1)
                      for z in (x, y)])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0])[1]


def sufficient_statistics(sums, n_kept):
    """n_kept, the six port sums, each basis's k - l and the total count."""
    sums = np.asarray(sums)
    return [n_kept, *sums.ravel(), *(sums[:, 0] - sums[:, 1]), sums.sum()]


class TestTally:
    @pytest.mark.parametrize("target", [0.9, 40.0])
    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    def test_same_law_as_the_shots(self, basis_mode, target):
        # the tally's statistics and those of simulate_batch over 1000 seeds
        # each, with and without postselection: every marginal, each basis's
        # k - l and the total count agree in law (11 comparisons a case)
        tally = {True: [], False: []}
        shots = {True: [], False: []}
        for seed in range(1000):
            cfg = ExperimentConfig(repetitions=3000, rng_seed=seed,
                                   basis_mode=basis_mode, mean_photons_target=target)
            batch = simulate_batch(cfg, TRUTH, balanced_state())
            for postselect in (True, False):
                shots[postselect].append(sufficient_statistics(
                    *photostatistics._basis_sums(batch, postselect)))
                tally[postselect].append(sufficient_statistics(
                    *photostatistics._tally_sums(cfg, TRUTH, balanced_state(),
                                                 postselect)))
        for postselect in (True, False):
            x, y = np.array(tally[postselect]), np.array(shots[postselect])
            for j in range(x.shape[1]):
                assert same_law(x[:, j], y[:, j]) > FALSE_ALARM, (postselect, j)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 60000, MAX_REPETITIONS])
    def test_round_robin_basis_shots(self, n):
        # N_b = N // 3 + (b < N % 3), as the shots of simulate_batch count
        expected = [n // 3 + (b < n % 3) for b in range(3)]
        assert photostatistics._basis_shots(random.Random(0), n, True) == expected
        if n <= 60000:
            batch = simulate_batch(ExperimentConfig(repetitions=n), TRUTH,
                                   balanced_state())
            assert np.bincount(batch.basis_index, minlength=3).tolist() == expected

    @pytest.mark.parametrize("n", [1, 2, 1000, MAX_REPETITIONS])
    def test_random_basis_shots_sum_to_the_shots(self, n):
        for seed in range(20):
            shots = photostatistics._basis_shots(random.Random(seed), n, False)
            assert sum(shots) == n and min(shots) >= 0

    @pytest.mark.parametrize("postselect", [True, False])
    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    def test_kept_and_total_shots(self, basis_mode, postselect):
        cfg = ExperimentConfig(repetitions=60001, rng_seed=4, basis_mode=basis_mode)
        summary = tally_stokes(cfg, TRUTH, balanced_state(), postselect)
        assert summary.n_total == 60001
        if postselect:
            assert 0 < summary.n_postselected < 60001
        else:
            assert summary.n_postselected == 60001
        assert all(isinstance(v, int) for pair in summary.counts.values()
                   for v in pair)

    def test_azimuth_stderr_is_the_delta_method(self):
        for seed in range(5):
            summary = tally_stokes(ExperimentConfig(rng_seed=seed), TRUTH,
                                   balanced_state(), True)
            assert summary.azimuth_stderr == pytest.approx(azimuth_sigma(summary),
                                                           rel=1e-14)

    def test_azimuth_stderr_covers_the_truth(self):
        # the default tally over 2000 fixed seeds: z = (azimuth - truth) /
        # sigma had mean -0.03, sd 1.009 and |z| > 2 in 4.8 % when written,
        # against 4.55 % for a normal z; a sample sd of 2000 normal draws
        # lies within 0.1 of 1 with odds far beyond FALSE_ALARM
        z = []
        for seed in range(2000):
            cfg = ExperimentConfig(rng_seed=seed)
            summary = tally_stokes(cfg, TRUTH, balanced_state(), True)
            truth = truth_stokes(cfg, TRUTH[2], TRUTH[3], balanced_state())
            z.append(angle_diff(summary.stokes.phi, truth.phi) / summary.azimuth_stderr)
        z = np.array(z)
        assert abs(z.mean()) < 0.1
        assert 0.9 < z.std() < 1.1
        assert np.mean(np.abs(z) > 2) < 0.07

    def test_names_the_empty_basis(self):
        cfg = ExperimentConfig(detection_efficiency=0.0, repetitions=300)
        with pytest.raises(InsufficientStatisticsError) as err:
            tally_stokes(cfg, TRUTH, balanced_state(), postselect=False)
        assert err.value.basis == "HV"

    @pytest.mark.parametrize("postselect", [True, False])
    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    def test_largest_repetition_count_simulates_no_shot(self, monkeypatch,
                                                       basis_mode, postselect):
        def no_shots(*args, **kwargs):
            pytest.fail("shots were simulated")

        monkeypatch.setattr(photostatistics, "simulate_batch", no_shots)
        cfg = ExperimentConfig(repetitions=MAX_REPETITIONS, basis_mode=basis_mode)
        start = time.perf_counter()
        summary = tally_stokes(cfg, TRUTH, balanced_state(), postselect)
        assert time.perf_counter() - start < 1.0
        assert summary.n_total == MAX_REPETITIONS
        # every count sum stays below 2^53
        assert max(v for pair in summary.counts.values() for v in pair) < 2**53

    def test_memory_does_not_grow_with_repetitions(self):
        def peak(repetitions):
            cfg = ExperimentConfig(repetitions=repetitions, rng_seed=3)
            tracemalloc.start()
            try:
                tally_stokes(cfg, TRUTH, balanced_state(), postselect=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2**19), peak(MAX_REPETITIONS)
        # a dozen integers and the summary: a few kB at any count
        assert large <= small + 1024
        assert large < 32 * 1024

    def test_uniforms_per_tally_do_not_grow_with_repetitions(self, monkeypatch):
        # a host-independent cost: the tally's random() calls over 50 seeds,
        # both basis modes and both analyses, at 60000 shots and at the
        # largest count; a sampler whose cost grows as the square root of
        # the mean would take about 10^8 here
        class CountingRandom(random.Random):
            calls = 0

            def random(self):
                self.calls += 1
                return super().random()

        rngs = []

        def counting(seed):
            rngs.append(CountingRandom(seed))
            return rngs[-1]

        monkeypatch.setattr(photostatistics, "random",
                            types.SimpleNamespace(Random=counting))
        for repetitions in (60000, MAX_REPETITIONS):
            for basis_mode in ("round_robin", "random"):
                for seed in range(50):
                    cfg = ExperimentConfig(repetitions=repetitions, rng_seed=seed,
                                           basis_mode=basis_mode)
                    for postselect in (True, False):
                        photostatistics._tally_sums(cfg, TRUTH, balanced_state(),
                                                    postselect)
        calls = [rng.calls for rng in rngs]
        assert len(calls) == 400
        # at most 396 calls when this bound was set
        assert max(calls) <= 600


class TestEstimator:
    @pytest.mark.parametrize("target", [0.9, 40.0, 1000.0])
    @pytest.mark.parametrize("postselect", [True, False])
    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    def test_sums_match_mask_reference(self, basis_mode, postselect, target):
        # many whole blocks and a part of one
        cfg = ExperimentConfig(repetitions=32 * B + 17, rng_seed=5,
                               basis_mode=basis_mode, mean_photons_target=target)
        batch = simulate_batch(cfg, TRUTH, balanced_state())
        counts, n_kept = mask_basis_sums(batch, postselect)
        summary = estimate_stokes(batch, postselect=postselect)
        assert summary.counts == counts
        assert summary.n_postselected == n_kept

    def test_counts_all_in_one_port(self):
        batch = retrieved_batch([0, 1, 2], [4, 2, 1], [0, 2, 1])
        summary = estimate_stokes(batch, postselect=True)
        assert summary.stokes.s_hv == 1.0
        assert summary.stderr[0] == 0.0
        assert summary.stokes.s_da == 0.0 and summary.stokes.s_lr == 0.0

    def test_equal_counts_give_zero_vector(self):
        batch = retrieved_batch([0, 1, 2], [3, 3, 3], [3, 3, 3])
        summary = estimate_stokes(batch, postselect=True)
        s = summary.stokes
        assert (s.s_hv, s.s_da, s.s_lr) == (0.0, 0.0, 0.0)
        assert s.s0 == 0.0
        assert summary.azimuth_stderr is None

    def test_empty_basis_names_the_basis(self):
        batch = retrieved_batch([0, 1, 2], [1, 0, 1], [0, 0, 0])
        with pytest.raises(InsufficientStatisticsError) as err:
            estimate_stokes(batch, postselect=True)
        assert err.value.basis == "DA"

    @pytest.mark.parametrize("postselect", [True, False])
    def test_batch_without_counts(self, postselect):
        # no shot detects a photon: nothing is binned, every sum is an exact
        # integer 0 and the kept shots are still counted
        batch = ShotBatch(
            basis_index=np.array([0, 1, 2, 0, 1], dtype=np.int8),
            control_stored=np.array([1, 1, 0, 1, 0], dtype=bool),
            control_retrieved=np.array([1, 0, 0, 1, 0], dtype=bool),
            counts_k=np.zeros(5, dtype=np.int16),
            counts_l=np.zeros(5, dtype=np.int16),
        )
        sums, n_kept = photostatistics._basis_sums(batch, postselect)
        assert sums.dtype == np.int64
        assert np.array_equal(sums, np.zeros((3, 2), dtype=np.int64))
        assert n_kept == (2 if postselect else 5)
        assert isinstance(n_kept, int)
        with pytest.raises(InsufficientStatisticsError) as err:
            estimate_stokes(batch, postselect=postselect)
        assert err.value.basis == "HV"

    def test_sums_pass_the_count_dtype(self):
        # int16 counts at their largest value sum, per basis, far beyond
        # int16: the sums are exact int64
        top = np.iinfo(np.int16).max
        batch = retrieved_batch([0, 1, 2] * 1000, [top] * 3000, [1] * 3000)
        sums, n_kept = photostatistics._basis_sums(batch, postselect=True)
        assert sums.dtype == np.int64
        assert sums.tolist() == [[1000 * top, 1000]] * 3
        assert n_kept == 3000

    def test_memory_is_that_of_a_slice(self):
        # the shots are binned 2^16 at a time, so the temporaries do not
        # grow with the batch: 266 kB here, where binning all 2^20 shots at
        # once added 4.1 MB
        batch = simulate_batch(ExperimentConfig(repetitions=2**20, rng_seed=3),
                               TRUTH, balanced_state())
        tracemalloc.start()
        try:
            for postselect in (True, False):
                estimate_stokes(batch, postselect=postselect)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_converges_to_uncontrolled_state_without_storage(self):
        cfg = ExperimentConfig(
            mean_photons_control=0.0, repetitions=1_000_000, rng_seed=6060
        )
        batch = simulate_batch(cfg, TRUTH, balanced_state())
        summary = estimate_stokes(batch, postselect=False)
        target = truth_stokes(cfg, TRUTH[0], TRUTH[1], balanced_state())
        assert abs(angle_diff(summary.stokes.phi, target.phi)) < 3 * azimuth_sigma(
            summary
        )

    def test_postselected_converges_to_stored_state(self):
        cfg = ExperimentConfig(repetitions=400_000, rng_seed=2024)
        batch = simulate_batch(cfg, TRUTH, balanced_state())
        summary = estimate_stokes(batch, postselect=True)
        target = truth_stokes(cfg, TRUTH[2], TRUTH[3], balanced_state())
        assert abs(angle_diff(summary.stokes.phi, target.phi)) < 3 * azimuth_sigma(
            summary
        )
        assert summary.n_postselected < summary.n_total

    def test_unpostselected_converges_to_photon_weighted_mixture(self):
        # a pure output state, so its Stokes vector gives the port powers
        cfg = ExperimentConfig(
            repetitions=1_000_000, rng_seed=31415, coherence_factor=1.0
        )
        batch = simulate_batch(cfg, TRUTH, balanced_state())
        summary = estimate_stokes(batch, postselect=False)
        # independent mixture expectation from the two output states: an
        # output of power P gives port difference P S and port sum P
        p1 = 1.0 - math.exp(-cfg.mean_photons_control * cfg.p_store)
        out0 = output_state(cfg, TRUTH[0], TRUTH[1], balanced_state())
        out1 = output_state(cfg, TRUTH[2], TRUTH[3], balanced_state())
        s0, s1 = stokes(out0), stokes(out1)
        den = (1 - p1) * out0.power + p1 * out1.power
        for i, key in enumerate(("s_hv", "s_da", "s_lr")):
            num = ((1 - p1) * out0.power * getattr(s0, key)
                   + p1 * out1.power * getattr(s1, key))
            expected = num / den
            measured = (summary.stokes.s_hv, summary.stokes.s_da,
                        summary.stokes.s_lr)[i]
            assert measured == pytest.approx(expected, abs=4 * summary.stderr[i])


class TestDepolarization:
    def test_truth_matches_pure_state_at_full_coherence(self):
        # the amplitude form of a pure state's Stokes vector:
        # (2 Re(c+* c-), 2 Im(c+* c-), |c+|^2 - |c-|^2) / N
        cfg = ExperimentConfig(coherence_factor=1.0)
        target = truth_stokes(cfg, TRUTH[2], TRUTH[3], balanced_state())
        out = output_state(cfg, TRUTH[2], TRUTH[3], balanced_state())
        cross = out.c_plus.conjugate() * out.c_minus
        n = out.power
        assert target.s_hv == pytest.approx(2 * cross.real / n, rel=1e-12)
        assert target.s_da == pytest.approx(2 * cross.imag / n, rel=1e-12)
        assert target.s_lr == pytest.approx(
            (abs(out.c_plus) ** 2 - abs(out.c_minus) ** 2) / n, abs=1e-12)

    def test_weak_output_state_keeps_its_azimuth(self):
        # at OD 740 the output port powers, about e^-740, are subnormal
        # floats; the azimuth still reads the medium phase out
        from rydberg_xpm.polarization import balanced_input_state

        cfg = ExperimentConfig(coherence_factor=1.0,
                               sigma_plus_suppression=math.inf)
        truth = truth_stokes(cfg, 740.0, 1.0, balanced_input_state(740.0))
        assert truth.phi == pytest.approx(1.0, abs=1e-13)

    def test_coherence_factor_scales_visibility(self):
        cfg = ExperimentConfig(coherence_factor=0.75)
        depol = truth_stokes(cfg, TRUTH[2], TRUTH[3], balanced_state())
        assert visibility(depol) == pytest.approx(0.75, rel=1e-12)
        assert depol.s0 < 1.0

    def test_simulated_tomography_reproduces_measured_visibility_band(self):
        # phenomenological coherence set to the measured fringe contrast
        cfg = ExperimentConfig(
            repetitions=500_000, rng_seed=88, coherence_factor=0.75
        )
        batch = simulate_batch(cfg, TRUTH, balanced_state())
        summary = estimate_stokes(batch, postselect=True)
        assert 0.61 <= visibility(summary.stokes) <= 0.89
