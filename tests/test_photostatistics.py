import math
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import angle_diff
from rydberg_xpm import photostatistics
from rydberg_xpm.errors import InsufficientStatisticsError
from rydberg_xpm.photostatistics import (
    CHUNK_SHOTS,
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
    """Reference kernel: float uniforms u = (word >> 11) 2^-53 and one
    boolean mask per (stored, basis) group, as the Monte Carlo was first
    written; simulate_batch must reproduce it bit for bit."""
    bg = np.random.Philox(key=config.rng_seed)
    bg.advance(2 * start_index)
    raw = bg.random_raw(8 * n).reshape(n, 8)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    p_stored = 1.0 - math.exp(-config.mean_photons_control * config.p_store)
    stored = u[:, 0] < p_stored
    retrieved = stored & (u[:, 1] < config.p_retrieve(config.delay))
    if config.basis_mode == "round_robin":
        basis = np.arange(start_index, start_index + n) % 3
    else:
        basis = np.minimum((u[:, 2] * 3.0).astype(np.int64), 2)
    counts_k = np.zeros(n, dtype=np.int64)
    counts_l = np.zeros(n, dtype=np.int64)
    lams = photostatistics._port_lambdas(config, truth, input_state)
    for g, (lk, ll) in enumerate(lams):
        j, b = divmod(g, 3)
        m = (stored == bool(j)) & (basis == b)
        if not m.any():
            continue
        counts_k[m] = oracle_poisson(u[m, 3], lk)
        counts_l[m] = oracle_poisson(u[m, 4], ll)
    return ShotBatch(basis.astype(np.int64), stored, retrieved, counts_k, counts_l)


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
        size = photostatistics._poisson_thresholds(MAX_MEAN_PHOTONS_TARGET).size
        assert MAX_REPETITIONS * size < 2**53 <= (MAX_REPETITIONS + 1) * size
        ExperimentConfig(repetitions=MAX_REPETITIONS)
        for value in (0, MAX_REPETITIONS + 1, 2**64):
            with pytest.raises(ValueError, match="repetitions"):
                ExperimentConfig(repetitions=value)

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
        # pass int8's range; two blocks, so that both threads may fill them
        cfg = ExperimentConfig(mean_photons_target=MAX_MEAN_PHOTONS_TARGET,
                               detection_efficiency=1.0, basis_mode=basis_mode,
                               rng_seed=2718)
        state = PolarizationState(1.0, 0.0)
        batch = simulate_batch(cfg, TRUTH, state, 150, 2 * B + 1)
        assert batch.counts_k.max() > 1000
        assert_same_batch(batch, oracle_batch(cfg, TRUTH, state, 150, 2 * B + 1))

    def test_count_dtype_holds_the_largest_table(self):
        # a count is at most the size of its group's Poisson table
        size = photostatistics._poisson_thresholds(MAX_MEAN_PHOTONS_TARGET).size
        assert size < np.iinfo(photostatistics.COUNT_DTYPE).max

    @pytest.mark.parametrize("lam", [1e-300, 0.9, 40.0, 1000.0, 3000.0])
    def test_poisson_thresholds_at_their_edges(self, lam):
        # every 53-bit integer next to a threshold, where a rounding slip
        # between the integer and the float inversion would show
        thresholds = photostatistics._poisson_thresholds(lam)
        t = thresholds.astype(np.int64)
        m = np.concatenate([t - 1, t, t + 1, [0, 1, 2**53 - 1]])
        m = np.clip(m, 0, 2**53 - 1).astype(np.uint64)
        u = m.astype(np.float64) * 2.0**-53
        assert np.array_equal(np.searchsorted(thresholds, m),
                              oracle_poisson(u, lam))

    @pytest.mark.parametrize("lams", [
        [1e-300, 0.011, 0.106, 0.9, 40.0, 1000.0],
        [0.0, 0.011, 0.0, 0.9, 0.0, 1000.0],  # only some groups empty
        [0.0] * 6,
    ])
    def test_zero_count_cut_at_its_edges(self, lams):
        # each group's first threshold and its neighbours, and both ends of
        # the 53-bit range, drawn through the zero cut and the grouped table
        # in one call, the groups interleaved
        table = photostatistics._grouped_table(lams)
        first = table[2].astype(np.int64)
        ms, expected = [], []
        for g, lam in enumerate(lams):
            assert first[g] == (photostatistics._poisson_thresholds(lam)[0]
                                if lam else 2**53)
            m = np.array([first[g] - 1, first[g], first[g] + 1, 0, 2**53 - 1])
            m = np.clip(m, 0, 2**53 - 1).astype(np.uint64)
            ms.append(m)
            expected.append(oracle_poisson(m.astype(np.float64) * 2.0**-53, lam))
        group = np.tile(np.arange(len(lams)), 5)
        out = np.full(group.size, -1, dtype=np.int64)
        photostatistics._draw_counts(table, group, np.stack(ms, axis=1).ravel(), out)
        assert np.array_equal(out, np.stack(expected, axis=1).ravel())

    @pytest.mark.parametrize("p", [0.0, 2.0**-53, 1e-300, math.sqrt(0.2),
                                   1.0 - math.exp(-0.6 * math.sqrt(0.2)),
                                   1.0 - 2.0**-53, 1.0])
    def test_probability_threshold_at_its_edge(self, p):
        t = int(photostatistics._threshold(p))
        m = np.array([max(t - 1, 0), min(t, 2**53 - 1), 0, 2**53 - 1],
                     dtype=np.uint64)
        u = m.astype(np.float64) * 2.0**-53
        assert np.array_equal(m < photostatistics._threshold(p), u < p)


    def test_random_basis_at_its_edges(self):
        # each basis boundary k 2^53 / 3, and the word whose product with 3
        # rounds up across one
        edges = [k * 2**53 // 3 + d for k in (1, 2, 3) for d in (-1, 0, 1)]
        m = np.array([0, (2**54 - 1) // 3] + [min(e, 2**53 - 1) for e in edges],
                     dtype=np.uint64)
        u = m.astype(np.float64) * 2.0**-53
        expected = np.minimum((u * 3.0).astype(np.int64), 2)
        assert np.array_equal(photostatistics._random_basis(m), expected)
        assert expected[1] == 2


B = photostatistics._BLOCK_SHOTS


def usable_cores(monkeypatch, cores):
    """Make ``cores`` cores look usable to the kernel's worker rule."""
    monkeypatch.setattr(photostatistics.os, "sched_getaffinity",
                        lambda pid: set(range(cores)))


class TestBlocks:
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    @pytest.mark.parametrize("start_index", [0, 1, 2**40 + 1])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B, 2 * B + 1, 3 * B + 7])
    def test_matches_oracle_at_block_edges(self, monkeypatch, n, start_index,
                                           basis_mode, cores):
        usable_cores(monkeypatch, cores)
        cfg = ExperimentConfig(basis_mode=basis_mode, rng_seed=404)
        assert_same_batch(
            simulate_batch(cfg, TRUTH, balanced_state(), start_index, n),
            oracle_batch(cfg, TRUTH, balanced_state(), start_index, n),
        )

    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    def test_one_core_equals_two(self, monkeypatch, basis_mode):
        cfg = ExperimentConfig(repetitions=5 * B + 3, basis_mode=basis_mode,
                               rng_seed=17)
        usable_cores(monkeypatch, 1)
        one = simulate_batch(cfg, TRUTH, balanced_state(), start_index=2)
        usable_cores(monkeypatch, 2)
        assert_same_batch(simulate_batch(cfg, TRUTH, balanced_state(), start_index=2),
                          one)

    @pytest.mark.parametrize("cores, n, ranges", [
        (1, 3 * B + 7, [(0, 3 * B + 7)]),
        (2, 2 * B - 1, [(0, 2 * B - 1)]),
        (2, 2 * B, [(0, B), (B, 2 * B)]),
        (2, 3 * B + 7, [(0, 2 * B), (2 * B, 3 * B + 7)]),
        (8, 5 * B, [(0, 2 * B), (2 * B, 5 * B)]),
    ])
    def test_worker_rule(self, monkeypatch, cores, n, ranges):
        # whole blocks per worker, at most two workers and never more than
        # the usable cores; the calling thread fills the first range
        usable_cores(monkeypatch, cores)
        fill = photostatistics._fill_range
        calls = []

        def spy(kernel, batch, lo, hi):
            on_caller = threading.current_thread() is threading.main_thread()
            calls.append((lo, hi, on_caller))
            fill(kernel, batch, lo, hi)

        monkeypatch.setattr(photostatistics, "_fill_range", spy)
        simulate_batch(ExperimentConfig(), TRUTH, balanced_state(), n=n)
        assert sorted(calls) == [(lo, hi, lo == 0) for lo, hi in ranges]

    def test_platform_without_affinity_call(self, monkeypatch):
        # os.sched_getaffinity is missing on some platforms: every core counts
        monkeypatch.delattr(photostatistics.os, "sched_getaffinity")
        monkeypatch.setattr(photostatistics.os, "cpu_count", lambda: 1)
        cfg = ExperimentConfig(rng_seed=8)
        assert_same_batch(simulate_batch(cfg, TRUTH, balanced_state(), 5, 2 * B),
                          oracle_batch(cfg, TRUTH, balanced_state(), 5, 2 * B))
        assert photostatistics._usable_cores() == 1

    def test_worker_error_is_raised(self, monkeypatch):
        usable_cores(monkeypatch, 2)
        fill = photostatistics._fill_range

        def second_worker_fails(kernel, batch, lo, hi):
            if lo > 0:
                raise RuntimeError("worker failed")
            fill(kernel, batch, lo, hi)

        monkeypatch.setattr(photostatistics, "_fill_range", second_worker_fails)
        with pytest.raises(RuntimeError, match="worker failed"):
            simulate_batch(ExperimentConfig(), TRUTH, balanced_state(), n=2 * B)

    def test_memory_is_output_plus_blocks(self):
        # the five output arrays take 7.3 MB at 2^20 shots; the blocks
        # being filled add a few MB per worker
        cfg = ExperimentConfig(repetitions=2**20, rng_seed=3)
        tracemalloc.start()
        try:
            simulate_batch(cfg, TRUTH, balanced_state())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


class TestTally:
    @pytest.mark.parametrize("postselect", [True, False])
    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    def test_equals_monolithic_estimate(self, basis_mode, postselect):
        cfg = ExperimentConfig(
            repetitions=2 * CHUNK_SHOTS + 17, rng_seed=99, basis_mode=basis_mode
        )
        whole = estimate_stokes(
            simulate_batch(cfg, TRUTH, balanced_state()), postselect=postselect
        )
        assert tally_stokes(cfg, TRUTH, balanced_state(), postselect) == whole
        assert whole.n_total == 2 * CHUNK_SHOTS + 17

    @pytest.mark.parametrize("target", [0.9, 40.0, 1000.0])
    @pytest.mark.parametrize("postselect", [True, False])
    @pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
    def test_sums_match_mask_reference(self, basis_mode, postselect, target):
        cfg = ExperimentConfig(repetitions=CHUNK_SHOTS + 17, rng_seed=5,
                               basis_mode=basis_mode, mean_photons_target=target)
        batch = simulate_batch(cfg, TRUTH, balanced_state())
        counts, n_kept = mask_basis_sums(batch, postselect)
        for summary in (estimate_stokes(batch, postselect=postselect),
                        tally_stokes(cfg, TRUTH, balanced_state(), postselect)):
            assert summary.counts == counts
            assert summary.n_postselected == n_kept

    def test_names_the_empty_basis(self):
        cfg = ExperimentConfig(detection_efficiency=0.0, repetitions=300)
        with pytest.raises(InsufficientStatisticsError) as err:
            tally_stokes(cfg, TRUTH, balanced_state(), postselect=False)
        assert err.value.basis == "HV"

    def test_memory_does_not_grow_with_repetitions(self):
        def peak(repetitions):
            cfg = ExperimentConfig(repetitions=repetitions, rng_seed=3)
            tracemalloc.start()
            try:
                tally_stokes(cfg, TRUTH, balanced_state(), postselect=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2**19), peak(2**21)
        assert large <= 1.05 * small
        # one chunk's words (8 per shot) bound it, not the 2^21 shots
        assert large < 4 * 64 * CHUNK_SHOTS


class TestEstimator:
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
