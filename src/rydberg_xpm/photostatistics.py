"""Monte Carlo photon-counting statistics of the storage experiment.

Each repetition: a weak coherent control pulse (Poissonian, mean <n_c>) is
stored with probability 1 - exp(-<n_c> p_store) (Poisson thinning; blockade
suppresses multiple stored excitations, so storage is 0 or 1).  The target
pulse (mean <n_t>) propagates through the medium whose optical depth and
phase depend on whether an excitation is stored, and is detected in one of
three polarization bases; the counts of an output port are Poisson with
mean <n_t> times the detection efficiency times its power from
``polarization.port_powers``.  The stored excitation is retrieved with the
delay-dependent retrieval probability, and analysis may postselect on
retrieval.  This module only samples those powers and estimates from counts.

The per-shot model ``simulate_batch`` is counter-based: shot i consumes
exactly two Philox counter blocks (eight 64-bit words) keyed by the seed,
so any batch, chunked or parallel evaluation order yields bit-identical
shots; a single shot i is
``simulate_batch(..., start_index=i, n=1)``.  Word w of a shot gives the
53-bit integer m = w >> 11, whose uniform is u = m 2^-53 exactly, so the
kernel never forms u: ``u < p`` is tested as ``m < ceil(p 2^53)``, and a
Poisson draw by CDF inversion (the number of CDF values below u) counts the
thresholds floor(cdf 2^53) below m.  The thresholds of the six (stored,
basis) groups sit in one sorted table, the group number in the bits above
bit 53.  A count is 0 exactly when m is at most its group's first
threshold, floor(e^-lam 2^53) (2^53 when lam = 0), which holds for most
shots at a mean below one photon; so a port's counts are zeroed and one
``searchsorted`` of the table draws only the shots above that threshold.
``estimate_stokes`` likewise bins only the kept shots that count a photon,
_BLOCK_SHOTS shots at a time, so its temporaries are those of a slice.

``simulate_batch`` allocates its five output arrays once and fills them
_BLOCK_SHOTS shots at a time, so its temporaries are those of a block, not
of the batch: memory is O(output + 2 blocks).  A shot takes 7 bytes of
output: an int8 basis (BASIS_DTYPE), two bools and two int16 counts
(COUNT_DTYPE), which hold every count, since a count is below the size of
the largest Poisson table (1405 entries at MAX_MEAN_PHOTONS_TARGET).  The
blocks are split into contiguous shot ranges on max(1, min(2, usable cores,
n // _BLOCK_SHOTS)) threads, the calling thread filling the first range;
each range draws from its own Philox advanced to its first shot, and numpy
releases the GIL in ``random_raw``, ``searchsorted`` and the large ufuncs.
A batch of fewer than two whole blocks stays on the calling thread: a second
thread would add its stack and a second block's temporaries for less than a
block of work.  The thresholds and tables are built once per call and only
read by the threads.

``tally_stokes``, which ``rydberg-xpm tomography`` runs, simulates no
shots: the estimate reads only, per basis b, the shots N_b, the stored
shots S_b, the retrieved shots R_b and the two port count sums, and it
draws those from their exact joint law.  Round-robin bases give
N_b = N // 3 + (b < N % 3); random bases are multinomial with equal
thirds, drawn as N_0 ~ Bin(N, 1/3), then N_1 ~ Bin(N - N_0, 1/2).  Then
S_b ~ Bin(N_b, p_stored) and R_b ~ Bin(S_b, p_retrieve(delay)), and each
port's count sum is Poisson, with mean R_b lam(b, stored) under
postselection and S_b lam(b, stored) + (N_b - S_b) lam(b, unstored)
without it (a sum of independent Poisson counts is Poisson with the summed
mean).  The draw order is fixed: N_0 and N_1 for random bases, then per
basis HV, DA, LR in turn S_b, R_b (under postselection only), the port-k
sum and the port-l sum.  The generator is ``random.Random(rng_seed)``, read
only through ``random()``, whose sequence Python keeps for an integer
seed, and ``variates`` draws each variate exactly in O(1) expected time,
by one rejection loop for both laws, so a tally's time and memory do not
depend on the number of repetitions.
"""

from __future__ import annotations

import math
import os
import random
import threading
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import InsufficientStatisticsError
from .polarization import (BASIS_NAMES, PolarizationState, StokesVector, apply_medium,
                           port_powers, stokes)

_MANTISSA = 2**53  # (raw >> 11) / 2^53 maps uint64 -> [0, 1)
# thresholds reach 2^53, so the group number of a table key sits above bit 53
_GROUP_SHIFT = np.uint64(54)
_BLOCKS_PER_SHOT = 2  # 8 uniforms per shot
# simulate_batch fills its shots _BLOCK_SHOTS at a time on at most
# _MAX_WORKERS threads, each given whole blocks, and _basis_sums bins in
# slices of the same size.  A block's 512 KB of Philox words is reused from
# the heap, where the 2 MB of a 2^15-shot block was mapped afresh (26k page
# faults per 2^22 shots, against 4k); on a 2-core Xeon 2^13 and 2^14 ran as
# fast as 2^15, and 2^12 about 20 % slower.
_BLOCK_SHOTS = 2**13
_MAX_WORKERS = 2
# The Poisson table and its temporaries grow linearly with the mean count
# (321 MB at a mean of 10^7), so the mean is bounded far below where it
# would fill memory.
MAX_MEAN_PHOTONS_TARGET = 1000.0
# ShotBatch dtypes: a basis is 0, 1 or 2, and a count is below the size of
# the largest Poisson table, 1405 entries at MAX_MEAN_PHOTONS_TARGET.  Both
# are signed, so that a difference of two counts cannot wrap.
BASIS_DTYPE = np.int8
COUNT_DTYPE = np.int16
# the round-robin bases of a block: the slice starting at its first shot mod 3
_ROUND_ROBIN = (np.arange(_BLOCK_SHOTS + 2) % 3).astype(BASIS_DTYPE)


@dataclass(frozen=True)
class ExperimentConfig:
    """Source, loss and repetition parameters of the counting experiment."""

    mean_photons_control: float = defaults.MEAN_PHOTONS_CONTROL
    mean_photons_target: float = defaults.MEAN_PHOTONS_TARGET
    detection_efficiency: float = defaults.DETECTION_EFFICIENCY
    storage_retrieval_efficiency_zero_delay: float = (
        defaults.STORAGE_RETRIEVAL_EFFICIENCY_ZERO_DELAY
    )
    storage_retrieval_efficiency_delayed: float = (
        defaults.STORAGE_RETRIEVAL_EFFICIENCY_DELAYED
    )
    # [s] delay at which the delayed efficiency holds
    delayed_at: float = defaults.DELAYED_AT_US * 1e-6
    delay: float = defaults.DELAY_US * 1e-6  # [s] storage-to-retrieval delay
    repetitions: int = defaults.REPETITIONS
    rng_seed: int = defaults.RNG_SEED
    basis_mode: str = defaults.BASIS_MODE  # "round_robin" or "random"
    # residual phase of sigma+ is phi_minus / sigma_plus_suppression
    sigma_plus_suppression: float = defaults.SIGMA_PLUS_SUPPRESSION
    # phenomenological dephasing: scales the sigma+/sigma- coherence entering
    # the port powers; 1 is a pure state, smaller values depolarize (s0 < 1)
    coherence_factor: float = defaults.COHERENCE_FACTOR

    def __post_init__(self):
        if not 0 <= self.mean_photons_control < math.inf:
            raise ValueError("mean_photons_control must be finite and >= 0")
        if not 0 <= self.mean_photons_target <= MAX_MEAN_PHOTONS_TARGET:
            raise ValueError(
                f"mean_photons_target must be in [0, {MAX_MEAN_PHOTONS_TARGET:g}]"
            )
        for name in (
            "detection_efficiency",
            "storage_retrieval_efficiency_zero_delay",
            "storage_retrieval_efficiency_delayed",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.storage_retrieval_efficiency_delayed > self.storage_retrieval_efficiency_zero_delay:
            raise ValueError("delayed efficiency cannot exceed the zero-delay one")
        if self.delay < 0 or self.delayed_at <= 0:
            raise ValueError("delays must be non-negative (delayed_at positive)")
        if not 1 <= self.repetitions <= MAX_REPETITIONS:
            raise ValueError(f"repetitions must be in [1, {MAX_REPETITIONS}]")
        if self.basis_mode not in ("round_robin", "random"):
            raise ValueError(f"unknown basis_mode {self.basis_mode!r}")
        if not 0.0 <= self.coherence_factor <= 1.0:
            raise ValueError("coherence_factor must be in [0, 1]")
        if not self.sigma_plus_suppression > 1.0:
            raise ValueError("sigma_plus_suppression must be greater than 1")

    @property
    def p_store(self) -> float:
        """sqrt(eta(0)): symmetric split of the combined storage-and-retrieval
        efficiency (only the product is constrained)."""
        return math.sqrt(self.storage_retrieval_efficiency_zero_delay)

    @property
    def p_stored(self) -> float:
        """1 - exp(-<n_c> p_store): a shot stores a control excitation when
        its Poisson control pulse stores at least one photon."""
        return 1.0 - math.exp(-self.mean_photons_control * self.p_store)

    def p_retrieve(self, t: float) -> float:
        p_store = self.p_store
        return retrieval_efficiency(self, t) / p_store if p_store > 0.0 else 0.0


def retrieval_time_constant(config: ExperimentConfig) -> float:
    """tau of eta(t) = eta0 exp(-t/tau) through the two measured points,
    tau = delayed_at / ln(eta0 / eta_delayed): infinite when the efficiency
    does not decay, 0 when nothing is left at the delayed point."""
    eta0 = config.storage_retrieval_efficiency_zero_delay
    etad = config.storage_retrieval_efficiency_delayed
    if etad == eta0:
        return math.inf
    if etad == 0.0:
        return 0.0
    return config.delayed_at / math.log(eta0 / etad)


def retrieval_efficiency(config: ExperimentConfig, t: float) -> float:
    """Combined storage-and-retrieval efficiency at delay t, interpolated
    exponentially between the two measured points (see
    ``retrieval_time_constant``)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    eta0 = config.storage_retrieval_efficiency_zero_delay
    tau = retrieval_time_constant(config)
    if t == 0.0:
        return eta0
    return eta0 * math.exp(-t / tau) if tau > 0.0 else 0.0


@dataclass(frozen=True)
class CountSummary:
    """Aggregated basis counts and the Stokes estimate with uncertainties."""

    counts: dict  # basis -> (sum_k, sum_l)
    stokes: StokesVector
    stderr: tuple[float, float, float]
    n_postselected: int
    n_total: int


def _threshold(p: float) -> np.uint64:
    """T such that m < T exactly when m 2^-53 < p, for 53-bit integers m."""
    return np.uint64(min(math.ceil(p * _MANTISSA), _MANTISSA))


def _poisson_thresholds(lam: float) -> np.ndarray:
    """floor(cdf 2^53), clamped at 2^53, of the Poisson(lam) CDF: the number
    of entries below m is the CDF-inversion count of the uniform m 2^-53
    (cdf < m 2^-53 exactly when floor(cdf 2^53) < m).  Empty for lam = 0,
    whose count is always 0."""
    if lam == 0.0:
        return np.zeros(0, dtype=np.uint64)
    kmax = int(lam + 12.0 * math.sqrt(lam) + 25.0)
    k = np.arange(1, kmax + 1, dtype=float)
    log_pmf = np.concatenate(([0.0], np.cumsum(np.log(lam / k)))) - lam
    cdf = np.cumsum(np.exp(log_pmf))
    return np.minimum(np.floor(cdf * _MANTISSA), _MANTISSA).astype(np.uint64)


# A count is below the size of the largest Poisson table, so the count sums
# of this many shots stay below 2^53, where float sums are exact.
MAX_REPETITIONS = (_MANTISSA - 1) // _poisson_thresholds(MAX_MEAN_PHOTONS_TARGET).size


def _random_basis(m: np.ndarray) -> np.ndarray:
    """floor(3u), capped at 2, in float arithmetic: m (3 / 2^53) rounds
    exactly as u * 3.0 does, which is not always floor(3m / 2^53) (the
    product rounds m = (2^54 - 1) / 3 up to basis 2)."""
    return np.minimum((m * (3.0 / _MANTISSA)).astype(BASIS_DTYPE), 2)


def _grouped_table(lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sorted table of every group's Poisson thresholds, keyed
    (group << 54) | threshold, the index where each group starts, and each
    group's first threshold floor(e^-lam 2^53), or 2^53 for an empty table
    (lam = 0): a count is 0 exactly when m is at most its group's first
    threshold."""
    parts = [_poisson_thresholds(lam) for lam in lams]
    starts = np.cumsum([0] + [part.size for part in parts[:-1]])
    first = np.array([part[0] if part.size else _MANTISSA for part in parts],
                     dtype=np.uint64)
    table = np.concatenate([(np.uint64(g) << _GROUP_SHIFT) | part
                            for g, part in enumerate(parts)])
    return table, starts, first


def output_state(
    config: ExperimentConfig, od: float, phi: float, input_state: PolarizationState
) -> PolarizationState:
    """Normalized input propagated through the medium (od, phi)."""
    return apply_medium(
        input_state.normalized(), od, phi, config.sigma_plus_suppression
    )


def truth_stokes(
    config: ExperimentConfig, od: float, phi: float, input_state: PolarizationState
) -> StokesVector:
    """Stokes vector the estimator converges to for medium response (od, phi)."""
    return stokes(output_state(config, od, phi, input_state), config.coherence_factor)


def _port_lambdas(
    config: ExperimentConfig, truth, input_state: PolarizationState
) -> list[tuple[float, float]]:
    """Mean detected counts (port k, port l) of each shot group, indexed
    by group = basis + 3 stored."""
    od0, phi0, od1, phi1 = truth
    scale = config.mean_photons_target * config.detection_efficiency
    table = []
    for od_j, phi_j in ((od0, phi0), (od1, phi1)):
        powers = port_powers(output_state(config, od_j, phi_j, input_state),
                             config.coherence_factor)
        table.extend((scale * pk, scale * pl) for pk, pl in powers)
    return table


@dataclass(frozen=True)
class ShotBatch:
    """Vectorized shot outcomes, one array element per shot."""

    basis_index: np.ndarray  # BASIS_DTYPE (int8), in {0, 1, 2}
    control_stored: np.ndarray  # bool
    control_retrieved: np.ndarray  # bool
    counts_k: np.ndarray  # COUNT_DTYPE (int16), port k's detected photons
    counts_l: np.ndarray  # COUNT_DTYPE (int16), port l's detected photons

    def __len__(self) -> int:
        return self.basis_index.size


def simulate_batch(
    config: ExperimentConfig,
    truth,
    input_state: PolarizationState,
    start_index: int = 0,
    n: int | None = None,
) -> ShotBatch:
    """Simulate shots [start_index, start_index + n) of the experiment.

    truth is the tuple (od0, phi0, od1, phi1) of medium responses without
    and with a stored control excitation.  Words 0 to 4 of a shot draw
    storage, retrieval, the random basis and the counts of ports k and l.
    The shots are filled in blocks on up to two threads (module docstring).
    """
    if n is None:
        n = config.repetitions
    lams = _port_lambdas(config, truth, input_state)
    kernel = _Kernel(
        seed=config.rng_seed,
        start_index=start_index,
        round_robin=config.basis_mode == "round_robin",
        t_stored=_threshold(config.p_stored),
        t_retrieved=_threshold(config.p_retrieve(config.delay)),
        table_k=_grouped_table([lk for lk, _ in lams]),
        table_l=_grouped_table([ll for _, ll in lams]),
    )
    batch = ShotBatch(
        basis_index=np.empty(n, dtype=BASIS_DTYPE),
        control_stored=np.empty(n, dtype=bool),
        control_retrieved=np.empty(n, dtype=bool),
        counts_k=np.empty(n, dtype=COUNT_DTYPE),
        counts_l=np.empty(n, dtype=COUNT_DTYPE),
    )
    workers = max(1, min(_MAX_WORKERS, _usable_cores(), n // _BLOCK_SHOTS))
    blocks = -(-n // _BLOCK_SHOTS)
    edges = [min(w * blocks // workers * _BLOCK_SHOTS, n) for w in range(workers + 1)]
    errors = []
    threads = [
        threading.Thread(target=_fill_range_in_thread,
                         args=(errors, kernel, batch, lo, hi))
        for lo, hi in zip(edges[1:-1], edges[2:])
    ]
    for thread in threads:
        thread.start()
    try:
        _fill_range(kernel, batch, edges[0], edges[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return batch


def _usable_cores() -> int:
    """Cores this process may run on (all of them where the platform has
    no affinity call)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class _Kernel:
    """What every block of one ``simulate_batch`` call reads: the seed and
    first shot, the basis mode, the storage and retrieval thresholds and
    the grouped Poisson tables of ports k and l (see ``_grouped_table``)."""

    seed: int
    start_index: int
    round_robin: bool
    t_stored: np.uint64
    t_retrieved: np.uint64
    table_k: tuple[np.ndarray, np.ndarray, np.ndarray]
    table_l: tuple[np.ndarray, np.ndarray, np.ndarray]


def _fill_range_in_thread(
    errors: list, kernel: _Kernel, batch: ShotBatch, lo: int, hi: int
) -> None:
    """``_fill_range`` on a worker thread: an exception is appended to
    ``errors``, for the calling thread to raise after ``join``."""
    try:
        _fill_range(kernel, batch, lo, hi)
    except BaseException as exc:
        errors.append(exc)


def _fill_range(kernel: _Kernel, batch: ShotBatch, lo: int, hi: int) -> None:
    """Fill rows [lo, hi) of ``batch`` with shots start_index + lo onwards,
    _BLOCK_SHOTS shots at a time, from a Philox of its own."""
    bg = np.random.Philox(key=kernel.seed)
    bg.advance(_BLOCKS_PER_SHOT * (kernel.start_index + lo))
    for a in range(lo, hi, _BLOCK_SHOTS):
        b = min(a + _BLOCK_SHOTS, hi)
        # every word is shifted, words 5 to 7 unused too: numpy shifts the
        # contiguous 8 words of a shot several times faster than a strided 5
        m = bg.random_raw(8 * (b - a)).reshape(b - a, 8)
        m >>= np.uint64(11)
        stored = np.less(m[:, 0], kernel.t_stored, out=batch.control_stored[a:b])
        retrieved = np.less(m[:, 1], kernel.t_retrieved,
                            out=batch.control_retrieved[a:b])
        retrieved &= stored
        basis = batch.basis_index[a:b]
        if kernel.round_robin:
            phase = (kernel.start_index + a) % 3
            basis[:] = _ROUND_ROBIN[phase:phase + b - a]
        else:
            basis[:] = _random_basis(m[:, 2])
        # a bool is one byte of 0 or 1, so the group stays int8 as well
        group = basis + 3 * stored.view(BASIS_DTYPE)
        _draw_counts(kernel.table_k, group, m[:, 3], batch.counts_k[a:b])
        _draw_counts(kernel.table_l, group, m[:, 4], batch.counts_l[a:b])
        # free this block's words before the next block draws its own
        del m


def _draw_counts(table, group: np.ndarray, m: np.ndarray, out: np.ndarray) -> None:
    """The Poisson counts of one port into ``out``: 0 where m is at most
    its group's first threshold, and one grouped ``searchsorted`` (see
    ``_grouped_table``) of the remaining shots."""
    keys, starts, first = table
    out.fill(0)
    hit = np.flatnonzero(m > np.take(first, group))
    g = group[hit]
    key = (g.astype(np.uint64) << _GROUP_SHIFT) | m[hit]
    out[hit] = np.searchsorted(keys, key) - starts[g]


def _basis_sums(batch: ShotBatch, postselect: bool) -> tuple[np.ndarray, int]:
    """Summed (port k, port l) counts per basis, shape (3, 2), and the
    number of shots kept, over all shots or the retrieved ones.  Only the
    kept shots that count a photon are binned, _BLOCK_SHOTS at a time: the
    rest add nothing."""
    # The float sums are exact: a batch of at most MAX_REPETITIONS shots
    # sums to below 2^53.
    sums = np.zeros((len(BASIS_NAMES), 2))
    for a in range(0, len(batch), _BLOCK_SHOTS):
        b = a + _BLOCK_SHOTS
        counts = (batch.counts_k[a:b], batch.counts_l[a:b])
        counted = np.logical_or(*counts)
        if postselect:
            counted &= batch.control_retrieved[a:b]
        hit = np.flatnonzero(counted)
        bins = batch.basis_index[a:b][hit]
        for j, port in enumerate(counts):
            sums[:, j] += np.bincount(bins, weights=port[hit], minlength=3)
    n_kept = np.count_nonzero(batch.control_retrieved) if postselect else len(batch)
    return sums.astype(np.int64), int(n_kept)


def _summarize_counts(sums, n_postselected: int, n_total: int) -> CountSummary:
    """Normalized Stokes parameters from the summed (port k, port l) counts
    of each basis, as integers.

    Standard errors come from binomial propagation of the port-splitting
    fraction: sigma_S = 2 sqrt(ab) / (a+b)^(3/2) for summed counts (a, b).
    Raises InsufficientStatisticsError naming the first basis with no counts.
    """
    components = []
    errors = []
    counts = {}
    for name, (a, c) in zip(BASIS_NAMES, sums):
        counts[name] = (a, c)
        tot = a + c
        if tot == 0:
            raise InsufficientStatisticsError(
                f"no counts in basis {name} after postselection", basis=name)
        components.append((a - c) / tot)
        errors.append(2.0 * math.sqrt(a * c) / tot**1.5)
    return CountSummary(
        counts=counts,
        stokes=StokesVector(*components),
        stderr=tuple(errors),
        n_postselected=n_postselected,
        n_total=n_total,
    )


def estimate_stokes(batch: ShotBatch, postselect: bool) -> CountSummary:
    """Normalized Stokes parameters, with standard errors, from the summed
    per-basis counts of one batch, after postselection on retrieval if
    ``postselect`` (see ``_summarize_counts``)."""
    sums, n_kept = _basis_sums(batch, postselect)
    return _summarize_counts(sums.tolist(), n_kept, len(batch))


def tally_stokes(
    config: ExperimentConfig, truth, input_state: PolarizationState, postselect: bool
) -> CountSummary:
    """``estimate_stokes`` of ``config.repetitions`` shots, in law: the
    per-basis sufficient statistics are drawn from their exact joint law
    (see ``_tally_sums``), and no shot is simulated."""
    return _summarize_counts(*_tally_sums(config, truth, input_state, postselect),
                             config.repetitions)


def _tally_sums(
    config: ExperimentConfig, truth, input_state: PolarizationState, postselect: bool
) -> tuple[list[list[int]], int]:
    """What ``_basis_sums`` gives for ``config.repetitions`` shots, drawn
    from its law in the order the module docstring gives."""
    # the samplers are imported on first use, so that no other subcommand
    # loads or compiles them
    from .variates import binomial, poisson

    rng = random.Random(config.rng_seed)
    n = config.repetitions
    p_retrieved = config.p_retrieve(config.delay)
    lams = _port_lambdas(config, truth, input_state)
    sums = []
    n_kept = 0
    for b, n_b in enumerate(_basis_shots(rng, n, config.basis_mode == "round_robin")):
        stored = binomial(rng, n_b, config.p_stored)
        if postselect:
            retrieved = binomial(rng, stored, p_retrieved)
            n_kept += retrieved
            means = [retrieved * lam for lam in lams[b + 3]]
        else:
            means = [stored * lam1 + (n_b - stored) * lam0
                     for lam0, lam1 in zip(lams[b], lams[b + 3])]
        sums.append([poisson(rng, mean) for mean in means])
    return sums, n_kept if postselect else n


def _basis_shots(rng: random.Random, n: int, round_robin: bool) -> list[int]:
    """The shots measured in each basis: the round-robin split of n, or a
    multinomial draw with equal thirds."""
    from .variates import binomial

    if round_robin:
        return [n // 3 + (b < n % 3) for b in range(3)]
    n_0 = binomial(rng, n, 1.0 / 3.0)
    n_1 = binomial(rng, n - n_0, 0.5)
    return [n_0, n_1, n - n_0 - n_1]
