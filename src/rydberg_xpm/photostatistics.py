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

The per-shot model ``simulate_batch`` draws its shots in blocks of
_BLOCK_SHOTS: shot i is column i % _BLOCK_SHOTS of block i // _BLOCK_SHOTS,
whose rows of uniforms come from the numpy Generator seeded
``[rng_seed, block]``.  Row 0 decides storage (u < p_stored) and retrieval
(u < p_stored p_retrieve, which implies storage: the joint law of two
draws), row 1 the shot's total count of both ports, and row 2, drawn only
for random bases, the basis (floor(3u), capped at 2; round-robin bases are
i % 3).  The total count is Poisson with the summed mean of the shot's
(stored, basis) group, by CDF inversion: the number of CDF values below u.
Most shots count nothing, so a block looks only at the shots above the
smallest cdf[0], tells counts 0, 1 and more apart by each group's cdf[0]
and cdf[1], and finds the rest with one ``searchsorted`` (``_count_table``,
built once per set of means).  Then each counting shot is split between
the ports, which makes their counts independent Poissons of their own
means: after the rows, the block draws one uniform per counting shot, and
a single photon goes to port k when it is below the group's port-k share
lam_k / (lam_k + lam_l); then one ``Generator.binomial`` per shot that
counts N >= 2, Bin(N, share); both in shot order.  A call draws and splits
every block it touches whole and keeps the columns it needs, so any
chunking or start index yields bit-identical shots.  Its memory is
O(output + 1 block).  A shot takes 7 bytes: an int8 basis (BASIS_DTYPE),
two bools and two int16 counts (COUNT_DTYPE), which hold every count,
since a count is below the size of the largest Poisson CDF (1405 entries
at MAX_MEAN_PHOTONS_TARGET, the largest summed mean of a group).
``estimate_stokes`` bins only the kept shots that count a photon,
_SLICE_SHOTS shots at a time, so its temporaries are those of a slice.

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

numpy is imported only by the per-shot model (``simulate_batch``,
``estimate_stokes`` and the Poisson CDF), so a tally runs without it.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import defaults
from .errors import InsufficientStatisticsError
from .polarization import (BASIS_NAMES, PolarizationState, StokesVector, apply_medium,
                           port_powers, stokes)

if TYPE_CHECKING:
    import numpy as np

# simulate_batch draws its shots _BLOCK_SHOTS at a time, and _basis_sums
# bins them _SLICE_SHOTS at a time.
_BLOCK_SHOTS = 2**14
_SLICE_SHOTS = 2**16
# The Poisson CDF and its temporaries grow linearly with the mean count
# (321 MB at a mean of 10^7), so the mean is bounded far below where it
# would fill memory.
MAX_MEAN_PHOTONS_TARGET = 1000.0
# ShotBatch dtypes: a basis is 0, 1 or 2, and a count is below the size of
# the largest Poisson CDF, 1405 entries at MAX_MEAN_PHOTONS_TARGET.  Both
# are signed, so that a difference of two counts cannot wrap.
BASIS_DTYPE = "int8"
COUNT_DTYPE = "int16"


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
            raise ValueError(f"mean_photons_target must be in [0, {MAX_MEAN_PHOTONS_TARGET:g}]")
        for name in ("detection_efficiency", "storage_retrieval_efficiency_zero_delay",
                     "storage_retrieval_efficiency_delayed"):
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


def _cdf_size(lam: float) -> int:
    """The entries of the Poisson(lam) CDF table, for k = 0 up to
    lam + 12 sqrt(lam) + 25, or only k = 0 at lam = 0."""
    return int(lam + 12.0 * math.sqrt(lam) + 25.0) + 1 if lam > 0.0 else 1


def _poisson_cdf(lam: float) -> np.ndarray:
    """The Poisson(lam) CDF over ``_cdf_size(lam)`` counts: the number of
    entries below a uniform u is its CDF-inversion count.  [1.0] for
    lam = 0, whose count is always 0."""
    import numpy as np

    if lam == 0.0:
        return np.ones(1)
    k = np.arange(1, _cdf_size(lam), dtype=float)
    log_pmf = np.concatenate(([0.0], np.cumsum(np.log(lam / k)))) - lam
    return np.cumsum(np.exp(log_pmf))


# A count is below the size of the largest Poisson CDF, so the count sums
# of this many shots stay below 2^53, where float sums are exact.
MAX_REPETITIONS = (2**53 - 1) // _cdf_size(MAX_MEAN_PHOTONS_TARGET)


def output_state(config: ExperimentConfig, od: float, phi: float,
                 input_state: PolarizationState) -> PolarizationState:
    """Normalized input propagated through the medium (od, phi)."""
    return apply_medium(input_state.normalized(), od, phi, config.sigma_plus_suppression)


def truth_stokes(config: ExperimentConfig, od: float, phi: float,
                 input_state: PolarizationState) -> StokesVector:
    """Stokes vector the estimator converges to for medium response (od, phi)."""
    return stokes(output_state(config, od, phi, input_state), config.coherence_factor)


def _port_lambdas(config: ExperimentConfig, truth,
                  input_state: PolarizationState) -> list[tuple[float, float]]:
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


def simulate_batch(config: ExperimentConfig, truth, input_state: PolarizationState,
                   start_index: int = 0, n: int | None = None) -> ShotBatch:
    """Simulate shots [start_index, start_index + n) of the experiment, one
    block at a time (module docstring).  truth is the tuple (od0, phi0, od1,
    phi1) of medium responses without and with a stored control excitation."""
    import numpy as np

    if n is None:
        n = config.repetitions
    p_stored = config.p_stored
    # p_retrieve is at most 1, so that a retrieved shot is always a stored one
    p_retrieved = p_stored * config.p_retrieve(config.delay)
    round_robin = config.basis_mode == "round_robin"
    table = _count_table(tuple(_port_lambdas(config, truth, input_state)))
    share = table[-1]
    # the counts are zeroed, and only the shots that count are written
    fields = [np.empty(n, dtype=dtype) for dtype in (BASIS_DTYPE, bool, bool)]
    fields += [np.zeros(n, dtype=COUNT_DTYPE) for port in range(2)]
    # one block's rows of uniforms, stored shots and groups, reused by every
    # block; round-robin bases are a slice of the pattern 0, 1, 2, 0, ...
    u = np.empty((2 if round_robin else 3, _BLOCK_SHOTS))
    stored = np.empty(_BLOCK_SHOTS, dtype=bool)
    group = np.empty(_BLOCK_SHOTS, dtype=BASIS_DTYPE)
    pattern = np.tile(np.arange(3, dtype=BASIS_DTYPE), _BLOCK_SHOTS // 3 + 2)
    end = start_index + n
    for block in range(start_index // _BLOCK_SHOTS, -(-end // _BLOCK_SHOTS)):
        first = block * _BLOCK_SHOTS
        rng = np.random.default_rng([config.rng_seed, block])
        rng.random(out=u)
        if round_robin:
            basis = pattern[first % 3:][:_BLOCK_SHOTS]
        else:  # min(floor(3u), 2), with no float temporary
            basis = np.multiply(u[2], 3.0, out=u[2]).astype(BASIS_DTYPE)
            np.minimum(basis, 2, out=basis)
        np.less(u[0], p_stored, out=stored)
        # a bool is one byte of 0 or 1, so the groups stay int8
        np.add(basis, 3 * stored.view(BASIS_DTYPE), out=group)
        # every counting shot of the block is split, whatever the call keeps,
        # so that the variates drawn after the rows are the same in any call
        hit, g, total, deep = _total_counts(table, group, u[1])
        p = share.take(g)
        k = (rng.random(hit.size) < p).astype(COUNT_DTYPE)
        k.put(deep, rng.binomial(total.take(deep), p.take(deep)))
        a, b = max(start_index, first) - first, min(end, first + _BLOCK_SHOTS) - first
        basis_out, stored_out, retrieved_out, counts_k, counts_l = (
            f[first - start_index + a:first - start_index + b] for f in fields)
        basis_out[:] = basis[a:b]
        stored_out[:] = stored[a:b]
        np.less(u[0, a:b], p_retrieved, out=retrieved_out)
        if b - a < _BLOCK_SHOTS:  # the counting shots in [a, b), from a
            keep = np.flatnonzero((hit >= a) & (hit < b))
            hit, total, k = hit.take(keep) - a, total.take(keep), k.take(keep)
        counts_k.put(hit, k)
        counts_l.put(hit, total - k)
    return ShotBatch(*fields)


@functools.lru_cache(maxsize=16)
def _count_table(lams: tuple) -> tuple:
    """The table of ``_total_counts`` for the means lams[group] = (port k,
    port l), built once per set of means: the Poisson CDFs of each group's
    total mean, each closed by 1.5, as sorted int64 keys floor(cdf 2^53) +
    group 2^54 and the count at each; each CDF's first two values; the zero
    cut, the smallest cdf[0]; and each group's port-k share of its mean.
    The arrays are read-only, since every call with these means shares them."""
    import numpy as np

    totals = [lam_k + lam_l for lam_k, lam_l in lams]
    cdfs = [np.append(_poisson_cdf(total), 1.5) for total in totals]
    sizes = [cdf.size for cdf in cdfs]
    keys = (np.concatenate(cdfs) * 2.0**53).astype(np.int64)
    keys += np.repeat(np.arange(len(cdfs), dtype=np.int64) << 54, sizes)
    counts = np.concatenate([np.arange(size, dtype=COUNT_DTYPE) for size in sizes])
    low = np.array([cdf[:2] for cdf in cdfs]).T
    share = np.array([lam_k / total if total > 0.0 else 0.0
                      for (lam_k, lam_l), total in zip(lams, totals)])
    for array in (keys, counts, low, share):
        array.flags.writeable = False
    return keys, counts, low, float(low[0].min()), share


def _total_counts(table, group: np.ndarray, u: np.ndarray) -> tuple:
    """The shots that count a photon, their groups and total counts, and
    which of them count two or more: the CDF inversion of u with the
    ``_count_table`` CDF of each shot's group.  Only the shots above the
    zero cut are looked at; counts 0, 1 and more are told apart by each
    group's cdf[0] and cdf[1], and the rest are found with one
    ``searchsorted``, which is exact for u on the 2^-53 grid of
    ``Generator.random``, where cdf < u exactly when floor(cdf 2^53) <
    u 2^53."""
    import numpy as np

    keys, counts, low, cut, _ = table
    hit = np.flatnonzero(u > cut)
    v, g = u.take(hit), group.take(hit)
    above = v > low.take(g, axis=1)
    counting = np.flatnonzero(above[0])
    hit, g = hit.take(counting), g.take(counting)
    deep = np.flatnonzero(above[1].take(counting))
    total = np.ones(hit.size, dtype=COUNT_DTYPE)
    key = ((v.take(counting.take(deep)) * 2.0**53).astype(np.int64)
           + (g.take(deep).astype(np.int64) << 54))
    total.put(deep, counts.take(np.searchsorted(keys, key)))
    return hit, g, total, deep


def _basis_sums(batch: ShotBatch, postselect: bool) -> tuple[np.ndarray, int]:
    """Summed (port k, port l) counts per basis, shape (3, 2), and the
    number of shots kept, over all shots or the retrieved ones.  Only the
    kept shots that count a photon are binned, _SLICE_SHOTS at a time: the
    rest add nothing."""
    import numpy as np

    # The float sums are exact: a batch of at most MAX_REPETITIONS shots
    # sums to below 2^53.
    sums = np.zeros((len(BASIS_NAMES), 2))
    for a in range(0, len(batch), _SLICE_SHOTS):
        b = a + _SLICE_SHOTS
        counts = (batch.counts_k[a:b], batch.counts_l[a:b])
        counted = np.logical_or(*counts)
        if postselect:
            counted &= batch.control_retrieved[a:b]
        hit = np.flatnonzero(counted)
        bins = batch.basis_index[a:b].take(hit)
        for j, port in enumerate(counts):
            sums[:, j] += np.bincount(bins, weights=port.take(hit), minlength=3)
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
