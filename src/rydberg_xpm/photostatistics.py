"""Monte Carlo photon-counting statistics of the storage experiment.

Each repetition: a weak coherent control pulse (Poissonian, mean <n_c>) is
stored with probability 1 - exp(-<n_c> p_store) (Poisson thinning; blockade
suppresses multiple stored excitations, so storage is 0 or 1).  The target
pulse (mean <n_t>) propagates through the medium whose optical depth and
phase depend on whether an excitation is stored, and is detected in one of
three polarization bases; detected counts per output port are thinned
Poisson with the transmission and detection efficiency folded in.  The
stored excitation is retrieved with the delay-dependent retrieval
probability, and analysis may postselect on retrieval.

Randomness is counter-based: shot i consumes exactly two Philox counter
blocks (eight 64-bit words) keyed by the seed, so any batch, chunked or
parallel evaluation order yields bit-identical shots; a single shot i is
``simulate_batch(..., start_index=i, n=1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import InsufficientStatisticsError
from .polarization import PolarizationState, StokesVector, apply_medium

BASIS_NAMES = ("HV", "DA", "LR")
_PORTS = {"HV": ("H", "V"), "DA": ("D", "A"), "LR": ("L", "R")}
_U64_TO_UNIT = 2.0**-53  # (raw >> 11) * 2^-53 maps uint64 -> [0, 1)
_BLOCKS_PER_SHOT = 2  # 8 uniforms per shot


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
        for name in ("mean_photons_control", "mean_photons_target"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
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
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
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


def _uniform_block(seed: int, start: int, n: int) -> np.ndarray:
    """Uniform draws for shots [start, start+n), shape (n, 8)."""
    bg = np.random.Philox(key=seed)
    bg.advance(_BLOCKS_PER_SHOT * start)
    raw = bg.random_raw(8 * n).reshape(n, 8)
    return (raw >> np.uint64(11)).astype(np.float64) * _U64_TO_UNIT


def _poisson_from_uniform(u: np.ndarray, lam: float) -> np.ndarray:
    """Poisson counts by CDF inversion of one uniform per draw."""
    if lam == 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    kmax = int(lam + 12.0 * math.sqrt(lam) + 25.0)
    k = np.arange(1, kmax + 1, dtype=float)
    log_pmf = np.concatenate(([0.0], np.cumsum(np.log(lam / k)))) - lam
    cdf = np.cumsum(np.exp(log_pmf))
    return np.searchsorted(cdf, u, side="left").astype(np.int64)


def _depolarized_port_powers(
    state: PolarizationState, coherence_factor: float
) -> dict[str, float]:
    """Port powers of the output density matrix whose sigma+/sigma-
    coherence is scaled by ``coherence_factor`` (populations untouched)."""
    pp = abs(state.c_plus) ** 2
    mm = abs(state.c_minus) ** 2
    pm = coherence_factor * state.c_plus.conjugate() * state.c_minus
    half = (pp + mm) / 2.0
    return {
        "H": half + pm.real,
        "V": half - pm.real,
        "D": half + pm.imag,
        "A": half - pm.imag,
        "L": pp,
        "R": mm,
    }


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
    powers = _depolarized_port_powers(
        output_state(config, od, phi, input_state), config.coherence_factor
    )
    n = powers["L"] + powers["R"]
    return StokesVector(
        s_hv=(powers["H"] - powers["V"]) / n,
        s_da=(powers["D"] - powers["A"]) / n,
        s_lr=(powers["L"] - powers["R"]) / n,
    )


def _port_lambdas(config: ExperimentConfig, truth, input_state: PolarizationState):
    """Mean detected counts per port for each (stored, basis) combination."""
    od0, phi0, od1, phi1 = truth
    scale = config.mean_photons_target * config.detection_efficiency
    table = {}
    for stored, (od_j, phi_j) in enumerate(((od0, phi0), (od1, phi1))):
        powers = _depolarized_port_powers(
            output_state(config, od_j, phi_j, input_state), config.coherence_factor
        )
        for b, name in enumerate(BASIS_NAMES):
            pk, pl = _PORTS[name]
            table[(stored, b)] = (scale * powers[pk], scale * powers[pl])
    return table


@dataclass(frozen=True)
class ShotBatch:
    """Vectorized shot outcomes, one array element per shot."""

    basis_index: np.ndarray  # int in {0, 1, 2}
    control_stored: np.ndarray  # bool
    control_retrieved: np.ndarray  # bool
    counts_k: np.ndarray  # int64
    counts_l: np.ndarray  # int64

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
    and with a stored control excitation.
    """
    if n is None:
        n = config.repetitions
    u = _uniform_block(config.rng_seed, start_index, n)
    p_stored = 1.0 - math.exp(-config.mean_photons_control * config.p_store)
    stored = u[:, 0] < p_stored
    retrieved = stored & (u[:, 1] < config.p_retrieve(config.delay))
    if config.basis_mode == "round_robin":
        basis = (np.arange(start_index, start_index + n)) % 3
    else:
        basis = np.minimum((u[:, 2] * 3.0).astype(np.int64), 2)
    lam = _port_lambdas(config, truth, input_state)
    counts_k = np.zeros(n, dtype=np.int64)
    counts_l = np.zeros(n, dtype=np.int64)
    for (j, b), (lk, ll) in lam.items():
        m = (stored == bool(j)) & (basis == b)
        if not m.any():
            continue
        counts_k[m] = _poisson_from_uniform(u[m, 3], lk)
        counts_l[m] = _poisson_from_uniform(u[m, 4], ll)
    return ShotBatch(
        basis_index=basis.astype(np.int64),
        control_stored=stored,
        control_retrieved=retrieved,
        counts_k=counts_k,
        counts_l=counts_l,
    )


def estimate_stokes(batch: ShotBatch, postselect: bool) -> CountSummary:
    """Form normalized Stokes parameters from summed per-basis counts.

    Standard errors come from binomial propagation of the port-splitting
    fraction: sigma_S = 2 sqrt(ab) / (a+b)^(3/2) for summed counts (a, b).
    Raises InsufficientStatisticsError naming the first basis with no counts
    after postselection.
    """
    basis, ck, cl = batch.basis_index, batch.counts_k, batch.counts_l
    n_total = len(batch)
    keep = batch.control_retrieved if postselect else np.ones(n_total, dtype=bool)
    components = []
    errors = []
    counts = {}
    for b, name in enumerate(BASIS_NAMES):
        m = keep & (basis == b)
        a = int(ck[m].sum())
        c = int(cl[m].sum())
        counts[name] = (a, c)
        tot = a + c
        if tot == 0:
            raise InsufficientStatisticsError(name)
        components.append((a - c) / tot)
        errors.append(2.0 * math.sqrt(a * c) / tot**1.5)
    return CountSummary(
        counts=counts,
        stokes=StokesVector(*components),
        stderr=tuple(errors),
        n_postselected=int(keep.sum()),
        n_total=n_total,
    )
