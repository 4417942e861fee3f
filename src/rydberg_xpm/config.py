"""Run configuration: one self-describing JSON document, and the measured
spectrum a fit reads.

Every key defaults to the modeled experiment's value in ``defaults``;
frequencies are plain MHz, lengths um, densities cm^-3 -- ``RunConfig``
converts them to angular/SI units and is the one builder of the model
objects.  Unknown keys are rejected with the dotted path of the offending
key, a value out of its range likewise.  What only a model dataclass can
check, a quantity derived from several keys, is a ConfigError naming the
section of the builder that failed.  Each builder runs only when a
subcommand needs its object.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
from dataclasses import replace
from typing import TYPE_CHECKING, Any

from . import defaults
from .blockade import BlockadeParams
from .constants import (
    RB87_D2_CYCLING_DIPOLE,
    SIGNAL_WAVELENGTH,
    TWO_PI,
    angular_from_mhz,
    c6_from_atomic_units,
)
from .errors import ConfigError
from .photostatistics import MAX_MEAN_PHOTONS_TARGET, MAX_REPETITIONS, ExperimentConfig
from .susceptibility import EITParams, MediumGeometry

if TYPE_CHECKING:  # fitting loads numpy, so only the fit's builders import it
    from .fitting import FitParameters, SpectrumData

_POS = ("positive", lambda v: v > 0)
_NONNEG = ("non-negative", lambda v: v >= 0)
_UNIT = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_ANY = ("finite", lambda v: True)
# Each grid point is a CSV row formatted in Python and held in memory before
# the file is written, about 0.5 s and 10 MB per 10^5 rows; 10^5 points
# resolve the default 60 MHz spectrum to 0.6 kHz.
MAX_GRID_POINTS = 10**5
_GRID_POINTS = (f"in [1, {MAX_GRID_POINTS}]", lambda v: 1 <= v <= MAX_GRID_POINTS)
# numpy's SeedSequence mixes a seed into a 128-bit pool, so larger seeds
# would give simulate_batch no more streams
_SEED = ("non-negative and below 2**128", lambda v: 0 <= v < 2**128)

# section -> key -> (default, (description, predicate)); a key accepts the
# type of its default, and a float default accepts ints as well
_TABLE: dict[str, dict[str, tuple[Any, tuple]]] = {
    "physics": {
        "excited_lifetime_ns": (defaults.EXCITED_LIFETIME_NS, _POS),
        "gamma_rg_mhz": (defaults.GAMMA_RG_MHZ, _NONNEG),
        "omega_c_mhz": (defaults.OMEGA_C_MHZ, _NONNEG),
        "delta_c_mhz": (defaults.DELTA_C_MHZ, _ANY),
        "delta_s_mhz": (defaults.DELTA_S_OPERATING_MHZ, _ANY),
        "density_cm3": (defaults.DENSITY_CM3, _POS),
        "dipole_moment_cm": (RB87_D2_CYCLING_DIPOLE, _POS),
        "signal_wavelength_nm": (SIGNAL_WAVELENGTH * 1e9, _POS),
    },
    "geometry": {
        "length_um": (defaults.LENGTH_UM, _POS),
        "excitation_z_um": (defaults.EXCITATION_Z_UM, _NONNEG),
    },
    "blockade": {
        "c6_atomic_units": (defaults.C6_ATOMIC_UNITS, _NONNEG),
        "sign_reversed": (defaults.SIGN_REVERSED, _ANY),
    },
    "spectrum_grid": {
        "min_mhz": (defaults.SPECTRUM_MIN_MHZ, _ANY),
        "max_mhz": (defaults.SPECTRUM_MAX_MHZ, _ANY),
        "points": (defaults.SPECTRUM_POINTS, _GRID_POINTS),
    },
    "density_grid": {
        "min_cm3": (defaults.DENSITY_MIN_CM3, _POS),
        "max_cm3": (defaults.DENSITY_CM3, _POS),
        "points": (defaults.DENSITY_POINTS, _GRID_POINTS),
    },
    "statistics": {
        "mean_photons_control": (defaults.MEAN_PHOTONS_CONTROL, _NONNEG),
        "mean_photons_target": (
            defaults.MEAN_PHOTONS_TARGET,
            (f"in [0, {MAX_MEAN_PHOTONS_TARGET:g}]",
             lambda v: 0 <= v <= MAX_MEAN_PHOTONS_TARGET)),
        "detection_efficiency": (defaults.DETECTION_EFFICIENCY, _UNIT),
        "storage_retrieval_efficiency_zero_delay": (
            defaults.STORAGE_RETRIEVAL_EFFICIENCY_ZERO_DELAY, _UNIT),
        "storage_retrieval_efficiency_delayed": (
            defaults.STORAGE_RETRIEVAL_EFFICIENCY_DELAYED, _UNIT),
        "delayed_at_us": (defaults.DELAYED_AT_US, _POS),
        "delay_us": (defaults.DELAY_US, _NONNEG),
        "repetitions": (defaults.REPETITIONS,
                        (f"in [1, {MAX_REPETITIONS}]",
                         lambda v: 1 <= v <= MAX_REPETITIONS)),
        "rng_seed": (defaults.RNG_SEED, _SEED),
        "postselect": (defaults.POSTSELECT, _ANY),
        "basis_mode": (defaults.BASIS_MODE, ("'round_robin' or 'random'",
                                             lambda v: v in ("round_robin", "random"))),
        "sigma_plus_suppression": (defaults.SIGMA_PLUS_SUPPRESSION,
                                   ("greater than 1", lambda v: v > 1)),
        "coherence_factor": (defaults.COHERENCE_FACTOR, _UNIT),
    },
    "fit": {
        "initial_od_res": (defaults.FIT_OD_RES, _POS),
        "initial_omega_c_mhz": (defaults.FIT_OMEGA_C_MHZ, _POS),
        "initial_gamma_rg_mhz": (defaults.FIT_GAMMA_RG_MHZ, _POS),
        "initial_delta_c_mhz": (defaults.FIT_DELTA_C_MHZ, _ANY),
        "include_phase": (defaults.FIT_INCLUDE_PHASE, _ANY),
        "max_iterations": (defaults.FIT_MAX_ITERATIONS, _POS),
    },
    "retrieval_grid": {
        "max_us": (defaults.RETRIEVAL_MAX_US, _POS),
        "points": (defaults.RETRIEVAL_POINTS, _GRID_POINTS),
    },
}

DEFAULT_CONFIG: dict[str, dict[str, Any]] = {
    section: {key: default for key, (default, _) in keys.items()}
    for section, keys in _TABLE.items()
}


def _validate(raw: dict, schema=None, prefix: str = "") -> None:
    if schema is None:
        schema = _TABLE
    if not isinstance(raw, dict):
        raise ConfigError(prefix.rstrip(".") or "<root>", "expected a JSON object")
    for key, value in raw.items():
        path = f"{prefix}{key}"
        if key not in schema:
            raise ConfigError(path, "unknown key")
        spec = schema[key]
        if isinstance(spec, dict):
            _validate(value, spec, prefix=f"{path}.")
            continue
        default, (desc, pred) = spec
        types = (int, float) if isinstance(default, float) else (type(default),)
        # bool is an int subclass; keep the two distinct
        if isinstance(value, bool) and bool not in types:
            raise ConfigError(path, f"expected {types[0].__name__}, got bool")
        if not isinstance(value, types):
            raise ConfigError(
                path, f"expected {'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__}"
            )
        if float in types:
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise ConfigError(path, "must be finite")
        if not pred(value):
            raise ConfigError(path, f"must be {desc} (got {value!r})")


def _merge(base: dict, override: dict) -> dict:
    """``base`` with the keys of a validated ``override`` replaced, section
    by section, in the key order of ``base``; the values are scalars, so no
    section is shared with either argument."""
    return {section: {**keys, **override.get(section, {})}
            for section, keys in base.items()}


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` >= 1 evenly spaced floats from ``start`` to ``stop``, with
    the arithmetic of ``numpy.linspace``: point i is i * step + start, with
    step = (stop - start) / (num - 1) (or (i / (num - 1)) * (stop - start)
    where that step underflows to 0), and the last point is ``stop``."""
    delta = stop - start
    div = num - 1
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


class RunConfig:
    """Validated, fully merged run configuration."""

    def __init__(self, overrides: dict | None = None):
        overrides = overrides or {}
        _validate(overrides)
        self.raw = _merge(DEFAULT_CONFIG, overrides)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
        return cls(data)

    def with_seed(self, seed: int) -> "RunConfig":
        """This configuration with ``statistics.rng_seed`` set to ``seed``,
        checked as the config key is."""
        return RunConfig(_merge(self.raw, {"statistics": {"rng_seed": seed}}))

    # -- object builders ----------------------------------------------------

    @property
    def gamma_e(self) -> float:
        """The intermediate-state decay rate [rad/s], 1 / excited_lifetime."""
        with _checked("physics"):
            return 1.0 / (self.raw["physics"]["excited_lifetime_ns"] * 1e-9)

    def eit_params(self) -> EITParams:
        p = self.raw["physics"]
        with _checked("physics"):
            return EITParams(
                gamma_e=self.gamma_e,
                gamma_rg=angular_from_mhz(p["gamma_rg_mhz"]),
                omega_c=angular_from_mhz(p["omega_c_mhz"]),
                delta_c=angular_from_mhz(p["delta_c_mhz"]),
                rho=p["density_cm3"] * 1e6,
                d_eg=p["dipole_moment_cm"],
            )

    def geometry(self) -> MediumGeometry:
        g = self.raw["geometry"]
        with _checked("geometry"):
            lam = self.raw["physics"]["signal_wavelength_nm"] * 1e-9
            return MediumGeometry(length=g["length_um"] * 1e-6, k_s=TWO_PI / lam)

    def blockade(self) -> BlockadeParams:
        b, g = self.raw["blockade"], self.raw["geometry"]
        if g["excitation_z_um"] > g["length_um"]:
            raise ConfigError("geometry.excitation_z_um", "must lie within the "
                              f"medium, at most length_um = {g['length_um']!r} "
                              f"(got {g['excitation_z_um']!r})")
        with _checked("blockade"):
            return BlockadeParams(
                c6=c6_from_atomic_units(b["c6_atomic_units"]),
                excitation_z=g["excitation_z_um"] * 1e-6,
                sign_reversed=b["sign_reversed"],
            )

    @property
    def delta_s(self) -> float:
        delta_s = angular_from_mhz(self.raw["physics"]["delta_s_mhz"])
        if not math.isfinite(delta_s):
            raise ConfigError("physics.delta_s_mhz", "overflows in rad/s")
        return delta_s

    def spectrum_points(self) -> tuple[list[float], list[float]]:
        """The spectrum detunings as configured [MHz] and in rad/s."""
        return self._grid("spectrum_grid", "min_mhz", "max_mhz", angular_from_mhz(1.0))

    def density_points(self) -> tuple[list[float], list[float]]:
        """The scan densities as configured [cm^-3] and in m^-3."""
        points, grid = self._grid("density_grid", "min_cm3", "max_cm3", 1e6)
        with _checked("density_grid.max_cm3"):  # the scan's medium
            replace(self.eit_params(), rho=grid[-1])
        return points, grid

    def density_grid(self) -> list[float]:
        """The scan densities [m^-3]."""
        return self.density_points()[1]

    def _grid(self, section: str, lo: str, hi: str,
              scale: float) -> tuple[list[float], list[float]]:
        """``points`` values from ``lo`` to ``hi``, and those times ``scale``,
        which must be finite and strictly increasing."""
        g = self.raw[section]
        if g["points"] > 1 and not g[hi] > g[lo]:
            raise ConfigError(f"{section}.{hi}", f"must exceed {lo}")
        # float(): an int key is spaced in floats, as numpy.linspace spaces it
        points = linspace(float(g[lo]), float(g[hi]), g["points"])
        grid = [scale * x for x in points]
        if not (all(map(math.isfinite, grid)) and all(map(operator.lt, grid, grid[1:]))):
            raise ConfigError(section, f"{g['points']} points from {lo} to {hi} "
                              "are not finite and strictly increasing in SI units")
        return points, grid

    def experiment(self) -> ExperimentConfig:
        # the statistics keys are ExperimentConfig's fields, but for the two
        # delays (us here, s there) and postselect, a choice of the analysis
        s = dict(self.raw["statistics"])
        del s["postselect"]
        delayed_at, delay = s.pop("delayed_at_us") * 1e-6, s.pop("delay_us") * 1e-6
        with _checked("statistics"):
            return ExperimentConfig(delayed_at=delayed_at, delay=delay, **s)

    def fit_initial(self) -> FitParameters:
        from .fitting import FitParameters

        f = self.raw["fit"]
        return FitParameters(
            od_res=f["initial_od_res"],
            omega_c=angular_from_mhz(f["initial_omega_c_mhz"]),
            gamma_rg=angular_from_mhz(f["initial_gamma_rg_mhz"]),
            delta_c=angular_from_mhz(f["initial_delta_c_mhz"]),
        )

    def spectrum_data(self, path: str) -> SpectrumData:
        """The measured spectrum in the CSV file ``path`` that ``fit`` reads.
        A file that cannot be read or is not UTF-8, a missing column, a row
        that is short or holds a cell that is not a finite number, and rows
        that ``SpectrumData`` rejects are config errors naming the file (and
        the row's line); so are missing phase columns under
        ``fit.include_phase``."""
        import numpy as np

        from .fitting import SpectrumData

        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ConfigError(path, f"cannot read the fit input: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(path, f"cannot read the fit input: byte {exc.start} "
                                    "is not UTF-8") from None
        header = lines[0].strip().split(",") if lines else []
        required = ["delta_s_mhz", "transmission", "sigma"]
        for col in required:
            if col not in header:
                raise ConfigError(path, f"missing CSV column {col!r}")
        optional = ["phase_rad", "phase_sigma"]
        has_phase = all(c in header for c in optional)
        if self.raw["fit"]["include_phase"] and not has_phase:
            raise ConfigError("fit.include_phase", f"{path} has no "
                              "phase_rad and phase_sigma columns")
        columns = required + (optional if has_phase else [])
        idx = {c: header.index(c) for c in columns}
        rows = []
        for number, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            where = f"{path}:{number}"
            try:
                row = [float(parts[idx[c]]) for c in columns]
            except IndexError:
                raise ConfigError(where, f"{len(parts)} cells, too few for the "
                                         f"header's columns") from None
            except ValueError as exc:
                raise ConfigError(where, str(exc)) from None
            for c, v in zip(columns, row):
                if not math.isfinite(v):
                    raise ConfigError(where, f"column {c!r} is not finite: {v}")
            rows.append(row)
        data = np.asarray(rows, dtype=float)
        if data.size == 0:
            raise ConfigError(path, "no data rows")
        with _checked(path):
            return SpectrumData(
                delta_s=angular_from_mhz(1.0) * data[:, 0],
                transmission=data[:, 1],
                sigma=data[:, 2],
                phase=data[:, 3] if has_phase else None,
                phase_sigma=data[:, 4] if has_phase else None,
            )


@contextlib.contextmanager
def _checked(where: str):
    """Turn what a model dataclass rejects, or a unit conversion that
    divides by zero, into a ConfigError naming ``where``.  ``_TABLE`` checks
    each key on its own; this catches what follows from several keys or
    from a conversion (a non-finite chi0, omega_c**2 or k_s, a delayed
    efficiency above the zero-delay one)."""
    try:
        yield
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(where, str(exc)) from None
