"""Run configuration: one self-describing JSON document.

Every key defaults to the modeled experiment's value in ``defaults``;
frequencies are plain MHz, lengths um, densities cm^-3 -- ``RunConfig``
converts them to angular/SI units and is the one builder of the model
objects.  Unknown keys are rejected with the dotted path of the offending
key.
"""

from __future__ import annotations

import copy
import json
import math
from typing import Any

import numpy as np

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
from .fitting import FitParameters
from .photostatistics import MAX_MEAN_PHOTONS_TARGET, ExperimentConfig
from .susceptibility import EITParams, MediumGeometry

_POS = ("positive", lambda v: v > 0)
_NONNEG = ("non-negative", lambda v: v >= 0)
_UNIT = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_ANY = ("finite", lambda v: True)

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
        "points": (defaults.SPECTRUM_POINTS, _POS),
    },
    "density_grid": {
        "min_cm3": (defaults.DENSITY_MIN_CM3, _POS),
        "max_cm3": (defaults.DENSITY_CM3, _POS),
        "points": (defaults.DENSITY_POINTS, _POS),
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
        "repetitions": (defaults.REPETITIONS, _POS),
        "rng_seed": (defaults.RNG_SEED, _NONNEG),
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
        "points": (defaults.RETRIEVAL_POINTS, _POS),
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
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if not math.isfinite(value):
                raise ConfigError(path, "must be finite")
        if not pred(value):
            raise ConfigError(path, f"must be {desc} (got {value!r})")


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


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
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
        return cls(data)

    # -- object builders ----------------------------------------------------

    def eit_params(self) -> EITParams:
        p = self.raw["physics"]
        return EITParams(
            gamma_e=1.0 / (p["excited_lifetime_ns"] * 1e-9),
            gamma_rg=angular_from_mhz(p["gamma_rg_mhz"]),
            omega_c=angular_from_mhz(p["omega_c_mhz"]),
            delta_c=angular_from_mhz(p["delta_c_mhz"]),
            rho=p["density_cm3"] * 1e6,
            d_eg=p["dipole_moment_cm"],
        )

    def geometry(self) -> MediumGeometry:
        g = self.raw["geometry"]
        lam = self.raw["physics"]["signal_wavelength_nm"] * 1e-9
        return MediumGeometry(length=g["length_um"] * 1e-6, k_s=TWO_PI / lam)

    def blockade(self) -> BlockadeParams:
        b = self.raw["blockade"]
        return BlockadeParams(
            c6=c6_from_atomic_units(b["c6_atomic_units"]),
            excitation_z=self.raw["geometry"]["excitation_z_um"] * 1e-6,
            sign_reversed=b["sign_reversed"],
        )

    @property
    def delta_s(self) -> float:
        return angular_from_mhz(self.raw["physics"]["delta_s_mhz"])

    def spectrum_grid(self) -> np.ndarray:
        g = self.raw["spectrum_grid"]
        if g["points"] > 1 and not g["max_mhz"] > g["min_mhz"]:
            raise ConfigError("spectrum_grid.max_mhz", "must exceed min_mhz")
        return angular_from_mhz(1.0) * np.linspace(g["min_mhz"], g["max_mhz"], g["points"])

    def density_grid(self) -> np.ndarray:
        g = self.raw["density_grid"]
        if g["points"] > 1 and not g["max_cm3"] > g["min_cm3"]:
            raise ConfigError("density_grid.max_cm3", "must exceed min_cm3")
        return 1e6 * np.linspace(g["min_cm3"], g["max_cm3"], g["points"])

    def experiment(self) -> ExperimentConfig:
        # the statistics keys are ExperimentConfig's fields, but for the two
        # delays (us here, s there) and postselect, a choice of the analysis
        s = dict(self.raw["statistics"])
        del s["postselect"]
        delayed_at, delay = s.pop("delayed_at_us") * 1e-6, s.pop("delay_us") * 1e-6
        return ExperimentConfig(delayed_at=delayed_at, delay=delay, **s)

    def fit_initial(self) -> FitParameters:
        f = self.raw["fit"]
        return FitParameters(
            od_res=f["initial_od_res"],
            omega_c=angular_from_mhz(f["initial_omega_c_mhz"]),
            gamma_rg=angular_from_mhz(f["initial_gamma_rg_mhz"]),
            delta_c=angular_from_mhz(f["initial_delta_c_mhz"]),
        )
