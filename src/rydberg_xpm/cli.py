"""Command-line interface.

Subcommands: spectrum | blockade-phase | density-scan | tomography | fit |
retrieval.  All physical and statistical parameters come from one JSON
config (--config); flags exist only for file paths, the seed override and
subcommand selection.  Outputs are CSV (header row, 17 significant digits)
and JSON (with a config_echo block and the tool version), written
atomically once every one of them is serialized; an output holding NaN or
Infinity is a numerical failure and no file is written.  Identical config
and seed produce byte-identical outputs.

Exit codes: 0 success, else the ``exit_code`` of the RydbergXPMError that
ended the run (2 config error, 3 numerical failure, 4 insufficient
statistics; see ``errors``); any other exception is a bug.  Model-limit
warnings change neither the exit code nor the outputs; each distinct one is
printed once on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import replace

from . import __version__
from .blockade import (
    blockade_radius,
    density_scan,
    hard_sphere_controlled_phase,
    integrated_phase,
)
from .config import RunConfig, linspace
from .constants import mhz_from_angular
from .errors import ConfigError, NoEITFeatureError, RydbergXPMError
from .photostatistics import (
    retrieval_efficiency,
    retrieval_time_constant,
    tally_stokes,
    truth_stokes,
)
from .polarization import balanced_input_state, visibility
from .susceptibility import (
    EITParams,
    chi,
    od_and_phase,
    spectrum,
    transmission,
    transmission_fwhm,
    two_level,
)

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: list[str], columns: list) -> str:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json(payload: dict, cfg: RunConfig) -> str:
    payload = dict(payload)
    payload["config_echo"] = cfg.raw
    payload["version"] = __version__
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _serialize(name: str, out, cfg: RunConfig) -> str:
    """The text of output file ``name``: a CSV table (header, columns) or a
    JSON payload.  A NaN or infinite value is a numerical failure naming
    the file (and, for a table, the column)."""
    if isinstance(out, tuple):
        header, columns = out
        for column, values in zip(header, columns):
            if not all(map(math.isfinite, values)):
                raise RydbergXPMError(f"{name}: column {column} holds a value "
                                      "that is not finite")
        return _csv(header, columns)
    try:
        return _json(out, cfg)
    except ValueError:  # allow_nan=False met NaN or Infinity
        raise RydbergXPMError(f"{name}: a value is NaN or infinite") from None


def _width(cfg: RunConfig) -> float | None:
    """The EIT transmission width [rad/s], or None without a feature."""
    try:
        return transmission_fwhm(cfg.eit_params(), cfg.geometry())
    except NoEITFeatureError:
        return None


def _uniform(cfg: RunConfig, params: EITParams) -> tuple[float, float]:
    """(OD, phase) of the uniform medium ``params`` at the operating detuning."""
    od, phase = od_and_phase(chi(params, cfg.delta_s), cfg.geometry())
    return float(od), float(phase)


def _integrals(cfg: RunConfig, sign_reversed: bool) -> dict:
    """The radius-resolved optical depth and phase without (0) and with (1)
    a stored excitation, and the controlled phase between them."""
    params, geom, ds = cfg.eit_params(), cfg.geometry(), cfg.delta_s
    blk = replace(cfg.blockade(), sign_reversed=sign_reversed)
    od0, phi0 = integrated_phase(params, geom, blk, ds, 0)
    od1, phi1 = integrated_phase(params, geom, blk, ds, 1)
    return {"od0": od0, "phi0_rad": phi0, "od1": od1, "phi1_rad": phi1,
            "controlled_phase_rad": phi1 - phi0}


def cmd_spectrum(cfg: RunConfig, args: argparse.Namespace | None) -> dict:
    import numpy as np

    params = cfg.eit_params()
    geom = cfg.geometry()
    # one array for both spectra and the detuning column
    grid = np.array(cfg.spectrum_grid())
    eit = spectrum(params, geom, grid)
    ref = spectrum(two_level(params), geom, grid)
    table = (
        ["delta_s_mhz", "transmission_eit", "phase_eit_rad",
         "transmission_two_level", "phase_two_level_rad"],
        [(grid / (2e6 * math.pi)).tolist(), eit.transmission.tolist(),
         eit.phase.tolist(), ref.transmission.tolist(), ref.phase.tolist()],
    )
    delta_t = _width(cfg)
    od_op, phi_op = _uniform(cfg, params)
    summary = {
        "delta_t_mhz": None if delta_t is None else mhz_from_angular(delta_t),
        "operating_delta_s_mhz": cfg.raw["physics"]["delta_s_mhz"],
        "phi0_at_operating_rad": phi_op,
        "transmission_at_operating": float(transmission(od_op)),
        "phi_two_level_at_operating_rad": _uniform(cfg, two_level(params))[1],
    }
    return {"spectrum.csv": table, "spectrum_summary.json": summary}


def cmd_blockade_phase(cfg: RunConfig, args: argparse.Namespace | None) -> dict:
    blk = cfg.blockade()
    delta_t = _width(cfg)
    r_b = blockade_radius(blk.c6, delta_t) if (delta_t and blk.c6 > 0) else 0.0
    forward, reverse = _integrals(cfg, False), _integrals(cfg, True)
    # the forward n = 0 integral is the uniform EIT medium at the operating point
    phi_eit = forward["phi0_rad"]
    phi_ref = _uniform(cfg, two_level(cfg.eit_params()))[1]
    hard_sphere = hard_sphere_controlled_phase(r_b, cfg.geometry(), phi_ref, phi_eit)
    ratio = (
        abs(forward["controlled_phase_rad"]) / abs(reverse["controlled_phase_rad"])
        if reverse["controlled_phase_rad"] != 0
        else None
    )
    payload = {
        "delta_t_mhz": None if delta_t is None else mhz_from_angular(delta_t),
        "blockade_radius_um": r_b * 1e6,
        "phi_eit_rad": phi_eit,
        "phi_two_level_rad": phi_ref,
        "phase_difference_rad": phi_ref - phi_eit,
        "hard_sphere_controlled_phase_rad": hard_sphere,
        "integral": forward,
        "integral_sign_reversed": reverse,
        "forward_to_reversed_ratio": ratio,
    }
    return {"blockade_phase.json": payload}


def cmd_density_scan(cfg: RunConfig, args: argparse.Namespace | None) -> dict:
    scan = density_scan(
        cfg.eit_params(), cfg.geometry(), cfg.blockade(), cfg.delta_s,
        cfg.density_grid(),
    )
    table = (
        ["rho_cm3", "phase0_rad", "phase1_rad", "controlled_phase_rad"],
        [[rho / 1e6 for rho in scan.rho], scan.phase0, scan.phase1,
         scan.controlled_phase],
    )
    def fit_dict(fit):
        return {
            "slope_rad_per_cm3": fit.slope * 1e6,
            "intercept_rad": fit.intercept,
            "max_rel_residual": fit.max_rel_residual,
        }

    payload = {
        "fit_phase0": fit_dict(scan.fit_phase0),
        "fit_phase1": fit_dict(scan.fit_phase1),
        "fit_controlled_phase": fit_dict(scan.fit_controlled),
        "controlled_phase_at_max_density_rad": float(scan.controlled_phase[-1]),
    }
    return {"density_scan.csv": table, "density_scan.json": payload}


def cmd_tomography(cfg: RunConfig, args: argparse.Namespace | None) -> dict:
    media = _integrals(cfg, cfg.blockade().sign_reversed)
    names = ("od0", "phi0_rad", "od1", "phi1_rad")
    od0, phi0, od1, phi1 = (media[k] for k in names)
    bad = [f"{k}={media[k]}" for k in names if not math.isfinite(media[k])]
    if bad:
        raise RydbergXPMError(f"the medium response is not finite: {', '.join(bad)}")
    exp_cfg = cfg.experiment()
    input_state = balanced_input_state(od1)
    summary = tally_stokes(exp_cfg, (od0, phi0, od1, phi1), input_state,
                           postselect=cfg.raw["statistics"]["postselect"])
    est = summary.stokes
    truth = truth_stokes(exp_cfg, od1, phi1, input_state)
    payload = {
        "stokes_estimate": {"s_hv": est.s_hv, "s_da": est.s_da, "s_lr": est.s_lr},
        "stokes_stderr": {
            "s_hv": summary.stderr[0],
            "s_da": summary.stderr[1],
            "s_lr": summary.stderr[2],
        },
        "counts": {k: list(v) for k, v in summary.counts.items()},
        "azimuth_rad": est.phi,
        "visibility": visibility(est),
        "n_postselected": summary.n_postselected,
        "n_total": summary.n_total,
        "truth": {
            "od0": od0, "phi0_rad": phi0, "od1": od1, "phi1_rad": phi1,
            "azimuth_rad": truth.phi, "visibility": visibility(truth),
        },
    }
    return {"tomography.json": payload}


def cmd_fit(cfg: RunConfig, args: argparse.Namespace | None) -> dict:
    from .fitting import fit_spectrum

    data = cfg.spectrum_data(args.input)
    fit_cfg = cfg.raw["fit"]
    result = fit_spectrum(
        data,
        cfg.fit_initial(),
        include_phase=fit_cfg["include_phase"],
        max_iterations=fit_cfg["max_iterations"],
        gamma_e=cfg.gamma_e,
    )
    p, s = result.params, result.stderr
    payload = {
        "estimates": {
            "od_res": p.od_res,
            "omega_c_mhz": mhz_from_angular(p.omega_c),
            "gamma_rg_mhz": mhz_from_angular(p.gamma_rg),
            "delta_c_mhz": mhz_from_angular(p.delta_c),
        },
        "stderr": {
            "od_res": s.od_res,
            "omega_c_mhz": mhz_from_angular(s.omega_c),
            "gamma_rg_mhz": mhz_from_angular(s.gamma_rg),
            "delta_c_mhz": mhz_from_angular(s.delta_c),
        },
        "reduced_chisq": result.reduced_chisq,
        "iterations": result.iterations,
        "final_damping": result.final_damping,
        "gradient_norm": result.gradient_norm,
        "converged": result.converged,
    }
    return {"fit.json": payload}


def cmd_retrieval(cfg: RunConfig, args: argparse.Namespace | None) -> dict:
    exp_cfg = cfg.experiment()
    g = cfg.raw["retrieval_grid"]
    delays = linspace(0.0, g["max_us"] * 1e-6, g["points"])
    eta = [retrieval_efficiency(exp_cfg, t) for t in delays]
    table = (["delay_us", "efficiency"], [[t * 1e6 for t in delays], eta])
    tau = retrieval_time_constant(exp_cfg)
    payload = {
        "efficiency_zero_delay": exp_cfg.storage_retrieval_efficiency_zero_delay,
        "efficiency_delayed": exp_cfg.storage_retrieval_efficiency_delayed,
        "delayed_at_us": exp_cfg.delayed_at * 1e6,
        "tau_us": tau * 1e6 if 0.0 < tau < math.inf else None,
    }
    return {"retrieval.csv": table, "retrieval.json": payload}


# subcommand -> handler(config, parsed arguments) -> {output file name: CSV
# table (header, columns) or JSON payload}; ``main`` serializes every output,
# adding the config echo and version to each payload, then writes the files
COMMANDS = {
    "spectrum": cmd_spectrum,
    "blockade-phase": cmd_blockade_phase,
    "density-scan": cmd_density_scan,
    "tomography": cmd_tomography,
    "fit": cmd_fit,
    "retrieval": cmd_retrieval,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydberg-xpm",
        description="Rydberg-EIT cross-phase modulation model toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file (defaults built in)")
        sp.add_argument("--output-dir", default=".", help="directory for outputs")
        sp.add_argument("--seed", type=int, help="override statistics.rng_seed")
        if name == "fit":
            sp.add_argument("--input", required=True,
                            help="CSV with delta_s_mhz, transmission, sigma columns")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        try:
            os.makedirs(args.output_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                "--output-dir", f"cannot create {args.output_dir}: {exc.strerror}"
            ) from None
        # model-limit warnings are not errors: each distinct one is reported
        # once on stderr, also when the command then fails
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outputs = COMMANDS[args.command](cfg, args)
            finally:
                for text in dict.fromkeys(f"{w.category.__name__}: {w.message}"
                                          for w in caught):
                    print(f"warning: {text}", file=sys.stderr)
        texts = {name: _serialize(name, out, cfg) for name, out in outputs.items()}
        for name, text in texts.items():
            _write_atomic(os.path.join(args.output_dir, name), text)
        return 0
    except RydbergXPMError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
