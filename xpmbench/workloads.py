"""The four benchmark workloads: input builders, timed rounds and checks.

A workload is built from a seed (the set-up), then runs whole rounds of the
same operations.  ``run_round`` times each operation and returns
``(seconds, counted)`` per operation; ``check`` runs after the timed region
and compares every output with ``reference`` or with a property the method
must have, and with the first round's output (every round repeats the same
inputs, so the outputs must be identical).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

import reference as ref
from rydberg_xpm import (
    blockade,
    cli,
    config,
    fitting,
    photostatistics,
    polarization,
    susceptibility,
)

CHILD_TIMEOUT_S = 120.0


@dataclass
class Verdict:
    """Operations attempted and failed, and the problems that make a run
    incorrect (failures of operations not known to fail)."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def rel_close(a, b, rtol, atol=0.0) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rtol * np.abs(b) + atol))


def _strict_json(path: Path) -> dict:
    """Parse a JSON file, refusing NaN and Infinity."""

    def refuse(token):
        raise ValueError(f"non-finite JSON value {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def _read_csv(path: Path) -> tuple[list, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def _angle_diff(a: float, b: float) -> float:
    return (a - b + math.pi) % (2.0 * math.pi) - math.pi


# -- checks shared by the CLI outputs and the in-process workloads -----------

# the dense-grid width and the reference quadrature, once per medium
_feature_fwhm = functools.lru_cache(maxsize=None)(ref.feature_fwhm)
_blockaded = functools.lru_cache(maxsize=None)(ref.blockaded_od_phase)


def _blockade_problems(label, m: ref.Medium, width, r_b, phi_eit, phi_two, hard) -> list:
    """Feature width [rad/s] against the dense grid, R_b [m] against
    (C6 / hbar width)^(1/6), the operating-point phases and the clamped
    hard-sphere estimate."""
    p = []
    grid_width = _feature_fwhm(m)
    if not rel_close(width, grid_width, 1e-6):
        p.append(f"{label}: feature width {width} vs dense grid {grid_width} rad/s")
    r_b_ref = ref.blockade_radius(m.c6, width)
    if not rel_close(r_b, r_b_ref, 1e-9):
        p.append(f"{label}: blockade radius {r_b} vs (C6 / hbar width)^(1/6) {r_b_ref}")
    _, ph_eit = ref.uniform_od_phase(m)
    _, ph_two = ref.uniform_od_phase(m, coupled=False)
    hard_ref = min(1.0, 2.0 * r_b_ref / m.length) * (ph_two - ph_eit)
    if not (rel_close(phi_eit, ph_eit, 1e-9) and rel_close(phi_two, ph_two, 1e-9)
            and rel_close(hard, hard_ref, 1e-9)):
        p.append(f"{label}: operating-point phases or hard-sphere estimate")
    return p


def _integral_problems(label, m: ref.Medium, n0, n1) -> list:
    """(od, phase) of the n=0 and n=1 integrals against the closed form and
    the reference quadrature, whose own accuracy is checked as well."""
    p = []
    od0, ph0 = ref.uniform_od_phase(m)
    od1, ph1, acc = _blockaded(m)
    if acc > 1e-9:
        p.append(f"{label}: reference quadrature accuracy {acc:.1e}")
    if not rel_close(n0, (od0, ph0), 1e-10):
        p.append(f"{label}: n=0 od/phase {tuple(n0)} differ from the closed form")
    if not rel_close(n1, (od1, ph1), 1e-6):
        p.append(f"{label}: n=1 od/phase {tuple(n1)} vs reference ({od1}, {ph1}) "
                 "beyond rel_tol 1e-6")
    return p


def _density_problems(label, m: ref.Medium, rho, phase0, phase1, residuals,
                      slope1) -> list:
    """A density scan (rho in m^-3): phases against the references scaled
    from m's density, n=1 phases linear in density, the linear fits'
    residuals and the n=1 slope [rad m^3]."""
    p = []
    _, ph0 = ref.uniform_od_phase(m)
    _, ph1, _ = _blockaded(m)
    scale = np.asarray(rho) / m.rho
    if not rel_close(phase0, ph0 * scale, 1e-10):
        p.append(f"{label}: density scan n=0 phases vs closed form")
    if not rel_close(phase1, ph1 * scale, 1e-6):
        p.append(f"{label}: density scan n=1 phases vs reference quadrature")
    ratio = np.asarray(phase1) / np.asarray(rho)
    if not rel_close(ratio, ratio[-1], 1e-6):
        p.append(f"{label}: density scan n=1 phases are not linear in density")
    if not (residuals[0] < 1e-10 and residuals[1] < 1e-8):
        p.append(f"{label}: density-scan fit residuals {tuple(residuals)}")
    if not rel_close(slope1, ph1 / m.rho, 1e-6):
        p.append(f"{label}: density-scan n=1 slope {slope1} vs {ph1 / m.rho}")
    return p


@functools.lru_cache(maxsize=None)
def _tomography_media(m: ref.Medium):
    """(unstored, stored) medium responses (od, phase) by the references."""
    od0, ph0 = ref.uniform_od_phase(m)
    od1, ph1, _ = _blockaded(m)
    return (od0, ph0), (od1, ph1)


def _stokes_truth(m: ref.Medium, tomo: ref.Tomography, postselect: bool) -> dict:
    """Stokes truth per basis; without postselection the mixture of stored
    and unstored shots weighted by the storage probability."""
    unstored, stored = _tomography_media(m)
    if postselect:
        media, weights = [stored], [1.0]
    else:
        media, weights = [unstored, stored], [1.0 - tomo.p_stored, tomo.p_stored]
    return ref.stokes_truth(tomo, ref.balanced_input(stored[0]), media, weights)


def _tomography_problems(label, m: ref.Medium, tomo: ref.Tomography, postselect: bool,
                         shots: int, basis_shots: dict, s: dict) -> list:
    """A tomography summary ``s`` (n_total, n_postselected, counts per basis,
    stokes_estimate) against the binomial expectation of postselected shots
    and the Stokes truth, both within 6 standard deviations."""
    p = []
    if s["n_total"] != shots:
        p.append(f"{label}: n_total {s['n_total']}, expected {shots}")
    if postselect and not ref.binomial_ok(s["n_postselected"], shots, tomo.p_retrieved):
        p.append(f"{label}: {s['n_postselected']} postselected of {shots}, expected "
                 f"{shots * tomo.p_retrieved:.0f}")
    unstored, stored = _tomography_media(m)
    truth = _stokes_truth(m, tomo, postselect)
    sigma = ref.stokes_sigma(tomo, ref.balanced_input(stored[0]), unstored, stored,
                             postselect, s["counts"], basis_shots)
    estimate = s["stokes_estimate"]
    for name, key in (("HV", "s_hv"), ("DA", "s_da"), ("LR", "s_lr")):
        dev = abs(estimate[key] - truth[name])
        if not dev <= 6.0 * sigma[name]:
            p.append(f"{label}: {key} {estimate[key]:.5f} is {dev / sigma[name]:.1f} "
                     f"sigma from the truth {truth[name]:.5f}")
    return p


# -- cli-chain ---------------------------------------------------------------

FIT_TRUTH = {
    "od_res": ref.Medium.from_values().od_res,
    "omega_c_mhz": ref.DEFAULTS["omega_c_mhz"],
    "gamma_rg_mhz": ref.DEFAULTS["gamma_rg_mhz"],
    "delta_c_mhz": ref.DEFAULTS["delta_c_mhz"],
}
GAMMA_E = 1.0 / (ref.DEFAULTS["excited_lifetime_ns"] * 1e-9)
T_SIGMA = 0.01  # transmission noise of the synthetic spectra
PHASE_SIGMA = 0.02  # rad, phase noise of the synthetic spectra


def _model_spectrum(delta_s):
    t = FIT_TRUTH
    return ref.fit_model(
        t["od_res"], ref.angular(t["omega_c_mhz"]), ref.angular(t["gamma_rg_mhz"]),
        ref.angular(t["delta_c_mhz"]), GAMMA_E, delta_s,
    )


class _CliChecks:
    """Checks of the CLI output files against the references, at the
    default parameter set."""

    def __init__(self):
        self.m = ref.Medium.from_values()

    def spectrum(self, d: Path) -> list:
        p = []
        header, rows = _read_csv(d / "spectrum.csv")
        mhz = np.linspace(-30.0, 30.0, 241)
        if header != ["delta_s_mhz", "transmission_eit", "phase_eit_rad",
                      "transmission_two_level", "phase_two_level_rad"]:
            return [f"spectrum.csv header {header}"]
        if not rel_close(rows[:, 0], mhz, 1e-12, 1e-12):
            p.append("spectrum.csv detuning grid")
        for coupled, (ct, cp) in ((True, (1, 2)), (False, (3, 4))):
            od, ph = ref.od_phase(self.m, ref.chi(self.m, ref.angular(mhz), coupled=coupled))
            if not rel_close(rows[:, ct], np.exp(-od), 1e-9, 1e-15):
                p.append(f"spectrum.csv transmission (coupled={coupled})")
            if not rel_close(rows[:, cp], ph, 1e-9, 1e-12):
                p.append(f"spectrum.csv phase (coupled={coupled})")
        s = _strict_json(d / "spectrum_summary.json")
        od0, ph0 = ref.uniform_od_phase(self.m)
        _, ph_two = ref.uniform_od_phase(self.m, coupled=False)
        width = _feature_fwhm(self.m)
        if not rel_close(ref.angular(s["delta_t_mhz"]), width, 1e-6):
            p.append(f"feature width {s['delta_t_mhz']} MHz vs dense grid "
                     f"{width / ref.angular(1.0)} MHz")
        if not (rel_close(s["phi0_at_operating_rad"], ph0, 1e-9)
                and rel_close(s["transmission_at_operating"], math.exp(-od0), 1e-9)
                and rel_close(s["phi_two_level_at_operating_rad"], ph_two, 1e-9)):
            p.append("spectrum_summary operating point")
        return p

    def blockade_phase(self, d: Path) -> list:
        s = _strict_json(d / "blockade_phase.json")
        p = _blockade_problems(
            "blockade-phase", self.m, ref.angular(s["delta_t_mhz"]),
            s["blockade_radius_um"] * 1e-6, s["phi_eit_rad"], s["phi_two_level_rad"],
            s["hard_sphere_controlled_phase_rad"])
        for label, key, m in (("forward", "integral", self.m),
                              ("reversed", "integral_sign_reversed", self.m.reversed())):
            b = s[key]
            p += _integral_problems(label, m, (b["od0"], b["phi0_rad"]),
                                    (b["od1"], b["phi1_rad"]))
        return p

    def density_scan(self, d: Path) -> list:
        p = []
        header, rows = _read_csv(d / "density_scan.csv")
        if header != ["rho_cm3", "phase0_rad", "phase1_rad", "controlled_phase_rad"]:
            return [f"density_scan.csv header {header}"]
        if not rel_close(rows[:, 0], np.linspace(2e11, 1.8e12, 9), 1e-12):
            p.append("density grid")
        s = _strict_json(d / "density_scan.json")
        residuals = (s["fit_phase0"]["max_rel_residual"], s["fit_phase1"]["max_rel_residual"])
        return p + _density_problems(
            "density-scan", self.m, rows[:, 0] * 1e6, rows[:, 1], rows[:, 2], residuals,
            s["fit_phase1"]["slope_rad_per_cm3"] * 1e-6)

    def _tomography(self, d: Path, tomo: ref.Tomography, postselect: bool,
                    repetitions: int) -> list:
        s = _strict_json(d / "tomography.json")
        p = []
        unstored, stored = _tomography_media(self.m)
        tr = s["truth"]
        if not (rel_close([tr["od0"], tr["phi0_rad"]], unstored, 1e-10)
                and rel_close([tr["od1"], tr["phi1_rad"]], stored, 1e-6)):
            p.append("tomography medium responses vs references")
        if postselect:
            truth = _stokes_truth(self.m, tomo, True)
            phi = math.atan2(truth["DA"], truth["HV"])
            if abs(_angle_diff(tr["azimuth_rad"], phi)) > 1e-6:
                p.append(f"truth azimuth {tr['azimuth_rad']} vs closed form {phi}")
        counts = {k: tuple(v) for k, v in s["counts"].items()}
        return p + _tomography_problems(
            "tomography", self.m, tomo, postselect, repetitions,
            {k: repetitions / 3 for k in counts}, {**s, "counts": counts})

    def tomography(self, d: Path) -> list:
        return self._tomography(d, ref.Tomography.from_values(), True, 60000)

    def tomography_no_storage(self, d: Path) -> list:
        tomo = ref.Tomography.from_values(
            storage_retrieval_efficiency_zero_delay=0.0,
            storage_retrieval_efficiency_delayed=0.0,
        )
        return self._tomography(d, tomo, False, 60000)

    def fit(self, d: Path) -> list:
        s = _strict_json(d / "fit.json")
        p = [] if s["converged"] else ["fit did not converge"]
        for key, truth in FIT_TRUTH.items():
            est, err = s["estimates"][key], s["stderr"][key]
            if not abs(est - truth) <= 6.0 * err:
                p.append(f"fit {key} = {est} +- {err}, truth {truth}")
        return p

    def _retrieval(self, d: Path, tomo: ref.Tomography) -> list:
        header, rows = _read_csv(d / "retrieval.csv")
        delays = np.linspace(0.0, 10.0, 101)
        p = []
        if header != ["delay_us", "efficiency"] or not rel_close(rows[:, 0], delays, 1e-12):
            p.append("retrieval.csv grid")
        if not rel_close(rows[:, 1], ref.retrieval(tomo, delays * 1e-6), 1e-12, 1e-300):
            p.append("retrieval curve vs eta0 exp(-t/tau)")
        _strict_json(d / "retrieval.json")
        return p

    def retrieval(self, d: Path) -> list:
        return self._retrieval(d, ref.Tomography.from_values())

    def retrieval_no_delayed(self, d: Path) -> list:
        return self._retrieval(
            d, ref.Tomography.from_values(storage_retrieval_efficiency_delayed=0.0)
        )


@dataclass(frozen=True)
class CliOp:
    name: str
    args: tuple
    check: str  # method of _CliChecks
    known_fault: bool = False


class CliChain:
    """Fresh-process runs of every subcommand at the default configuration,
    plus two configurations that hit known faults of the program:

    * tomography with zero storage efficiency and postselection off divides
      by p_store = sqrt(0) in ExperimentConfig.p_retrieve;
    * retrieval with zero delayed efficiency takes log(eta0 / 0) in
      photostatistics.retrieval_efficiency.

    Both end in a ZeroDivisionError traceback today and count as failed;
    their checks hold the outcome a mend must give.  With ``in_process``
    the same operations run through ``cli.main`` in this process (the
    traced run uses that to see inside the subcommands).
    """

    name = "cli-chain"
    min_rounds = 2  # repeated runs must give byte-identical outputs

    def __init__(self, seed: int, workdir: Path, env: dict | None = None,
                 in_process: bool = False):
        self.workdir = workdir
        self.env = env
        self.in_process = in_process
        self.checks = _CliChecks()
        rng = np.random.default_rng([seed, 1])
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)

        def write(name: str, payload: dict) -> str:
            path = inputs / name
            path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
            return str(path)

        default = write("default.json",
                        {"statistics": {"rng_seed": int(rng.integers(0, 2**31))}})
        no_storage = write("no_storage.json", {"statistics": {
            "storage_retrieval_efficiency_zero_delay": 0.0,
            "storage_retrieval_efficiency_delayed": 0.0,
            "postselect": False,
        }})
        no_delayed = write("no_delayed.json",
                           {"statistics": {"storage_retrieval_efficiency_delayed": 0.0}})
        mhz = np.linspace(-30.0, 10.0, 200)
        t, _ = _model_spectrum(ref.angular(mhz))
        t = t + rng.normal(0.0, T_SIGMA, mhz.size)
        lines = ["delta_s_mhz,transmission,sigma"]
        lines += [f"{a:.17g},{b:.17g},{T_SIGMA:.17g}" for a, b in zip(mhz, t)]
        measured = inputs / "measured.csv"
        measured.write_text("\n".join(lines) + "\n", encoding="utf-8")

        self.ops = [
            CliOp("spectrum", ("spectrum", "--config", default), "spectrum"),
            CliOp("blockade-phase", ("blockade-phase", "--config", default),
                  "blockade_phase"),
            CliOp("density-scan", ("density-scan", "--config", default), "density_scan"),
            CliOp("tomography", ("tomography", "--config", default), "tomography"),
            CliOp("fit", ("fit", "--config", default, "--input", str(measured)), "fit"),
            CliOp("retrieval", ("retrieval", "--config", default), "retrieval"),
            CliOp("tomography-no-storage", ("tomography", "--config", no_storage),
                  "tomography_no_storage", known_fault=True),
            CliOp("retrieval-no-delayed", ("retrieval", "--config", no_delayed),
                  "retrieval_no_delayed", known_fault=True),
        ]
        self.items_per_round = sum(not op.known_fault for op in self.ops)
        self.rounds = []  # per round: list of (op, exit code, output dir, log)
        self.peak_child_rss_mb = 0.0
        self.op_spans = []  # (op name, seconds), for the traced run

    def _run_child(self, op: CliOp, outdir: Path, log: Path) -> tuple[float, int]:
        argv = [sys.executable, "-m", "rydberg_xpm.cli", *op.args,
                "--output-dir", str(outdir)]
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_mb = max(self.peak_child_rss_mb, usage.ru_maxrss / 1024.0)
        return seconds, proc.returncode

    def _run_in_process(self, op: CliOp, outdir: Path, log: Path) -> tuple[float, int]:
        argv = [*op.args, "--output-dir", str(outdir)]
        with open(log, "w", encoding="utf-8") as fh, contextlib.redirect_stderr(fh):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback in a fresh process
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=fh)
            seconds = time.perf_counter() - t0
        self.op_spans.append((op.name, seconds))
        return seconds, code

    def run_round(self) -> list:
        k = len(self.rounds)
        run = self._run_in_process if self.in_process else self._run_child
        timed, record = [], []
        for op in self.ops:
            outdir = self.workdir / f"round{k}" / op.name
            outdir.mkdir(parents=True, exist_ok=True)
            log = outdir.parent / f"{op.name}.log"
            seconds, code = run(op, outdir, log)
            timed.append((seconds, not op.known_fault))
            record.append((op, code, outdir, log))
        self.rounds.append(record)
        return timed

    def check(self) -> Verdict:
        v = Verdict()
        first = {}
        for record in self.rounds:
            for op, code, outdir, log in record:
                v.attempted += 1
                if code != 0:
                    why = [f"{op.name}: exit {code}: "
                           + (log.read_text(errors="replace").strip().splitlines() or [""])[-1]]
                else:
                    files = {f.name: f.read_bytes() for f in sorted(outdir.iterdir())}
                    if op.name not in first:
                        try:
                            why = getattr(self.checks, op.check)(outdir)
                        except (KeyError, TypeError, ValueError, OSError, IndexError) as exc:
                            why = [f"{op.name}: unreadable output: {exc!r}"]
                        first[op.name] = files, why
                    elif files == first[op.name][0]:
                        why = first[op.name][1]
                    else:
                        why = [f"{op.name}: outputs differ between identical runs"]
                if why:
                    v.failed += 1
                    if not op.known_fault:
                        v.problems += why
        return v


# -- phase-scan --------------------------------------------------------------


class PhaseScan:
    """Blockade-phase and density-scan work for a grid of configurations.

    C6 runs from x1 to x1024 of the default, across the hard-sphere clamp
    (2 R_b > L above about x90); the signal detuning takes three values
    around -10 MHz; sign_reversed alternates over the grid.  The seed
    draws each configuration's density and the order of the grid.  The
    quadrature work depends on C6, detuning and sign, which are the same
    for every seed, so every seed costs the same work.
    """

    name = "phase-scan"
    min_rounds = 1
    C6_MULTIPLIERS = (1, 4, 16, 64, 256, 1024)
    DETUNINGS_MHZ = (-10.5, -10.0, -9.5)
    DENSITY_POINTS = 9

    def __init__(self, seed: int, workdir: Path | None = None):
        rng = np.random.default_rng([seed, 2])
        grid = list(product(self.C6_MULTIPLIERS, self.DETUNINGS_MHZ))
        self.configs = []
        for i in rng.permutation(len(grid)):
            mult, ds = grid[i]
            density = float(ref.DEFAULTS["density_cm3"] * rng.uniform(0.6, 1.0))
            self.configs.append({
                "physics": {"delta_s_mhz": ds, "density_cm3": density},
                "blockade": {"c6_atomic_units": ref.DEFAULTS["c6_atomic_units"] * mult,
                             "sign_reversed": bool(i % 2)},
                "density_grid": {"min_cm3": 0.2 * density, "max_cm3": density,
                                 "points": self.DENSITY_POINTS},
            })
        self.items_per_round = len(self.configs)
        self.rounds = []

    @staticmethod
    def run_config(overrides: dict) -> dict:
        """What blockade-phase and density-scan compute for one config."""
        cfg = config.RunConfig(overrides)
        params, geom, blk = cfg.eit_params(), cfg.geometry(), cfg.blockade()
        ds = cfg.delta_s
        width = susceptibility.transmission_fwhm(params, geom)
        r_b = blockade.blockade_radius(blk.c6, width)
        eit = susceptibility.spectrum(params, geom, [ds])
        two = susceptibility.spectrum(susceptibility.two_level(params), geom, [ds])
        hard = blockade.hard_sphere_controlled_phase(
            r_b, geom, float(two.phase[0]), float(eit.phase[0]))
        integrals = [
            blockade.integrated_phase(params, geom, replace(blk, sign_reversed=rev), ds, n)
            for rev in (False, True) for n in (0, 1)
        ]
        scan = blockade.density_scan(params, geom, blk, ds, cfg.density_grid())
        return {
            "width": width, "r_b": r_b, "hard": hard,
            "phi_eit": float(eit.phase[0]), "phi_two": float(two.phase[0]),
            "integrals": integrals, "rho": scan.rho, "phase0": scan.phase0,
            "phase1": scan.phase1,
            "residuals": (scan.fit_phase0.max_rel_residual,
                          scan.fit_phase1.max_rel_residual),
            "slope1": scan.fit_phase1.slope,
        }

    def run_round(self) -> list:
        timed, outputs = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # clamp warnings; checked below
            for overrides in self.configs:
                t0 = time.perf_counter()
                try:
                    out = self.run_config(overrides)
                except Exception as exc:  # counted as a failed operation
                    out = exc
                timed.append((time.perf_counter() - t0, True))
                outputs.append(out)
        self.rounds.append(outputs)
        return timed

    def _config_problems(self, overrides: dict, out) -> list:
        if isinstance(out, Exception):
            return [f"{overrides}: {out!r}"]
        phys, blk = overrides["physics"], overrides["blockade"]
        m = ref.Medium.from_values(delta_s_mhz=phys["delta_s_mhz"],
                                   density_cm3=phys["density_cm3"],
                                   c6_atomic_units=blk["c6_atomic_units"])
        label = (f"C6 x{blk['c6_atomic_units'] / ref.DEFAULTS['c6_atomic_units']:.0f}, "
                 f"delta_s {phys['delta_s_mhz']} MHz")
        p = _blockade_problems(label, m, out["width"], out["r_b"], out["phi_eit"],
                               out["phi_two"], out["hard"])
        media = {False: m, True: m.reversed()}
        for j, (rev, mm) in enumerate(media.items()):
            p += _integral_problems(f"{label}, reversed={rev}", mm,
                                    out["integrals"][2 * j], out["integrals"][2 * j + 1])
        p += _density_problems(label, media[blk["sign_reversed"]], out["rho"],
                               out["phase0"], out["phase1"], out["residuals"],
                               out["slope1"])
        return p

    def check(self) -> Verdict:
        v = Verdict(attempted=len(self.rounds) * len(self.configs))
        bad = set()
        for i, (overrides, out) in enumerate(zip(self.configs, self.rounds[0])):
            p = self._config_problems(overrides, out)
            for later in self.rounds[1:]:
                if not _same(later[i], out):
                    p.append(f"config {i}: outputs differ between rounds")
            if p:
                bad.add(i)
                v.problems += p
        v.failed = len(bad) * len(self.rounds)
        return v


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return bool(np.array_equal(a, b))


# -- tomography-mc -----------------------------------------------------------


class TomographyMC:
    """Monte Carlo shots and Stokes estimates at 2^20 shots per path.

    Each basis mode (round_robin, random) runs the same shots once as one
    monolithic ``simulate_batch`` call and once streamed in chunks through
    ``start_index``; every path estimates with postselection on and off.
    The seed draws the Monte Carlo seed of each mode.
    """

    name = "tomography-mc"
    min_rounds = 1
    SHOTS = 2**20
    CHUNK = 2**17
    MODES = ("round_robin", "random")

    def __init__(self, seed: int, workdir: Path | None = None):
        rng = np.random.default_rng([seed, 3])
        self.m = ref.Medium.from_values()
        unstored, stored = _tomography_media(self.m)
        self.truth = (*unstored, *stored)
        self.input_state = polarization.PolarizationState(*ref.balanced_input(stored[0]))
        self.tomo = ref.Tomography.from_values()
        self.configs = [
            photostatistics.ExperimentConfig(
                repetitions=self.SHOTS, rng_seed=int(rng.integers(0, 2**31)),
                basis_mode=mode, sigma_plus_suppression=self.tomo.suppression,
                coherence_factor=self.tomo.coherence,
            )
            for mode in self.MODES
        ]
        self.items_per_round = 2 * len(self.MODES) * self.SHOTS
        self.rounds = []
        self.problems = []
        self.basis_shots = {}  # mode -> shots per basis, from the first round

    def _chunked(self, cfg, batch) -> tuple[float, list]:
        """Stream the same shots in chunks and sum the per-basis counts.
        Unless ``batch`` (the monolithic shots) is None, compare each chunk with its
        slice as it is made; the comparisons are left out of the returned
        seconds."""
        seconds = 0.0
        sums = [{"counts": {}, "n_postselected": 0, "n_total": 0} for _ in range(2)]
        for start in range(0, self.SHOTS, self.CHUNK):
            t0 = time.perf_counter()
            chunk = photostatistics.simulate_batch(
                cfg, self.truth, self.input_state, start_index=start, n=self.CHUNK)
            for acc, postselect in zip(sums, (True, False)):
                s = photostatistics.estimate_stokes(chunk, postselect=postselect)
                for name, (a, c) in s.counts.items():
                    a0, c0 = acc["counts"].get(name, (0, 0))
                    acc["counts"][name] = (a0 + a, c0 + c)
                acc["n_postselected"] += s.n_postselected
                acc["n_total"] += s.n_total
            seconds += time.perf_counter() - t0
            if batch is not None:
                for field_name in ("basis_index", "control_stored", "control_retrieved",
                                   "counts_k", "counts_l"):
                    part = getattr(batch, field_name)[start:start + self.CHUNK]
                    if not np.array_equal(getattr(chunk, field_name), part):
                        self.problems.append(f"{cfg.basis_mode}: chunk at shot {start}: "
                                             f"{field_name} differs from the monolithic shots")
        return seconds, sums

    def _count_bases(self, cfg, batch) -> None:
        self.basis_shots[cfg.basis_mode] = {
            name: int(np.sum(batch.basis_index == b))
            for b, name in enumerate(("HV", "DA", "LR"))
        }
        if cfg.basis_mode == "random":
            for name, n_b in self.basis_shots[cfg.basis_mode].items():
                if not ref.binomial_ok(n_b, self.SHOTS, 1.0 / 3.0):
                    self.problems.append(f"random basis {name} drawn {n_b} times")

    def run_round(self) -> list:
        """Per basis mode, the monolithic path then the chunked one.  Only
        the first round keeps the monolithic shots for the chunk comparison;
        every batch is released before the next ``simulate_batch`` call, so
        that peak RSS is the program's working set."""
        timed, outputs = [], []
        first = not self.rounds
        for cfg in self.configs:
            t0 = time.perf_counter()
            batch = photostatistics.simulate_batch(cfg, self.truth, self.input_state)
            summaries = [photostatistics.estimate_stokes(batch, postselect=postselect)
                         for postselect in (True, False)]
            mono_s = time.perf_counter() - t0
            if first:
                self._count_bases(cfg, batch)
            else:
                batch = None
            chunk_s, sums = self._chunked(cfg, batch)
            del batch
            timed += [(mono_s, True), (chunk_s, True)]
            outputs.append(([_summary(s) for s in summaries], sums))
        self.rounds.append(outputs)
        return timed

    def check(self) -> Verdict:
        v = Verdict(attempted=len(self.rounds) * 2 * len(self.configs))
        p = list(self.problems)
        for cfg, (mono, sums) in zip(self.configs, self.rounds[0]):
            if [{k: s[k] for k in acc} for s, acc in zip(mono, sums)] != sums:
                p.append(f"{cfg.basis_mode}: chunked counts differ from monolithic")
            for postselect, s in zip((True, False), mono):
                p += _tomography_problems(
                    f"{cfg.basis_mode}, postselect={postselect}", self.m, self.tomo,
                    postselect, self.SHOTS, self.basis_shots[cfg.basis_mode], s)
        for later in self.rounds[1:]:
            if later != self.rounds[0]:
                p.append("counts differ between rounds")
        v.problems = p
        v.failed = v.attempted if p else 0
        return v


def _summary(s) -> dict:
    """A StokesSummary as the dict that the CLI writes to tomography.json."""
    return {
        "counts": s.counts, "n_postselected": s.n_postselected, "n_total": s.n_total,
        "stokes_estimate": {"s_hv": s.stokes.s_hv, "s_da": s.stokes.s_da,
                            "s_lr": s.stokes.s_lr},
    }


# -- fit-spectra -------------------------------------------------------------


class FitSpectra:
    """Damped least-squares fits of synthetic spectra made by the reference
    model, from the perturbed start of acceptance test 10.

    Grids of 200 and 2000 points over -30..10 MHz, each transmission-only and
    with phase rows; per case one noiseless fit and some noisy ones.  The
    small grids get more noisy fits, so that the median fit time falls
    inside the small-grid fits rather than between the two sizes.  The seed
    draws the noise.
    """

    name = "fit-spectra"
    min_rounds = 1
    NOISY_FITS = {200: 5, 2000: 2}  # grid points -> noisy fits per case

    def __init__(self, seed: int, workdir: Path | None = None):
        rng = np.random.default_rng([seed, 4])
        t = FIT_TRUTH
        self.truth = fitting.FitParameters(
            od_res=t["od_res"], omega_c=ref.angular(t["omega_c_mhz"]),
            gamma_rg=ref.angular(t["gamma_rg_mhz"]), delta_c=ref.angular(t["delta_c_mhz"]),
        )
        self.initial = fitting.FitParameters(
            od_res=self.truth.od_res * 1.2,
            omega_c=self.truth.omega_c * 0.85,
            gamma_rg=self.truth.gamma_rg * 1.4,
            delta_c=self.truth.delta_c + ref.angular(0.4),
        )
        self.cases = []  # (label, noiseless, include_phase, SpectrumData)
        for npts, with_phase in product(self.NOISY_FITS, (False, True)):
            ds = ref.angular(np.linspace(-30.0, 10.0, npts))
            clean_t, clean_ph = _model_spectrum(ds)
            for k in range(1 + self.NOISY_FITS[npts]):
                noisy = k > 0
                tr = clean_t + rng.normal(0.0, T_SIGMA, npts) if noisy else clean_t
                ph = clean_ph + rng.normal(0.0, PHASE_SIGMA, npts) if noisy else clean_ph
                data = fitting.SpectrumData(
                    delta_s=ds, transmission=tr, sigma=np.full(npts, T_SIGMA),
                    phase=ph if with_phase else None,
                    phase_sigma=np.full(npts, PHASE_SIGMA) if with_phase else None,
                )
                label = f"{npts} points, phase={with_phase}, noisy={noisy}"
                self.cases.append((label, noisy, with_phase, data))
        self.items_per_round = len(self.cases)
        self.rounds = []

    def run_round(self) -> list:
        timed, outputs = [], []
        for _, _, with_phase, data in self.cases:
            t0 = time.perf_counter()
            try:
                out = fitting.fit_spectrum(data, self.initial, include_phase=with_phase,
                                           gamma_e=GAMMA_E)
            except Exception as exc:  # counted as a failed operation
                out = exc
            timed.append((time.perf_counter() - t0, True))
            outputs.append(out)
        self.rounds.append(outputs)
        return timed

    def check(self) -> Verdict:
        v = Verdict(attempted=len(self.rounds) * len(self.cases))
        names = ("od_res", "omega_c", "gamma_rg", "delta_c")
        bad = set()
        for i, (label, noisy, _, _) in enumerate(self.cases):
            res = self.rounds[0][i]
            p = []
            if not isinstance(res, fitting.FitResult):
                p.append(f"{label}: {res}")
            else:
                for n in names:
                    got, want = getattr(res.params, n), getattr(self.truth, n)
                    err = getattr(res.stderr, n)
                    if noisy and not abs(got - want) <= 6.0 * err:
                        p.append(f"{label}: {n} {got} +- {err}, truth {want}")
                    if not noisy and not abs(got - want) <= 1e-3 * abs(want):
                        p.append(f"{label}: noiseless {n} {got}, truth {want}")
                for later in self.rounds[1:]:
                    other = later[i]
                    if not (isinstance(other, fitting.FitResult)
                            and np.array_equal(other.params.as_array(),
                                               res.params.as_array())):
                        p.append(f"{label}: fits differ between rounds")
            if p:
                bad.add(i)
                v.problems += p
        v.failed = len(bad) * len(self.rounds)
        return v


WORKLOADS = {w.name: w for w in (CliChain, PhaseScan, TomographyMC, FitSpectra)}
