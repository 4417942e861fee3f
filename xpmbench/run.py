#!/usr/bin/env python3
"""Benchmark of rydberg-xpm, run from the root of a source checkout.

    python3 xpmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package runs from ``src/`` without installation.  The workload is built
from the seed, then whole rounds of its operations run, one at a time,
until ``--seconds`` have passed; every output is then checked.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics, from one
fixed traced suite (a round of every workload) whatever the workload named.
See ``xpmbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".xpmbench_out"
WORKLOAD_NAMES = ("cli-chain", "phase-scan", "tomography-mc", "fit-spectra")
SETUP_PROBES = 3
IMPORT_PROBES = 3
CLI_COMMANDS = ("spectrum", "blockade-phase", "density-scan", "tomography", "fit",
                "retrieval")


def child_env() -> dict:
    """Environment of this process and its children: the package from
    src/, BLAS and OpenMP pools capped at the usable cores."""
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_child(argv: list, env: dict) -> tuple[float, str]:
    """Wall seconds from start to exit of a child, and its standard output."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return seconds, proc.stdout


def setup_seconds(args, env: dict) -> float:
    """Median time for a fresh interpreter to import the package and build
    the workload's inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    return statistics.median(timed_child(argv, env)[0] for _ in range(SETUP_PROBES))


def build(name: str, seed: int, workdir: Path, env: dict | None = None,
          in_process: bool = False):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliChain:
        return cls(seed, workdir, env=env, in_process=in_process)
    return cls(seed, workdir)


def run_rounds(w, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed; per round the list of
    (operation seconds, counted)."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < w.min_rounds or time.perf_counter() - start < seconds:
        rounds.append(w.run_round())
    return rounds


def untraced(args, workdir: Path, env: dict):
    setup_s = setup_seconds(args, env)
    w = build(args.workload, args.seed, workdir, env=env)
    rounds = run_rounds(w, args.seconds)
    if args.workload == "cli-chain":
        peak_mb = w.peak_child_rss_mb
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = w.check()
    round_s = [sum(s for s, _ in r) for r in rounds]
    wall_s = statistics.median(round_s)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_p50_s": statistics.median(s for r in rounds for s, counted in r if counted),
        "items_per_s": w.items_per_round / wall_s,
        "peak_rss_mb": peak_mb,
    }
    return verdict, metrics


def import_probe(env: dict) -> tuple[float, int]:
    """Fresh ``import rydberg_xpm.cli`` minus a bare interpreter (medians),
    and the number of entries in sys.modules after that import."""
    bare = [sys.executable, "-c", "pass"]
    full = [sys.executable, "-c", "import sys, rydberg_xpm.cli; print(len(sys.modules))"]
    bare_s, full_s, modules = [], [], 0
    for _ in range(IMPORT_PROBES):
        bare_s.append(timed_child(bare, env)[0])
        seconds, out = timed_child(full, env)
        full_s.append(seconds)
        modules = int(out.strip())
    return statistics.median(full_s) - statistics.median(bare_s), modules


def traced(args, workdir: Path, env: dict):
    """Per-layer metrics from a suite of one round of every workload (the
    CLI subcommands in process), run alternately untraced and traced."""
    import tracing
    import workloads

    import_s, modules = import_probe(env)
    parts = {name: build(name, args.seed, workdir / name, in_process=True)
             for name in WORKLOAD_NAMES}
    cli_part = parts["cli-chain"]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        plain_s = sum(s for w in parts.values() for s, _ in w.run_round())
        tracer = tracing.Tracer()
        n_spans = len(cli_part.op_spans)
        patched = tracing.install(tracer)
        try:
            traced_s = sum(s for w in parts.values() for s, _ in w.run_round())
        finally:
            tracing.uninstall(patched)
        cli_s = dict(cli_part.op_spans[n_spans:])
        passes.append(layer_metrics(tracing.summarize(tracer), len(tracer), cli_s,
                                    parts, plain_s, traced_s))

    tomo = parts["tomography-mc"]
    tracemalloc.start()
    workloads.photostatistics.simulate_batch(tomo.configs[0], tomo.truth, tomo.input_state)
    peak_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    verdicts = {name: w.check() for name, w in parts.items()}
    verdict = verdicts[args.workload]
    verdict.problems = [p for v in verdicts.values() for p in v.problems]
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    metrics.update({
        "import.s": import_s,
        "import.modules": modules,
        "photostatistics.simulate_batch.peak_mb_per_mshot":
            peak_bytes / 1e6 / (tomo.SHOTS / 1e6),
    })
    return verdict, metrics


def layer_metrics(s: dict, n_spans: int, cli_s: dict, parts: dict,
                  plain_s: float, traced_s: float) -> dict:
    calls, self_s, total, inside = s["calls"], s["self"], s["total"], s["inside"]

    def per(num, den):
        return num / den if den else 0.0

    def summed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    fwhm, chi = "susceptibility.transmission_fwhm", "susceptibility.chi"
    phase1 = "blockade.integrated_phase#n1"
    fits = parts["fit-spectra"].rounds[-1]
    tomo_round = parts["tomography-mc"].rounds[-1]
    post = [mono[0] for mono, _ in tomo_round]  # postselect=True
    m = {f"cli.{cmd}.s": cli_s[cmd] for cmd in CLI_COMMANDS}
    m.update({
        "config.RunConfig.s": total.get("config.RunConfig", 0.0),
        f"{fwhm}.self_s": self_s.get(fwhm, 0.0),
        f"{fwhm}.chi_calls": per(inside(fwhm, chi), calls.get(fwhm, 0)),
        f"{chi}.calls": calls.get(chi, 0),
        f"{chi}.self_s": self_s.get(chi, 0.0),
        "susceptibility.spectrum.self_s": self_s.get("susceptibility.spectrum", 0.0),
        "blockade.integrated_phase.calls": summed(calls, "blockade.integrated_phase"),
        "blockade.integrated_phase.self_s": summed(self_s, "blockade.integrated_phase"),
        "blockade.chi_blockaded.calls_per_phase":
            per(inside(phase1, "blockade.chi_blockaded"), calls.get(phase1, 0)),
        "blockade.chi_blockaded.self_s": self_s.get("blockade.chi_blockaded", 0.0),
        "blockade.density_scan.self_s": self_s.get("blockade.density_scan", 0.0),
        "polarization.self_s": summed(self_s, "polarization."),
        "photostatistics.simulate_batch.self_s":
            self_s.get("photostatistics.simulate_batch", 0.0),
        "photostatistics.estimate_stokes.self_s":
            self_s.get("photostatistics.estimate_stokes", 0.0),
        "photostatistics.postselected_per_shot":
            per(sum(x["n_postselected"] for x in post), sum(x["n_total"] for x in post)),
        "fitting.fit_spectrum.self_s": self_s.get("fitting.fit_spectrum", 0.0),
        "fitting.finite_difference_jacobian.self_s":
            self_s.get("fitting.finite_difference_jacobian", 0.0),
        "fitting.iterations_per_fit":
            statistics.mean(getattr(f, "iterations", 0) for f in fits),
        "fitting.model_evals_per_fit":
            per(inside("fitting.fit_spectrum", "fitting.predict"),
                calls.get("fitting.fit_spectrum", 0)),
        "trace.spans": n_spans,
        "trace.overhead_ratio": traced_s / plain_s - 1.0,
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rydberg_xpm" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    os.environ.update({k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            build(args.workload, args.seed, workdir, env=env)
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        verdict, values = (traced if args.trace else untraced)(args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        print(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}", file=sys.stderr)
        return 1
    for problem in verdict.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
