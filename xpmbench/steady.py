#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 xpmbench/steady.py [--runs 10]

Each set runs ``xpmbench/run.py`` once per seed 1..runs on every workload,
with the run length of ``BENCHMARK.json``.  For every workload and end-to-end
metric it prints each set's median and quartiles, the spread
(q3 - q1) / median, and whether

* every set's spread stays within the metric's bound,
* the second set's median is not worse than the first's by more than the bound,
* the share of failed operations is the same in every run.

It then runs the traced suite twice on seed 1 and reports whether every
count metric repeats exactly.  All results go to
``.xpmbench_out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
TRACE_REPEATS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(first: float, last: float, better: str) -> float:
    """Relative change of ``last`` against ``first``, positive when worse."""
    change = (last - first) / first
    return change if better == "lower" else -change


def report(spec: dict, sets: list) -> bool:
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        runs = [s[name] for s in sets]
        shares = {r["failed"] / r["attempted"] for rs in runs for r in rs}
        correct = all(r["correct"] for rs in runs for r in rs)
        print(f"\n{name}: correct in every run: {correct}; failed share per run: "
              f"{sorted(shares)}")
        ok &= correct and len(shares) == 1
        for m in spec["end_to_end"]:
            bound = m["bound"]
            meds, line = [], []
            for rs in runs:
                values = [r["metrics"][m["name"]]["value"] for r in rs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2
                meds.append(q2)
                line.append(f"med {q2:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f}")
                if spread > bound:
                    ok = False
                    line[-1] += " (> bound)"
            drift = worse_by(meds[0], meds[-1], m["better"])
            verdict = "ok" if drift <= bound else "WORSE BEYOND BOUND"
            ok &= drift <= bound
            print(f"  {m['name']:12s} bound {bound:.2f}  " + " | ".join(line)
                  + f"  drift {drift:+.3f} {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = range(1, args.runs + 1)
    sets = []
    for k in range(SETS):
        runs = {}
        for wl in spec["workloads"]:
            runs[wl["name"]] = []
            for seed in seeds:
                runs[wl["name"]].append(run_once(wl["name"], seed, spec["run_seconds"], 0))
                print(f"set {k + 1} {wl['name']} seed {seed} done", file=sys.stderr)
        sets.append(runs)
    ok = report(spec, sets)

    traced = [run_once(spec["workloads"][0]["name"], 1, spec["run_seconds"], 1)
              for _ in range(TRACE_REPEATS)]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    same = all(t["metrics"][c] == traced[0]["metrics"][c] for t in traced for c in counts)
    ok &= same
    print(f"\ntraced suite x{len(traced)}: count metrics repeat exactly: {same}")
    for c in counts:
        print(f"  {c:45s} {[t['metrics'][c]['value'] for t in traced]}")

    out = ROOT / ".xpmbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"sets": sets, "traced": traced}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"\n{'STEADY' if ok else 'NOT STEADY'}; runs saved to {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
