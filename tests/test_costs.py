"""Cost counters that do not depend on the host: what a fresh process
loads, and how many model evaluations a fit makes.

Each subcommand runs in a fresh interpreter, because the tests load numpy
and scipy here.  ``tomography``, ``retrieval``, ``density-scan`` and
``blockade-phase`` handle a few Python numbers each, so they must run
without ever importing numpy.
Every module count is an upper bound at the value measured when it was
last lowered (CPython 3.11, numpy 2.4): a change that lowers a count lowers
its bound.  Other counters: 534 (detuning, shift) points evaluated per
default width search (``tests/test_susceptibility.py``), at most 600
uniforms per tally (``TestTally`` in ``tests/test_photostatistics.py``),
and the tracemalloc peaks of the per-shot model pinned there.  The
per-shot model's own counters here are its ``searchsorted`` calls and the
uniforms it draws per block of shots.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rydberg_xpm import fitting, photostatistics
from rydberg_xpm.cli import cmd_spectrum, main
from rydberg_xpm.config import RunConfig
from rydberg_xpm.polarization import balanced_input_state

ROOT = Path(__file__).resolve().parents[1]

# a fresh interpreter: the module count after ``import rydberg_xpm.cli``,
# then the exit code and module count after the subcommand in argv
FRESH_RUN = """
import json, sys
import rydberg_xpm.cli as cli
imported = len(sys.modules)
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "imported": imported,
                  "modules": len(sys.modules), "numpy": "numpy" in sys.modules}))
"""

IMPORT_MODULES = 133
# subcommand -> modules loaded once it has run
MODULES = {
    "spectrum": 232,
    "blockade-phase": 135,
    "density-scan": 136,
    "tomography": 136,
    "fit": 233,
    "retrieval": 135,
}
NUMPY_FREE = ("blockade-phase", "density-scan", "tomography", "retrieval")
# 6 iterations of 4 central differences (8 calls) and a step, plus the start
MODEL_EVALUATIONS_PER_FIT = 54
# one search per block for the total counts of 2 or more
SEARCHES_PER_BLOCK = 1
# the uniforms of a block: its rows, 2 a shot with round-robin bases and 3
# with random ones; one for each shot that counts a photon; and those of
# the binomials that split the counts of 2 or more, exactly 1 each by
# inversion at the default mean and 2.32 at most by rejection at mean 1000
# when this bound was set
ROWS_PER_SHOT = {"round_robin": 2, "random": 3}
UNIFORMS_PER_BINOMIAL = 3


def fresh_run(argv: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN, *argv],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def fit_input(tmp_path_factory):
    """The default spectrum as a fit input, sigma 0.01."""
    header, columns = cmd_spectrum(RunConfig(), None)["spectrum.csv"]
    path = tmp_path_factory.mktemp("fit") / "input.csv"
    rows = zip(columns[header.index("delta_s_mhz")],
               columns[header.index("transmission_eit")])
    path.write_text("delta_s_mhz,transmission,sigma\n"
                    + "".join(f"{float(d)!r},{float(t)!r},0.01\n" for d, t in rows))
    return str(path)


@pytest.mark.parametrize("command", sorted(MODULES))
def test_subcommand_module_counts(tmp_path, fit_input, command):
    argv = [command, "--output-dir", str(tmp_path)]
    if command == "fit":
        argv += ["--input", fit_input]
    run = fresh_run(argv)
    assert run["code"] == 0
    assert run["imported"] <= IMPORT_MODULES
    assert run["modules"] <= MODULES[command]
    assert run["numpy"] is (command not in NUMPY_FREE)


@pytest.mark.parametrize("postselect", [True, False])
@pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
def test_tomography_never_imports_numpy(tmp_path, basis_mode, postselect):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"statistics": {"basis_mode": basis_mode,
                                                 "postselect": postselect}}))
    run = fresh_run(["tomography", "--config", str(config),
                     "--output-dir", str(tmp_path)])
    assert run["code"] == 0
    assert run["numpy"] is False
    assert run["modules"] <= MODULES["tomography"]


def test_model_evaluations_per_fit(monkeypatch, tmp_path, fit_input):
    # the default fit of the default spectrum: each model evaluation is one
    # normalized_chi call
    calls = []

    def counting(*args):
        calls.append(1)
        return normalized_chi(*args)

    normalized_chi = fitting.normalized_chi
    monkeypatch.setattr(fitting, "normalized_chi", counting)
    assert main(["fit", "--input", fit_input, "--output-dir", str(tmp_path)]) == 0
    assert len(calls) <= MODEL_EVALUATIONS_PER_FIT


@pytest.mark.parametrize("target", [0.9, 1000.0])
@pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
def test_searches_per_block(monkeypatch, basis_mode, target):
    # four blocks, the first and last in part, at the default mean and at
    # the largest, where every shot is searched
    import numpy as np

    calls = []
    searchsorted = np.searchsorted

    def counting(*args, **kwargs):
        calls.append(1)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    block = photostatistics._BLOCK_SHOTS
    cfg = photostatistics.ExperimentConfig(basis_mode=basis_mode,
                                           mean_photons_target=target)
    # the medium response at the default operating point
    truth = (0.834204568833878, -1.5735361082477184,
             1.3725115599448552, 1.6191819221302537)
    photostatistics.simulate_batch(cfg, truth, balanced_input_state(truth[2]),
                                   block - 5, 3 * block)
    assert len(calls) <= 4 * SEARCHES_PER_BLOCK


def draws_since_seeding(seed, state, at_least: int) -> int:
    """The 64-bit draws a Generator seeded ``seed`` made to reach ``state``,
    counted from ``at_least`` on."""
    import numpy as np

    bit_generator = np.random.default_rng(seed).bit_generator
    bit_generator.advance(at_least)
    for extra in range(4 * photostatistics._BLOCK_SHOTS):
        if bit_generator.state == state:
            return at_least + extra
        bit_generator.random_raw()
    raise AssertionError(f"{seed}: more than {at_least + extra} draws")


@pytest.mark.parametrize("target", [0.9, 1000.0])
@pytest.mark.parametrize("basis_mode", ["round_robin", "random"])
def test_uniforms_per_block(monkeypatch, basis_mode, target):
    # two whole blocks, at the default mean and at the largest, where every
    # shot counts two or more
    import numpy as np

    generators = []
    default_rng = np.random.default_rng

    def spy(seed):
        generators.append((seed, default_rng(seed)))
        return generators[-1][1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    block = photostatistics._BLOCK_SHOTS
    cfg = photostatistics.ExperimentConfig(basis_mode=basis_mode,
                                           mean_photons_target=target)
    truth = (0.834204568833878, -1.5735361082477184,
             1.3725115599448552, 1.6191819221302537)
    batch = photostatistics.simulate_batch(cfg, truth, balanced_input_state(truth[2]),
                                           0, 2 * block)
    monkeypatch.undo()
    total = batch.counts_k.astype(np.int64) + batch.counts_l
    assert len(generators) == 2
    for j, (seed, rng) in enumerate(generators):
        counts = total[j * block:(j + 1) * block]
        counting, binomials = int(np.count_nonzero(counts)), int(np.count_nonzero(counts >= 2))
        assert binomials > 0
        drawn = draws_since_seeding(seed, rng.bit_generator.state,
                                    ROWS_PER_SHOT[basis_mode] * block + counting + binomials)
        assert drawn <= (ROWS_PER_SHOT[basis_mode] * block + counting
                         + UNIFORMS_PER_BINOMIAL * binomials)
