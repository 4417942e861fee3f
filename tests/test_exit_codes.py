"""Every schema-valid config ends in a documented exit code.

A table of configs that once ended in a traceback, or in a config error
that hid another fault, checks the code and message of each.  A hypothesis
strategy derived from ``config._TABLE`` sets one to three keys
of a small run to an edge value and runs a subcommand through ``cli.main``
in this process: the exit code must be 0, 2, 3 or 4, an exception that
escapes ``main`` (a traceback in a fresh process) fails the test, and so
do an output holding NaN or Infinity, in a JSON value or a CSV cell, and a
numpy RuntimeWarning on stderr.
Reference: MacIver et al., "Hypothesis: A new approach to property-based
testing", JOSS 4(43) 1891 (2019).
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rydberg_xpm.cli import COMMANDS, main
from rydberg_xpm.config import _TABLE
from rydberg_xpm.constants import angular_from_mhz, mhz_from_angular
from rydberg_xpm.fitting import FitParameters, predict
from rydberg_xpm import photostatistics
from rydberg_xpm.photostatistics import MAX_REPETITIONS

# small grids and repetition counts; a drawn key scales these, not the
# full-size defaults
SMALL = {
    "spectrum_grid": {"points": 21},
    "density_grid": {"points": 3},
    "statistics": {"repetitions": 2000},
    "fit": {"max_iterations": 50},
    "retrieval_grid": {"points": 5},
}


def flat_csv(rows: int = 10) -> str:
    """A spectrum no parameter set of the model fits: transmission 0.5 at
    detunings 0, 2, 4, ... MHz."""
    lines = [f"{2 * i},0.5,0.01" for i in range(rows)]
    return "\n".join(["delta_s_mhz,transmission,sigma", *lines]) + "\n"


def model_csv() -> str:
    """The model spectrum at the default parameters, 40 rows with phase."""
    truth = FitParameters(
        od_res=31.628549819862732,
        omega_c=angular_from_mhz(11.556026135894836),
        gamma_rg=angular_from_mhz(0.2),
        delta_c=angular_from_mhz(9.15),
    )
    grid = angular_from_mhz(1.0) * np.linspace(-30.0, 9.0, 40)
    table = predict(truth, grid)
    rows = [f"{mhz_from_angular(d):.17g},{t:.17g},0.01,{p:.17g},0.02"
            for d, t, p in zip(grid, table.transmission, table.phase)]
    return "\n".join(["delta_s_mhz,transmission,sigma,phase_rad,phase_sigma",
                      *rows]) + "\n"


# the fit inputs of the edge-config table, by name ("-": none)
SPECTRA = {"flat10": flat_csv(10), "flat20": flat_csv(20), "model": model_csv(),
           "-": ""}


def run(tmp: Path, command: str, overrides, spectrum: str, extra=()) -> int:
    """``main`` on ``command`` with ``overrides`` as the config file and
    ``spectrum`` as the fit input."""
    (tmp / "config.json").write_text(json.dumps(overrides))
    (tmp / "measured.csv").write_text(spectrum)
    argv = [command, "--config", str(tmp / "config.json"),
            "--output-dir", str(tmp / "out"), *extra]
    if command == "fit":
        argv += ["--input", str(tmp / "measured.csv")]
    return main(argv)


@pytest.mark.parametrize("command, overrides, spectrum, codes, message", [
    # a trial step that overflows in the fit is rejected, not a traceback
    ("fit", {}, "flat10", (0, 3), ""),
    ("fit", {"fit": {"initial_omega_c_mhz": 12000}}, "flat20", (0, 3), ""),
    # omega_c**2 overflows at the starting point
    ("fit", {"fit": {"initial_omega_c_mhz": 1e300}}, "flat10", (3,),
     "numerical failure: the spectrum model cannot be evaluated at the "
     "fit's starting point"),
    ("fit", {"fit": {"include_phase": True}}, "flat10", (2,),
     "config error: fit.include_phase: "),
    ("tomography", {"geometry": {"length_um": 1e300}}, "-", (4,),
     "insufficient statistics: no photon reaches a detector"),
    ("tomography", {"statistics": {"rng_seed": 2**128}}, "-", (2,),
     "config error: statistics.rng_seed: "),
    ("retrieval", {"retrieval_grid": {"points": 2**64}}, "-", (2,),
     "config error: retrieval_grid.points: "),
    ("blockade-phase", {"geometry": {"excitation_z_um": 100}}, "-", (2,),
     "config error: geometry.excitation_z_um: "),
    ("spectrum", {"physics": {"omega_c_mhz": 1e300}}, "-", (2,),
     "config error: physics: omega_c**2 must be finite"),
    # retrieval builds no EIT parameters
    ("retrieval", {"physics": {"omega_c_mhz": 1e300}}, "-", (0,), ""),
    # fit reads only physics.excited_lifetime_ns and fit.*
    ("fit", {"physics": {"omega_c_mhz": 1e300}}, "model", (0,), ""),
    # gamma_e overflows: no fit starts, and no 0 * inf is formed
    ("fit", {"physics": {"excited_lifetime_ns": 1e-300}}, "model", (3,),
     "numerical failure: the spectrum model cannot be evaluated at the "
     "fit's starting point"),
    # no interaction where r^6 underflows: a zero shift, not 0 / 0
    ("blockade-phase", {"blockade": {"c6_atomic_units": 0},
                        "geometry": {"excitation_z_um": 1e-300}}, "-", (0,), ""),
    ("density-scan", {"blockade": {"c6_atomic_units": 0},
                      "geometry": {"excitation_z_um": 1e-300}}, "-", (0,), ""),
])
def test_edge_config_exit_code(tmp_path, capsys, command, overrides, spectrum,
                               codes, message):
    assert run(tmp_path, command, overrides, SPECTRA[spectrum]) in codes
    err = capsys.readouterr().err
    assert message in err
    assert "RuntimeWarning" not in err


def test_repetitions_beyond_the_bound_exit_2(tmp_path, capsys, monkeypatch):
    # one shot more than keeps the count sums below 2^53; without the bound
    # the run would take days, so the first simulated shot fails the test
    def no_shots(*args, **kwargs):
        pytest.fail("shots were simulated")

    monkeypatch.setattr(photostatistics, "simulate_batch", no_shots)
    overrides = {"statistics": {"repetitions": MAX_REPETITIONS + 1}}
    assert run(tmp_path, "tomography", overrides, "") == 2
    assert "config error: statistics.repetitions: " in capsys.readouterr().err


@pytest.mark.parametrize("overrides, seed", [
    ({"statistics": 3}, "1"),
    ({}, "-1"),
    ({}, str(2**128)),
])
def test_seed_flag_is_checked_as_the_key(tmp_path, capsys, overrides, seed):
    assert run(tmp_path, "retrieval", overrides, "", ["--seed", seed]) == 2
    assert "config error: statistics" in capsys.readouterr().err


def edge_values(section: str, key: str, default):
    """0, the default x 10^+-k, +-1e+-300, and for an int 2^64."""
    if isinstance(default, (bool, str)):
        return st.just(default)
    base = SMALL.get(section, {}).get(key, default)
    scaled = st.builds(lambda k, sign: base * 10.0**(sign * k),
                       st.integers(1, 3), st.sampled_from([1, -1]))
    if isinstance(default, int):
        return st.one_of(st.just(0), scaled.map(int), st.just(2**64))
    return st.one_of(st.just(0.0), scaled,
                     st.sampled_from([1e300, -1e300, 1e-300, -1e-300]))


KEYS = [(section, key) for section, keys in _TABLE.items() for key in keys]


@st.composite
def configs(draw):
    overrides = json.loads(json.dumps(SMALL))
    chosen = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=3,
                           unique=True))
    for section, key in chosen:
        overrides.setdefault(section, {})[key] = draw(
            edge_values(section, key, _TABLE[section][key][0]))
    return overrides


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(COMMANDS)), overrides=configs(),
       spectrum=st.sampled_from([flat_csv(), model_csv()]))
def test_every_config_exits_with_a_documented_code(command, overrides, spectrum):
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run(Path(tmp), command, overrides, spectrum)
        assert code in (0, 2, 3, 4)
        assert "RuntimeWarning" not in err.getvalue()
        for path in (Path(tmp) / "out").glob("*.json"):
            json.loads(path.read_text(), parse_constant=refuse)
        for path in (Path(tmp) / "out").glob("*.csv"):
            for line in path.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    if not math.isfinite(float(cell)):
                        refuse(cell)


def refuse(token):
    raise AssertionError(f"non-finite JSON value {token}")
