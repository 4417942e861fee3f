import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rydberg_xpm import cli, photostatistics
from rydberg_xpm.cli import main
from rydberg_xpm.config import RunConfig


def write_config(tmp_path, overrides, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array(
            [[float(x) for x in line.split(",")] for line in fh if line.strip()]
        )
    return header, rows


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


SMALL_STATS = {"statistics": {"repetitions": 3000}}


class TestConfigHandling:
    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"spectrum_grid": {"pointz": 3}})
        code = main(["spectrum", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 2
        assert "spectrum_grid.pointz" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"physix": {}})
        code = main(["spectrum", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 2
        assert "physix" in capsys.readouterr().err

    def test_wrong_type_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"spectrum_grid": {"points": 2.5}})
        code = main(["spectrum", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 2
        assert "spectrum_grid.points" in capsys.readouterr().err

    def test_out_of_range_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"statistics": {"detection_efficiency": 1.5}}
        )
        code = main(["tomography", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 2
        assert "detection_efficiency" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["spectrum", "--config", str(path), "--output-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "command", ["spectrum", "blockade-phase", "density-scan", "tomography"])
    def test_infinite_wave_vector_rejected(self, tmp_path, capsys, command):
        # schema-valid, but 2 pi / 1e-309 m overflows to an infinite k_s
        cfg = write_config(tmp_path, {"physics": {"signal_wavelength_nm": 1e-300}})
        out = tmp_path / "out"
        code = main([command, "--config", cfg, "--output-dir", str(out)])
        assert code == 2
        assert "k_s must be finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["spectrum", "blockade-phase", "tomography"])
    @pytest.mark.parametrize("physics,message", [
        # eps0 hbar gamma_e underflows to 0 in chi0
        ({"excited_lifetime_ns": 1e300}, "chi0 must be finite"),
        # d_eg**2 and omega_c**2 overflow a float
        ({"dipole_moment_cm": 1e300}, "chi0 must be finite"),
        ({"omega_c_mhz": 1e300}, "omega_c**2 must be finite"),
    ])
    def test_non_finite_susceptibility_rejected(self, tmp_path, capsys, command,
                                                physics, message):
        cfg = write_config(tmp_path, {"physics": physics})
        out = tmp_path / "out"
        code = main([command, "--config", cfg, "--output-dir", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestOutputDirectory:
    @pytest.mark.parametrize("under", [False, True])
    def test_existing_file_exits_2(self, tmp_path, capsys, under):
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        target = blocker / "sub" if under else blocker
        code = main(["retrieval", "--output-dir", str(target)])
        assert code == 2
        assert f"--output-dir: cannot create {target}" in capsys.readouterr().err
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


class TestNonFiniteOutputs:
    GOOD_TABLE = (["x"], [np.array([1.0, 2.0])])

    @pytest.mark.parametrize("outputs, message", [
        # the finite output comes first, so that writing it before the
        # check would show
        ({"a.csv": GOOD_TABLE, "b.json": {"x": math.nan}},
         "numerical failure: b.json: a value is NaN or infinite"),
        ({"a.json": {"x": 1.0}, "b.json": {"y": [0.0, -math.inf]}},
         "numerical failure: b.json: a value is NaN or infinite"),
        ({"a.json": {"x": 1.0},
          "b.csv": (["x", "y"], [np.ones(2), np.array([0.0, math.inf])])},
         "numerical failure: b.csv: column y holds a value that is not finite"),
    ])
    def test_exit_3_and_no_file(self, tmp_path, capsys, monkeypatch, outputs,
                                message):
        monkeypatch.setitem(cli.COMMANDS, "retrieval", lambda cfg, args: outputs)
        assert main(["retrieval", "--output-dir", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_table_of_a_subcommand(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "retrieval_efficiency", lambda cfg, t: math.nan)
        assert main(["retrieval", "--output-dir", str(tmp_path)]) == 3
        assert "retrieval.csv: column efficiency" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestWarnings:
    def test_clamped_blockade_sphere_is_reported(self, tmp_path, capsys):
        # 2 R_b = 91 um exceeds the 61 um medium at this C6
        cfg = write_config(tmp_path, {"blockade": {"c6_atomic_units": 2.3e26}})
        out = tmp_path / "out"
        code = main(["blockade-phase", "--config", cfg, "--output-dir", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("BlockadeClampWarning") == 1
        assert ("warning: BlockadeClampWarning: blockade sphere exceeds the medium"
                in err)
        payload = read_json(out / "blockade_phase.json")
        assert (payload["hard_sphere_controlled_phase_rad"]
                == payload["phase_difference_rad"])

    def test_default_run_reports_nothing(self, tmp_path, capsys):
        assert main(["blockade-phase", "--output-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""


class TestSpectrumCommand:
    def test_default_run_outputs(self, tmp_path):
        code = main(["spectrum", "--output-dir", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "spectrum.csv")
        assert header == ["delta_s_mhz", "transmission_eit", "phase_eit_rad",
                          "transmission_two_level", "phase_two_level_rad"]
        assert rows.shape == (241, 5)
        summary = read_json(tmp_path / "spectrum_summary.json")
        assert summary["delta_t_mhz"] == pytest.approx(3.7, rel=0.02)
        assert summary["phi0_at_operating_rad"] == pytest.approx(-1.5735, abs=1e-3)
        assert summary["version"] == "0.1.0"
        assert summary["config_echo"]["physics"]["delta_s_mhz"] == -10.0

    def test_no_coupling_collapses_to_two_level(self, tmp_path):
        cfg = write_config(tmp_path, {"physics": {"omega_c_mhz": 0.0}})
        code = main(["spectrum", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert np.array_equal(rows[:, 1], rows[:, 3])
        assert np.array_equal(rows[:, 2], rows[:, 4])
        assert read_json(tmp_path / "spectrum_summary.json")["delta_t_mhz"] is None

    def test_single_point_grid(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"spectrum_grid": {"min_mhz": -10.0, "max_mhz": -10.0, "points": 1}},
        )
        code = main(["spectrum", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert rows.shape == (1, 5)
        assert rows[0, 0] == -10.0

    def test_seventeen_digit_serialization(self, tmp_path):
        main(["spectrum", "--output-dir", str(tmp_path)])
        with open(tmp_path / "spectrum.csv") as fh:
            fh.readline()
            first = fh.readline().strip().split(",")
        value = first[1]
        assert float(value) != round(float(value), 6)  # full precision survives


class TestBlockadeCommand:
    def test_default_run(self, tmp_path):
        code = main(["blockade-phase", "--output-dir", str(tmp_path)])
        assert code == 0
        out = read_json(tmp_path / "blockade_phase.json")
        assert out["blockade_radius_um"] == pytest.approx(14.4, abs=0.5)
        assert out["hard_sphere_controlled_phase_rad"] == pytest.approx(3.0, abs=0.3)
        assert 2.5 <= out["integral"]["controlled_phase_rad"] <= 3.3
        assert abs(out["integral_sign_reversed"]["controlled_phase_rad"]) < abs(
            out["integral"]["controlled_phase_rad"]
        )
        assert out["forward_to_reversed_ratio"] > 1.1

    def test_no_interaction_gives_zero_controlled_phase(self, tmp_path):
        cfg = write_config(tmp_path, {"blockade": {"c6_atomic_units": 0.0}})
        code = main(["blockade-phase", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 0
        out = read_json(tmp_path / "blockade_phase.json")
        assert out["blockade_radius_um"] == 0.0
        assert out["integral"]["controlled_phase_rad"] == pytest.approx(0.0, abs=1e-8)
        assert out["hard_sphere_controlled_phase_rad"] == 0.0


class TestDensityScanCommand:
    def test_default_run(self, tmp_path):
        cfg = write_config(tmp_path, {"density_grid": {"points": 5}})
        code = main(["density-scan", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "density_scan.csv")
        assert header == ["rho_cm3", "phase0_rad", "phase1_rad",
                          "controlled_phase_rad"]
        assert rows.shape == (5, 4)
        out = read_json(tmp_path / "density_scan.json")
        assert out["fit_phase0"]["max_rel_residual"] < 1e-10
        assert out["fit_phase1"]["max_rel_residual"] < 1e-10
        assert 2.5 <= out["controlled_phase_at_max_density_rad"] <= 3.3


class TestTomographyCommand:
    def test_default_run(self, tmp_path):
        cfg = write_config(tmp_path, {"statistics": {"repetitions": 20000}})
        code = main(["tomography", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 0
        out = read_json(tmp_path / "tomography.json")
        assert 0 < out["n_postselected"] < out["n_total"] == 20000
        assert set(out["stokes_estimate"]) == {"s_hv", "s_da", "s_lr"}
        sigma_az = 3 * max(out["stokes_stderr"].values())
        assert out["visibility"] == pytest.approx(
            out["truth"]["visibility"], abs=4 * sigma_az
        )

    def test_no_storage_without_postselection(self, tmp_path):
        cfg = write_config(tmp_path, {"statistics": {
            "storage_retrieval_efficiency_zero_delay": 0.0,
            "storage_retrieval_efficiency_delayed": 0.0,
            "postselect": False,
            "repetitions": 3000,
        }})
        code = main(["tomography", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 0
        out = read_finite_json(tmp_path / "tomography.json")
        assert out["n_postselected"] == out["n_total"] == 3000
        assert all(math.isfinite(v) for v in out["stokes_estimate"].values())

    def test_zero_detection_exits_4(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"statistics": {"detection_efficiency": 0.0, "repetitions": 100}},
        )
        code = main(["tomography", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 4
        assert "insufficient statistics" in capsys.readouterr().err

    @pytest.mark.parametrize("seed_args,expected", [
        ([], {
            "counts": {"DA": [163, 22], "HV": [102, 76], "LR": [107, 107]},
            "n_postselected": 6283,
            "stokes_estimate": {"s_da": 0.7621621621621621,
                                "s_hv": 0.14606741573033707,
                                "s_lr": 0.0},
            "stokes_stderr": {"s_da": 0.04759677700695983,
                              "s_hv": 0.0741492690555418,
                              "s_lr": 0.06835859270246633},
            "azimuth_rad": 1.3814435712633701,
        }),
        (["--seed", "7"], {
            "counts": {"DA": [154, 27], "HV": [92, 77], "LR": [97, 96]},
            "n_postselected": 6340,
            "stokes_estimate": {"s_da": 0.7016574585635359,
                                "s_hv": 0.08875739644970414,
                                "s_lr": 0.0051813471502590676},
            "stokes_stderr": {"s_da": 0.052960780383189826,
                              "s_hv": 0.07661948261265658,
                              "s_lr": 0.07198060884680706},
            "azimuth_rad": 1.4449678699876598,
        }),
    ])
    def test_default_counts_are_frozen(self, tmp_path, seed_args, expected):
        """The tally of the built-in config, drawn from the law of its
        sufficient statistics, stays the same: the counts and the estimate
        are exact."""
        code = main(["tomography", "--output-dir", str(tmp_path)] + seed_args)
        assert code == 0
        out = read_json(tmp_path / "tomography.json")
        assert {key: out[key] for key in expected} == expected
        assert out["n_total"] == 60000

    def test_huge_target_mean_exits_2_before_any_table(self, tmp_path, capsys,
                                                       monkeypatch):
        def no_table(lam):
            raise AssertionError(f"Poisson table built for mean {lam}")

        monkeypatch.setattr(photostatistics, "_poisson_cdf", no_table)
        cfg = write_config(tmp_path, {"statistics": {"mean_photons_target": 1e12}})
        code = main(["tomography", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 2
        assert "statistics.mean_photons_target" in capsys.readouterr().err
        assert not (tmp_path / "tomography.json").exists()

    def test_seed_override_changes_counts(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_STATS)
        main(["tomography", "--config", cfg, "--output-dir", str(tmp_path),
              "--seed", "1"])
        one = read_json(tmp_path / "tomography.json")
        main(["tomography", "--config", cfg, "--output-dir", str(tmp_path),
              "--seed", "2"])
        two = read_json(tmp_path / "tomography.json")
        assert one["counts"] != two["counts"]
        assert one["config_echo"]["statistics"]["rng_seed"] == 1


class TestFitCommand:
    @staticmethod
    def _write_synthetic(tmp_path):
        from rydberg_xpm.constants import angular_from_mhz, mhz_from_angular
        from rydberg_xpm.fitting import FitParameters, predict

        truth = FitParameters(
            od_res=31.628549819862732,
            omega_c=angular_from_mhz(11.556026135894836),
            gamma_rg=angular_from_mhz(0.2),
            delta_c=angular_from_mhz(9.15),
        )
        grid = angular_from_mhz(1.0) * np.linspace(-30, 10, 120)
        table = predict(truth, grid)
        path = tmp_path / "measured.csv"
        lines = ["delta_s_mhz,transmission,sigma"]
        for d, t in zip(grid, table.transmission):
            lines.append(f"{mhz_from_angular(d):.17g},{t:.17g},0.01")
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_fit_recovers_parameters(self, tmp_path):
        csv = self._write_synthetic(tmp_path)
        code = main(["fit", "--input", csv, "--output-dir", str(tmp_path)])
        assert code == 0
        out = read_json(tmp_path / "fit.json")
        assert out["converged"] is True
        assert out["estimates"]["omega_c_mhz"] == pytest.approx(11.556, abs=1e-3)
        assert out["estimates"]["gamma_rg_mhz"] == pytest.approx(0.2, abs=1e-3)

    def test_nonconvergence_exits_3(self, tmp_path, capsys):
        csv = self._write_synthetic(tmp_path)
        cfg = write_config(tmp_path, {"fit": {"max_iterations": 1,
                                              "initial_od_res": 5.0}})
        code = main(["fit", "--input", csv, "--config", cfg,
                     "--output-dir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "converge" in err and "best point" in err

    @pytest.mark.parametrize("overrides", [
        {"physics": {"omega_c_mhz": 1e300}},
        {"geometry": {"length_um": 1e-300}},
        {
            "physics": {"gamma_rg_mhz": 0.0, "omega_c_mhz": 0.0,
                        "delta_c_mhz": -1e300, "delta_s_mhz": 1e300,
                        "density_cm3": 1e300, "dipole_moment_cm": 1e300,
                        "signal_wavelength_nm": 1e-300},
            "geometry": {"length_um": 1e300, "excitation_z_um": 0.0},
            "blockade": {"c6_atomic_units": 1e300, "sign_reversed": True},
            "spectrum_grid": {"points": 1},
            "density_grid": {"min_cm3": 1e-300, "max_cm3": 1e300},
            "statistics": {"repetitions": 1, "rng_seed": 0,
                           "coherence_factor": 0.0},
            "retrieval_grid": {"max_us": 1e300},
        },
    ])
    def test_reads_only_the_keys_it_fits(self, tmp_path, overrides):
        # fit reads physics.excited_lifetime_ns and fit.*, and no other key:
        # configs that differ elsewhere give the same fit.json but for the echo
        csv = self._write_synthetic(tmp_path)
        outputs = []
        for name, config in (("default", {}), ("changed", overrides)):
            cfg = write_config(tmp_path, config, name=f"{name}.json")
            out = tmp_path / name
            assert main(["fit", "--input", csv, "--config", cfg,
                         "--output-dir", str(out)]) == 0
            payload = read_json(out / "fit.json")
            assert payload.pop("config_echo") == RunConfig(config).raw
            outputs.append(json.dumps(payload, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_missing_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("delta_s_mhz,transmission\n0,1\n")
        code = main(["fit", "--input", str(path), "--output-dir", str(tmp_path)])
        assert code == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, expected", [
        ("missing", "cannot read the fit input: No such file or directory"),
        ("directory", "cannot read the fit input: Is a directory"),
        # the 0xff after the first row's sigma
        ("not UTF-8", "cannot read the fit input: byte 41 is not UTF-8"),
        ("7 rows", "need at least 8 spectrum points"),
        ("decreasing", "delta_s must be strictly increasing"),
        ("sigma 0", "sigma must be positive"),
    ])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, kind, expected):
        """Input the fit cannot use is a config error naming the file."""
        path = tmp_path / "measured.csv"
        rows = [(d, 0.5, 0.01) for d in range(10)]
        if kind == "directory":
            path.mkdir()
        elif kind == "not UTF-8":
            path.write_bytes(b"delta_s_mhz,transmission,sigma\n0,0.5,0.01\xff\n")
        elif kind != "missing":
            if kind == "7 rows":
                rows = rows[:7]
            elif kind == "decreasing":
                rows = rows[::-1]
            else:
                rows[4] = (4, 0.5, 0.0)
            path.write_text("delta_s_mhz,transmission,sigma\n"
                            + "".join(f"{d},{t},{s}\n" for d, t, s in rows))
        out = tmp_path / "out"
        code = main(["fit", "--input", str(path), "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: {expected}" in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("row, message", [
        ("-2.5,0.4", "2 cells, too few"),
        ("-2.5,nan,0.01", "column 'transmission' is not finite: nan"),
        ("-2.5,0.4,inf", "column 'sigma' is not finite: inf"),
        ("-inf,0.4,0.01", "column 'delta_s_mhz' is not finite: -inf"),
        ("-2.5,0.4,one", "could not convert string to float: 'one'"),
    ])
    def test_bad_row_exits_2_naming_its_line(self, tmp_path, capsys, row, message):
        # line 1 is the header, line 3 the bad row; the blank line counts
        path = tmp_path / "measured.csv"
        path.write_text(f"delta_s_mhz,transmission,sigma\n-3,0.5,0.01\n{row}\n\n"
                        "-2,0.5,0.01\n")
        code = main(["fit", "--input", str(path), "--output-dir", str(tmp_path)])
        assert code == 2
        assert f"{path}:3: {message}" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_joint_fit_with_phase_columns(self, tmp_path):
        from rydberg_xpm.constants import angular_from_mhz, mhz_from_angular
        from rydberg_xpm.fitting import FitParameters, predict

        truth = FitParameters(
            od_res=31.628549819862732,
            omega_c=angular_from_mhz(11.556026135894836),
            gamma_rg=angular_from_mhz(0.2),
            delta_c=angular_from_mhz(9.15),
        )
        grid = angular_from_mhz(1.0) * np.linspace(-30, 10, 120)
        table = predict(truth, grid)
        path = tmp_path / "with_phase.csv"
        lines = ["delta_s_mhz,transmission,sigma,phase_rad,phase_sigma"]
        for d, t, p in zip(grid, table.transmission, table.phase):
            lines.append(
                f"{mhz_from_angular(d):.17g},{t:.17g},0.01,{p:.17g},0.02"
            )
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, {"fit": {"include_phase": True}})
        code = main(["fit", "--input", str(path), "--config", cfg,
                     "--output-dir", str(tmp_path)])
        assert code == 0
        out = read_json(tmp_path / "fit.json")
        assert out["converged"] is True
        assert out["estimates"]["delta_c_mhz"] == pytest.approx(9.15, abs=1e-3)


def read_finite_json(path):
    def refuse(token):
        raise ValueError(f"non-finite JSON value {token}")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


class TestRetrievalCommand:
    def test_no_delayed_efficiency(self, tmp_path):
        cfg = write_config(
            tmp_path, {"statistics": {"storage_retrieval_efficiency_delayed": 0.0}}
        )
        code = main(["retrieval", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "retrieval.csv")
        assert rows[0, 1] == 0.2 and np.all(rows[1:, 1] == 0.0)
        assert read_finite_json(tmp_path / "retrieval.json")["tau_us"] is None

    def test_endpoints(self, tmp_path):
        code = main(["retrieval", "--output-dir", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "retrieval.csv")
        assert rows[0, 1] == 0.2
        out = read_json(tmp_path / "retrieval.json")
        assert out["tau_us"] == pytest.approx(4.2864404311815092, rel=1e-12)
        # the 4.5 us grid row holds the measured delayed efficiency
        i = np.argmin(np.abs(rows[:, 0] - 4.5))
        assert rows[i, 1] == pytest.approx(0.07, abs=1e-6)


class TestReproducibility:
    @pytest.mark.parametrize("command,outputs", [
        (["spectrum"], ["spectrum.csv", "spectrum_summary.json"]),
        (["blockade-phase"], ["blockade_phase.json"]),
        (["density-scan"], ["density_scan.csv", "density_scan.json"]),
        (["tomography"], ["tomography.json"]),
        (["fit"], ["fit.json"]),
        (["retrieval"], ["retrieval.csv", "retrieval.json"]),
    ])
    def test_byte_identical_reruns(self, tmp_path, command, outputs):
        cfg = write_config(tmp_path, SMALL_STATS)
        if command == ["fit"]:
            command = command + ["--input", TestFitCommand._write_synthetic(tmp_path)]
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        for d in (dir_a, dir_b):
            code = main(command + ["--config", cfg, "--output-dir", str(d)])
            assert code == 0
        for name in outputs:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


@functools.lru_cache(maxsize=None)
def script_stdout(name):
    """The stdout of one of the repository's scripts, run once per session."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout


def printed_numbers(stdout):
    """label -> the decimal numbers printed after it, for 'label : ...' lines."""
    rows = (line.split(":", 1) for line in stdout.splitlines() if ":" in line)
    return {label.strip(): [float(x) for x in re.findall(r"[+-]?\d+\.\d+", rest)]
            for label, rest in rows}


class TestScripts:
    def test_headline_tomography_is_the_cli_run(self, tmp_path):
        """The script's tomography is ``tomography --seed 7`` at the
        default config: same truth and same estimate."""
        line = next(x for x in script_stdout("reproduce_headline_numbers.py")
                    .splitlines() if x.startswith("tomography azimuth"))
        found = re.search(r": ([+-][0-9.]+) rad \(truth ([+-][0-9.]+),", line)
        assert main(["tomography", "--seed", "7", "--output-dir", str(tmp_path)]) == 0
        out = read_json(tmp_path / "tomography.json")
        assert float(found.group(2)) == round(out["truth"]["azimuth_rad"], 3)
        assert float(found.group(1)) == round(out["azimuth_rad"], 3)

    def test_headline_phases_are_the_blockade_payload(self, tmp_path):
        """Every blockade line of the script is ``blockade-phase`` at the
        default config, rounded as printed."""
        printed = printed_numbers(script_stdout("reproduce_headline_numbers.py"))
        assert main(["blockade-phase", "--output-dir", str(tmp_path)]) == 0
        b = read_json(tmp_path / "blockade_phase.json")
        fwd, rev = b["integral"], b["integral_sign_reversed"]
        expected = {
            "transparency feature width": [round(b["delta_t_mhz"], 3)],
            "blockade radius": [round(b["blockade_radius_um"], 2)],
            "fully blockaded phase": [round(b["phi_two_level_rad"], 3)],
            "two-level minus EIT difference": [round(b["phase_difference_rad"], 3)],
            "hard-sphere controlled phase": [
                round(b["hard_sphere_controlled_phase_rad"], 3)],
            "radius-resolved integral": [round(fwd["controlled_phase_rad"], 3),
                                         round(fwd["od0"], 3), round(fwd["od1"], 3)],
            "sign-reversed controlled phase": [
                round(abs(rev["controlled_phase_rad"]), 3),
                round(b["forward_to_reversed_ratio"], 2)],
        }
        assert {label: printed[label] for label in expected} == expected
        assert printed["phase at operating point"][0] == round(b["phi_eit_rad"], 3)

    def test_scan_unit_scale_row_is_blockade_phase(self, tmp_path):
        """The scale-1 row of the sharpness scan is ``blockade-phase`` at the
        default config, rounded as printed."""
        rows = script_stdout("scan_blockade_sharpness.py").splitlines()
        row = next(line.split() for line in rows if line.split()[0] == "1")
        assert main(["blockade-phase", "--output-dir", str(tmp_path)]) == 0
        b = read_json(tmp_path / "blockade_phase.json")
        ctrl = b["integral"]["controlled_phase_rad"]
        box = b["hard_sphere_controlled_phase_rad"]
        assert row == ["1", f"{b['blockade_radius_um']:.2f}", f"{ctrl:.4f}",
                       f"{box:.4f}", f"{abs(ctrl - box) / box:.2%}"]


SCIPY_FREE_RUN = """
import json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from rydberg_xpm.cli import COMMANDS, main
cfg, csv, out = sys.argv[1:4]
codes = {name: main([name, "--config", cfg, "--output-dir", out]
                    + (["--input", csv] if name == "fit" else []))
         for name in COMMANDS}
print(json.dumps(codes))
"""


class TestScipyFree:
    def test_every_subcommand_runs_without_scipy(self, tmp_path):
        """The run path needs numpy only; scipy is a test dependency.  A
        fresh interpreter, because the oracle tests import scipy here."""
        root = Path(__file__).resolve().parents[1]
        cfg = write_config(tmp_path, {
            "spectrum_grid": {"points": 21},
            "density_grid": {"points": 3},
            "statistics": {"repetitions": 3000},
            "retrieval_grid": {"points": 5},
        })
        csv = TestFitCommand._write_synthetic(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_FREE_RUN, cfg, csv, str(tmp_path / "out")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        codes = json.loads(proc.stdout.splitlines()[-1])
        assert codes == {name: 0 for name in (
            "spectrum", "blockade-phase", "density-scan", "tomography", "fit",
            "retrieval")}, proc.stderr


def test_cli_import_loads_no_numpy_polynomial():
    """``numpy.polynomial`` (9 modules) is a test-only import, and the
    import loads at most 133 modules in all (``tests/test_costs.py``).  A fresh interpreter, because
    the quadrature oracles import it here."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rydberg_xpm.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))); "
         "print(len(sys.modules))"],
        capture_output=True, text=True, env=env, check=True,
    )
    polynomial, modules = proc.stdout.split()
    assert polynomial == "[]"
    assert int(modules) <= 133


def test_tomography_loads_no_numpy_random(tmp_path):
    """The tally draws from ``random``, which ``import rydberg_xpm.cli``
    already loads: ``tomography`` adds neither ``numpy.random`` (19
    modules) nor a thread.  A fresh interpreter, because other tests load
    ``numpy.random`` here."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, threading, rydberg_xpm.cli as c; "
         "assert 'random' in sys.modules; "
         "assert c.main(['tomography', '--output-dir', sys.argv[1]]) == 0; "
         "print('numpy.random' in sys.modules, threading.active_count())",
         str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.split() == ["False", "1"]
