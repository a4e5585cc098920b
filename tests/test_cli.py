"""Config loading/validation and CLI behaviour (exit codes, CSV contract)."""

import csv
import dataclasses
import math
import os
import stat
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from clockprobe import cli
from clockprobe.atom import F3_BLOCK, F4_BLOCK, GAMMA_MHZ, IDX_DOWN, IDX_UP
from clockprobe.birefringence import state_phase_table
from clockprobe.cli import SCHEMA_LINE, main
from clockprobe.config import _BLOCK_TYPES, PRESETS, load_config
from clockprobe.dynamics import RunSetup, SimulationConfig, run_simulation
from clockprobe.ensemble import (
    ChevronPoint,
    MeasurementFigure,
    _stratified_factors,
    calibrated_irradiance,
    chevron_point,
    measurement_figure,
    operating_point,
)
from clockprobe.errors import (
    ConfigError,
    FitFailureError,
    InvariantViolationError,
    NoBalanceError,
    ResonanceProximityError,
    UnresolvedClockLevelsError,
)
from clockprobe.lightshift import ProbeConfig, differential_clock_shift, resonance_distance
from closed_forms import saturation
from test_config import VALID_BLOCKS

FAST_RABI = """\
probe:
  detuning_MHz: -335.0
  irradiance_rel: 16.0
  polarization_angle_deg: 45.0
microwave:
  rabi_kHz: 4.0
inhomogeneity:
  probe_irradiance_rms_frac: 0.0
  n_samples: 1
simulation:
  t_span_ms: 1.0
  dt_ms: 0.01
output:
  plot_scripts: false
"""

FAST_SPECTRA = """\
sweep:
  window_MHz: [-1100.0, -60.0]
  n_points: 21
output:
  plot_scripts: false
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestConfigLoading:
    def test_preset_resolves_magic_detuning(self):
        cfg = load_config(preset="rabi-ideal")
        assert cfg.probe.detuning_MHz == pytest.approx(-335.0, abs=5.0)
        assert cfg.probe.irradiance_rel == 16.0
        assert cfg.cloud.od_resonant == 2.2
        assert cfg.simulation.extra_loss_per_ms == 0.0

    def test_dephased_preset_adds_spread_and_loss(self):
        cfg = load_config(preset="rabi-dephased")
        assert cfg.inhomogeneity.mw_irradiance_rms_frac == 0.015
        assert cfg.simulation.extra_loss_per_ms == 0.4

    def test_all_presets_load(self):
        for name in PRESETS:
            load_config(preset=name)

    def test_file_overrides_preset(self, tmp_path):
        p = write(tmp_path, "c.yaml", "microwave:\n  rabi_kHz: 7.5\n")
        cfg = load_config(p, preset="rabi-ideal")
        assert cfg.microwave.rabi_kHz == 7.5
        assert cfg.probe.irradiance_rel == 16.0  # rest of preset kept

    def test_seed_override(self, tmp_path):
        p = write(tmp_path, "c.yaml", FAST_RABI)
        assert load_config(p, seed=99).inhomogeneity.seed == 99
        # --seed wins over a seed set in the file
        p = write(tmp_path, "c.yaml",
                  FAST_RABI.replace("  n_samples: 1\n",
                                    "  n_samples: 1\n  seed: 5\n"))
        assert load_config(p).inhomogeneity.seed == 5
        assert load_config(p, seed=99).inhomogeneity.seed == 99

    def test_rate_calibrates_the_irradiance_with_pumping_off(self, tmp_path):
        p = write(tmp_path, "c.yaml", "simulation:\n  pumping: false\n"
                                      "  scattering_rate_per_ms: 1.25\n")
        cfg = load_config(p, preset="rabi-ideal")
        setup = cli.build_setup(cfg)
        assert not setup.simulation.pumping
        assert setup.probe.irradiance_rel == calibrated_irradiance(
            cfg.probe.detuning_MHz, 45.0, 1.25)

    @pytest.mark.parametrize("preset,command", [("chevron", "chevron"),
                                                ("rabi-ideal", "rabi")])
    def test_file_rate_replaces_the_preset_irradiance(self, tmp_path, preset, command):
        # the file's rate overrides the preset's irradiance as any file key
        # overrides the preset's; the irradiance/rate conflict is one layer's
        p = write(tmp_path, "c.yaml", "simulation:\n  scattering_rate_per_ms: 1.25\n")
        cfg = load_config(p, preset=preset, accept=partial(cli._check_given, command))
        assert cfg.simulation.scattering_rate_per_ms == 1.25
        assert cfg.probe.irradiance_rel == ProbeConfig().irradiance_rel
        assert PRESETS[preset]["probe"]["irradiance_rel"] == 16.0

    def test_preset_over_rate_runs(self, tmp_path):
        p = write(tmp_path, "c.yaml", "simulation:\n  scattering_rate_per_ms: 1.25\n"
                                      "  t_span_ms: 1.0\noutput:\n  plot_scripts: false\n")
        out = tmp_path / "o"
        assert main(["rabi", "--preset", "rabi-ideal", "--config", str(p),
                     "--out", str(out)]) == 0
        assert [f.name for f in out.iterdir()] == ["rabi_record.csv"]

    @pytest.mark.parametrize("preset,command,text", [
        ("chevron", "chevron",
         "probe:\n  irradiance_rel: 8.0\nsimulation:\n  scattering_rate_per_ms: 1.25\n"),
        ("measurement", "measurement", "probe:\n  irradiance_rel: 8.0\n"),
    ], ids=["file-gives-both", "file-irradiance-over-preset-rate"])
    def test_irradiance_and_rate_within_a_layer_exit_2(self, tmp_path, capsys, preset,
                                                       command, text):
        p = write(tmp_path, "c.yaml", text)
        out = tmp_path / "o"
        assert main([command, "--preset", preset, "--config", str(p),
                     "--out", str(out)]) == 2
        assert "probe.irradiance_rel is given with simulation.scattering_rate_per_ms" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_block_rejected(self, tmp_path):
        p = write(tmp_path, "c.yaml", "laser:\n  power: 3\n")
        with pytest.raises(ConfigError, match="laser"):
            load_config(p)

    def test_atom_block_rejected(self, tmp_path):
        # the Cs D1 constants are fixed: an atom block is an unknown block
        p = write(tmp_path, "c.yaml", FAST_RABI + "atom:\n  i_sat_W_m2: 30.0\n")
        with pytest.raises(ConfigError, match="atom"):
            load_config(p)
        out = tmp_path / "out"
        assert main(["rabi", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_key_rejected_with_path(self, tmp_path):
        # the removed knobs are unknown keys now, not silently ignored
        for block, key in (("cloud", "odd_key"),
                           ("output", "effective_atom_number"),
                           ("microwave", "inhomogeneity_frac"),
                           ("simulation", "seed")):
            p = write(tmp_path, "c.yaml", f"{block}:\n  {key}: 1.0\n")
            with pytest.raises(ConfigError, match=key):
                load_config(p, preset="rabi-ideal")

    def test_invalid_value_reported_with_block(self, tmp_path):
        p = write(tmp_path, "c.yaml",
                  FAST_RABI.replace("t_span_ms: 1.0", "t_span_ms: -1.0"))
        with pytest.raises(ConfigError, match="simulation"):
            load_config(p)

    def test_missing_detuning_rejected(self, tmp_path, capsys):
        # the probe loads unplaced; rabi, the one command that reads the
        # detuning, is the one that requires it
        p = write(tmp_path, "c.yaml", "microwave:\n  rabi_kHz: 2.0\n")
        assert load_config(p).probe.detuning_MHz is None
        out = tmp_path / "o"
        assert main(["rabi", "--config", str(p), "--out", str(out)]) == 2
        assert "probe.detuning_MHz is required" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_config(preset="nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.yaml")

    def test_directory_as_config_file_names_the_cause(self, tmp_path, capsys):
        # the path exists: "not found" would name the wrong cause
        with pytest.raises(ConfigError, match="is not a regular file"):
            load_config(tmp_path)
        out = tmp_path / "o"
        assert main(["rabi", "--preset", "rabi-ideal", "--config", str(tmp_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config file {tmp_path} is not a regular file" in err
        assert "not found" not in err
        assert not out.exists()


class TestCliRuns:
    def test_rabi_writes_schema_and_data(self, tmp_path, run_plot_script):
        cfg = write(tmp_path, "c.yaml", FAST_RABI.replace("plot_scripts: false",
                                                          "plot_scripts: true"))
        out = tmp_path / "out"
        assert main(["rabi", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "rabi_record.csv").read_text().splitlines()
        assert text[0] == SCHEMA_LINE
        assert text[1].split(",")[0] == "time_s"
        assert len(text) == 2 + 101  # header lines + samples
        run_plot_script(out / "plot_rabi.py", "rabi.png")

    def test_rabi_record_columns(self, tmp_path, monkeypatch):
        # one member: the rows are the record's own values, bit for bit
        written = {}
        monkeypatch.setattr(cli, "write_csv", lambda path, columns, data:
                            written.__setitem__(path.name, (columns, list(data))))
        cfg = write(tmp_path, "c.yaml", FAST_RABI.replace("t_span_ms: 1.0",
                                                          "t_span_ms: 0.1"))
        assert main(["rabi", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        columns, rows = written["rabi_record.csv"]
        assert columns == ["time_s", "signal_rad", "s3", "pop_F3", "pop_F4", "lost"]
        rec = run_simulation(cli.build_setup(load_config(cfg)))
        pops = rec.populations
        assert rows == list(zip(rec.times_ms * 1e-3, rec.signal_rad, rec.s3,
                                pops[:, F3_BLOCK].sum(axis=1),
                                pops[:, F4_BLOCK].sum(axis=1), rec.lost))
        t, sig, s3, p3, p4, lost = rows[0]
        assert len(rows) == 11 and t == 0.0
        assert p3 == pytest.approx(1.0)
        assert p3 + p4 + lost == pytest.approx(1.0, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path, "c.yaml", FAST_RABI)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["rabi", "--config", str(cfg), "--out", str(a),
                     "--seed", "7"]) == 0
        assert main(["rabi", "--config", str(cfg), "--out", str(b),
                     "--seed", "7"]) == 0
        assert (a / "rabi_record.csv").read_bytes() == \
            (b / "rabi_record.csv").read_bytes()

    def test_spectra_outputs(self, tmp_path):
        cfg = write(tmp_path, "c.yaml", FAST_SPECTRA)
        out = tmp_path / "out"
        assert main(["spectra", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("phase_spectrum.csv", "differential_shift.csv",
                     "magic_points.csv"):
            assert (out / name).read_text().startswith(SCHEMA_LINE)
        magic = np.genfromtxt(out / "magic_points.csv", delimiter=",",
                              names=True, skip_header=1)
        assert float(magic["detuning_MHz"]) == pytest.approx(-335.0, abs=5.0)

    def test_spectra_rows_match_per_point_calls(self, tmp_path, monkeypatch):
        # the grid starts within 0.2 Gamma of F=4 -> F'=3, so its first
        # point is dropped; every other row is one state_phase_table and
        # one differential_clock_shift call, bit for bit
        rows = {}
        monkeypatch.setattr(cli, "write_csv", lambda path, columns, data:
                            rows.__setitem__(path.name, list(data)))
        cfg = write(tmp_path, "c.yaml", FAST_SPECTRA.replace(
            "[-1100.0, -60.0]", "[-1168.5, -60.0]").replace("n_points: 21",
                                                            "n_points: 201"))
        assert main(["spectra", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        c = load_config(cfg)
        grid = np.linspace(-1168.5, -60.0, 201)[1:]
        assert [r[0] for r in rows["phase_spectrum.csv"]] == grid.tolist()
        assert [r[0] for r in rows["differential_shift.csv"]] == grid.tolist()
        for d, (_, up, down), (_, du) in zip(grid, rows["phase_spectrum.csv"],
                                             rows["differential_shift.csv"]):
            phases = state_phase_table(d, od=c.cloud.od_resonant)
            assert up == phases[IDX_UP] and down == phases[IDX_DOWN]
            assert du == differential_clock_shift(d, c.probe.polarization_angle_deg,
                                                  c.probe.irradiance_rel)

    def test_plot_scripts_emitted_when_enabled(self, tmp_path, run_plot_script):
        cfg = write(tmp_path, "c.yaml",
                    FAST_SPECTRA.replace("plot_scripts: false",
                                         "plot_scripts: true"))
        out = tmp_path / "out"
        assert main(["spectra", "--config", str(cfg), "--out", str(out)]) == 0
        run_plot_script(out / "plot_spectra.py", "spectra.png")

    def test_spectra_magic_search_at_extreme_irradiance(self, tmp_path):
        # dU is linear in the irradiance, so the roots do not depend on it;
        # at 1e300 I_sat the root numerator used to overflow to inf
        found = []
        for irradiance in ("1.0", "1.0e+300"):
            cfg = write(tmp_path, "c.yaml", FAST_SPECTRA
                        + f"probe:\n  irradiance_rel: {irradiance}\n")
            out = tmp_path / irradiance
            assert main(["spectra", "--config", str(cfg), "--out", str(out)]) == 0
            with open(out / "magic_points.csv", newline="") as fh:
                found.append([r["detuning_MHz"] for r in csv.DictReader(
                    line for line in fh if not line.startswith("#"))])
        assert len(found[0]) == 1 and found[0] == found[1]

    SMALL_CHEVRON = FAST_RABI + """\
sweep:
  window_MHz: [-700.0, -200.0]
  n_points: 3
  n_theta: 3
  theta_min_deg: 40.0
"""

    def test_chevron_small_grid(self, tmp_path):
        cfg = write(tmp_path, "c.yaml", self.SMALL_CHEVRON)
        out = tmp_path / "out"
        assert main(["chevron", "--config", str(cfg), "--out", str(out)]) == 0
        c = np.genfromtxt(out / "chevron.csv", delimiter=",", names=True,
                          skip_header=1)
        assert len(c) == 3
        assert np.all(c["rel_residual"] < 0.05)
        m = np.genfromtxt(out / "magic_vs_theta.csv", delimiter=",",
                          names=True, skip_header=1)
        assert np.all(m["found"] == 1)

    @pytest.mark.parametrize("value", ["2", "abc"])
    def test_sweep_ignores_workers_variable(self, tmp_path, monkeypatch, value):
        # the sweep runs in process: no fork, no check of the variable
        def no_fork():
            raise AssertionError("a process was forked")

        cfg = write(tmp_path, "c.yaml", self.SMALL_CHEVRON)
        ref, out = tmp_path / "ref", tmp_path / "out"
        monkeypatch.delenv("CLOCKPROBE_WORKERS", raising=False)
        assert main(["chevron", "--config", str(cfg), "--out", str(ref)]) == 0
        monkeypatch.setenv("CLOCKPROBE_WORKERS", value)
        monkeypatch.setattr(os, "fork", no_fork)
        assert main(["chevron", "--config", str(cfg), "--out", str(out)]) == 0
        files = sorted(p.name for p in ref.iterdir())
        assert sorted(p.name for p in out.iterdir()) == files
        for name in files:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_chevron_unresolved_clock_levels_are_error_rows(self, tmp_path):
        # at 0.02 G the probe's tensor shift mixes |4,0> with |4,+-2> at -450
        # and -200 MHz: no dressed level holds half of |4,0>, so the analytic
        # frequency has no meaning there (it used to be written, with no error)
        cfg = write(tmp_path, "c.yaml",
                    self.SMALL_CHEVRON + "cloud:\n  bias_field_G: 0.02\n")
        out = tmp_path / "out"
        assert main(["chevron", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "chevron.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
        assert "clock levels" not in rows[0]["error"]  # -700 MHz is resolved
        for row in rows[1:]:
            assert row["error"].startswith(
                "clock levels not resolved at cloud.bias_field_G = 0.02 G")
            assert math.isnan(float(row["omega_analytic_kHz"]))

    @staticmethod
    def _unmasked_chevron(tmp_path, window):
        cfg = write(tmp_path, "c.yaml", FAST_RABI.replace(
            "plot_scripts: false", "plot_scripts: true") + f"""\
sweep:
  window_MHz: {window}
  n_points: 2
  n_theta: 2
  mask_gamma: 0.0
""")
        out = tmp_path / "out"
        assert main(["chevron", "--config", str(cfg), "--out", str(out)]) == 0
        # csv, not np.genfromtxt: an error text may hold a quoted comma
        with open(out / "chevron.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
        assert [r["masked"] for r in rows] == ["0", "0"]
        return rows

    def test_chevron_error_row_near_resonance(self, tmp_path):
        # unmasked, the -0.1 MHz point fails alone; the sweep carries on
        rows = self._unmasked_chevron(tmp_path, [-700.0, -0.1])
        assert [float(r["detuning_MHz"]) for r in rows] == [-700.0, -0.1]
        assert rows[0]["error"] == "" and float(rows[0]["rel_residual"]) < 0.05
        assert "saturates the atoms" in rows[1]["error"]
        assert math.isnan(float(rows[1]["omega_kHz"]))
        assert math.isnan(float(rows[1]["omega_analytic_kHz"]))

    def test_chevron_fit_above_nyquist_is_an_error_row(self, tmp_path,
                                                       run_plot_script):
        # at -1000 MHz the record oscillates at 53.8 kHz, above the 50 kHz
        # Nyquist limit of dt_ms = 0.01: an error row, not the FFT guess
        rows = self._unmasked_chevron(tmp_path, [-1000.0, -0.1])
        assert rows[0]["error"] == \
            "fitted frequency 53.8079 kHz outside (0, Nyquist)"
        assert math.isnan(float(rows[0]["omega_kHz"]))
        assert "saturates the atoms" in rows[1]["error"]
        # the quoted comma of the first error must not break the plot script
        run_plot_script(tmp_path / "out" / "plot_chevron.py", "chevron.png")


class TestSweepRowsAreThePoints:
    """The chevron and measurement CSVs pass the sweep points through: each
    row is a direct call of chevron_point or measurement_figure, under the
    header of its named tuple's fields."""

    CASES = {
        "chevron": (None, ChevronPoint, "chevron.csv",
                    FAST_RABI + "sweep:\n  window_MHz: [-700.0, -200.0]\n"
                                "  n_points: 2\n  n_theta: 2\n"),
        "measurement": ("measurement", MeasurementFigure, "measurement.csv",
                        (
            "inhomogeneity:\n  n_samples: 2\nsweep:\n  window_MHz: [-345.0, -325.0]\n"
            "  n_points: 2\noutput:\n  plot_scripts: false\n")),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_rows_equal_direct_calls(self, tmp_path, command):
        preset, point_type, table, text = self.CASES[command]
        cfg_path, out = write(tmp_path, "c.yaml", text), tmp_path / "o"
        argv = [command, "--config", str(cfg_path), "--out", str(out)]
        assert main(argv + (["--preset", preset] if preset else [])) == 0
        with open(out / table, newline="") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        assert next(csv.reader(lines[:1])) == \
            ["detuning_MHz", *point_type._fields, "masked", "error"]
        rows = list(csv.DictReader(lines))

        cfg = load_config(cfg_path, preset=preset)
        setup = RunSetup(cfg.probe, cfg.microwave, cfg.cloud, cfg.simulation)
        point = (partial(chevron_point, setup, cfg.inhomogeneity) if command == "chevron"
                 else partial(measurement_figure, setup, cfg.inhomogeneity,
                              cfg.output.detection_efficiency))
        grid = np.linspace(*cfg.sweep.window_MHz, cfg.sweep.n_points).tolist()
        assert len(rows) == len(grid) == 2
        for det, row in zip(grid, rows):
            values = point(det)
            assert isinstance(values, point_type)
            assert row == {"detuning_MHz": cli._fmt(det),
                           **{k: cli._fmt(v) for k, v in values._asdict().items()},
                           "masked": "0", "error": ""}


@pytest.mark.parametrize("preset", ["rabi-ideal", "rabi-dephased", "chevron",
                                    "measurement"])
def test_presets_stay_far_detuned(preset):
    # the largest s_eff of any ensemble member at any unmasked point: 1.6e-4
    # for the rabi presets, 1.6e-3 for chevron (-100 MHz) and 4.0e-4 for
    # measurement (-60 MHz, its brightest member)
    cfg = load_config(preset=preset)
    setup = RunSetup(cfg.probe, cfg.microwave, cfg.cloud, cfg.simulation)
    if preset.startswith("rabi"):
        grid = [cfg.probe.detuning_MHz]
    else:
        grid = np.linspace(*cfg.sweep.window_MHz, cfg.sweep.n_points)
        grid = grid[resonance_distance(grid).min(axis=-1)
                    > cfg.sweep.mask_gamma * GAMMA_MHZ].tolist()
    inh = cfg.inhomogeneity
    spread = _stratified_factors(inh.probe_irradiance_rms_frac, inh.n_samples).max()
    probes = [operating_point(setup, det).probe for det in grid]
    s_eff = max(saturation(dataclasses.replace(p, irradiance_rel=p.irradiance_rel * spread))
                for p in probes)
    assert s_eff < 0.01


class TestSweepsPlaceEveryPoint:
    """The sweeps place each point's probe themselves.  chevron's entry in
    cli.READS keeps a probe.detuning_MHz that chevron does not read, so the
    key cannot fail it, even on the F=4 -> F'=4 resonance; spectra and
    measurement reject the key."""

    @staticmethod
    def _rows_at(tmp_path, command, detuning, extra):
        cfg = write(tmp_path, f"{detuning}.yaml",
                    f"probe:\n  detuning_MHz: {detuning}\n" + extra
                    + "output:\n  plot_scripts: false\n")
        out = tmp_path / detuning
        assert main([command, "--preset", command, "--config", str(cfg),
                     "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    @pytest.mark.parametrize("command,extra", [
        ("chevron", "sweep:\n  window_MHz: [-700.0, -200.0]\n  n_points: 2\n"
                    "  n_theta: 2\n"),
    ], ids=["chevron"])
    def test_on_resonance_probe_detuning_exits_0(self, tmp_path, command, extra):
        on_resonance = self._rows_at(tmp_path, command, "0.0", extra)
        table = on_resonance[f"{command}.csv"].decode().splitlines()
        assert [row.split(",")[-2:] for row in table[2:]] == [["0", ""]] * 2
        # the outputs do not depend on the unread detuning at all
        assert on_resonance == self._rows_at(tmp_path, command, "magic", extra)

    # spectra reads no inhomogeneity block
    SMALL_SWEEPS = {
        "spectra": "sweep:\n  window_MHz: [-345.0, -325.0]\n  n_points: 2\n"
                   "output:\n  plot_scripts: false\n",
        "measurement": "inhomogeneity:\n  n_samples: 2\n"
                       "sweep:\n  window_MHz: [-345.0, -325.0]\n  n_points: 2\n"
                       "output:\n  plot_scripts: false\n"}

    @pytest.mark.parametrize("command", ["spectra", "measurement"])
    @pytest.mark.parametrize("detuning", ["magic", "0.0", "-400.0"])
    def test_given_probe_detuning_exits_2(self, tmp_path, capsys, command, detuning):
        cfg = write(tmp_path, "c.yaml", f"probe:\n  detuning_MHz: {detuning}\n"
                    + self.SMALL_SWEEPS[command])
        out = tmp_path / "o"
        assert main([command, "--preset", command, "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert f"{command} does not read probe.detuning_MHz," in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,table", [
        ("spectra", "magic_points.csv"), ("measurement", "summary.csv")])
    def test_angle_without_magic_point_exits_0(self, tmp_path, command, table):
        # no differential-shift zero exists in the lower window at 10 deg;
        # the sweeps search none at load, and their tables report none
        cfg = write(tmp_path, "c.yaml", "probe:\n  polarization_angle_deg: 10.0\n"
                    + self.SMALL_SWEEPS[command])
        out = tmp_path / "o"
        assert main([command, "--preset", command, "--config", str(cfg),
                     "--out", str(out)]) == 0
        with open(out / table, newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        if command == "spectra":
            assert rows == []
        else:
            assert "magic_detuning_MHz" not in [r["quantity"] for r in rows]


class TestExitCodes:
    def test_bad_preset_exits_2(self, tmp_path):
        assert main(["rabi", "--preset", "nope",
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_exits_2_with_no_partial_files(self, tmp_path):
        cfg = write(tmp_path, "c.yaml",
                    FAST_RABI.replace("probe:\n", "probe:\n  colour: red\n"))
        out = tmp_path / "out"
        assert main(["rabi", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    def test_out_that_cannot_be_a_directory_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, below):
        # a file where the output directory would go: rejected before the
        # 46-point sweep, which would otherwise run in full and then fail
        from clockprobe import ensemble

        calls = []

        def run_simulation(setup):
            calls.append(setup)
            raise RuntimeError("the sweep ran")

        monkeypatch.setattr(ensemble, "run_simulation", run_simulation)
        taken = write(tmp_path, "taken", "")
        out = taken / below if below else taken
        assert main(["chevron", "--preset", "chevron", "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == ""

    def test_on_resonance_probe_exits_3(self, tmp_path):
        cfg = write(tmp_path, "c.yaml",
                    FAST_RABI.replace("detuning_MHz: -335.0",
                                      "detuning_MHz: -0.3"))
        assert main(["rabi", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3

    def test_saturating_probe_exits_3(self, tmp_path, capsys):
        # 0.22 Gamma from F=4 -> F'=4 at 16 I_sat: s_eff = 2.5, outside the
        # dispersive model, though beyond the 0.1 Gamma pole floor
        cfg = write(tmp_path, "c.yaml", "probe:\n  detuning_MHz: -1.0\n")
        out = tmp_path / "o"
        assert main(["rabi", "--preset", "rabi-ideal", "--config", str(cfg),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "physics error: probe detuning -1 MHz saturates the atoms (s_eff = 2.52 "
            "> 0.01 at 16 I_sat) near the F=4 -> F'=4 resonance at 0 MHz\n")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("state", ["bogus", "5,0"])
    def test_bad_initial_state_exits_2(self, tmp_path, state):
        cfg = write(tmp_path, "c.yaml",
                    FAST_RABI.replace("simulation:\n",
                                      f"simulation:\n  initial_state: '{state}'\n"))
        assert main(["rabi", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_record_larger_than_memory_exits_2(self, tmp_path, capsys):
        # 2e11 steps of 5 us: the trajectory alone would take 745 TiB
        cfg = write(tmp_path, "c.yaml", "simulation:\n  t_span_ms: 1000000000.0\n")
        out = tmp_path / "o"
        assert main(["rabi", "--preset", "rabi-ideal", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'simulation'" in err and "t_span_ms / dt_ms" in err
        assert "physical memory" in err
        assert not out.exists()

    def test_bias_field_beyond_linear_zeeman_range_exits_2(self, tmp_path, capsys):
        # 1e300 G used to reach the engine and exit 3 on a NaN generator
        cfg = write(tmp_path, "c.yaml", "cloud:\n  bias_field_G: 1.0e+300\n")
        out = tmp_path / "o"
        assert main(["rabi", "--preset", "rabi-ideal", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "cloud.bias_field_G" in capsys.readouterr().err
        assert not out.exists()

    def test_span_not_a_multiple_of_step_exits_2(self, tmp_path):
        with pytest.raises(ValueError, match="not a multiple"):
            SimulationConfig(t_span_ms=1.0, dt_ms=0.7)
        cfg = write(tmp_path, "c.yaml",
                    FAST_RABI.replace("dt_ms: 0.01", "dt_ms: 0.7"))
        out = tmp_path / "o"
        assert main(["rabi", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,preset",
                             [("spectra", "spectra"), ("chevron", "chevron"),
                              ("measurement", "measurement")])
    def test_window_spanning_resonance_exits_2_before_sweep(
            self, tmp_path, capsys, command, preset):
        cfg = write(tmp_path, "c.yaml", "sweep:\n  window_MHz: [-300, 100]\n")
        out = tmp_path / "o"
        assert main([command, "--preset", preset, "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "sweep.window_MHz" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_window_spanning_resonance_exits_2_for_rabi(self, tmp_path, capsys):
        # every value is checked at load before the keys a command reads, so
        # the window rule names the window; rabi sweeps nothing, so a window
        # clear of the resonances is rejected as a key rabi does not read
        out = tmp_path / "o"
        for window, message in (("[-300, 100]", "sweep.window_MHz"),
                                ("[-300, -100]", "rabi does not read sweep.window_MHz,")):
            cfg = write(tmp_path, "c.yaml", FAST_RABI + f"sweep:\n  window_MHz: {window}\n")
            assert main(["rabi", "--config", str(cfg), "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_spectra_grid_emptied_by_resonance_margin_exits_2(self, tmp_path, capsys):
        # all five points lie within 0.91 MHz of F=4 -> F'=3 at -1168 MHz;
        # the window check passes, since no resonance lies inside the
        # margin-shrunk window, and the grid filter then drops every point
        cfg = write(tmp_path, "c.yaml",
                    "sweep:\n  window_MHz: [-1168.5, -1167.5]\n  n_points: 5\n")
        out = tmp_path / "o"
        assert main(["spectra", "--preset", "spectra", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "sweep.window_MHz" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_invariant_violation_exits_3(self, tmp_path, monkeypatch):
        from clockprobe import dynamics

        def violate(*args, **kwargs):
            raise InvariantViolationError("positivity violated at t = 0.01 ms")

        monkeypatch.setattr(dynamics, "evolve", violate)
        cfg = write(tmp_path, "c.yaml", FAST_RABI)
        assert main(["rabi", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3

    def test_removed_key_exits_2(self, tmp_path):
        for block, key in (("output", "effective_atom_number"),
                           ("simulation", "seed")):
            cfg = write(tmp_path, "c.yaml",
                        FAST_RABI.replace(f"{block}:\n",
                                          f"{block}:\n  {key}: 1\n"))
            assert main(["rabi", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.yaml",
                    FAST_RABI.replace("  n_samples: 1\n",
                                      "  n_samples: 1\n  seed: -1\n"))
        out = tmp_path / "o"
        for argv in (["--preset", "rabi-dephased", "--seed", "-1"],
                     ["--config", str(cfg)]):
            assert main(["rabi", *argv, "--out", str(out)]) == 2
            assert "inhomogeneity" in capsys.readouterr().err
            assert not out.exists()

    def test_spread_with_nonpositive_member_exits_2(self, tmp_path, capsys):
        # at 0.6 rms and 16 members the lowest stratified probe factor is
        # 1 + 0.6 ndtri(1/32) = -0.118: rejected, not clipped to a small
        # positive irradiance
        cfg = write(tmp_path, "c.yaml", "inhomogeneity:\n"
                    "  probe_irradiance_rms_frac: 0.6\n"
                    "simulation:\n  t_span_ms: 0.5\n")
        out = tmp_path / "o"
        assert main(["rabi", "--preset", "rabi-dephased", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "inhomogeneity" in err and "probe_irradiance_rms_frac" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,preset,key", [
        ("spectra", "spectra", "n_points"), ("chevron", "chevron", "n_theta")])
    def test_grid_larger_than_memory_exits_2(self, tmp_path, capsys, command,
                                             preset, key):
        # 1e15 points: spectra's (n, 16) phase table alone would take 114 PiB
        cfg = write(tmp_path, "c.yaml", f"sweep:\n  {key}: 1000000000000000\n")
        out = tmp_path / "o"
        assert main([command, "--preset", preset, "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'sweep'" in err and f"{key} = 1000000000000000" in err
        assert "physical memory" in err
        assert not out.exists()

    @pytest.mark.parametrize("angles,key", [
        ("  theta_min_deg: 200.0\n  theta_max_deg: 400.0\n", "theta_min_deg"),
        ("  theta_max_deg: 180.0\n", "theta_max_deg"),
        ("  theta_min_deg: -10.0\n", "theta_min_deg"),
    ], ids=["200-400", "max-180", "min-negative"])
    def test_angle_outside_probe_range_exits_2(self, tmp_path, capsys, angles, key):
        # the same 0 <= theta < 180 deg that probe.polarization_angle_deg takes
        cfg = write(tmp_path, "c.yaml", "sweep:\n" + angles)
        out = tmp_path / "o"
        assert main(["chevron", "--preset", "chevron", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'sweep'" in err and key in err
        assert not out.exists()


class TestIllTypedConfig:
    @pytest.mark.parametrize("command,preset,key,value", [
        ("rabi", "rabi-ideal", "probe.polarization_angle_deg", "abc"),
        ("rabi", "rabi-ideal", "probe.polarization_angle_deg", "[1]"),
        ("spectra", "spectra", "sweep.window_MHz", "[a, 1]"),
        ("spectra", "spectra", "probe.detuning_MHz", "abc"),
        ("rabi", "rabi-ideal", "probe.detuning_MHz", "abc"),
        ("spectra", "spectra", "sweep.n_points", "2.5"),
        ("rabi", "rabi-ideal", "probe.irradiance_rel", "true"),
        ("rabi", "rabi-ideal", "probe.detuning_MHz", ".nan"),
        ("spectra", "spectra", "probe.detuning_MHz", ".nan"),
        ("rabi", "rabi-ideal", "probe.irradiance_rel", ".inf"),
        ("spectra", "spectra", "probe.detuning_MHz", ".inf"),
        ("spectra", "spectra", "sweep.window_MHz", "[-.inf, -60.0]"),
    ])
    def test_ill_typed_value_exits_2(self, tmp_path, capsys, command, preset,
                                     key, value):
        block, field = key.split(".")
        cfg = write(tmp_path, "c.yaml", f"{block}:\n  {field}: {value}\n")
        out = tmp_path / "o"
        assert main([command, "--preset", preset, "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_exponent_floats_load(self, tmp_path):
        # YAML 1.2 floats: YAML 1.1 needs a dot and a signed exponent
        p = write(tmp_path, "c.yaml",
                  FAST_RABI.replace("dt_ms: 0.01", "dt_ms: 5e-3").replace(
                      "irradiance_rel: 16.0", "irradiance_rel: 1.0e9"))
        cfg = load_config(p)
        assert cfg.simulation.dt_ms == 0.005
        assert type(cfg.probe.irradiance_rel) is float
        assert cfg.probe.irradiance_rel == 1e9

    def test_non_numeric_float_still_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.yaml", "simulation:\n  dt_ms: 5e-3ms\n")
        out = tmp_path / "o"
        assert main(["rabi", "--preset", "rabi-ideal", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "simulation.dt_ms" in capsys.readouterr().err
        assert not out.exists()

    def test_int_for_a_float_field_loads_as_given(self, tmp_path):
        p = write(tmp_path, "c.yaml", FAST_RABI.replace("rabi_kHz: 4.0",
                                                        "rabi_kHz: 4"))
        assert load_config(p).microwave.rabi_kHz == 4


class TestConfigFile:
    @pytest.mark.parametrize("text,key,line", [
        ("probe:\n  irradiance_rel: 5.0\nprobe:\n  polarization_angle_deg: 30.0\n",
         "probe", 3),
        ("probe:\n  irradiance_rel: 5.0\n  polarization_angle_deg: 30.0\n"
         "  irradiance_rel: 6.0\n", "irradiance_rel", 4),
    ], ids=["block", "key"])
    def test_duplicate_key_exits_2(self, tmp_path, capsys, text, key, line):
        # a second probe block would replace the first whole, so
        # irradiance_rel would silently come back as the preset's 16.0
        cfg = write(tmp_path, "c.yaml", text)
        out = tmp_path / "o"
        assert main(["rabi", "--preset", "rabi-ideal", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid YAML" in err and f"duplicate key '{key}'" in err
        assert f"line {line}," in err
        assert not out.exists()

    def test_merged_key_may_be_overridden(self, tmp_path):
        p = write(tmp_path, "c.yaml", "probe:\n"
                  "  <<: {detuning_MHz: -335.0, irradiance_rel: 5.0}\n"
                  "  irradiance_rel: 7.0\n")
        probe = load_config(p, preset="rabi-ideal").probe
        assert (probe.detuning_MHz, probe.irradiance_rel) == (-335.0, 7.0)

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_bytes(b"probe:\n  irradiance_rel: \xc3\x28\n")
        out = tmp_path / "o"
        assert main(["rabi", "--preset", "rabi-ideal", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: invalid YAML" in err
        assert not out.exists()

    def test_utf16_file_with_byte_order_mark_loads(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_bytes("probe:\n  irradiance_rel: 5.0\n".encode("utf-16"))
        assert load_config(p, preset="rabi-ideal").probe.irradiance_rel == 5.0


@pytest.mark.parametrize("error,code", [
    (ConfigError("bad key"), 2),
    (ResonanceProximityError(-0.1, 0.0, "F=4 -> F'=4"), 3),
    (InvariantViolationError("positivity violated"), 3),
    (NoBalanceError("phases share a sign"), 3),
    (UnresolvedClockLevelsError("no dressed level holds half of |4,0>"), 3),
    (FitFailureError("fit failed"), 4),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_exit_code_of_each_error_class(tmp_path, monkeypatch, error, code):
    def fail(cfg, out):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "rabi", fail)
    cfg = write(tmp_path, "c.yaml", FAST_RABI)
    assert main(["rabi", "--config", str(cfg), "--out", str(tmp_path)]) == code


def test_plain_value_error_gets_no_exit_code(tmp_path, monkeypatch):
    def fail(cfg, out):
        raise ValueError("a bug, not a physics-domain error")

    monkeypatch.setitem(cli._COMMANDS, "rabi", fail)
    cfg = write(tmp_path, "c.yaml", FAST_RABI)
    with pytest.raises(ValueError, match="a bug"):
        main(["rabi", "--config", str(cfg), "--out", str(tmp_path)])


# Exit-code fuzz: config trees that are valid, or valid but for one or two
# broken entries, run through main() in-process.  The valid trees hold the
# keys of the command's entry in cli.READS, drawn as in tests/test_config.py,
# except that a rabi record has at most 8 steps and 3 members.  The broken values include sizes far beyond any machine's
# memory, which must fail at load, but never a size near it.
_JUNK = st.sampled_from([
    math.nan, math.inf, -math.inf, -1.0, 0.0, 1e300, -1e300, 1e-300, -1, 0,
    10**15, -(10**15), True, None, "", "abc", "magic", "3,9", [1.0],
    [1.0, 2.0, 3.0], {"a": 1}])


@st.composite
def _short_simulations(draw):
    dt = draw(st.sampled_from([0.005, 0.01, 0.02]))
    return {**draw(VALID_BLOCKS["simulation"]), "t_span_ms": dt * draw(st.integers(1, 8)),
            "dt_ms": dt}


def _one_irradiance(tree):
    """``tree`` without the probe irradiance when it gives the scattering
    rate that recalibrates it: the two together exit 2."""
    if tree.get("simulation", {}).get("scattering_rate_per_ms") is not None:
        del tree["probe"]["irradiance_rel"]
    return tree


def _read_trees(command, **blocks):
    """Valid trees of exactly the keys that ``command`` reads (cli.READS),
    drawn from VALID_BLOCKS or from ``blocks``."""
    return st.fixed_dictionaries({
        block: blocks.get(block, VALID_BLOCKS[block]).map(
            lambda values, keys=keys: {k: values[k] for k in keys})
        for block, keys in cli.READS[command].items()}).map(_one_irradiance)


FUZZ_TREES = {
    "spectra": _read_trees("spectra"),
    "rabi": _read_trees("rabi", simulation=_short_simulations(),
                        inhomogeneity=st.fixed_dictionaries({
                            "probe_irradiance_rms_frac": st.floats(0.0, 0.2),
                            "mw_irradiance_rms_frac": st.floats(0.0, 0.05),
                            "n_samples": st.integers(1, 3)})),
}

# Each config key at its default value, which its type accepts.
DEFAULTS = {block: {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
                    for f in dataclasses.fields(cls)}
            for block, cls in _BLOCK_TYPES.items()}


def _unread_keys(command):
    """The (block, key) pairs outside ``command``'s entry in cli.READS, but
    for inhomogeneity.seed, which every command takes."""
    reads = cli.READS[command]
    return [(block, key) for block, values in DEFAULTS.items() for key in values
            if key not in reads.get(block, ()) and (block, key) != ("inhomogeneity", "seed")]


def _gives_unread_key(command, tree):
    reads = cli.READS[command]
    return any(key not in reads.get(block, ()) for block, values in tree.items()
               if isinstance(values, dict) for key in values)


@st.composite
def _broken(draw, command):
    """A valid tree of ``command`` with up to two entries broken: a junk value
    or block, an unknown key or block, a missing required key or a key
    outside the command's entry in cli.READS."""
    tree = draw(FUZZ_TREES[command])
    for _ in range(draw(st.integers(0, 2))):
        blocks = sorted(b for b, values in tree.items() if isinstance(values, dict)
                        and values)
        block = draw(st.sampled_from(blocks))
        how = draw(st.sampled_from(["junk", "junk", "junk", "junk block",
                                    "unknown key", "unknown block", "no detuning",
                                    "unread key"]))
        if how == "junk":
            key = draw(st.sampled_from(sorted(tree[block])))
            tree[block][key] = draw(_JUNK)
        elif how == "junk block":
            tree[block] = draw(_JUNK)
        elif how == "unknown key":
            tree[block]["bogus"] = 1.0
        elif how == "unknown block":
            tree["bogus"] = {}
        elif how == "unread key":
            block, key = draw(st.sampled_from(_unread_keys(command)))
            if isinstance(tree.setdefault(block, {}), dict):
                tree[block][key] = DEFAULTS[block][key]
        elif isinstance(tree["probe"], dict):
            tree["probe"].pop("detuning_MHz", None)
    return tree


class TestExitCodeFuzz:
    @staticmethod
    def _check_exit_code(command, tree):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.yaml"
            cfg.write_text(yaml.safe_dump(tree))
            code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        assert code == 2 if _gives_unread_key(command, tree) else code in (0, 2, 3, 4)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(tree=_broken("spectra"))
    def test_spectra_exits_with_a_contract_code(self, tree):
        self._check_exit_code("spectra", tree)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(tree=_broken("rabi"))
    def test_rabi_exits_with_a_contract_code(self, tree):
        self._check_exit_code("rabi", tree)

    def test_oversized_ensemble_exits_2_at_load(self, tmp_path, capsys):
        # 1e15 members: the factor arrays would need petabytes
        cfg = write(tmp_path, "c.yaml", FAST_RABI.replace(
            "  n_samples: 1\n", "  n_samples: 1000000000000000\n"))
        out = tmp_path / "o"
        assert main(["rabi", "--config", str(cfg), "--out", str(out)]) == 2
        assert "n_samples" in capsys.readouterr().err
        assert not out.exists()

    def test_magic_at_near_zero_angle_exits_2(self, tmp_path, capsys):
        # no root exists at theta -> 0; a subnormal weight used to end the
        # magic search in an uncaught LinAlgError
        cfg = write(tmp_path, "c.yaml", FAST_RABI.replace(
            "detuning_MHz: -335.0", "detuning_MHz: magic").replace(
            "polarization_angle_deg: 45.0", "polarization_angle_deg: 1.0e-158"))
        out = tmp_path / "o"
        assert main(["rabi", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no differential-shift zero" in capsys.readouterr().err
        assert not out.exists()


# The ratchet on cli.READS.  For each command, a small config that runs in
# a fraction of a second, and a new value for every key of the command's
# entry; each new value must change the command's output bytes.  With zero
# spreads a record is one evolution, not n_samples.
_SWEEP_CONTEXT = {
    "microwave": {"rabi_kHz": 8.0},
    "inhomogeneity": {"probe_irradiance_rms_frac": 0.0, "n_samples": 2},
    "simulation": {"t_span_ms": 0.5, "dt_ms": 0.01},
    "output": {"plot_scripts": False}}
# n_samples has an effect only with a spread: its change is made on top of one
_CHANGED_WITH = {"inhomogeneity.n_samples": ("inhomogeneity.probe_irradiance_rms_frac", 0.1)}
_RECORD_CHANGES = {
    "microwave.rabi_kHz": 7.0, "microwave.detuning_kHz": 1.0,
    "inhomogeneity.probe_irradiance_rms_frac": 0.1,
    "inhomogeneity.mw_irradiance_rms_frac": 0.05, "inhomogeneity.n_samples": 3,
    "simulation.extra_loss_per_ms": 0.5, "simulation.scattering_rate_per_ms": 1.0,
    "simulation.pumping": False, "simulation.initial_state": "4,0",
    "probe.irradiance_rel": 8.0, "probe.polarization_angle_deg": 40.0,
    "cloud.bias_field_G": 0.4, "output.plot_scripts": True}
# at 5 Gamma, -10 MHz is masked: one evaluated point, until mask_gamma drops
_SWEEP_CHANGES = {**_RECORD_CHANGES, "simulation.t_span_ms": 0.6,
                  "simulation.dt_ms": 0.005, "sweep.window_MHz": [-350.0, -10.0],
                  "sweep.n_points": 3, "sweep.mask_gamma": 1.0}
READ_CONTEXTS = {
    "spectra": (
        {"sweep": {"window_MHz": [-1100.0, -60.0], "n_points": 5},
         "output": {"plot_scripts": False}},
        {"probe.irradiance_rel": 8.0, "probe.polarization_angle_deg": 30.0,
         "cloud.od_resonant": 3.0, "sweep.window_MHz": [-1000.0, -60.0],
         "sweep.n_points": 6, "output.plot_scripts": True}),
    "rabi": (
        {**_SWEEP_CONTEXT, "probe": {"detuning_MHz": -335.0},
         "simulation": {"t_span_ms": 0.0002, "dt_ms": 0.0001}},
        {**_RECORD_CHANGES, "probe.detuning_MHz": -300.0, "cloud.od_resonant": 3.0,
         "simulation.t_span_ms": 0.0003, "simulation.dt_ms": 0.00005}),
    "chevron": (
        {**_SWEEP_CONTEXT, "sweep": {"window_MHz": [-345.0, -10.0], "n_points": 2,
                                     "n_theta": 2, "theta_min_deg": 40.0}},
        {**_SWEEP_CHANGES, "sweep.theta_min_deg": 30.0, "sweep.theta_max_deg": 80.0,
         "sweep.n_theta": 3}),
    "measurement": (
        {**_SWEEP_CONTEXT, "sweep": {"window_MHz": [-345.0, -10.0], "n_points": 2}},
        {**_SWEEP_CHANGES, "cloud.atom_number": 1e6, "cloud.cloud_radius_mm": 0.3,
         "cloud.od_resonant": 3.0, "cloud.probe_radius_mm": 1.0,
         "output.detection_efficiency": 0.5}),
}
# Keys in cli.READS that change no output, each with a new value.
UNREAD_ENTRIES = {"chevron": {"probe.detuning_MHz": 0.0}}


def _with(tree, key, value):
    block, name = key.split(".")
    tree = {b: dict(values) for b, values in tree.items()}
    tree.setdefault(block, {})[name] = value
    return tree


def _run(command, tree):
    """Exit code and output files ({name: bytes}, or None for no --out
    directory) of ``command`` on the config ``tree``."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.yaml", Path(tmp) / "o"
        cfg.write_text(yaml.safe_dump(tree))
        code = main([command, "--config", str(cfg), "--out", str(out)])
        return code, ({p.name: p.read_bytes() for p in out.iterdir()}
                      if out.exists() else None)


class TestEveryGivenKeyIsRead:
    @pytest.mark.parametrize("command", list(cli.READS))
    def test_contexts_change_every_key_of_the_entry(self, command):
        entry = {f"{block}.{key}" for block, keys in cli.READS[command].items()
                 for key in keys}
        changes = READ_CONTEXTS[command][1]
        assert sorted(changes) == sorted(entry - set(UNREAD_ENTRIES.get(command, {})))

    @pytest.mark.parametrize("command", list(cli.READS))
    def test_each_key_read_changes_the_outputs(self, command):
        context, changes = READ_CONTEXTS[command]
        code, reference = _run(command, context)
        assert code == 0 and reference
        unchanged = []
        for key, value in changes.items():
            base, ref = context, reference
            if key in _CHANGED_WITH:
                base = _with(context, *_CHANGED_WITH[key])
                code, ref = _run(command, base)
                assert code == 0 and ref != reference
            if _run(command, _with(base, key, value)) == (0, ref):
                unchanged.append(key)
        assert unchanged == []
        for key, value in UNREAD_ENTRIES.get(command, {}).items():
            assert _run(command, _with(context, key, value)) == (0, reference), key

    @pytest.mark.parametrize("command", list(cli.READS))
    def test_each_key_not_read_exits_2(self, capsys, monkeypatch, command):
        from clockprobe import ensemble

        calls = []
        monkeypatch.setattr(ensemble, "run_simulation", calls.append)
        context = READ_CONTEXTS[command][0]
        for block, key in _unread_keys(command):
            tree = _with(context, f"{block}.{key}", DEFAULTS[block][key])
            assert _run(command, tree) == (2, None), key
            assert f"{command} does not read {block}.{key}," in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", ["rabi", "chevron", "measurement"])
    def test_irradiance_with_scattering_rate_exits_2(self, capsys, monkeypatch,
                                                      command):
        # operating_point would overwrite the given irradiance
        from clockprobe import ensemble

        calls = []
        monkeypatch.setattr(ensemble, "run_simulation", calls.append)
        tree = _with(_with(READ_CONTEXTS[command][0], "probe.irradiance_rel", 8.0),
                     "simulation.scattering_rate_per_ms", 1.0)
        assert _run(command, tree) == (2, None)
        err = capsys.readouterr().err
        assert "probe.irradiance_rel is given with simulation.scattering_rate_per_ms" in err
        assert f"every {command} operating point" in err
        assert calls == []

    @pytest.mark.parametrize("preset", list(PRESETS))
    def test_each_preset_loads_under_its_command(self, preset):
        command = "rabi" if preset.startswith("rabi") else preset
        load_config(preset=preset, accept=partial(cli._check_given, command))


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
    def test_outputs_get_the_mode_of_a_plain_open(self, tmp_path, umask):
        # mkstemp creates its file 0o600, and the rename keeps the mode
        old = os.umask(umask)
        try:
            cli.write_csv(tmp_path / "a.csv", ["a"], [(1.0,)])
            cli._write_plot_script(tmp_path / "plot.py", "pass\n")
            open(tmp_path / "plain", "w").close()
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(["a.csv", "plot.py", "plain"], 0o666 & ~umask)

    @pytest.mark.parametrize("write_file", [
        lambda path: cli.write_csv(path, ["a"], [(1.0,)]),
        lambda path: cli._write_plot_script(path, "pass\n"),
    ], ids=["csv", "plot_script"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                              write_file):
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(cli.os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write_file(tmp_path / "out.txt")
        assert list(tmp_path.iterdir()) == []


def test_cli_import_skips_scipy_stats_and_signal():
    code = ("import sys, clockprobe.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.signal', "
            "'scipy.ndimage') "
            "if m in sys.modules))")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert res.stdout.strip() == "[]"


def test_help_describes_every_command(capsys, monkeypatch):
    # a wide terminal, so that no description wraps onto a second line
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    described = {}
    for line in capsys.readouterr().out.splitlines():
        name, _, text = line.strip().partition(" ")
        if name in cli._COMMANDS:
            described[name] = text.strip()
    assert described == {name: fn.__doc__ for name, fn in cli._COMMANDS.items()}
    assert all(described.values())
