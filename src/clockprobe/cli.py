"""Command-line front end: figure-reproduction subcommands emitting CSVs.

Subcommands::

    clockprobe spectra     phase spectra, differential shift, magic points
    clockprobe rabi        one (ensemble-averaged) Rabi record
    clockprobe chevron     Rabi frequency vs detuning + magic detuning vs angle
    clockprobe measurement tau_d / eta^2 / SNR sweep at constant scattering rate

All take ``--out DIR [--config FILE] [--preset NAME] [--seed N]``; the
config file is layered over the preset, ``--seed`` sets
``inhomogeneity.seed``, and the config file takes YAML 1.2 exponent
floats such as ``5e-3``.  ``rabi`` requires ``probe.detuning_MHz``;
``spectra`` and ``measurement`` reject it (exit 2), since they take every
probe detuning from the sweep grid; ``chevron`` accepts it unread.
Every output CSV starts with the schema line ``# clockprobe v1`` and is
written atomically (temp file + rename), so a failed run leaves no
partial files.  Exit codes: 0 success; only a ClockProbeError gets
another, 2 config error, 3 physics-domain error or 4 fit failure.  Config errors include a key written twice in one YAML
mapping, a config file that is not UTF-8 or UTF-16, and an ``--out`` whose
nearest existing path component is not a directory (checked before the
command runs).  The chevron and measurement sweeps run through
:func:`clockprobe.ensemble.sweep`, in process: a point that fails is an
error row, not a failed run.  Importing this module, before
numpy loads, sets ``OMP_NUM_THREADS`` and ``OPENBLAS_NUM_THREADS`` to 1
where they are unset, so BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads, and the last
# digits of the dynamics depend on it; one thread is also the faster
# setting for these 16-level runs.  A value the user has set wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from .atom import F3_BLOCK, F4_BLOCK, IDX_DOWN, IDX_UP
from .birefringence import state_phase_table
from .config import RunConfig, load_config
from .dynamics import RunSetup
from .ensemble import (
    ensemble_average,
    generalized_rabi_kHz,
    measurement_figure,
    operating_point,
    sweep,
)
from .errors import ClockProbeError, ConfigError, FitFailureError
from .fitting import rabi_frequency
from .lightshift import clear_of_resonances, differential_clock_shift, find_magic_detunings

__all__ = ["main"]

SCHEMA_LINE = "# clockprobe v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_FIT = 4


def _write_atomic(path: Path, write) -> None:
    """Call ``write(fh)`` on a temp file, then rename it to ``path``.

    On any failure the temp file is removed, so no partial output remains.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, columns: list[str], rows) -> None:
    """Atomic CSV write with the schema header line."""
    def write(fh):
        fh.write(SCHEMA_LINE + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    _write_atomic(path, write)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return v


_PLOT_HEADER = ("#!/usr/bin/env python3\n"
                '"""Standalone plot script; reads the CSVs next to it."""\n'
                "import numpy as np\n"
                "import matplotlib.pyplot as plt\n\n")


def _write_plot_script(path: Path, body: str) -> None:
    _write_atomic(path, lambda fh: fh.write(_PLOT_HEADER + body))


def build_setup(cfg: RunConfig) -> RunSetup:
    """The configured run: :func:`operating_point` at the probe detuning,
    which the config must give.

    When ``simulation.scattering_rate_per_ms`` is set, the probe irradiance
    is recalibrated to that rate, whether or not pumping is on.
    """
    if cfg.probe.detuning_MHz is None:
        raise ConfigError("probe.detuning_MHz is required (a number in MHz, or 'magic')")
    return operating_point(RunSetup(cfg.probe, cfg.microwave, cfg.cloud, cfg.simulation),
                           cfg.probe.detuning_MHz)


def _reject_detuning(cfg: RunConfig, command: str) -> None:
    """Raise :class:`ConfigError` when the config places the probe of a
    command that sets its detuning from the sweep grid alone."""
    if cfg.probe.detuning_MHz is not None:
        raise ConfigError(f"probe.detuning_MHz is not accepted by {command}, which "
                          "takes every probe detuning from the sweep grid; remove the key")


def _sweep_rows(point, grid: list[float], mask_gamma: float,
                n_values: int) -> list[tuple]:
    """``(detuning, *point(det), masked, error)`` for each :func:`sweep`
    outcome; a masked or failed point gets ``n_values`` NaNs."""
    nan = (math.nan,) * n_values
    return [(det, *(values or nan), int(masked), error)
            for det, (values, masked, error) in zip(grid, sweep(point, grid, mask_gamma))]


# ---------------------------------------------------------------- spectra


def cmd_spectra(cfg: RunConfig, out: Path) -> None:
    """Phase spectra, differential shift, magic points."""
    _reject_detuning(cfg, "spectra")
    sweep, probe = cfg.sweep, cfg.probe
    lo, hi = sweep.window_MHz
    points = find_magic_detunings(probe.polarization_angle_deg, (lo, hi),
                                  irradiance_rel=probe.irradiance_rel)
    grid = np.linspace(lo, hi, sweep.n_points)
    grid = grid[clear_of_resonances(grid)]
    if grid.size == 0:
        raise ConfigError(f"sweep.window_MHz: every grid point in ({lo}, {hi}) MHz "
                          "lies within 0.2 Gamma of a D1 resonance")
    phases = state_phase_table(grid, od=cfg.cloud.od_resonant)
    du = differential_clock_shift(grid, probe.polarization_angle_deg, probe.irradiance_rel)
    write_csv(out / "phase_spectrum.csv", ["detuning_MHz", "phi_up_rad", "phi_down_rad"],
              np.column_stack([grid, phases[:, [IDX_UP, IDX_DOWN]]]).tolist())
    write_csv(out / "differential_shift.csv", ["detuning_MHz", "delta_shift_kHz"],
              np.column_stack([grid, du]).tolist())
    write_csv(out / "magic_points.csv",
              ["polarization_angle_deg", "detuning_MHz", "residual_kHz"],
              [(p.polarization_angle_deg, p.detuning_MHz, p.residual_dU_kHz)
               for p in points])
    if cfg.output.plot_scripts:
        _write_plot_script(out / "plot_spectra.py", _SPECTRA_PLOT)


_SPECTRA_PLOT = """\
ph = np.genfromtxt("phase_spectrum.csv", delimiter=",", names=True, skip_header=1)
du = np.genfromtxt("differential_shift.csv", delimiter=",", names=True, skip_header=1)
fig, (a, b) = plt.subplots(2, 1, sharex=True)
a.plot(ph["detuning_MHz"], ph["phi_up_rad"], label="spin up")
a.plot(ph["detuning_MHz"], ph["phi_down_rad"], label="spin down")
a.set_ylabel("phase (rad)"); a.legend()
b.plot(du["detuning_MHz"], du["delta_shift_kHz"])
b.axhline(0, color="k", lw=0.5)
b.set_xlabel("probe detuning (MHz)"); b.set_ylabel("diff. shift (kHz)")
fig.savefig("spectra.png", dpi=150)
"""


# ------------------------------------------------------------------- rabi


def cmd_rabi(cfg: RunConfig, out: Path) -> None:
    """One (ensemble-averaged) Rabi record."""
    rec = ensemble_average(build_setup(cfg), cfg.inhomogeneity)
    pops = rec.populations
    write_csv(out / "rabi_record.csv",
              ["time_s", "signal_rad", "s3", "pop_F3", "pop_F4", "lost"],
              zip(rec.times_ms * 1e-3, rec.signal_rad, rec.s3,
                  pops[:, F3_BLOCK].sum(axis=1), pops[:, F4_BLOCK].sum(axis=1),
                  rec.lost))
    if cfg.output.plot_scripts:
        _write_plot_script(out / "plot_rabi.py", _RABI_PLOT)


_RABI_PLOT = """\
r = np.genfromtxt("rabi_record.csv", delimiter=",", names=True, skip_header=1)
fig, (a, b) = plt.subplots(2, 1, sharex=True)
a.plot(r["time_s"] * 1e3, r["signal_rad"] * 1e3)
a.set_ylabel("polarimeter signal (mrad)")
b.plot(r["time_s"] * 1e3, r["s3"], label="s3")
b.plot(r["time_s"] * 1e3, r["lost"], label="lost")
b.set_xlabel("time (ms)"); b.legend()
fig.savefig("rabi.png", dpi=150)
"""


# ---------------------------------------------------------------- chevron


def _chevron_point(setup: RunSetup, inhomog,
                   det: float) -> tuple[float, float, float]:
    """Simulated and analytic Rabi frequency (kHz) at one detuning, and
    their relative residual."""
    point = operating_point(setup, det)
    analytic = generalized_rabi_kHz(point)
    omega = rabi_frequency(ensemble_average(point, inhomog), freq_hint_kHz=analytic)
    return omega, analytic, abs(omega - analytic) / analytic


def cmd_chevron(cfg: RunConfig, out: Path) -> None:
    """Rabi frequency vs detuning + magic detuning vs angle."""
    sw = cfg.sweep
    lo, hi = sw.window_MHz
    thetas = np.linspace(sw.theta_min_deg, sw.theta_max_deg, sw.n_theta)
    theta_rows = []
    for th in thetas:
        pts = find_magic_detunings(float(th), (lo, hi),
                                   irradiance_rel=cfg.probe.irradiance_rel)
        if pts:
            theta_rows.append((float(th), pts[0].detuning_MHz, 1))
        else:
            theta_rows.append((float(th), math.nan, 0))

    # each sweep point places the probe itself; probe.detuning_MHz goes unread
    setup = RunSetup(cfg.probe, cfg.microwave, cfg.cloud, cfg.simulation)
    point = partial(_chevron_point, setup, cfg.inhomogeneity)
    write_csv(out / "chevron.csv",
              ["detuning_MHz", "omega_kHz", "omega_analytic_kHz",
               "rel_residual", "masked", "error"],
              _sweep_rows(point, np.linspace(lo, hi, sw.n_points).tolist(),
                          sw.mask_gamma, 3))
    write_csv(out / "magic_vs_theta.csv",
              ["polarization_angle_deg", "magic_detuning_MHz", "found"],
              theta_rows)
    if cfg.output.plot_scripts:
        _write_plot_script(out / "plot_chevron.py", _CHEVRON_PLOT)


_CHEVRON_PLOT = """\
# usecols: the error column's text may hold a quoted comma
c = np.genfromtxt("chevron.csv", delimiter=",", names=True, skip_header=1,
                  usecols=range(3))
m = np.genfromtxt("magic_vs_theta.csv", delimiter=",", names=True, skip_header=1)
fig, (a, b) = plt.subplots(1, 2, figsize=(9, 4))
a.plot(c["detuning_MHz"], c["omega_kHz"], "o", ms=3, label="simulated")
a.plot(c["detuning_MHz"], c["omega_analytic_kHz"], "-", label="sqrt(chi^2 + dU^2)")
a.set_xlabel("probe detuning (MHz)"); a.set_ylabel("Rabi frequency (kHz)")
a.set_yscale("log"); a.legend()
b.plot(m["polarization_angle_deg"], m["magic_detuning_MHz"], "s-")
b.set_xlabel("polarization angle (deg)"); b.set_ylabel("magic detuning (MHz)")
fig.tight_layout(); fig.savefig("chevron.png", dpi=150)
"""


# ------------------------------------------------------------ measurement


def _measurement_point(setup: RunSetup, inhomog, detection_efficiency: float,
                       det: float) -> tuple[float, ...]:
    """tau_d, Omega, eta, eta^2 and projection-noise SNR at one detuning."""
    f = measurement_figure(setup, inhomog, detection_efficiency, det)
    return f.tau_d_ms, f.omega_kHz, f.eta, f.eta_sq, f.pn_snr


_MEASUREMENT_COLUMNS = ["detuning_MHz", "tau_d_ms", "omega_kHz", "eta",
                        "eta_sq", "pn_snr", "masked", "error"]


def cmd_measurement(cfg: RunConfig, out: Path) -> None:
    """tau_d / eta^2 / SNR sweep at constant scattering rate."""
    _reject_detuning(cfg, "measurement")
    setup = RunSetup(cfg.probe, cfg.microwave, cfg.cloud, cfg.simulation)
    lo, hi = cfg.sweep.window_MHz
    magic = find_magic_detunings(cfg.probe.polarization_angle_deg, (lo, hi))
    grid = np.linspace(lo, hi, cfg.sweep.n_points).tolist()

    def run_sweep(setup: RunSetup) -> list[tuple]:
        point = partial(_measurement_point, setup, cfg.inhomogeneity,
                        cfg.output.detection_efficiency)
        return _sweep_rows(point, grid, cfg.sweep.mask_gamma, 5)

    rows = run_sweep(setup)
    write_csv(out / "measurement.csv", _MEASUREMENT_COLUMNS, rows)
    if cfg.simulation.extra_loss_per_ms > 0:
        write_csv(out / "measurement_no_loss.csv", _MEASUREMENT_COLUMNS,
                  run_sweep(replace(setup, simulation=replace(
                      setup.simulation, extra_loss_per_ms=0.0))))

    ok = [row for row in rows if not row[-2] and not row[-1]]  # not masked, no error
    summary_rows = []
    if magic:
        summary_rows.append(("magic_detuning_MHz", magic[0].detuning_MHz))
    if ok:
        det_tau, tau_peak, *_ = max(ok, key=lambda row: row[1])
        det_eta, _, _, _, eta_sq_peak, pn_peak, _, _ = max(ok, key=lambda row: row[4])
        # extrapolation to OD = 1e3 at fixed geometry: atom number and
        # phase both scale with OD, so the SNR scales as sqrt(OD)
        ratio = math.sqrt(1e3 / cfg.cloud.od_resonant)
        summary_rows += [
            ("tau_d_peak_detuning_MHz", det_tau),
            ("tau_d_peak_ms", tau_peak),
            ("eta_sq_peak_detuning_MHz", det_eta),
            ("eta_sq_peak", eta_sq_peak),
            ("pn_snr_at_eta_sq_peak", pn_peak),
            ("pn_snr_od_1000", pn_peak * ratio),
            ("pn_snr_ratio_od_1000", ratio),
        ]
    write_csv(out / "summary.csv", ["quantity", "value"], summary_rows)
    if cfg.output.plot_scripts:
        _write_plot_script(out / "plot_measurement.py", _MEASUREMENT_PLOT)


_MEASUREMENT_PLOT = """\
# usecols: the error column's text may hold a quoted comma
m = np.genfromtxt("measurement.csv", delimiter=",", names=True, skip_header=1,
                  usecols=range(5))
fig, (a, b) = plt.subplots(2, 1, sharex=True)
a.plot(m["detuning_MHz"], m["tau_d_ms"], "o-", ms=3)
a.set_ylabel("tau_d (ms)")
b.plot(m["detuning_MHz"], m["eta_sq"], "o-", ms=3)
b.set_xlabel("probe detuning (MHz)"); b.set_ylabel("eta^2"); b.set_yscale("log")
try:
    n = np.genfromtxt("measurement_no_loss.csv", delimiter=",", names=True,
                      skip_header=1, usecols=range(5))
    a.plot(n["detuning_MHz"], n["tau_d_ms"], "--")
    b.plot(n["detuning_MHz"], n["eta_sq"], "--")
except OSError:
    pass
fig.savefig("measurement.png", dpi=150)
"""


# ------------------------------------------------------------------- main


_COMMANDS = {
    "spectra": cmd_spectra,
    "rabi": cmd_rabi,
    "chevron": cmd_chevron,
    "measurement": cmd_measurement,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clockprobe",
        description="Continuous polarization probe of the Cs clock pseudo-spin",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", type=Path, default=None,
                       help="YAML config file (layered over the preset)")
        p.add_argument("--out", type=Path, required=True,
                       help="output directory for CSVs and plot scripts")
        p.add_argument("--seed", type=int, default=None,
                       help="override inhomogeneity.seed")
        p.add_argument("--preset", default=None,
                       help="named preset providing a complete operating point")
    return parser


def _check_out_dir(out: Path) -> None:
    """Raise :class:`ConfigError` when ``out`` cannot become a directory: its
    nearest existing path component is not one.  Creates nothing."""
    nearest = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not nearest.is_dir():
        raise ConfigError(f"--out {out}: {nearest} exists and is not a directory")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out_dir(args.out)
        cfg = load_config(args.config, preset=args.preset, seed=args.seed)
        _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitFailureError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return EXIT_FIT
    except ClockProbeError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
