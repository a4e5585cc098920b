"""Command-line front end: figure-reproduction subcommands emitting CSVs.

Subcommands::

    clockprobe spectra     phase spectra, differential shift, magic points
    clockprobe rabi        one (ensemble-averaged) Rabi record
    clockprobe chevron     Rabi frequency vs detuning + magic detuning vs angle
    clockprobe measurement tau_d / eta^2 / SNR sweep at constant scattering rate

All take ``--out DIR [--config FILE] [--preset NAME] [--seed N]``; the
config file is layered over the preset, ``--seed`` sets
``inhomogeneity.seed``, and the config file takes YAML 1.2 exponent
floats such as ``5e-3``.  :data:`READS` lists the config keys each command
reads; a key that the preset or the file gives outside that entry, or a
``probe.irradiance_rel`` given with the ``simulation.scattering_rate_per_ms``
that replaces it, is a config error (exit 2).  ``rabi`` requires
``probe.detuning_MHz``; the sweeps place every probe themselves.
Every output CSV starts with the schema line ``# clockprobe v1`` and is
written atomically (temp file + rename), so a failed run leaves no
partial files; each output gets the mode a plain ``open`` would give it.
Exit codes: 0 success; only a ClockProbeError gets another, 2 config
error, 3 physics-domain error or 4 fit failure.  Config errors include a
key written twice in one YAML mapping, a ``--config`` path that is not a
regular file or not UTF-8 or UTF-16, and an ``--out`` whose nearest
existing path component is not a directory (checked before the command
runs).  The chevron and measurement sweeps run through
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
    ChevronPoint,
    MeasurementFigure,
    chevron_point,
    ensemble_average,
    measurement_figure,
    operating_point,
    sweep,
)
from .errors import ClockProbeError, ConfigError, FitFailureError
from .lightshift import clear_of_resonances, differential_clock_shift, find_magic_detunings

__all__ = ["main"]

SCHEMA_LINE = "# clockprobe v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_FIT = 4


def _write_atomic(path: Path, write) -> None:
    """Call ``write(fh)`` on a temp file, then rename it to ``path``.

    The file gets the mode a plain ``open`` would give it, 0o666 less the
    umask.  On any failure the temp file is removed, so no partial output
    remains.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    umask = os.umask(0)  # os.umask sets the mask and returns the old one
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates the file 0o600
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
    return f"{v:.12g}" if isinstance(v, float) else v


_PLOT_HEADER = ("#!/usr/bin/env python3\n"
                '"""Standalone plot script; reads the CSVs next to it."""\n'
                "import numpy as np\n"
                "import matplotlib.pyplot as plt\n\n")


def _write_plot_script(path: Path, body: str) -> None:
    _write_atomic(path, lambda fh: fh.write(_PLOT_HEADER + body))


# The config keys each command reads, block -> keys.  A key that the preset
# or the config file gives outside its command's entry is a config error
# (exit 2) at load, before anything is computed or written.  Every command
# also takes inhomogeneity.seed, as it takes --seed, though the seed has an
# effect only when both irradiance spreads are nonzero and n_samples > 1.
_PROBE = ("irradiance_rel", "polarization_angle_deg")
_RECORD = {  # what one ensemble-averaged record reads besides the probe and cloud
    "microwave": ("rabi_kHz", "detuning_kHz"),
    "inhomogeneity": ("probe_irradiance_rms_frac", "mw_irradiance_rms_frac", "n_samples"),
    "simulation": ("t_span_ms", "dt_ms", "extra_loss_per_ms", "scattering_rate_per_ms",
                   "pumping", "initial_state"),
}
READS = {
    "spectra": {"probe": _PROBE, "cloud": ("od_resonant",),
                "sweep": ("window_MHz", "n_points"), "output": ("plot_scripts",)},
    "rabi": {"probe": ("detuning_MHz", *_PROBE), "cloud": ("od_resonant", "bias_field_G"),
             **_RECORD, "output": ("plot_scripts",)},
    "chevron": {
        # chevron places each point's probe itself and does not read
        # detuning_MHz.  It still takes the key: the chevron preset's "magic",
        # resolved at load, is one of the n_theta + 1 magic searches that the
        # chevron-scan benchmark workload counts.
        "probe": ("detuning_MHz", *_PROBE), "cloud": ("bias_field_G",), **_RECORD,
        "sweep": ("window_MHz", "n_points", "theta_min_deg", "theta_max_deg", "n_theta",
                  "mask_gamma"),
        "output": ("plot_scripts",)},
    "measurement": {
        "probe": _PROBE,
        "cloud": ("atom_number", "cloud_radius_mm", "od_resonant", "probe_radius_mm",
                  "bias_field_G"),
        **_RECORD,
        "sweep": ("window_MHz", "n_points", "mask_gamma"),
        "output": ("plot_scripts", "detection_efficiency")},
}


def _check_given(command: str, given: dict[str, dict]) -> None:
    """Raise :class:`ConfigError` for a given key that ``command`` does not
    read, and for a probe irradiance given with the scattering rate that
    replaces it."""
    reads = READS[command]
    unread = [f"{block}.{key}" for block, values in given.items() for key in values
              if key not in reads.get(block, ()) and (block, key) != ("inhomogeneity", "seed")]
    if unread:
        raise ConfigError(f"{command} does not read {', '.join(unread)}, which the "
                          "preset or the config file gives")
    if ("irradiance_rel" in given.get("probe", {})
            and given.get("simulation", {}).get("scattering_rate_per_ms") is not None):
        raise ConfigError("probe.irradiance_rel is given with "
                          "simulation.scattering_rate_per_ms, which recalibrates the probe "
                          f"irradiance at every {command} operating point; give one of them")


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


def _write_sweep(path: Path, point, point_type, grid: list[float],
                 mask_gamma: float) -> list[tuple]:
    """Write ``(detuning, *point(det), masked, error)`` per :func:`sweep`
    outcome under the fields of ``point_type``, the ``NamedTuple`` that
    ``point`` returns, with NaNs for a masked or failed point; return
    ``(detuning, point(det))`` for the other points."""
    outcomes = list(zip(grid, sweep(point, grid, mask_gamma)))
    nan = (math.nan,) * len(point_type._fields)
    write_csv(path, ["detuning_MHz", *point_type._fields, "masked", "error"],
              [(det, *(values or nan), int(masked), error)
               for det, (values, masked, error) in outcomes])
    return [(det, values) for det, (values, _, _) in outcomes if values is not None]


# ---------------------------------------------------------------- spectra


def cmd_spectra(cfg: RunConfig, out: Path) -> None:
    """Phase spectra, differential shift, magic points."""
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


def cmd_chevron(cfg: RunConfig, out: Path) -> None:
    """Rabi frequency vs detuning + magic detuning vs angle."""
    sw = cfg.sweep
    lo, hi = sw.window_MHz
    theta_rows = []
    for th in np.linspace(sw.theta_min_deg, sw.theta_max_deg, sw.n_theta).tolist():
        pts = find_magic_detunings(th, (lo, hi), irradiance_rel=cfg.probe.irradiance_rel)
        theta_rows.append((th, pts[0].detuning_MHz, 1) if pts else (th, math.nan, 0))

    setup = RunSetup(cfg.probe, cfg.microwave, cfg.cloud, cfg.simulation)
    _write_sweep(out / "chevron.csv", partial(chevron_point, setup, cfg.inhomogeneity),
                 ChevronPoint, np.linspace(lo, hi, sw.n_points).tolist(), sw.mask_gamma)
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


def cmd_measurement(cfg: RunConfig, out: Path) -> None:
    """tau_d / eta^2 / SNR sweep at constant scattering rate."""
    setup = RunSetup(cfg.probe, cfg.microwave, cfg.cloud, cfg.simulation)
    lo, hi = cfg.sweep.window_MHz
    magic = find_magic_detunings(cfg.probe.polarization_angle_deg, (lo, hi))
    grid = np.linspace(lo, hi, cfg.sweep.n_points).tolist()

    def run_sweep(name: str, setup: RunSetup) -> list[tuple]:
        figure = partial(measurement_figure, setup, cfg.inhomogeneity,
                         cfg.output.detection_efficiency)
        return _write_sweep(out / name, figure, MeasurementFigure, grid, cfg.sweep.mask_gamma)

    ok = run_sweep("measurement.csv", setup)  # neither masked nor failed
    if cfg.simulation.extra_loss_per_ms > 0:
        run_sweep("measurement_no_loss.csv", replace(setup, simulation=replace(
            setup.simulation, extra_loss_per_ms=0.0)))

    summary_rows = []
    if magic:
        summary_rows.append(("magic_detuning_MHz", magic[0].detuning_MHz))
    if ok:
        det_tau, at_tau = max(ok, key=lambda point: point[1].tau_d_ms)
        det_eta, at_eta = max(ok, key=lambda point: point[1].eta_sq)
        # extrapolation to OD = 1e3 at fixed geometry: atom number and
        # phase both scale with OD, so the SNR scales as sqrt(OD)
        ratio = math.sqrt(1e3 / cfg.cloud.od_resonant)
        summary_rows += [
            ("tau_d_peak_detuning_MHz", det_tau),
            ("tau_d_peak_ms", at_tau.tau_d_ms),
            ("eta_sq_peak_detuning_MHz", det_eta),
            ("eta_sq_peak", at_eta.eta_sq),
            ("pn_snr_at_eta_sq_peak", at_eta.pn_snr),
            ("pn_snr_od_1000", at_eta.pn_snr * ratio),
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
        cfg = load_config(args.config, preset=args.preset, seed=args.seed,
                          accept=partial(_check_given, args.command))
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
