"""The benchmark's clockprobe CLI workloads.

Each workload is one CLI subcommand on a named preset, with a detuning
grid that the benchmark seed shifts by a few MHz.  BENCHMARK.json gates
on measurement-sweep and chevron-scan; spectra-fine runs the same way but
is too noisy on a shared machine to gate on (see README.md).  This module writes the
seeded YAML config and checks a run's CSVs.  It imports nothing from
clockprobe or numpy, so the benchmark process itself stays light.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The single lower-window magic detuning at 45 deg (acceptance 01 keeps it
# strict: exactly one root exists there).
MAGIC_45_MHZ = -334.95
MAGIC_TOL_MHZ = 0.01
# magic_vs_theta.csv has no root for theta <= 22.5 deg: none exists there.
NO_ROOT_MAX_THETA_DEG = 22.5
CHEVRON_MAX_REL_RESIDUAL = 0.02
# pn SNR scales as sqrt(OD); the measurement preset's OD is 2.5.
PN_SNR_RATIO_OD_1000 = 20.0
PN_SNR_RATIO_TOL = 0.5
# The seed shifts the whole detuning grid by up to this much.
MAX_GRID_OFFSET_MHZ = 5.0

# Tolerance of the comparison against the seed-0 reference outputs.  Not
# byte equality: a faster engine may change the last printed digit.
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-9
# find_magic_detunings promises a residual below 1 Hz, not a fixed value.
REFERENCE_ATOL_BY_COLUMN = {"residual_kHz": 1e-3}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    preset: str
    window_MHz: tuple[float, float]
    n_points: int
    sweeps: int  # detuning sweeps per run (measurement runs a no-loss one too)
    n_theta: int  # magic searches over polarization angle (chevron only)
    members: int  # ensemble members per evolution point
    csvs: tuple[str, ...]

    def config_yaml(self, seed: int) -> str:
        """Preset override: the seeded detuning grid, nothing else."""
        offset = random.Random(seed).uniform(-MAX_GRID_OFFSET_MHZ,
                                             MAX_GRID_OFFSET_MHZ)
        lo, hi = (w + offset for w in self.window_MHz)
        return (f"sweep:\n  window_MHz: [{lo!r}, {hi!r}]\n"
                f"  n_points: {self.n_points}\n")

    def cli_args(self, config: Path, out: Path, seed: int) -> list[str]:
        return [self.command, "--preset", self.preset, "--config", str(config),
                "--out", str(out), "--seed", str(seed % 2**31)]

    @property
    def nominal_points(self) -> int:
        return self.sweeps * self.n_points + self.n_theta


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="measurement-sweep", command="measurement", preset="measurement",
        window_MHz=(-395.0, -275.0), n_points=3, sweeps=2, n_theta=0,
        members=16,
        csvs=("measurement.csv", "measurement_no_loss.csv", "summary.csv")),
    Workload(
        name="chevron-scan", command="chevron", preset="chevron",
        window_MHz=(-1000.0, -100.0), n_points=46, sweeps=1, n_theta=13,
        members=1,
        csvs=("chevron.csv", "magic_vs_theta.csv")),
    Workload(
        name="spectra-fine", command="spectra", preset="spectra",
        window_MHz=(-1100.0, -60.0), n_points=2001, sweeps=1, n_theta=0,
        members=0,
        csvs=("phase_spectrum.csv", "differential_shift.csv",
              "magic_points.csv")),
)}


# ------------------------------------------------------------------ CSVs


def read_csv(path: Path) -> list[dict[str, str]]:
    """Rows of a clockprobe CSV, skipping the '#' schema line."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


@dataclass
class Outcome:
    """What one CLI run produced: sweep points and failed checks."""

    attempted: int
    fitted: int  # points whose record was fitted (for fits per point)
    problems: list[str]

    @property
    def failed(self) -> int:
        return self.attempted if self.problems else 0


def check_run(workload: Workload, out: Path, returncode: int,
              reference: Path | None) -> Outcome:
    """Check one run's CSVs; any problem fails every point of the run.

    ``reference`` is the directory of reference CSVs at the reference
    seed, None at any other seed.
    """
    problems: list[str] = []
    fitted = 0
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    try:
        tables = {n: read_csv(out / n) for n in workload.csvs}
        attempted, fitted = _CHECKS[workload.name](tables, problems)
        if attempted != workload.nominal_points:
            problems.append(f"{attempted} sweep points, expected "
                            f"{workload.nominal_points}")
        if reference is not None:
            for name in workload.csvs:
                problems += compare_to_reference(reference / name, out / name)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable outputs: {exc!r}")
    return Outcome(workload.nominal_points, fitted, problems)


def _check_magic(detuning: float, where: str, problems: list[str]) -> None:
    if not abs(detuning - MAGIC_45_MHZ) <= MAGIC_TOL_MHZ:
        problems.append(f"{where}: magic detuning {detuning} MHz, expected "
                        f"{MAGIC_45_MHZ} +/- {MAGIC_TOL_MHZ}")


def _unmasked(rows: list[dict[str, str]], where: str,
              problems: list[str]) -> list[dict[str, str]]:
    live = [r for r in rows if r["masked"] == "0"]
    for r in live:
        if r["error"]:
            problems.append(f"{where}: {r['detuning_MHz']} MHz: {r['error']}")
    return live


def _check_measurement(tables, problems):
    summary = {r["quantity"]: _num(r["value"]) for r in tables["summary.csv"]}
    magic = summary.get("magic_detuning_MHz", math.nan)
    _check_magic(magic, "summary.csv", problems)
    ratio = summary.get("pn_snr_ratio_od_1000", math.nan)
    if not abs(ratio - PN_SNR_RATIO_OD_1000) <= PN_SNR_RATIO_TOL:
        problems.append(f"pn_snr_ratio_od_1000 = {ratio}, expected "
                        f"{PN_SNR_RATIO_OD_1000} +/- {PN_SNR_RATIO_TOL}")
    attempted = fitted = 0
    for name in ("measurement.csv", "measurement_no_loss.csv"):
        live = _unmasked(tables[name], name, problems)
        attempted += len(live)
        ok = [r for r in live if not r["error"]]
        fitted += len(ok)
        if not ok:
            problems.append(f"{name}: no fitted point")
            continue
        for r in ok:
            eta, eta_sq = _num(r["eta"]), _num(r["eta_sq"])
            if not math.isclose(eta_sq, eta * eta, rel_tol=1e-9):
                problems.append(f"{name}: eta_sq {eta_sq} != eta^2 {eta * eta}")
        nearest = min(ok, key=lambda r: abs(_num(r["detuning_MHz"]) - magic))
        for column in ("tau_d_ms", "eta_sq"):
            peak = max(ok, key=lambda r: _num(r[column]))
            if peak is not nearest:
                problems.append(
                    f"{name}: {column} peaks at {peak['detuning_MHz']} MHz, "
                    f"not at {nearest['detuning_MHz']} MHz nearest magic")
    return attempted, fitted


def _check_chevron(tables, problems):
    live = _unmasked(tables["chevron.csv"], "chevron.csv", problems)
    fitted = 0
    for r in live:
        rel = _num(r["rel_residual"])
        if not rel <= CHEVRON_MAX_REL_RESIDUAL:
            problems.append(f"chevron.csv: {r['detuning_MHz']} MHz: "
                            f"rel_residual {rel} > {CHEVRON_MAX_REL_RESIDUAL}")
        if not r["error"]:
            fitted += 1
    thetas = tables["magic_vs_theta.csv"]
    for r in thetas:
        theta = _num(r["polarization_angle_deg"])
        if r["found"] == "0" and theta > NO_ROOT_MAX_THETA_DEG:
            problems.append(f"magic_vs_theta.csv: no root at {theta} deg")
        if theta == 45.0:
            _check_magic(_num(r["magic_detuning_MHz"]), "magic_vs_theta.csv",
                         problems)
    if not any(_num(r["polarization_angle_deg"]) == 45.0 for r in thetas):
        problems.append("magic_vs_theta.csv: no row at 45 deg")
    return len(live) + len(thetas), fitted


def _check_spectra(tables, problems):
    phases = tables["phase_spectrum.csv"]
    shifts = tables["differential_shift.csv"]
    if [r["detuning_MHz"] for r in phases] != [r["detuning_MHz"] for r in shifts]:
        problems.append("phase_spectrum.csv and differential_shift.csv grids differ")
    for r in phases:
        if not all(math.isfinite(_num(v)) for v in r.values()):
            problems.append(f"phase_spectrum.csv: non-finite row {r}")
            break
    roots = [r for r in tables["magic_points.csv"]
             if _num(r["polarization_angle_deg"]) == 45.0]
    if len(roots) != 1:
        problems.append(f"magic_points.csv: {len(roots)} roots at 45 deg, "
                        "expected exactly 1")
    for r in roots:
        _check_magic(_num(r["detuning_MHz"]), "magic_points.csv", problems)
    return len(phases), 0


_CHECKS = {
    "measurement-sweep": _check_measurement,
    "chevron-scan": _check_chevron,
    "spectra-fine": _check_spectra,
}


def compare_to_reference(ref_path: Path, out_path: Path) -> list[str]:
    """Cell-by-cell comparison within the recorded tolerance."""
    ref, got = read_csv(ref_path), read_csv(out_path)
    name = out_path.name
    if len(ref) != len(got) or (ref and list(ref[0]) != list(got[0])):
        return [f"{name}: shape or columns differ from the reference"]
    problems = []
    for i, (a, b) in enumerate(zip(ref, got)):
        for column, want in a.items():
            have = b[column]
            try:
                x, y = float(want), float(have)
            except ValueError:
                same = want == have
            else:
                atol = REFERENCE_ATOL_BY_COLUMN.get(column, REFERENCE_ATOL)
                same = (math.isnan(x) and math.isnan(y)) or math.isclose(
                    x, y, rel_tol=REFERENCE_RTOL, abs_tol=atol)
            if not same:
                problems.append(f"{name} row {i} {column}: {have} differs "
                                f"from reference {want}")
                if len(problems) >= 5:
                    return problems
    return problems
