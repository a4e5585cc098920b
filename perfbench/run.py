#!/usr/bin/env python3
"""Benchmark for the clockprobe CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--results FILE]
    python3 perfbench/run.py --workload NAME --write-reference

Each run of the CLI is a fresh process, started only after the previous
one exits (a closed loop with one client).  Every child runs against
``src/`` through PYTHONPATH with BLAS pinned to one thread and
``CLOCKPROBE_WORKERS=1``.  The seed generates the run's YAML config and
its ``--seed``; the CLI sees nothing else.  Every run's CSVs are checked.

``--trace 0`` reports the end-to-end metrics: medians of CLI wall time
and peak RSS, of set-up time (fresh process: import plus config load)
and sweep points per second of compute.  ``--trace 1`` alternates plain
and traced runs (see tracer.py) and reports per-layer metrics.  The last
line of standard output is one JSON object; ``--results`` also appends
it, with the workload, seed and machine record, to a JSON-lines file
that compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from workloads import REFERENCE_SEED, WORKLOADS, Workload, check_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"

CHILD_TIMEOUT_S = 150.0
# Fewest set-up probes per untraced run, for a median.
SETUP_PROBES = 3

SETUP_SNIPPET = (
    "import sys, clockprobe.cli; "
    "clockprobe.config.load_config(sys.argv[1], preset=sys.argv[2])"
)
MACHINE_SNIPPET = """\
import json, sys, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas.get('version', '')}".strip()
except Exception as exc:
    blas = f"unknown ({exc})"
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""

# Per-layer metrics: (name, span name, quantity, unit).  "s" is inclusive
# time, "self_s" excludes traced children, "value" sums the span's value.
SPAN_METRICS = (
    ("dynamics.expm.s", "dynamics.expm", "s", "s"),
    ("dynamics.expm.calls", "dynamics.expm", "calls", "count"),
    ("dynamics.evolve.calls", "dynamics.evolve", "calls", "count"),
    ("dynamics.evolve.self_s", "dynamics.evolve", "self_s", "s"),
    ("dynamics.evolve.steps", "dynamics.evolve", "value", "count"),
    ("dynamics.run_simulation.calls", "dynamics.run_simulation", "calls", "count"),
    ("dynamics.run_simulation.self_s", "dynamics.run_simulation", "self_s", "s"),
    ("ensemble.ensemble_average.self_s", "ensemble.ensemble_average", "self_s",
     "s"),
    ("lightshift.find_magic_detunings.s", "lightshift.find_magic_detunings", "s",
     "s"),
    ("lightshift.find_magic_detunings.calls", "lightshift.find_magic_detunings",
     "calls", "count"),
    ("lightshift.differential_clock_shift.calls",
     "lightshift.differential_clock_shift", "calls", "count"),
    ("lightshift.excited_detunings_MHz.s", "lightshift.excited_detunings_MHz",
     "s", "s"),
    ("lightshift.excited_detunings_MHz.calls", "lightshift.excited_detunings_MHz",
     "calls", "count"),
    ("birefringence.state_phase_table.s", "birefringence.state_phase_table", "s",
     "s"),
    ("lightshift.build_light_shift.s", "lightshift.build_light_shift", "s", "s"),
    ("fitting.fit_decaying_sinusoid.s", "fitting.fit_decaying_sinusoid", "s",
     "s"),
    ("fitting.fit_decaying_sinusoid.calls", "fitting.fit_decaying_sinusoid",
     "calls", "count"),
    ("cli.write_csv.s", "cli.write_csv", "s", "s"),
    ("cli.write_csv.bytes", "cli.write_csv", "value", "B"),
    ("config.load_config.s", "config.load_config", "s", "s"),
    ("cli.self_s", "cli.main", "self_s", "s"),
)
EXACT = {name for name, _, q, _ in SPAN_METRICS if q in ("calls", "value")}


class BenchmarkError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def child_env() -> dict[str, str]:
    """Environment of every child, set before numpy loads there."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env.update(
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        CLOCKPROBE_WORKERS="1",
    )
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run a child to exit; return (wall s, peak RSS MB, exit code)."""
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def machine_record() -> dict:
    out = subprocess.run([sys.executable, "-c", MACHINE_SNIPPET], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         timeout=60, check=True)
    record = json.loads(out.stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    record.update(nproc=len(os.sched_getaffinity(0)), cpu=cpu)
    return record


# ----------------------------------------------------------------- spans


def span_totals(spans_file: Path) -> dict[str, dict[str, float]]:
    """Calls, inclusive time, self time and value sum per span name."""
    data = json.loads(spans_file.read_text())
    names, spans = data["names"], data["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0}
              for n in names}
    for i, (name_id, start, end, _, value) in enumerate(spans):
        t = totals[names[name_id]]
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child_time[i]
        t["value"] += value
    return totals


def layer_metrics(totals: dict, fitted_points: int) -> dict[str, float]:
    metrics = {name: totals[span][q] for name, span, q, _ in SPAN_METRICS}
    fits = totals["fitting.fit_decaying_sinusoid"]["calls"]
    metrics["fitting.fits_per_point"] = fits / fitted_points if fitted_points else 0.0
    return metrics


def check_counts(workload: Workload, m: dict[str, float]) -> list[str]:
    """Exact counts a missed wrapper binding would break."""
    errors = []
    if m["dynamics.expm.calls"] != m["dynamics.evolve.calls"]:
        errors.append("dynamics.expm.calls != dynamics.evolve.calls")
    if workload.name == "measurement-sweep":
        want = workload.sweeps * workload.members * workload.n_points
        if m["dynamics.run_simulation.calls"] != want:
            errors.append(f"{m['dynamics.run_simulation.calls']} evolutions, "
                          f"expected {want}")
    if workload.name == "chevron-scan":
        want = workload.n_theta + 1
        if m["lightshift.find_magic_detunings.calls"] != want:
            errors.append(f"{m['lightshift.find_magic_detunings.calls']} magic "
                          f"searches, expected {want}")
    if workload.name == "spectra-fine":
        for name in ("dynamics.expm.calls", "dynamics.evolve.calls",
                     "dynamics.run_simulation.calls"):
            if m[name] != 0:
                errors.append(f"{name} = {m[name]}, expected 0")
    if m["config.load_config.s"] <= 0 or m["cli.write_csv.bytes"] <= 0:
        errors.append("config.load_config or cli.write_csv was not traced")
    return errors


# ------------------------------------------------------------------- run


def prepare(workload: Workload, seed: int) -> tuple[Path, Path, Path]:
    """Fresh scratch directory holding the seeded config: (dir, config, out)."""
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.yaml"
    config.write_text(workload.config_yaml(seed))
    return work, config, work / "out"


def run_benchmark(workload: Workload, seed: int, seconds: float,
                  trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; return the result object and readable lines."""
    work, config, out = prepare(workload, seed)
    reference = REFERENCE / workload.name if seed == REFERENCE_SEED else None
    cli = [sys.executable, "-m", "clockprobe.cli"]
    spans = work / "spans.json"
    traced = [sys.executable, str(HERE / "tracer.py"), str(spans)]
    args = workload.cli_args(config, out, seed)

    def setup_probe() -> float:
        wall, _, rc = run_child([sys.executable, "-c", SETUP_SNIPPET,
                                 str(config), workload.preset],
                                work / "setup.log")
        if rc != 0:
            raise BenchmarkError(f"set-up probe exited {rc}; see "
                                 f"{work / 'setup.log'}")
        return wall

    start = time.perf_counter()

    def left() -> float:
        return seconds - (time.perf_counter() - start)

    # One set-up probe first, which also warms the file cache.  CLI runs
    # then take the budget, less room for the other set-up probes, and
    # set-up probes fill what is left.
    setup = [] if trace else [setup_probe()]
    reserve = 0.0 if trace else (SETUP_PROBES - 1) * setup[0]
    walls, rsss, done, traced_walls, layers = ([] for _ in range(5))
    attempted = failed = 0
    slowest_lap = 0.0
    problems: list[str] = []
    while (not walls or (trace and not traced_walls)
           or slowest_lap + reserve <= left()):
        lap = time.perf_counter()
        with_trace = trace and len(traced_walls) < len(walls)
        shutil.rmtree(out, ignore_errors=True)
        spans.unlink(missing_ok=True)
        wall, rss, rc = run_child((traced if with_trace else cli) + args,
                                  work / "cli.log")
        outcome = check_run(workload, out, rc, reference)
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
        if with_trace:
            traced_walls.append(wall)
            if spans.is_file():
                layers.append(layer_metrics(span_totals(spans), outcome.fitted))
        else:
            walls.append(wall)
            rsss.append(rss)
            done.append(outcome.attempted - outcome.failed)
        slowest_lap = max(slowest_lap, time.perf_counter() - lap)
    while not trace and (len(setup) < SETUP_PROBES or max(setup) <= left()):
        setup.append(setup_probe())

    lines = [f"workload {workload.name}  seed {seed}  "
             f"{len(walls) + len(traced_walls)} CLI runs  "
             f"{attempted} points attempted, {failed} failed"]
    lines += [f"  check failed: {p}" for p in dict.fromkeys(problems)]
    if trace:
        metrics = traced_metrics(workload, layers, walls, traced_walls,
                                 check=not problems)
        lines += [f"  {name:42s} {m['value']:.6g} {m['unit']}"
                  for name, m in metrics.items()]
    else:
        rates = [n / (wall - median(setup)) for n, wall in zip(done, walls)]
        metrics = {
            "wall_s": {"value": median(walls), "unit": "s"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "points_per_s": {"value": median(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": median(rsss), "unit": "MB"},
        }
        samples = {"wall_s": len(walls), "setup_s": len(setup),
                   "points_per_s": len(walls), "peak_rss_mb": len(rsss)}
        lines += [f"  {name:14s} {m['value']:.6g} {m['unit']}  "
                  f"(median of {samples[name]})" for name, m in metrics.items()]
        lines.append("  CLI walls (s): " + " ".join(f"{w:.3f}" for w in walls))
        lines.append(f"  {'failed_frac':14s} {failed / attempted:.6g} "
                     f"fraction  ({failed} of {attempted} points)")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def traced_metrics(workload: Workload, layers: list[dict], walls: list[float],
                   traced_walls: list[float], check: bool) -> dict:
    """Per-layer metrics; ``check`` asserts exact counts (correct outputs)."""
    if not layers:
        raise BenchmarkError("no traced run completed; see "
                             f"{WORK / workload.name / 'cli.log'}")
    for other in layers[1:]:
        for name in EXACT:
            if other[name] != layers[0][name]:
                raise BenchmarkError(f"{name} differs between traced runs: "
                                     f"{layers[0][name]} vs {other[name]}")
    errors = check_counts(workload, layers[0]) if check else []
    if errors:
        raise BenchmarkError("trace self-check failed: " + "; ".join(errors))
    metrics = {}
    for name, _, _, unit in SPAN_METRICS:
        value = layers[0][name] if name in EXACT else median(
            [layer[name] for layer in layers])
        metrics[name] = {"value": value, "unit": unit}
    metrics["fitting.fits_per_point"] = {
        "value": layers[0]["fitting.fits_per_point"], "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": median(traced_walls) - median(walls), "unit": "s"}
    return metrics


def write_reference(workload: Workload) -> None:
    """Regenerate the seed-0 reference outputs from the current program."""
    work, config, out = prepare(workload, REFERENCE_SEED)
    argv = [sys.executable, "-m", "clockprobe.cli"] + workload.cli_args(
        config, out, REFERENCE_SEED)
    _, _, rc = run_child(argv, work / "cli.log")
    outcome = check_run(workload, out, rc, None)
    if outcome.problems:
        raise BenchmarkError("; ".join(outcome.problems))
    dest = REFERENCE / workload.name
    dest.mkdir(parents=True, exist_ok=True)
    for name in workload.csvs:
        shutil.copyfile(out / name, dest / name)
    print(f"wrote {len(workload.csvs)} reference CSVs to {dest}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        help="append the result to this JSON-lines file")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the seed-0 reference CSVs")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if not (SRC / "clockprobe" / "__init__.py").is_file():
            raise BenchmarkError(f"no clockprobe sources under {SRC}")
        if args.write_reference:
            write_reference(workload)
            return 0
        load_start = os.getloadavg()
        machine = machine_record()
        # byte-compile once, unmeasured: users do not pay it on every run
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                       cwd=ROOT, env=child_env(), timeout=60, check=True)
        result, lines = run_benchmark(workload, args.seed, args.seconds,
                                      bool(args.trace))
        machine.update(loadavg_start=load_start, loadavg_end=os.getloadavg())
    except (BenchmarkError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine))
    print("\n".join(lines))
    if args.results:
        with open(args.results, "a") as fh:
            fh.write(json.dumps({"workload": workload.name, "seed": args.seed,
                                 "trace": args.trace, "machine": machine,
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
