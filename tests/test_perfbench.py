"""The benchmark's tracer wraps functions that exist, and its gated
workloads still reproduce their seed-0 reference outputs."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = _load("tracer")
    for module, function in tracer.LAYERS:
        target = importlib.import_module(f"clockprobe.{module}")
        assert callable(getattr(target, function, None)), f"{module}.{function}"


@pytest.mark.parametrize("name", ["measurement-sweep", "chevron-scan"])
def test_seed0_outputs_match_reference(tmp_path, name, run_plot_script):
    """The CLI run of a gated workload at the reference seed matches the
    reference CSVs within the benchmark's tolerance, and its plot script
    reads them.

    BLAS runs on one thread, as in the benchmark: the last digits of the
    outputs depend on the thread count.
    """
    workloads = _load("workloads")
    workload = workloads.WORKLOADS[name]
    seed = workloads.REFERENCE_SEED
    config, out = tmp_path / "config.yaml", tmp_path / "out"
    config.write_text(workload.config_yaml(seed))
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-m", "clockprobe.cli",
         *workload.cli_args(config, out, seed)],
        capture_output=True, text=True, env=env, timeout=300)
    outcome = workloads.check_run(workload, out, res.returncode,
                                  PERFBENCH / "reference" / name)
    assert outcome.problems == [], res.stderr
    command = workload.command
    run_plot_script(out / f"plot_{command}.py", f"{command}.png")
