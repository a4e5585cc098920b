"""The two fast demos run to completion and print what they print (the pole
table and the fit, end to end); every demo's imports resolve."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# First output line of each demo that is run (0.3 s and 3 s at one BLAS
# thread); measurement_tradeoff.py takes 13 s and is left out: acceptance 07
# and 08 run its sweep.
FIRST_LINES = {
    "magic_probe_frequency.py":
        "Differential clock shift vs probe detuning (theta = 45 deg, I = I_sat)",
    "rabi_records.py": "magic probe detuning: -334.95 MHz",
}


@pytest.mark.parametrize("demo", sorted(FIRST_LINES))
def test_demo_exits_0(demo):
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == FIRST_LINES[demo]


def _unresolved(source: str) -> list[str]:
    """``module.name`` for each ``from clockprobe... import name`` in
    ``source`` that the named module does not define."""
    imports = [(node.module, alias.name) for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "clockprobe"
               for alias in node.names]
    assert imports
    return [f"{module}.{name}" for module, name in imports
            if not hasattr(importlib.import_module(module), name)]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_resolve(demo):
    # covers measurement_tradeoff.py too, which is not run above
    assert _unresolved((ROOT / "demos" / demo).read_text()) == []


def test_unresolved_demo_import_is_reported():
    source = ("from clockprobe.lightshift import ProbeConfig, no_such_name\n"
              "from clockprobe import find_magic_detunings\n")
    assert _unresolved(source) == ["clockprobe.lightshift.no_such_name",
                                   "clockprobe.find_magic_detunings"]
