"""The demos run to completion (the pole table and the fit, end to end)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clockprobe

ROOT = Path(__file__).resolve().parents[1]


# measurement_tradeoff.py is left out: acceptance 07 and 08 run its sweep
@pytest.mark.parametrize("demo", ["magic_probe_frequency.py", "rabi_records.py"])
def test_demo_exits_0(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_resolve(demo):
    # covers measurement_tradeoff.py too, which is not run above
    tree = ast.parse((ROOT / "demos" / demo).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "clockprobe"
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(clockprobe, n)] == []
