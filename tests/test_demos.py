"""The demos run to completion (the pole table and the fit, end to end)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# measurement_tradeoff.py is left out: acceptance 07 and 08 run its sweep
@pytest.mark.parametrize("demo", ["magic_probe_frequency.py", "rabi_records.py"])
def test_demo_exits_0(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
