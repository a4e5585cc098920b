"""Pins BLAS to one thread, runs emitted plot scripts and prints the
acceptance summary at the end.

OpenBLAS reads its thread count once, when numpy loads, and the last
digits of the dynamics depend on it; one thread is also the faster
setting for these 16-level runs.  This file is imported before any test
module loads numpy, so the defaults set here take effect; a value the
user has set wins.

Pytest captures per-test output, so the one-line PASS/FAIL verdicts from
tests/test_acceptance.py are gathered here and emitted as a dedicated
section in the terminal summary, where they always appear.

matplotlib is no dependency, so the ``run_plot_script`` fixture runs an
emitted plot script against a stub that accepts any drawing call.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

acceptance_lines: list[str] = []

_PYPLOT_STUB = """\
class _Artist:
    def __getattr__(self, name):
        return lambda *args, **kwargs: None

    def savefig(self, path, **kwargs):
        open(path, "w").close()


def subplots(nrows=1, ncols=1, **kwargs):
    axes = tuple(_Artist() for _ in range(nrows * ncols))
    return _Artist(), axes if len(axes) > 1 else axes[0]
"""


@pytest.fixture
def run_plot_script(tmp_path_factory):
    """Run an emitted plot script next to its CSVs under a stub matplotlib.

    The script must exit 0 and save ``figure``, so a column or a file that
    its CSVs lack fails the test.
    """
    stub = tmp_path_factory.mktemp("stub") / "matplotlib"
    stub.mkdir()
    (stub / "__init__.py").write_text("")
    (stub / "pyplot.py").write_text(_PYPLOT_STUB)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(stub.parent), os.environ.get("PYTHONPATH")]))}

    def run(script: Path, figure: str) -> None:
        res = subprocess.run([sys.executable, script.name], cwd=script.parent,
                             capture_output=True, text=True, env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        assert (script.parent / figure).is_file()

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance summary")
    for line in acceptance_lines:
        terminalreporter.write_line(line)
