"""Pins BLAS to one thread and prints the acceptance summary at the end.

OpenBLAS reads its thread count once, when numpy loads, and the last
digits of the dynamics depend on it; one thread is also the faster
setting for these 16-level runs.  This file is imported before any test
module loads numpy, so the defaults set here take effect; a value the
user has set wins.

Pytest captures per-test output, so the one-line PASS/FAIL verdicts from
tests/test_acceptance.py are gathered here and emitted as a dedicated
section in the terminal summary, where they always appear.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance summary")
    for line in acceptance_lines:
        terminalreporter.write_line(line)
