"""The two fast demos run to completion and print what they print (the pole
table and the fit, end to end); every demo's imports resolve, and its calls
to clockprobe names bind to their signatures."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# First output line of each demo that is run (0.3 s and 3 s at one BLAS
# thread); measurement_tradeoff.py takes 13 s and is left out: acceptance 07
# and 08 run its sweep, and its calls are bound below without running it.
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


DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_imports_resolve(demo):
    # covers measurement_tradeoff.py too, which is not run above
    assert _unresolved((ROOT / "demos" / demo).read_text()) == []


def test_unresolved_demo_import_is_reported():
    source = ("from clockprobe.lightshift import ProbeConfig, no_such_name\n"
              "from clockprobe import find_magic_detunings\n")
    assert _unresolved(source) == ["clockprobe.lightshift.no_such_name",
                                   "clockprobe.find_magic_detunings"]


def _is_partial(func: ast.expr) -> bool:
    return (isinstance(func, ast.Name) and func.id == "partial"
            or isinstance(func, ast.Attribute) and func.attr == "partial"
            and isinstance(func.value, ast.Name) and func.value.id == "functools")


def _unbindable(source: str) -> list[str]:
    """``line N: name: reason`` for each call in ``source`` to a name imported
    from clockprobe, directly or through ``partial``, whose arguments do not
    bind to the name's signature.  Calls that unpack ``*``/``**`` are skipped."""
    tree = ast.parse(source)
    objects = {alias.asname or alias.name:
               getattr(importlib.import_module(node.module), alias.name, None)
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "clockprobe"
               for alias in node.names}
    problems = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func, args, bind = call.func, call.args, "bind"
        if _is_partial(func) and args:
            func, args, bind = args[0], args[1:], "bind_partial"
        if not (isinstance(func, ast.Name) and callable(objects.get(func.id))):
            continue
        if (any(isinstance(a, ast.Starred) for a in args)
                or any(k.arg is None for k in call.keywords)):
            continue
        try:
            getattr(inspect.signature(objects[func.id]), bind)(
                *args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            problems.append(f"line {call.lineno}: {func.id}: {exc}")
    return problems


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_calls_bind(demo):
    # a changed signature fails here, not only when the demo is run
    assert _unbindable((ROOT / "demos" / demo).read_text()) == []


def test_unbindable_demo_call_is_reported():
    source = ("import functools\n"
              "from functools import partial\n"
              "from clockprobe.ensemble import calibrated_irradiance, measurement_figure\n"
              "calibrated_irradiance(-335.0, 45.0, 1.25, 1.0)\n"
              "calibrated_irradiance(-335.0, 45.0, target_rate_per_ms=1.25)\n"
              "partial(measurement_figure, 1, 2, 3, 4, 5)\n"
              "functools.partial(measurement_figure, 1, 2, no_such_arg=3)\n"
              "partial(measurement_figure, 1, 2, 3)\n"
              "calibrated_irradiance(*[-335.0, 45.0, 1.25, 1.0])\n")
    assert _unbindable(source) == [
        "line 4: calibrated_irradiance: too many positional arguments",
        "line 6: measurement_figure: too many positional arguments",
        "line 7: measurement_figure: got an unexpected keyword argument 'no_such_arg'",
    ]
