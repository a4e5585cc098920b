"""Package surface: every name a module exports exists, modules use only
each other's public names, importing the package loads nothing, and the
CLI pins BLAS before numpy loads."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import clockprobe

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
# Records the BLAS variables at the moment numpy is first imported, then
# runs the code under test and prints what was recorded and what is left.
BLAS_PROBE = """\
import json, os, sys
VARS = {vars!r}
seen = {{}}

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{v: os.environ.get(v) for v in VARS}})
        return None

sys.meta_path.insert(0, Watch())
{code}
print(json.dumps({{"numpy_loaded": "numpy" in sys.modules, "at_numpy_import": seen,
                  "after": {{v: os.environ.get(v) for v in VARS}}}}))
"""


def _fresh(code: str, **preset: str) -> dict:
    """Run ``code`` in a new interpreter whose environment has neither BLAS
    variable, apart from ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c",
                          BLAS_PROBE.format(vars=BLAS_VARS, code=code)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_every_all_entry_resolves():
    missing = []
    for info in pkgutil.iter_modules(clockprobe.__path__):
        module = importlib.import_module(f"clockprobe.{info.name}")
        assert hasattr(module, "__all__"), module.__name__
        missing += [f"{module.__name__}.{n}" for n in module.__all__
                    if not hasattr(module, n)]
    assert missing == []


def test_no_module_imports_a_private_name_of_another():
    package = Path(clockprobe.__file__).parent
    siblings = {p.stem for p in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            parts = node.module.split(".")
            relative = node.level == 1 and parts[0] in siblings
            absolute = node.level == 0 and parts[0] == "clockprobe"
            if relative or absolute:
                found += [f"{path.name}: {alias.name} from {node.module}"
                          for alias in node.names if alias.name.startswith("_")]
    assert len(siblings) > 5 and found == []


def test_package_import_loads_no_numpy():
    assert _fresh("import clockprobe")["numpy_loaded"] is False


def test_cli_import_pins_blas_before_numpy_loads():
    state = _fresh("import clockprobe.cli")
    pinned = dict.fromkeys(BLAS_VARS, "1")
    assert state["numpy_loaded"] is True
    assert state["at_numpy_import"] == pinned and state["after"] == pinned


def test_cli_import_keeps_a_blas_value_the_user_set():
    state = _fresh("import clockprobe.cli", OPENBLAS_NUM_THREADS="2")
    expected = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}
    assert state["at_numpy_import"] == expected and state["after"] == expected
