"""Package surface: every name a module exports exists and a program path
uses it, modules use only each other's public names, importing the
package loads nothing, and the CLI pins BLAS before numpy loads."""

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
# The program paths: the package itself, the CLI, the demos and the benchmark.
PROGRAM_DIRS = ("src", "demos", "perfbench")
# Exported names that no program path uses, each with the reason it stays.
UNUSED_EXPORTS = {
    "birefringence.two_color_balance":
        "a library feature that acceptance 10 tests; no CLI command runs it",
    "lightshift.build_light_shift":
        "a pass-through to light_shift_matrix, kept as its own def because "
        "perfbench/tracer.py wraps it by identity for the lightshift.build_light_shift.s "
        "metric; it goes when that metric is pointed at light_shift_matrix",
}
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


def _identifiers(tree: ast.AST, outside: tuple = ()) -> set[str]:
    """Names and attribute names read in ``tree``.  A read inside the ``def``
    or ``class`` of the same name (recursion, a method naming its class) does
    not count, and neither do assignments, imports or strings."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        inside = outside
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = outside + (node.name,)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        found |= _identifiers(node, inside) - set(inside)
    return found


def _unused_exports() -> set[str]:
    used = set()
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            used |= _identifiers(ast.parse(path.read_text(), str(path)))
    unused = set()
    for info in pkgutil.iter_modules(clockprobe.__path__):
        module = importlib.import_module(f"clockprobe.{info.name}")
        unused |= {f"{info.name}.{n}" for n in module.__all__ if n not in used}
    return unused


def test_every_export_has_a_program_use():
    # A name only the tests reach belongs in the tests.  An allowlisted name
    # that gains a use or leaves __all__ fails too, so the list stays exact.
    unused = _unused_exports()
    assert sorted(unused - UNUSED_EXPORTS.keys()) == [], "exported, used by no program"
    assert sorted(UNUSED_EXPORTS.keys() - unused) == [], "allowlisted, but used or gone"


def test_identifiers_skip_the_own_definition_and_strings():
    tree = ast.parse("def f(n):\n    return f(n - 1) + g(n)\n"
                     "class C:\n    def copy(self):\n        return C()\n"
                     "x = obj.attr\nfrom m import h\nwrap('k')\n")
    assert _identifiers(tree) == {"n", "g", "obj", "attr", "wrap"}


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


# The intra-package import graph: each module and the siblings it imports.
# The engine sits below the fit, the sweeps and the front end, and the fit
# reads records by their fields, so it needs nothing but the errors.
IMPORT_GRAPH = {
    "__init__": set(),
    "angular": set(),
    "atom": set(),
    "errors": set(),
    "fitting": {"errors"},
    "lightshift": {"angular", "atom", "errors"},
    "birefringence": {"atom", "errors", "lightshift"},
    "dynamics": {"atom", "birefringence", "errors", "lightshift"},
    "ensemble": {"atom", "birefringence", "dynamics", "errors", "fitting", "lightshift"},
    "config": {"atom", "dynamics", "ensemble", "errors", "lightshift"},
    "cli": {"atom", "birefringence", "config", "dynamics", "ensemble", "errors",
            "lightshift"},
}


def _sibling_imports() -> dict[str, set[str]]:
    """Each package module and the sibling modules it imports, relatively
    (``from .x import y``, ``from . import x``) or as ``clockprobe.x``."""
    package = Path(clockprobe.__file__).parent
    siblings = {p.stem for p in package.glob("*.py")}
    graph = {}
    for path in sorted(package.glob("*.py")):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                if node.level == 1:
                    found |= {parts[0]} if node.module else {a.name for a in node.names}
                elif node.level == 0 and parts[0] == "clockprobe":
                    found |= set(parts[1:2]) or {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                found |= {a.name.split(".")[1] for a in node.names
                          if a.name.startswith("clockprobe.")}
        graph[path.stem] = found & siblings
    return graph


def test_import_graph_is_layered():
    graph = _sibling_imports()
    assert graph["dynamics"].isdisjoint({"fitting", "ensemble", "config", "cli"})
    assert graph["fitting"] <= {"errors"}
    assert graph == IMPORT_GRAPH


def test_sibling_imports_see_every_import_form(tmp_path, monkeypatch):
    package = tmp_path / "clockprobe"
    package.mkdir()
    (package / "a.py").write_text("from .b import x\nfrom . import c\n"
                                  "import clockprobe.d\nfrom clockprobe import e\n"
                                  "from clockprobe.f import y\nimport numpy\n")
    for name in "bcdef":
        (package / f"{name}.py").write_text("")
    monkeypatch.setattr(clockprobe, "__file__", str(package / "__init__.py"))
    assert _sibling_imports()["a"] == set("bcdef")


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


# The one read of the environment in src/: the CLI's BLAS pin.  Every other
# setting is a config key or a flag, and a sweep runs in process.
BLAS_PIN = ("for _var in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS'):\n"
            "    os.environ.setdefault(_var, '1')")
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}
PROCESS_MODULES = {"concurrent", "multiprocessing", "subprocess"}


def _environment_reads(tree: ast.Module) -> list[str]:
    """The top-level statements of ``tree`` that touch ``os.environ`` or
    ``os.getenv`` (by any alias of ``os``) or import them from ``os``."""
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names if a.name == "os"}
    found = []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                    and isinstance(node.value, ast.Name) and node.value.id in aliases
                    or isinstance(node, ast.ImportFrom) and node.module == "os"
                    and any(a.name in ENV_NAMES for a in node.names)):
                found.append(ast.unparse(stmt))
                break
    return found


def _imported_modules(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_src_reads_no_environment_and_starts_no_process():
    reads, spawns = [], []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reads += [(path.name, stmt) for stmt in _environment_reads(tree)]
        spawns += [f"{path.name}: {name}" for name in _imported_modules(tree)
                   if name.split(".")[0] in PROCESS_MODULES]
    assert reads == [("cli.py", BLAS_PIN)]
    assert spawns == []


def test_environment_reads_see_every_form():
    tree = ast.parse("import os as o\nfrom os import getenv\n"
                     "x = o.environ.get('K')\ndef f():\n    return o.getenv('K')\n"
                     "y = o.sysconf('SC_PAGE_SIZE')\nenviron = {}\n")
    assert _environment_reads(tree) == [
        "from os import getenv", "x = o.environ.get('K')",
        "def f():\n    return o.getenv('K')"]
