"""Package surface: every name a module exports exists, and modules use
only each other's public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import clockprobe


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
