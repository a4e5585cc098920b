"""Package surface: every name a module exports exists."""

import importlib
import pkgutil

import clockprobe


def test_every_all_entry_resolves():
    missing = []
    for info in pkgutil.iter_modules(clockprobe.__path__):
        module = importlib.import_module(f"clockprobe.{info.name}")
        assert hasattr(module, "__all__"), module.__name__
        missing += [f"{module.__name__}.{n}" for n in module.__all__
                    if not hasattr(module, n)]
    assert missing == []
