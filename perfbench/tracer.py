"""Run one clockprobe CLI command with a span around each layer's functions.

Usage: python3 tracer.py SPANS.json COMMAND [CLI ARGS...]

Wraps the public functions listed in LAYERS from outside the package:
each wrapper replaces the function in every ``clockprobe.*`` namespace
that binds it, so names imported with ``from .x import y`` are caught
too.  Spans (name, start, end, parent, value) stay in memory and are
written to SPANS.json when the command ends.  ``value`` is the number of
steps for ``dynamics.evolve`` and the bytes written for ``cli.write_csv``.
Exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import clockprobe.cli

# (module, function); dynamics.expm is scipy's expm as bound in dynamics.
LAYERS = (
    ("dynamics", "expm"),
    ("dynamics", "evolve"),
    ("dynamics", "run_simulation"),
    ("ensemble", "ensemble_average"),
    ("lightshift", "find_magic_detunings"),
    ("lightshift", "differential_clock_shift"),
    ("lightshift", "excited_detunings_MHz"),
    ("lightshift", "build_light_shift"),
    ("birefringence", "state_phase_table"),
    ("fitting", "fit_decaying_sinusoid"),
    ("cli", "write_csv"),
    ("config", "load_config"),
)


def _evolve_steps(args, kwargs, record) -> int:
    return len(record.times_ms) - 1


def _csv_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


VALUES = {"dynamics.evolve": _evolve_steps, "cli.write_csv": _csv_bytes}


class Tracer:
    """In-memory spans, one per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        value_of = VALUES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if value_of is not None:
                span[4] = value_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each layer function in every clockprobe namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "clockprobe" or n.startswith("clockprobe.")]
        for module, function in LAYERS:
            original = getattr(sys.modules[f"clockprobe.{module}"], function)
            wrapper = self.wrap(f"{module}.{function}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    run = tracer.wrap("cli.main", clockprobe.cli.main)
    try:
        return run(cli_argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
