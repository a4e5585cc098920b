"""Strict YAML configuration for the command-line front end.

A config file is a key-value tree with one block per physical subsystem.
Unknown keys anywhere are rejected with the offending key path; every
physical invariant of the embedded types is re-validated on load.  Named
presets provide complete operating points for the shipped demo figures;
a config file layered on top of a preset overrides individual keys.

The probe detuning is optional: without it the probe is not placed
(``ProbeConfig.detuning_MHz`` is ``None``), and each command decides
whether it takes one (see :mod:`clockprobe.cli`).  A given ``"magic"``
resolves at load to the differential-light-shift zero of the configured
polarization angle inside the lower inter-resonance window.
"""

from __future__ import annotations

import dataclasses
import math
import re
import typing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import yaml

from .atom import N_GROUND, CloudConfig
from .dynamics import MicrowaveConfig, SimulationConfig, check_fits_in_memory
from .ensemble import InhomogeneityConfig
from .errors import ConfigError
from .lightshift import ProbeConfig, check_window_clear, find_magic_detunings

__all__ = [
    "RunConfig",
    "SweepConfig",
    "OutputConfig",
    "PRESETS",
    "load_config",
]

# Lower inter-resonance window used to resolve detuning: "magic"
MAGIC_SEARCH_WINDOW_MHZ = (-1100.0, -50.0)


class _Loader(yaml.SafeLoader):
    """SafeLoader that rejects a key written twice in one mapping and also reads
    YAML 1.2 floats such as 5e-3 (1.1 wants 5.0e-3).  A key brought in by a
    ``<<`` merge may still be overridden."""

    def construct_mapping(self, node, deep=False):
        # node.value still holds the << entries: the base class flattens them in
        own = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        keys = [self.construct_object(k, deep=deep) for k in own]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", own[i].start_mark)
        return super().construct_mapping(node, deep=deep)


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"))


@dataclass(frozen=True)
class SweepConfig:
    """Detuning and polarization-angle grids for the sweep subcommands."""

    window_MHz: tuple[float, float] = (-1100.0, -60.0)
    n_points: int = 41
    theta_min_deg: float = 0.0
    theta_max_deg: float = 90.0
    n_theta: int = 13
    mask_gamma: float = 5.0

    def __post_init__(self):
        lo, hi = self.window_MHz
        if not -math.inf < lo < hi < math.inf:
            raise ValueError("window_MHz must be finite (low, high) with low < high")
        check_window_clear(self.window_MHz, "sweep.window_MHz")
        if self.n_points < 2 or self.n_theta < 2:
            raise ValueError("n_points and n_theta must be >= 2")
        for key in ("n_points", "n_theta"):
            n = getattr(self, key)  # the largest grid array: spectra's (n, 16) phases
            check_fits_in_memory(n * N_GROUND * 8, f"{key} = {n} grid points")
        for key in ("theta_min_deg", "theta_max_deg"):
            if not 0.0 <= getattr(self, key) < 180.0:
                raise ValueError(f"{key} must satisfy 0 <= theta < 180 deg, as "
                                 "probe.polarization_angle_deg does")
        if not 0 <= self.mask_gamma < math.inf:
            raise ValueError("mask_gamma must be >= 0 and finite")


@dataclass(frozen=True)
class OutputConfig:
    plot_scripts: bool = True
    detection_efficiency: float = 1.0

    def __post_init__(self):
        if not 0 < self.detection_efficiency <= 1:
            raise ValueError("detection_efficiency must be in (0, 1]")


@dataclass(frozen=True)
class RunConfig:
    cloud: CloudConfig
    probe: ProbeConfig
    microwave: MicrowaveConfig
    inhomogeneity: InhomogeneityConfig
    simulation: SimulationConfig
    sweep: SweepConfig
    output: OutputConfig


PRESETS: dict[str, dict[str, Any]] = {
    # Single ideal Rabi record at the magic detuning.
    "rabi-ideal": {
        "probe": {"detuning_MHz": "magic", "irradiance_rel": 16.0,
                  "polarization_angle_deg": 45.0},
        "cloud": {"od_resonant": 2.2},
        "microwave": {"rabi_kHz": 2.0},
        "inhomogeneity": {"probe_irradiance_rms_frac": 0.0, "n_samples": 1},
        "simulation": {"t_span_ms": 3.0},
    },
    # Rabi record with microwave-amplitude spread and extrinsic atom loss.
    "rabi-dephased": {
        "probe": {"detuning_MHz": "magic", "irradiance_rel": 16.0,
                  "polarization_angle_deg": 45.0},
        "cloud": {"od_resonant": 2.2},
        "microwave": {"rabi_kHz": 2.0},
        "inhomogeneity": {"probe_irradiance_rms_frac": 0.0,
                          "mw_irradiance_rms_frac": 0.015, "n_samples": 16},
        "simulation": {"t_span_ms": 3.0, "extra_loss_per_ms": 0.4},
    },
    # Phase / differential-shift spectra over the lower window.
    "spectra": {
        "sweep": {"window_MHz": [-1100.0, -60.0], "n_points": 301},
    },
    # Rabi-frequency chevron and magic-detuning-vs-angle scan.  chevron reads
    # no probe.detuning_MHz; the magic search it costs at load is one of the
    # n_theta + 1 that the chevron-scan benchmark's self-check counts.
    "chevron": {
        "probe": {"detuning_MHz": "magic", "irradiance_rel": 16.0},
        "microwave": {"rabi_kHz": 2.0},
        "inhomogeneity": {"probe_irradiance_rms_frac": 0.0, "n_samples": 1},
        "sweep": {"window_MHz": [-1000.0, -100.0], "n_points": 46},
    },
    # Measurement-strength sweep at constant scattering rate.
    "measurement": {
        "cloud": {"od_resonant": 2.5},
        "microwave": {"rabi_kHz": 2.0},
        "inhomogeneity": {"probe_irradiance_rms_frac": 0.15,
                          "mw_irradiance_rms_frac": 0.015, "n_samples": 16},
        "simulation": {"scattering_rate_per_ms": 1.25, "extra_loss_per_ms": 0.4,
                       "t_span_ms": 3.0},
        "sweep": {"window_MHz": [-1100.0, -60.0], "n_points": 33},
    },
}

_BLOCK_TYPES = typing.get_type_hints(RunConfig)  # block name -> its dataclass


def _merge(base: dict, override: dict) -> dict:
    out = {k: dict(v) for k, v in base.items()}
    for block, values in override.items():
        out.setdefault(block, {})
        out[block].update(values)
    return out


def _validate_tree(tree: Any, source: str) -> dict:
    if tree is None:
        return {}
    if not isinstance(tree, dict):
        raise ConfigError(f"{source}: top level must be a mapping of blocks")
    for block, values in tree.items():
        if block not in _BLOCK_TYPES:
            raise ConfigError(
                f"{source}: unknown block '{block}' "
                f"(expected one of {sorted(_BLOCK_TYPES)})"
            )
        if values is None:
            tree[block] = {}
        elif not isinstance(values, dict):
            raise ConfigError(f"{source}: block '{block}' must be a mapping")
    return tree


def _fits(value: Any, hint: Any) -> bool:
    """Whether a YAML value fits a field type.

    A bool is no number, a float no int, and a float field takes only a
    finite number.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(_fits(v, h) for v, h in zip(value, args)))
    if args:  # a union such as float | None
        return any(_fits(value, h) for h in args)
    if hint is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _build_block(name: str, values: dict, source: str):
    cls = _BLOCK_TYPES[name]
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(values) - set(fields)
    if unknown:
        raise ConfigError(
            f"{source}: unknown key(s) {sorted(unknown)} in block '{name}' "
            f"(expected subset of {sorted(fields)})"
        )
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        if not _fits(value, hints[key]):
            raise ConfigError(f"{source}: {name}.{key} = {value!r} is not "
                              f"of type {fields[key].type} (numbers must be finite)")
    kwargs = dict(values)
    if "window_MHz" in kwargs:
        kwargs["window_MHz"] = tuple(float(w) for w in kwargs["window_MHz"])
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{source}: block '{name}': {exc}") from exc


def resolve_magic_detuning(theta_deg: float) -> float:
    points = find_magic_detunings(theta_deg, MAGIC_SEARCH_WINDOW_MHZ)
    if not points:
        raise ConfigError(
            f"probe.detuning_MHz = 'magic' but no differential-shift zero exists "
            f"in {MAGIC_SEARCH_WINDOW_MHZ} MHz at theta = {theta_deg} deg"
        )
    return points[0].detuning_MHz


def load_config(path: str | Path | None = None, preset: str | None = None,
                seed: int | None = None) -> RunConfig:
    """Load, merge (defaults <- preset <- file) and validate a RunConfig.

    ``seed`` overrides ``inhomogeneity.seed`` (CLI --seed flag).
    """
    tree: dict[str, dict] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset '{preset}' (available: {sorted(PRESETS)})"
            )
        tree = _merge(tree, {k: dict(v) for k, v in PRESETS[preset].items()})
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = yaml.load(path.read_bytes(), Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
        tree = _merge(tree, _validate_tree(loaded, str(path)))
    source = str(path) if path is not None else (preset or "defaults")
    tree = _validate_tree(tree, source)

    probe_values = dict(tree.get("probe", {}))
    magic = probe_values.get("detuning_MHz") == "magic"  # resolved once theta is checked
    probe: ProbeConfig = _build_block(
        "probe", {**probe_values, "detuning_MHz": None} if magic else probe_values, source)
    if magic:
        probe = replace(probe, detuning_MHz=resolve_magic_detuning(
            probe.polarization_angle_deg))

    microwave: MicrowaveConfig = _build_block(
        "microwave", tree.get("microwave", {}), source)
    inhomog_values = dict(tree.get("inhomogeneity", {}))
    if seed is not None:
        inhomog_values["seed"] = int(seed)

    return RunConfig(
        cloud=_build_block("cloud", tree.get("cloud", {}), source),
        probe=probe,
        microwave=microwave,
        inhomogeneity=_build_block("inhomogeneity", inhomog_values, source),
        simulation=_build_block("simulation", tree.get("simulation", {}), source),
        sweep=_build_block("sweep", tree.get("sweep", {}), source),
        output=_build_block("output", tree.get("output", {}), source),
    )
