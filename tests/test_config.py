"""Properties of load_config: valid configs round-trip, ill-typed values raise."""

import dataclasses
import math

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from clockprobe.atom import MAX_BIAS_FIELD_G
from clockprobe.config import _BLOCK_TYPES, load_config
from clockprobe.errors import ConfigError
from clockprobe.lightshift import RESONANCES_MHZ

SETTINGS = settings(max_examples=50, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def reals(lo=-1e6, hi=1e6, exclude_min=False):
    return st.floats(lo, hi, exclude_min=exclude_min, allow_nan=False,
                     allow_infinity=False)


positive = reals(0.0, 1e6, exclude_min=True)
non_negative = reals(0.0, 1e6)


@st.composite
def clouds(draw):
    radius = draw(reals(0.01, 10.0))
    return {"atom_number": draw(positive), "cloud_radius_mm": radius,
            "od_resonant": draw(positive),
            "probe_radius_mm": radius + draw(reals(0.01, 10.0)),
            "bias_field_G": draw(reals(0.0, MAX_BIAS_FIELD_G))}


@st.composite
def simulations(draw):
    dt = draw(reals(1e-4, 1.0))
    return {"t_span_ms": dt * draw(st.integers(1, 1000)), "dt_ms": dt,
            "extra_loss_per_ms": draw(non_negative),
            "scattering_rate_per_ms": draw(st.none() | positive),
            "pumping": draw(st.booleans()),
            "initial_state": draw(st.just("mixture") | st.sampled_from(
                [f"{f},{m}" for f in (3, 4) for m in range(-f, f + 1)]))}


# A sweep window may not span a D1 resonance: it lies in one of the gaps
# between them, or beyond the outermost out to 1e6 MHz.
GAP_EDGES = [-1e6, *sorted(RESONANCES_MHZ.values()), 1e6]


@st.composite
def sweeps(draw):
    gap = draw(st.integers(0, len(GAP_EDGES) - 2))
    lo = draw(reals(GAP_EDGES[gap], GAP_EDGES[gap + 1] - 1e-3))
    width = draw(reals(1e-3, min(1e4, GAP_EDGES[gap + 1] - lo)))
    return {"window_MHz": [lo, lo + width],
            "n_points": draw(st.integers(2, 10_000)),
            "theta_min_deg": draw(reals(0.0, 180.0)),
            "theta_max_deg": draw(reals(0.0, 180.0)),
            "n_theta": draw(st.integers(2, 1000)),
            "mask_gamma": draw(non_negative)}


@st.composite
def inhomogeneities(draw):
    # each spread keeps its lowest stratified factor 1 + rms ndtri(0.5/n) > 0
    n = draw(st.integers(1, 10_000))
    rms = reals(0.0, 1e6 if n == 1 else -0.99 / ndtri(0.5 / n))
    return {"probe_irradiance_rms_frac": draw(rms),
            "mw_irradiance_rms_frac": draw(rms),
            "n_samples": n, "seed": draw(st.integers(0, 2**31 - 1))}


VALID_BLOCKS = {
    "cloud": clouds(),
    "probe": st.fixed_dictionaries({
        "detuning_MHz": reals(), "irradiance_rel": positive,
        "polarization_angle_deg": reals(0.0, 180.0).filter(lambda t: t < 180.0)}),
    "microwave": st.fixed_dictionaries({"rabi_kHz": non_negative,
                                        "detuning_kHz": reals()}),
    "inhomogeneity": inhomogeneities(),
    "simulation": simulations(),
    "sweep": sweeps(),
    "output": st.fixed_dictionaries({
        "plot_scripts": st.booleans(),
        "detection_efficiency": reals(0.0, 1.0, exclude_min=True)}),
}

# values of the wrong type for each declared field type
_text = st.text(max_size=5).filter(lambda s: s != "magic")
ILL_TYPED = {
    "float": st.booleans() | _text | st.lists(reals(), max_size=2) | st.none(),
    "float | None": st.booleans() | _text | st.lists(reals(), max_size=2),
    "int": reals() | st.booleans() | _text,
    "bool": st.integers() | reals() | _text,
    "str": st.integers() | reals() | st.booleans(),
    "tuple[float, float]": _text | reals() | st.lists(reals(), min_size=3,
                                                      max_size=3)
    | st.tuples(_text, reals()).map(list),
}
FIELDS = [(block, f.name, f.type) for block, cls in _BLOCK_TYPES.items()
          for f in dataclasses.fields(cls)]


def test_ill_typed_strategies_cover_every_field_type():
    assert {kind for _, _, kind in FIELDS} == set(ILL_TYPED)


# Every float of every config type set to NaN, +inf and -inf, and each end
# of the window the same way.  The window's other end lies clear of every
# resonance, so only the finiteness check can reject (-inf, -1200) or
# (1e4, inf).  YAML never gets this far (_fits names block.key first); the
# types themselves must reject these values when built from library code.
NON_FINITE_VALUES = {"": math.nan, "=inf": math.inf, "=-inf": -math.inf}
NON_FINITE = [pytest.param(block, key, value, id=f"{block}.{key}{tag}")
              for block, key, kind in FIELDS if kind in ("float", "float | None")
              for tag, value in NON_FINITE_VALUES.items()] + [
    pytest.param("sweep", "window_MHz", window, id=f"sweep.window_MHz[{end}]{tag}")
    for tag, value in NON_FINITE_VALUES.items()
    for end, window in ((0, (value, -1200.0)), (1, (1e4, value)))]


@pytest.mark.parametrize("block,key,value", NON_FINITE)
def test_config_type_rejects_non_finite_value(block, key, value):
    required = {"detuning_MHz": -335.0} if block == "probe" else {}
    with pytest.raises(ValueError):
        _BLOCK_TYPES[block](**{**required, key: value})


def write_tree(tmp_path, tree):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(tree))
    return path


@SETTINGS
@given(st.fixed_dictionaries(VALID_BLOCKS))
def test_valid_config_round_trips(tmp_path, tree):
    cfg = load_config(write_tree(tmp_path, tree))
    for block, values in tree.items():
        loaded = dataclasses.asdict(getattr(cfg, block))
        if block == "sweep":
            loaded["window_MHz"] = list(loaded["window_MHz"])
        assert loaded == values


@SETTINGS
@given(st.data())
def test_ill_typed_value_is_a_config_error(tmp_path, data):
    block, key, kind = data.draw(st.sampled_from(FIELDS))
    tree = {"probe": {"detuning_MHz": -335.0}}
    tree.setdefault(block, {})[key] = data.draw(ILL_TYPED[kind])
    with pytest.raises(ConfigError, match=f"{block}.{key}"):
        load_config(write_tree(tmp_path, tree))
