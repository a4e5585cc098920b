"""Ground-manifold light-shift operator and magic-frequency location.

The probe propagates along y and by default is linearly polarized at an
angle theta from z in the x-z plane (theta = 0 is pure pi light with the
quantization axis along z).  Detunings are referenced to the F=4 -> F'=4
resonance; the F'=3 resonance then sits at -1168 MHz and the F=3 -> F'
transitions near +8.0 and +9.2 GHz.

The per-transition shift uses the standard far-detuned two-level scaling
Gamma^2/(8 Delta) * I/I_sat per unit oscillator strength; only ratios and
zero crossings of the result are compared against published numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import dipole_element
from .atom import (
    EXCITED_HF_SPLITTING_MHZ,
    F3_BLOCK,
    F4_BLOCK,
    GAMMA_MHZ,
    GROUND_HF_SPLITTING_MHZ,
    IDX_DOWN,
    IDX_UP,
    N_GROUND,
    state_registry,
    zeeman_hamiltonian,
)
from .errors import ResonanceProximityError, UnresolvedClockLevelsError

__all__ = [
    "ProbeConfig",
    "MagicPoint",
    "amplitude_tensor",
    "line_strengths",
    "spherical_polarization",
    "RESONANCES_MHZ",
    "resonance_distance",
    "clear_of_resonances",
    "check_window_clear",
    "excited_detunings_MHz",
    "check_off_resonance",
    "pole_sum",
    "light_shift_matrix",
    "build_light_shift",
    "differential_clock_shift",
    "dressed_clock_shift",
    "find_magic_detunings",
]

_QS = (-1, 0, 1)  # spherical polarization index order used in all tensors
_BLOCKS = (F3_BLOCK, F4_BLOCK)  # F = 3 and F = 4 ground manifolds
_F_INDEX = np.array([F - 3 for F, _ in state_registry()])  # 0 for F=3, 1 for F=4

# D1 resonances in the probe-detuning coordinate (MHz)
RESONANCES_MHZ = {
    "F=4 -> F'=4": 0.0,
    "F=4 -> F'=3": -EXCITED_HF_SPLITTING_MHZ,
    "F=3 -> F'=4": GROUND_HF_SPLITTING_MHZ,
    "F=3 -> F'=3": GROUND_HF_SPLITTING_MHZ - EXCITED_HF_SPLITTING_MHZ,
}
# Resonance r[F, F'] (MHz), both indexed 0 for F=3 and 1 for F=4
_RESONANCES = np.array([[RESONANCES_MHZ[f"F={F} -> F'={Fe}"] for Fe in (3, 4)]
                        for F in (3, 4)])
_RESONANCES.setflags(write=False)
_LABELS = tuple(RESONANCES_MHZ)
_POSITIONS = np.array(list(RESONANCES_MHZ.values()))
_MARGIN_MHZ = 0.2 * GAMMA_MHZ  # magic roots and spectra grids keep this far off


@dataclass(frozen=True)
class ProbeConfig:
    """Probe detuning, irradiance and polarization.

    ``detuning_MHz`` is relative to F=4 -> F'=4 (negative toward F'=3).
    ``None`` is a probe not placed yet: a sweep places it at each grid
    point with :func:`clockprobe.ensemble.operating_point`, and no light
    shift is computed before that.  ``polarization_angle_deg`` is theta in
    the x-z plane; propagation is fixed along y.
    """

    detuning_MHz: float | None = None
    irradiance_rel: float = 16.0  # I / I_sat
    polarization_angle_deg: float = 45.0

    def __post_init__(self):
        if self.detuning_MHz is not None and not math.isfinite(self.detuning_MHz):
            raise ValueError("detuning_MHz must be finite")
        if not 0 < self.irradiance_rel < math.inf:
            raise ValueError("irradiance_rel must be > 0 and finite")
        if not (0.0 <= self.polarization_angle_deg < 180.0):
            raise ValueError("polarization angle must satisfy 0 <= theta < 180 deg")


@dataclass(frozen=True)
class MagicPoint:
    detuning_MHz: float
    polarization_angle_deg: float
    residual_dU_kHz: float


def spherical_polarization(theta_deg: float) -> np.ndarray:
    """Spherical components (q = -1, 0, +1) of a linear x-z polarization.

    Lab-frame x maps to (sigma- - sigma+)/sqrt(2) and z to pi with the
    quantization axis along z.
    """
    th = math.radians(theta_deg)
    ex, ez = math.sin(th), math.cos(th)
    return np.array([ex / math.sqrt(2.0), ez, -ex / math.sqrt(2.0)], dtype=complex)


@lru_cache(maxsize=1)
def amplitude_tensor() -> np.ndarray:
    """Dipole amplitudes a[g, e, q] over ground x excited registries.

    Real-valued; in units of the reduced D1 element with the line-strength
    sum rule normalized to 1 per ground sublevel.
    """
    a = np.zeros((N_GROUND, N_GROUND, 3))
    for gi, (gF, gm) in enumerate(state_registry()):
        for ei, (eF, em) in enumerate(state_registry()):  # F' = 3, 4 share the layout
            for qi, q in enumerate(_QS):
                if em != gm + q:
                    continue
                a[gi, ei, qi] = dipole_element(gF, gm, eF, em, q)
    a.setflags(write=False)
    return a


def line_strengths(polarization: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Line strengths s[g, F'] and their resonances r[g, F'] (MHz), each 16 x 2.

    s[g, F'] = sum over e in F' of |sum_q eps_q a[g, e, q]|^2.  Every
    dispersive sum over the four D1 poles reads from this table as
    :func:`pole_sum` of weights w s[g, F'] and poles r[g, F'].
    """
    s = np.abs(amplitude_tensor() @ polarization) ** 2 @ np.eye(2)[_F_INDEX]
    return s, _RESONANCES[_F_INDEX]


def resonance_distance(detuning_MHz) -> np.ndarray:
    """|Delta - r| (MHz) to each D1 resonance r, in RESONANCES_MHZ order, last axis."""
    d = np.asarray(detuning_MHz, dtype=float)
    return np.abs(d[..., None] - _POSITIONS)


def clear_of_resonances(detuning_MHz) -> np.ndarray:
    """Whether each detuning lies more than 0.2 Gamma from every D1 resonance."""
    return np.all(resonance_distance(detuning_MHz) > _MARGIN_MHZ, axis=-1)


def check_window_clear(window: tuple[float, float], name: str = "window") -> None:
    """Raise ``ValueError`` naming ``name`` when a D1 resonance lies inside the
    detuning window by more than the 0.2 Gamma margin."""
    lo, hi = sorted(window)
    for pos in RESONANCES_MHZ.values():
        if lo + _MARGIN_MHZ < pos < hi - _MARGIN_MHZ:
            raise ValueError(
                f"{name} ({lo}, {hi}) MHz contains the resonance at {pos} MHz")


def check_off_resonance(detuning_MHz) -> None:
    """Raise :class:`ResonanceProximityError` at the first detuning within 0.1 Gamma."""
    d = np.ravel(detuning_MHz)
    row, col = np.nonzero(resonance_distance(d) <= 0.1 * GAMMA_MHZ)
    if row.size:
        i, k = row[0], col[0]
        raise ResonanceProximityError(float(d[i]), float(_POSITIONS[k]), _LABELS[k])


def pole_sum(weights: np.ndarray, poles: np.ndarray, detuning_MHz) -> np.ndarray:
    """Sum of weights / (Delta - poles) over the last axis, Delta's shape in front."""
    d = np.reshape(detuning_MHz, np.shape(detuning_MHz) + (1,) * np.ndim(poles))
    return np.sum(weights / (d - poles), axis=-1)


def excited_detunings_MHz(detuning_MHz: float) -> np.ndarray:
    """Detuning denominator d[g, e] (MHz) for each ground/excited pair."""
    return detuning_MHz - _RESONANCES[_F_INDEX[:, None], _F_INDEX]


def light_shift_matrix(probe: ProbeConfig) -> np.ndarray:
    """Hermitian 16x16 light-shift operator (MHz) of the probe.

    Raises :class:`ResonanceProximityError` within 0.1 Gamma of any D1
    resonance, where the dispersive model diverges.
    """
    polarization = spherical_polarization(probe.polarization_angle_deg)
    check_off_resonance(probe.detuning_MHz)
    exc = amplitude_tensor() @ polarization  # exc[g, e] = sum_q eps_q a[g, e, q]
    dets = excited_detunings_MHz(probe.detuning_MHz)
    pref = GAMMA_MHZ**2 / 8.0 * probe.irradiance_rel
    v = np.zeros((N_GROUND, N_GROUND), dtype=complex)
    for blk in _BLOCKS:
        e_weighted = exc[blk] / dets[blk]  # same denominator within a ground-F block
        v[blk, blk] = pref * (np.conj(exc[blk]) @ e_weighted.T)
    return 0.5 * (v + v.conj().T)  # symmetrize away float round-off


def build_light_shift(probe: ProbeConfig) -> np.ndarray:
    """:func:`light_shift_matrix` under a name of its own, which the
    benchmark's tracer wraps by identity."""
    return light_shift_matrix(probe)


def _clock_shift_poles(theta_deg: float,
                       irradiance_rel: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights w (kHz MHz) and poles r (MHz) of dU(Delta) = :func:`pole_sum`.

    The clock rows of :func:`line_strengths`: one pole per D1 resonance.
    """
    s, r = line_strengths(spherical_polarization(theta_deg))
    clock = [IDX_DOWN, IDX_UP]
    pref = GAMMA_MHZ**2 / 8.0 * irradiance_rel * 1e3
    sign = np.array([[-1.0], [1.0]])  # <4,0|V|4,0> - <3,0|V|3,0>
    return (pref * sign * s[clock]).ravel(), r[clock].ravel()


def differential_clock_shift(detuning_MHz, theta_deg: float = 45.0,
                             irradiance_rel: float = 1.0) -> float | np.ndarray:
    """Differential light shift <4,0|V|4,0> - <3,0|V|3,0> (kHz) at each detuning."""
    check_off_resonance(detuning_MHz)
    return pole_sum(*_clock_shift_poles(theta_deg, irradiance_rel), detuning_MHz)


def dressed_clock_shift(probe: ProbeConfig, bias_field_G: float) -> float:
    """Differential shift (kHz) of the Zeeman-dressed clock levels.

    Eigenvalue difference of Zeeman + light shift for the levels
    adiabatically connected to |4,0> and |3,0>.  Unlike the bare diagonal
    difference this includes second-order repulsion from the tensor
    couplings to |F, m != 0>, which is what the microwave transition
    frequency actually experiences.  Each clock level is the eigenvector
    holding the most of |4,0> or |3,0>; when that is not more than half,
    the assignment is not unique and :class:`UnresolvedClockLevelsError`
    is raised.
    """
    h = zeeman_hamiltonian(bias_field_G).astype(complex)
    h += light_shift_matrix(probe)
    w, v = np.linalg.eigh(h)
    weights = np.abs(v[[IDX_UP, IDX_DOWN]]) ** 2  # of |4,0> and |3,0>, per eigenvector
    for level, row in zip(("|4,0>", "|3,0>"), weights):
        if not row.max() > 0.5:
            raise UnresolvedClockLevelsError(
                f"clock levels not resolved at cloud.bias_field_G = {bias_field_G:g} G: "
                f"no dressed level holds more than 1/2 of {level} "
                f"(largest {row.max():.3g})")
    i_up, i_down = weights.argmax(axis=1)
    return float((w[i_up] - w[i_down]).real * 1e3)


def find_magic_detunings(theta_deg: float, window: tuple[float, float],
                         irradiance_rel: float = 1.0) -> list[MagicPoint]:
    """All zero crossings of the differential light shift inside ``window``.

    The zeros of dU = sum w / (Delta - r) are the real roots of its
    numerator, a polynomial of degree at most 3, taken at unit irradiance
    (dU is linear in it, and the numerator cannot overflow there); only
    the residual is at ``irradiance_rel``.  Poles of weight below 1e-12
    of the largest are dropped first: they are removable (at theta = 0 the
    pi amplitude |4,0> -> |4',0> vanishes), and near theta = 0 a weight of
    ~1e-320 overflows the numerator's roots.  Roots not
    :func:`clear_of_resonances` are discarded.  An empty list is valid;
    a window that fails :func:`check_window_clear` raises ``ValueError``.
    """
    check_window_clear(window)
    lo, hi = sorted(window)
    w, r = _clock_shift_poles(theta_deg, 1.0)
    keep = np.abs(w) > 1e-12 * np.abs(w).max()
    w, r = w[keep], r[keep]
    numerator = sum(wk * np.poly(np.delete(r, k)) for k, wk in enumerate(w))
    roots = np.roots(numerator)
    roots = np.sort(roots[roots.imag == 0].real)
    roots = roots[(lo <= roots) & (roots <= hi) & clear_of_resonances(roots)]
    w_at, r_at = _clock_shift_poles(theta_deg, irradiance_rel)
    return [MagicPoint(float(d), theta_deg, float(pole_sum(w_at, r_at, d)))
            for d in roots]

