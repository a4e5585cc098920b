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

from .angular import dipole_element, wigner6j
from .atom import CsD1Constants, N_GROUND, IDX_DOWN, IDX_UP, state_registry
from .errors import NoBalanceError, ResonanceProximityError

__all__ = [
    "ProbeConfig",
    "LightShiftOperator",
    "MagicPoint",
    "TwoColorSolution",
    "amplitude_tensor",
    "line_strengths",
    "spherical_polarization",
    "circular_polarization",
    "resonance_positions_MHz",
    "nearest_resonance",
    "excited_detunings_MHz",
    "check_off_resonance",
    "light_shift_matrix",
    "build_light_shift",
    "differential_clock_shift",
    "dressed_clock_shift",
    "find_magic_detunings",
    "tensor_fz2_check",
    "two_color_balance",
]

_QS = (-1, 0, 1)  # spherical polarization index order used in all tensors
_BLOCKS = (slice(0, 7), slice(7, 16))  # F = 3 and F = 4 ground manifolds
_F_INDEX = np.array([st.F - 3 for st in state_registry()])  # 0 for F=3, 1 for F=4
# N_K (-1)^F' {1 K 1; 4 F' 4} S_4F' of the xi_K (rows K, columns F' = 3, 4)
_XI_WEIGHTS = np.array([[n_k * (-1) ** fe * wigner6j(1, k, 1, 4, fe, 4) * s_fe
                         for fe, s_fe in ((3, 7.0 / 12.0), (4, 5.0 / 12.0))]
                        for k, n_k in enumerate((-math.sqrt(3.0), math.sqrt(27.0 / 40.0),
                                                 math.sqrt(27.0 / 154.0)))])


@dataclass(frozen=True)
class ProbeConfig:
    """Probe detuning, irradiance and polarization.

    ``detuning_MHz`` is relative to F=4 -> F'=4 (negative toward F'=3).
    ``polarization_angle_deg`` is theta in the x-z plane; propagation is
    fixed along y.
    """

    detuning_MHz: float
    irradiance_rel: float = 16.0  # I / I_sat
    polarization_angle_deg: float = 45.0

    def __post_init__(self):
        if self.irradiance_rel <= 0:
            raise ValueError("irradiance_rel must be > 0")
        if not (0.0 <= self.polarization_angle_deg < 180.0):
            raise ValueError("polarization angle must satisfy 0 <= theta < 180 deg")


@dataclass(frozen=True)
class LightShiftOperator:
    """Hermitian 16x16 light-shift operator (MHz) and its irreducible parts.

    ``total = scalar_part + vector_part + tensor_part`` holds to 1e-12
    relative; the decomposition is per ground-F manifold.
    """

    total: np.ndarray
    scalar_part: np.ndarray
    vector_part: np.ndarray
    tensor_part: np.ndarray
    xi0_MHz: float
    xi1_MHz: float
    xi2_MHz: float


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


def circular_polarization(handedness: int = +1) -> np.ndarray:
    """Spherical components of circular polarization (x +/- i z)/sqrt(2)."""
    if handedness not in (+1, -1):
        raise ValueError("handedness must be +1 or -1")
    ex = 1.0 / math.sqrt(2.0)
    ez = 1j * handedness / math.sqrt(2.0)
    return np.array([ex / math.sqrt(2.0), ez, -ex / math.sqrt(2.0)], dtype=complex)


@lru_cache(maxsize=1)
def amplitude_tensor() -> np.ndarray:
    """Dipole amplitudes a[g, e, q] over ground x excited registries.

    Real-valued; in units of the reduced D1 element with the line-strength
    sum rule normalized to 1 per ground sublevel.
    """
    ground = state_registry()
    excited = state_registry()
    a = np.zeros((N_GROUND, N_GROUND, 3))
    for gi, g in enumerate(ground):
        for ei, e in enumerate(excited):
            for qi, q in enumerate(_QS):
                if e.mF != g.mF + q:
                    continue
                a[gi, ei, qi] = dipole_element(g.F, g.mF, e.F, e.mF, q).amplitude
    a.setflags(write=False)
    return a


def line_strengths(polarization: np.ndarray,
                   atom: CsD1Constants) -> tuple[np.ndarray, np.ndarray]:
    """Line strengths s[g, F'] and their resonances r[g, F'] (MHz), each 16 x 2.

    s[g, F'] = sum over e in F' of |sum_q eps_q a[g, e, q]|^2.  Every
    dispersive sum over the four D1 poles reads from this table as
    sum_F' w s[g, F'] / (Delta - r[g, F']).
    """
    s = np.abs(amplitude_tensor() @ polarization) ** 2 @ np.eye(2)[_F_INDEX]
    return s, _resonance_table(atom)[_F_INDEX]


def resonance_positions_MHz(atom: CsD1Constants) -> dict[str, float]:
    """D1 resonances in the probe-detuning coordinate."""
    hf = atom.excited_hf_splitting_MHz
    g = atom.ground_hf_splitting_MHz
    return {
        "F=4 -> F'=4": 0.0,
        "F=4 -> F'=3": -hf,
        "F=3 -> F'=4": g,
        "F=3 -> F'=3": g - hf,
    }


def _resonance_table(atom: CsD1Constants) -> np.ndarray:
    """Resonance r[F, F'] (MHz), both indexed 0 for F=3 and 1 for F=4."""
    res = resonance_positions_MHz(atom)
    return np.array([[res[f"F={F} -> F'={Fe}"] for Fe in (3, 4)] for F in (3, 4)])


def nearest_resonance(detuning_MHz: float,
                      atom: CsD1Constants) -> tuple[float, str, float]:
    """(distance, label, position) of the D1 resonance nearest the detuning (MHz)."""
    return min((abs(detuning_MHz - pos), label, pos)
               for label, pos in resonance_positions_MHz(atom).items())


def check_off_resonance(detuning_MHz: float, atom: CsD1Constants) -> None:
    distance, label, pos = nearest_resonance(detuning_MHz, atom)
    if distance <= 0.1 * atom.gamma_MHz:
        raise ResonanceProximityError(detuning_MHz, pos, label)


def excited_detunings_MHz(detuning_MHz: float, atom: CsD1Constants) -> np.ndarray:
    """Detuning denominator d[g, e] (MHz) for each ground/excited pair."""
    return detuning_MHz - _resonance_table(atom)[_F_INDEX[:, None], _F_INDEX]


@lru_cache(maxsize=8)
def _spin_matrices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    f = (dim - 1) / 2.0
    m = np.arange(-f, f + 1)
    fz = np.diag(m)
    raise_elem = np.sqrt(f * (f + 1) - m[:-1] * (m[:-1] + 1))
    fplus = np.zeros((dim, dim))
    for i in range(dim - 1):
        fplus[i + 1, i] = raise_elem[i]
    fx = (fplus + fplus.T) / 2.0
    fy = (fplus - fplus.T) / (2.0j)
    return fx, fy, fz


def _decompose_block(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dim = v.shape[0]
    fx, fy, fz = _spin_matrices(dim)
    scalar = (np.trace(v).real / dim) * np.eye(dim)
    vector = np.zeros_like(v)
    for fi in (fx, fy, fz):
        c = np.trace(v @ fi.conj().T) / np.trace(fi @ fi.conj().T)
        vector = vector + c * fi
    tensor = v - scalar - vector
    return scalar, vector, tensor


def light_shift_matrix(probe: ProbeConfig, atom: CsD1Constants | None = None,
                       polarization: np.ndarray | None = None) -> np.ndarray:
    """Hermitian 16x16 light-shift operator (MHz) of the probe.

    ``polarization`` overrides the linear-theta polarization with an
    arbitrary spherical-component vector (used for circular probes).
    Raises :class:`ResonanceProximityError` within 0.1 Gamma of any D1
    resonance, where the dispersive model diverges.
    """
    atom = atom or CsD1Constants()
    if polarization is None:
        polarization = spherical_polarization(probe.polarization_angle_deg)
    check_off_resonance(probe.detuning_MHz, atom)
    exc = amplitude_tensor() @ polarization  # exc[g, e] = sum_q eps_q a[g, e, q]
    dets = excited_detunings_MHz(probe.detuning_MHz, atom)
    pref = atom.gamma_MHz**2 / 8.0 * probe.irradiance_rel
    v = np.zeros((N_GROUND, N_GROUND), dtype=complex)
    for blk in _BLOCKS:
        e_weighted = exc[blk] / dets[blk]  # same denominator within a ground-F block
        v[blk, blk] = pref * (np.conj(exc[blk]) @ e_weighted.T)
    return 0.5 * (v + v.conj().T)  # symmetrize away float round-off


def build_light_shift(probe: ProbeConfig, atom: CsD1Constants | None = None,
                      polarization: np.ndarray | None = None) -> LightShiftOperator:
    """:func:`light_shift_matrix` with its scalar/vector/tensor parts and xi's.

    The xi's are closed F = 4 forms (Deutsch & Jessen, Opt. Commun. 283, 681
    (2010)): xi_K = (Gamma^2/8)(I/I_sat) N_K f_K sum_F' (-1)^F' {1 K 1; 4 F' 4}
    S_4F' / (Delta - r_4F') with f_0 = f_1 = 1 (xi1 is the sigma+ vector
    coupling) and f_2 = (3|eps_0|^2 - 1)/2 (the Fz^2 part of the tensor).
    """
    atom = atom or CsD1Constants()
    if polarization is None:
        polarization = spherical_polarization(probe.polarization_angle_deg)
    v = light_shift_matrix(probe, atom, polarization)

    scalar, vector, tensor = (np.zeros_like(v) for _ in range(3))
    for blk in _BLOCKS:
        scalar[blk, blk], vector[blk, blk], tensor[blk, blk] = _decompose_block(v[blk, blk])

    f_k = np.array([1.0, 1.0, (3.0 * abs(polarization[1]) ** 2 - 1.0) / 2.0])
    xi = (atom.gamma_MHz**2 / 8.0 * probe.irradiance_rel * f_k
          * (_XI_WEIGHTS @ (1.0 / (probe.detuning_MHz - _resonance_table(atom)[1]))))
    return LightShiftOperator(v, scalar, vector, tensor, *xi.tolist())


def _clock_shift_poles(theta_deg: float, irradiance_rel: float,
                       atom: CsD1Constants) -> tuple[np.ndarray, np.ndarray]:
    """Weights w (kHz MHz) and poles r (MHz) of dU(Delta) = sum w / (Delta - r).

    The clock rows of :func:`line_strengths`: one pole per D1 resonance.
    """
    s, r = line_strengths(spherical_polarization(theta_deg), atom)
    clock = [IDX_DOWN, IDX_UP]
    pref = atom.gamma_MHz**2 / 8.0 * irradiance_rel * 1e3
    sign = np.array([[-1.0], [1.0]])  # <4,0|V|4,0> - <3,0|V|3,0>
    return (pref * sign * s[clock]).ravel(), r[clock].ravel()


def differential_clock_shift(probe: ProbeConfig, atom: CsD1Constants | None = None) -> float:
    """Differential light shift <4,0|V|4,0> - <3,0|V|3,0> in kHz."""
    atom = atom or CsD1Constants()
    check_off_resonance(probe.detuning_MHz, atom)
    w, r = _clock_shift_poles(probe.polarization_angle_deg, probe.irradiance_rel, atom)
    return float(np.sum(w / (probe.detuning_MHz - r)))


def dressed_clock_shift(probe: ProbeConfig, atom: CsD1Constants | None = None,
                        bias_field_G: float = 0.5) -> float:
    """Differential shift (kHz) of the Zeeman-dressed clock levels.

    Eigenvalue difference of Zeeman + light shift for the levels
    adiabatically connected to |4,0> and |3,0>.  Unlike the bare diagonal
    difference this includes second-order repulsion from the tensor
    couplings to |F, m != 0>, which is what the microwave transition
    frequency actually experiences.
    """
    from .atom import zeeman_hamiltonian

    atom = atom or CsD1Constants()
    h = zeeman_hamiltonian(bias_field_G, atom).astype(complex)
    h += light_shift_matrix(probe, atom)
    w, v = np.linalg.eigh(h)
    i_up = int(np.argmax(np.abs(v[IDX_UP, :]) ** 2))
    i_down = int(np.argmax(np.abs(v[IDX_DOWN, :]) ** 2))
    return float((w[i_up] - w[i_down]).real * 1e3)


def find_magic_detunings(theta_deg: float, window: tuple[float, float],
                         atom: CsD1Constants | None = None,
                         irradiance_rel: float = 1.0) -> list[MagicPoint]:
    """All zero crossings of the differential light shift inside ``window``.

    The zeros of dU = sum w / (Delta - r) are the real roots of its
    numerator, a polynomial of degree at most 3.  Zero-weight poles are
    dropped first: they are removable (at theta = 0 the pi amplitude
    |4,0> -> |4',0> vanishes) and would add a spurious root.  Roots within
    0.2 Gamma of a resonance are discarded.  An empty list is a valid
    return.
    """
    atom = atom or CsD1Constants()
    lo, hi = sorted(window)
    margin = 0.2 * atom.gamma_MHz
    for pos in resonance_positions_MHz(atom).values():
        if lo + margin < pos < hi - margin:
            raise ValueError(
                f"window ({lo}, {hi}) MHz contains the resonance at {pos} MHz"
            )
    w, r = _clock_shift_poles(theta_deg, irradiance_rel, atom)
    w, r = w[w != 0.0], r[w != 0.0]
    numerator = sum(wk * np.poly(np.delete(r, k)) for k, wk in enumerate(w))
    roots = np.roots(numerator)
    return [MagicPoint(float(d), theta_deg, float(np.sum(w / (d - r))))
            for d in np.sort(roots[roots.imag == 0].real)
            if lo <= d <= hi and nearest_resonance(d, atom)[0] > margin]


def tensor_fz2_check(probe: ProbeConfig, atom: CsD1Constants | None = None,
                     bias_field_G: float = 0.0,
                     averaging_time_ms: float = 1.0) -> float:
    """Largest residual coupling out of either |F,0> clock state (MHz).

    Off-diagonal light-shift elements connecting |F,0> to |F, m != 0> are
    suppressed by time-averaging over the Zeeman precession during
    ``averaging_time_ms`` (secular approximation); with no bias field the
    raw elements are returned, so the check is able to fail.
    """
    from .atom import zeeman_hamiltonian

    atom = atom or CsD1Constants()
    v = light_shift_matrix(probe, atom)
    hz = np.diag(zeeman_hamiltonian(bias_field_G, atom))
    worst = 0.0
    for f0, blk in zip((IDX_DOWN, IDX_UP), _BLOCKS):
        for j in range(blk.start, blk.stop):
            if j == f0:
                continue
            gap = hz[j] - hz[f0]
            # |(1/T) int_0^T exp(i 2 pi gap t) dt|; gap in MHz, T in ms
            factor = abs(np.sinc(gap * 1e3 * averaging_time_ms))
            worst = max(worst, abs(v[f0, j]) * factor)
    return worst


@dataclass(frozen=True)
class TwoColorSolution:
    """Two-frequency probe operating point that nulls the S3 = 0 signal."""

    detuning_34_MHz: float  # component between the F=3 -> F' transitions
    detuning_44_MHz: float  # component between the F=4 -> F' transitions
    power_ratio_34_over_44: float
    phase_34_rad: float  # per unit OD, equal clock mixture, unit power
    phase_44_rad: float

    def total_phase(self, p_up: float, p_down: float, od: float = 1.0) -> float:
        """Power-weighted two-color phase for clock populations (p_up, p_down)."""
        from .birefringence import state_phase_table

        total = 0.0
        for det, weight in (
            (self.detuning_44_MHz, 1.0),
            (self.detuning_34_MHz, self.power_ratio_34_over_44),
        ):
            phases = state_phase_table(ProbeConfig(det, 1.0, 45.0), od=od)
            total += weight * (p_up * phases[IDX_UP] + p_down * phases[IDX_DOWN])
        return float(total / (1.0 + self.power_ratio_34_over_44))


def two_color_balance(window_34: tuple[float, float], window_44: tuple[float, float],
                      theta_deg: float = 45.0,
                      atom: CsD1Constants | None = None) -> TwoColorSolution:
    """Choose one detuning per window and the power ratio nulling phi at S3 = 0.

    Prefers magic detunings in each window (falling back to the window
    midpoint when no root exists there); raises :class:`NoBalanceError`
    when the equal-mixture phases share a sign in both windows.
    """
    from .birefringence import state_phase_table

    atom = atom or CsD1Constants()

    def pick(window: tuple[float, float]) -> float:
        roots = find_magic_detunings(theta_deg, window, atom)
        if roots:
            center = 0.5 * (window[0] + window[1])
            return min(roots, key=lambda p: abs(p.detuning_MHz - center)).detuning_MHz
        return 0.5 * (window[0] + window[1])

    d34 = pick(window_34)
    d44 = pick(window_44)

    def mixture_phase(det: float) -> float:
        phases = state_phase_table(ProbeConfig(det, 1.0, theta_deg), atom, od=1.0)
        return float(0.5 * (phases[IDX_UP] + phases[IDX_DOWN]))

    phi34 = mixture_phase(d34)
    phi44 = mixture_phase(d44)
    if phi34 * phi44 >= 0.0:
        raise NoBalanceError(
            f"equal-mixture phases have the same sign: phi(34) = {phi34:.3e}, "
            f"phi(44) = {phi44:.3e}"
        )
    return TwoColorSolution(
        detuning_34_MHz=d34,
        detuning_44_MHz=d44,
        power_ratio_34_over_44=-phi44 / phi34,
        phase_34_rad=phi34,
        phase_44_rad=phi44,
    )
