"""Birefringent phase spectra, SNR figures and the two-color balance.

Sign convention: the per-state phase is the x-component optical phase
minus the z-component phase.  Absorption is neglected everywhere (the
signal model is purely dispersive); near-resonance operating points raise
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atom import (
    GAMMA_MHZ,
    I_SAT_W_M2,
    IDX_DOWN,
    IDX_UP,
    PHOTON_ENERGY_J,
    CloudConfig,
)
from .errors import NoBalanceError
from .lightshift import (
    ProbeConfig,
    check_off_resonance,
    find_magic_detunings,
    line_strengths,
    pole_sum,
    spherical_polarization,
)

__all__ = [
    "state_phase_table",
    "photon_flux_per_s",
    "snr_eta",
    "projection_noise_snr",
    "TwoColorSolution",
    "two_color_balance",
]


def state_phase_table(detuning_MHz, od: float = 1.0) -> np.ndarray:
    """Birefringent phase (rad) of each of the 16 registry states, as one array.

    Entry g is the phase if all atoms occupy state g: the difference of the
    x- and z-polarization dispersive phase shifts, summed over both excited
    hyperfine levels with their oscillator strengths.  A detuning array's
    shape precedes the state axis; each element must be off resonance.
    """
    check_off_resonance(detuning_MHz)
    s_x, r = line_strengths(spherical_polarization(90.0))
    s_z, _ = line_strengths(spherical_polarization(0.0))
    return pole_sum(od / 2.0 * (GAMMA_MHZ / 2.0) * (s_x - s_z), r, detuning_MHz)


def aperture_factors(cloud: CloudConfig) -> tuple[float, float]:
    """(phase factor, flux factor) for the cloud-matched imaging aperture.

    The imaging system selects only the probe light passing through the
    cloud (aperture radius = cloud 1/e radius).  The detected flux is
    reduced by the Gaussian probe profile across the aperture, and the
    signal-weighted phase is reduced because the Gaussian column density
    falls off across the aperture; both factors follow in closed form.
    """
    a2 = cloud.cloud_radius_mm**2  # aperture radius = cloud radius
    alpha = 1.0 / cloud.cloud_radius_mm**2 + 1.0 / cloud.probe_radius_mm**2
    beta = 1.0 / cloud.probe_radius_mm**2
    flux_factor = -math.expm1(-beta * a2) / (beta * a2)
    phase_factor = (-math.expm1(-alpha * a2) / alpha) / (-math.expm1(-beta * a2) / beta)
    return phase_factor, flux_factor


def photon_flux_per_s(probe: ProbeConfig, cloud: CloudConfig,
                      detection_efficiency: float = 1.0) -> float:
    """Detected photon flux through the cloud-matched aperture."""
    irradiance = probe.irradiance_rel * I_SAT_W_M2
    area = math.pi * (cloud.cloud_radius_mm * 1e-3) ** 2
    _, flux_factor = aperture_factors(cloud)
    return detection_efficiency * irradiance * area * flux_factor / PHOTON_ENERGY_J


def snr_eta(probe: ProbeConfig, cloud: CloudConfig, tau_d_s: float,
            detection_efficiency: float = 1.0) -> float:
    """SNR eta for a full-scale (S3 = S) measurement at bandwidth 1/tau_d.

    Uses the signal-weighted phase across the aperture; ``od_resonant`` is
    the peak optical density of the Gaussian cloud.
    """
    if tau_d_s <= 0:
        raise ValueError("tau_d_s must be > 0")
    phi = float(state_phase_table(probe.detuning_MHz, od=cloud.od_resonant)[IDX_UP])
    phase_factor, _ = aperture_factors(cloud)
    flux = photon_flux_per_s(probe, cloud, detection_efficiency)
    return abs(phi) * phase_factor * math.sqrt(2.0 * flux * tau_d_s)


def projection_noise_snr(probe: ProbeConfig, cloud: CloudConfig, tau_d_s: float,
                         detection_efficiency: float = 1.0) -> float:
    """SNR for resolving the coherent-state fluctuation sqrt(N) of S3 near 0."""
    eta = snr_eta(probe, cloud, tau_d_s, detection_efficiency)
    return eta / (2.0 * math.sqrt(cloud.atom_number))


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
        ratio = self.power_ratio_34_over_44
        dets = np.array([self.detuning_44_MHz, self.detuning_34_MHz])
        phases = state_phase_table(dets, od=od)
        phi44, phi34 = p_up * phases[:, IDX_UP] + p_down * phases[:, IDX_DOWN]
        return float((phi44 + ratio * phi34) / (1.0 + ratio))


def two_color_balance(window_34: tuple[float, float], window_44: tuple[float, float],
                      theta_deg: float = 45.0) -> TwoColorSolution:
    """Choose one detuning per window and the power ratio nulling phi at S3 = 0.

    Prefers magic detunings in each window (falling back to the window
    midpoint when no root exists there); raises :class:`NoBalanceError`
    when the equal-mixture phases share a sign in both windows.
    """

    def pick(window: tuple[float, float]) -> float:
        roots = find_magic_detunings(theta_deg, window)
        if roots:
            center = 0.5 * (window[0] + window[1])
            return min(roots, key=lambda p: abs(p.detuning_MHz - center)).detuning_MHz
        return 0.5 * (window[0] + window[1])

    d34 = pick(window_34)
    d44 = pick(window_44)
    phases = state_phase_table(np.array([d34, d44]))
    phi34, phi44 = (0.5 * (phases[:, IDX_UP] + phases[:, IDX_DOWN])).tolist()
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
