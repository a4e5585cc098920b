"""Inhomogeneity averaging and detuning sweeps.

Probe and microwave irradiance spreads are sampled as one scalar per
ensemble member (each member is an atom subgroup at fixed local
irradiance), using deterministic stratified Gaussian quantiles so that
figures are reproducible.  They have not converged at n = 16: off the
magic point, tau_d is 1-2 % off its n = 64 value.  :func:`sweep` drives
every evolution sweep over the probe detuning, in process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .atom import GAMMA_MHZ
from .birefringence import projection_noise_snr, snr_eta
from .dynamics import (
    RunSetup,
    SimRecord,
    check_fits_in_memory,
    pumping_jump_operators,
    run_simulation,
    scattering_rate_per_ms,
    clock_mixture,
)
from .errors import ClockProbeError
from .fitting import decay_time, rabi_frequency
from .lightshift import ProbeConfig, dressed_clock_shift, resonance_distance

__all__ = [
    "InhomogeneityConfig",
    "ChevronPoint",
    "MeasurementFigure",
    "ensemble_average",
    "calibrated_irradiance",
    "generalized_rabi_kHz",
    "operating_point",
    "chevron_point",
    "measurement_figure",
    "sweep",
]


@dataclass(frozen=True)
class InhomogeneityConfig:
    probe_irradiance_rms_frac: float = 0.15
    mw_irradiance_rms_frac: float = 0.0
    n_samples: int = 16
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.probe_irradiance_rms_frac < math.inf
                and 0 <= self.mw_irradiance_rms_frac < math.inf):
            raise ValueError("rms fractions must be >= 0 and finite")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        # ensemble_average's probe and microwave factors and their pairing
        check_fits_in_memory(3 * 8 * self.n_samples, f"n_samples = {self.n_samples}")
        for name in ("probe_irradiance_rms_frac", "mw_irradiance_rms_frac"):
            lowest = _stratified_factors(getattr(self, name), self.n_samples)[0]
            if not lowest > 0:
                raise ValueError(f"{name} = {getattr(self, name):g}: the lowest of "
                                 f"{self.n_samples} factors is {lowest:.3g} <= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class ChevronPoint(NamedTuple):
    """Fitted and analytic Rabi frequency and their residual: chevron.csv's columns."""

    omega_kHz: float
    omega_analytic_kHz: float
    rel_residual: float


class MeasurementFigure(NamedTuple):
    """Figures of merit at one operating point: measurement.csv's columns."""

    tau_d_ms: float
    omega_kHz: float
    eta: float
    eta_sq: float
    pn_snr: float


def _stratified_factors(rms_frac: float, n: int) -> np.ndarray:
    """1 + rms_frac times the standard normal quantiles at (k + 1/2)/n, ascending."""
    return 1.0 + rms_frac * ndtri((np.arange(n) + 0.5) / n)


def ensemble_average(setup: RunSetup, inhomog: InhomogeneityConfig) -> SimRecord:
    """Average of independent evolutions over the irradiance distributions.

    Each member is ``setup`` at one probe and one microwave irradiance
    factor: probe factors scale both the light shift and the pumping rate;
    microwave factors scale the Rabi frequency.  The pairing of the two
    stratified lattices is a seeded random permutation, so the result is
    deterministic per seed, and with zero spreads (or n_samples = 1) it
    reduces exactly to a single evolution.  The records are summed as they
    arrive, so one member record is held at a time.
    """
    if not (inhomog.probe_irradiance_rms_frac or inhomog.mw_irradiance_rms_frac):
        return run_simulation(setup)
    probe_f = _stratified_factors(inhomog.probe_irradiance_rms_frac, inhomog.n_samples)
    mw_f = _stratified_factors(inhomog.mw_irradiance_rms_frac, inhomog.n_samples)
    rng = np.random.default_rng(inhomog.seed)
    mw_f = mw_f[rng.permutation(inhomog.n_samples)]

    probe, mw, sim = setup.probe, setup.microwave, setup.simulation
    fields = ("signal_rad", "s3", "populations", "lost")
    sums = None
    for pf, mf in zip(probe_f.tolist(), mw_f.tolist()):
        rec = run_simulation(replace(
            setup, probe=replace(probe, irradiance_rel=probe.irradiance_rel * pf),
            microwave=replace(mw, rabi_kHz=mw.rabi_kHz * mf),
            simulation=sim if sim.scattering_rate_per_ms is None else replace(
                sim, scattering_rate_per_ms=sim.scattering_rate_per_ms * pf)))
        if sums is None:
            times, sums = rec.times_ms, [getattr(rec, f).copy() for f in fields]
        else:
            for total, f in zip(sums, fields):
                total += getattr(rec, f)
    n = inhomog.n_samples
    return SimRecord(times, *(total / n for total in sums))


def generalized_rabi_kHz(setup: RunSetup) -> float:
    """sqrt(chi^2 + (dU - delta)^2) (kHz): the drive dressed by the clock shift.

    dU is the probe's dressed clock shift and delta the drive detuning, by
    which ``build_hamiltonian`` lowers the F = 4 block.
    """
    mw = setup.microwave
    return math.hypot(mw.rabi_kHz, dressed_clock_shift(
        setup.probe, bias_field_G=setup.cloud.bias_field_G) - mw.detuning_kHz)


def calibrated_irradiance(detuning_MHz: float, theta_deg: float,
                          target_rate_per_ms: float) -> float:
    """I/I_sat giving ``target_rate_per_ms`` for the equal clock mixture.

    Implements the constant-scattering-rate sweep protocol: the rate is
    linear in irradiance, so one evaluation fixes the scale.  It is taken at
    2**-20 I_sat, far below what :func:`check_far_detuned` rejects, so that
    only the calibrated probe is judged; a power of two scales exactly.
    """
    jumps = pumping_jump_operators(ProbeConfig(detuning_MHz, 2.0**-20, theta_deg))
    r_unit = scattering_rate_per_ms(jumps, clock_mixture(0.5)) * 2.0**20
    return target_rate_per_ms / r_unit


def operating_point(setup: RunSetup, detuning_MHz: float) -> RunSetup:
    """``setup`` with its probe at ``detuning_MHz``.

    This is the constant-scattering-rate rule: when
    ``setup.simulation.scattering_rate_per_ms`` is set, the probe
    irradiance is recalibrated so that the equal clock mixture scatters at
    that rate at this detuning; otherwise the irradiance is kept.
    """
    probe = replace(setup.probe, detuning_MHz=detuning_MHz)
    rate = setup.simulation.scattering_rate_per_ms
    if rate is not None:
        probe = replace(probe, irradiance_rel=calibrated_irradiance(
            detuning_MHz, probe.polarization_angle_deg, rate))
    return replace(setup, probe=probe)


def sweep(point, detunings_MHz, mask_gamma: float) -> list[tuple]:
    """``(point(det), masked, error)`` for each detuning, in grid order.

    Detunings within ``mask_gamma`` linewidths of a resonance are masked,
    not computed; a ``ClockProbeError`` at a point becomes its error.
    """
    grid = [float(d) for d in detunings_MHz]
    masked = (resonance_distance(grid).min(axis=-1) <= mask_gamma * GAMMA_MHZ).tolist()
    rows = []
    for det, m in zip(grid, masked):
        if m:
            rows.append((None, True, ""))
            continue
        try:
            rows.append((point(det), False, ""))
        except ClockProbeError as exc:
            rows.append((None, False, str(exc)))
    return rows


def chevron_point(setup: RunSetup, inhomog: InhomogeneityConfig,
                  det: float) -> ChevronPoint:
    """Fitted Rabi frequency of the ensemble at :func:`operating_point`
    ``(setup, det)`` against :func:`generalized_rabi_kHz`; ``det`` comes
    last, so that a ``partial`` of the rest is a :func:`sweep` point."""
    point = operating_point(setup, det)
    analytic = generalized_rabi_kHz(point)
    omega = rabi_frequency(ensemble_average(point, inhomog), freq_hint_kHz=analytic)
    return ChevronPoint(omega, analytic, abs(omega - analytic) / analytic)


def measurement_figure(setup: RunSetup, inhomog: InhomogeneityConfig,
                       detection_efficiency: float,
                       det: float) -> MeasurementFigure:
    """Fitted tau_d and Omega, eta and projection-noise SNR of the ensemble
    at :func:`operating_point` ``(setup, det)``, a :func:`sweep` point as
    :func:`chevron_point` is."""
    point = operating_point(setup, det)
    hint = generalized_rabi_kHz(point)
    rec = ensemble_average(point, inhomog)
    tau_ms = decay_time(rec, freq_hint_kHz=hint)
    omega = rabi_frequency(rec, freq_hint_kHz=hint)
    eta = snr_eta(point.probe, setup.cloud, tau_ms * 1e-3, detection_efficiency)
    pn = projection_noise_snr(point.probe, setup.cloud, tau_ms * 1e-3,
                              detection_efficiency)
    return MeasurementFigure(tau_ms, omega, eta, eta**2, pn)
