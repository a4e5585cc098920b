"""Phase spectra, closed-form collective phase and SNR figures."""

import math

import numpy as np
import pytest

from clockprobe.atom import (
    EXCITED_HF_SPLITTING_MHZ,
    GAMMA_MHZ,
    IDX_DOWN,
    IDX_UP,
    CloudConfig,
    state_registry,
)
from clockprobe.birefringence import (
    aperture_factors,
    photon_flux_per_s,
    projection_noise_snr,
    snr_eta,
    state_phase_table,
)
from clockprobe.errors import ResonanceProximityError
from clockprobe.lightshift import (
    ProbeConfig,
    amplitude_tensor,
    RESONANCES_MHZ,
    spherical_polarization,
)
from closed_forms import PseudoSpin, collective_phase_eq1

MIDPOINT = -EXCITED_HF_SPLITTING_MHZ / 2.0  # -584 MHz


class TestPerStatePhase:
    def test_spin_up_matches_closed_form_at_midpoint(self):
        # the multi-level phase at the inter-resonance midpoint must agree
        # with the closed-form collective expression to within the 2%
        # contribution the closed form neglects
        full = state_phase_table(MIDPOINT, od=1.0)[IDX_UP]
        closed = collective_phase_eq1(PseudoSpin(1.0, 1.0), od=1.0)
        assert closed == pytest.approx(-(5.0 / 96.0) / 128.0 * 2.0, rel=1e-12)
        assert full == pytest.approx(closed, rel=0.02)

    def test_spin_down_small_at_midpoint(self):
        phases = state_phase_table(MIDPOINT)
        assert abs(phases[IDX_DOWN]) < 0.1 * abs(phases[IDX_UP])

    def test_phase_linear_in_od(self):
        p1 = state_phase_table(-400.0, od=1.0)[IDX_UP]
        p3 = state_phase_table(-400.0, od=3.0)[IDX_UP]
        assert p3 == pytest.approx(3.0 * p1, rel=1e-12)

    def test_sign_flip_across_resonance(self):
        left = state_phase_table(-40.0)[IDX_UP]
        right = state_phase_table(40.0)[IDX_UP]
        assert left * right < 0

    def test_raises_on_resonance(self):
        with pytest.raises(ResonanceProximityError):
            state_phase_table(0.1)
        with pytest.raises(ResonanceProximityError):
            state_phase_table(np.array([-400.0, -1168.1, -300.0]))

    def test_table_matches_amplitude_sum(self):
        # oracle: sum over all 16 x 16 ground/excited pairs of the x- minus
        # z-polarization dispersive shifts, each with its own detuning
        a = amplitude_tensor()
        exc_x = a @ spherical_polarization(90.0)
        exc_z = a @ spherical_polarization(0.0)
        reg = state_registry()
        for det in (-1100.0, -584.0, -335.0, -60.0, 40.0, 8300.0, 9500.0):
            oracle = np.array([sum(
                (abs(exc_x[g, e]) ** 2 - abs(exc_z[g, e]) ** 2)
                / (det - RESONANCES_MHZ[f"F={gF} -> F'={eF}"])
                for e, (eF, _) in enumerate(reg)) for g, (gF, _) in enumerate(reg)])
            oracle *= 2.5 / 2.0 * GAMMA_MHZ / 2.0
            # states whose x and z shifts cancel are zero up to round-off
            np.testing.assert_allclose(state_phase_table(det, od=2.5),
                                       oracle, rtol=1e-12,
                                       atol=1e-15 * np.abs(oracle).max())


def test_pseudospin_validation():
    with pytest.raises(ValueError):
        PseudoSpin(1.0, 1.5)


class TestSnr:
    def test_aperture_factors_bounds(self):
        phase_f, flux_f = aperture_factors(CloudConfig())
        assert 0 < phase_f < 1
        assert 0 < flux_f <= 1
        # wide flat probe: flux factor approaches 1, phase factor 1 - 1/e
        wide = CloudConfig(probe_radius_mm=100.0)
        phase_f, flux_f = aperture_factors(wide)
        assert flux_f == pytest.approx(1.0, abs=1e-3)
        assert phase_f == pytest.approx(1.0 - math.exp(-1.0), abs=1e-3)

    def test_flux_linear_in_irradiance_and_efficiency(self):
        cloud = CloudConfig()
        f1 = photon_flux_per_s(ProbeConfig(-400.0, 10.0, 45.0), cloud)
        f2 = photon_flux_per_s(ProbeConfig(-400.0, 20.0, 45.0), cloud)
        f3 = photon_flux_per_s(ProbeConfig(-400.0, 10.0, 45.0), cloud,
                               detection_efficiency=0.5)
        assert f2 == pytest.approx(2 * f1, rel=1e-12)
        assert f3 == pytest.approx(0.5 * f1, rel=1e-12)

    def test_eta_scales_as_sqrt_time_and_linearly_in_od(self):
        probe = ProbeConfig(-400.0, 16.0, 45.0)
        cloud1 = CloudConfig(od_resonant=1.0)
        cloud2 = CloudConfig(od_resonant=2.0)
        e1 = snr_eta(probe, cloud1, 1e-3)
        e2 = snr_eta(probe, cloud1, 4e-3)
        e3 = snr_eta(probe, cloud2, 1e-3)
        assert e2 == pytest.approx(2 * e1, rel=1e-12)
        assert e3 == pytest.approx(2 * e1, rel=1e-12)

    def test_projection_noise_snr_scales_as_sqrt_od(self):
        probe = ProbeConfig(-400.0, 16.0, 45.0)
        cloud = CloudConfig(od_resonant=2.5)
        scale = 400.0
        big = CloudConfig(od_resonant=2.5 * scale,
                          atom_number=cloud.atom_number * scale)
        pn_small = projection_noise_snr(probe, cloud, 1e-3)
        pn_big = projection_noise_snr(probe, big, 1e-3)
        assert pn_big / pn_small == pytest.approx(math.sqrt(scale), rel=1e-12)

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            snr_eta(ProbeConfig(-400.0, 16.0, 45.0), CloudConfig(), 0.0)
