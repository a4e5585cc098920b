"""Phase spectra, closed-form collective phase, polarimetry and SNR figures."""

import math

import numpy as np
import pytest

from clockprobe.atom import (
    EXCITED_HF_SPLITTING_MHZ,
    GAMMA_MHZ,
    CloudConfig,
    state_index,
    state_registry,
)
from clockprobe.birefringence import (
    PseudoSpin,
    StokesVector,
    aperture_factors,
    apply_birefringence,
    collective_phase_eq1,
    faraday_benchmark_phase,
    per_state_phase,
    photon_flux_per_s,
    polarimeter_signal,
    projection_noise_snr,
    shot_noise_trace,
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

UP = state_registry()[state_index(4, 0)]
DOWN = state_registry()[state_index(3, 0)]
MIDPOINT = -EXCITED_HF_SPLITTING_MHZ / 2.0  # -584 MHz


class TestPerStatePhase:
    def test_spin_up_matches_closed_form_at_midpoint(self):
        # the multi-level phase at the inter-resonance midpoint must agree
        # with the closed-form collective expression to within the 2%
        # contribution the closed form neglects
        probe = ProbeConfig(MIDPOINT, 16.0, 45.0)
        full = per_state_phase(UP, probe, od=1.0)
        closed = collective_phase_eq1(PseudoSpin(1.0, 1.0), od=1.0)
        assert closed == pytest.approx(-(5.0 / 96.0) / 128.0 * 2.0, rel=1e-12)
        assert full == pytest.approx(closed, rel=0.02)

    def test_spin_down_small_at_midpoint(self):
        probe = ProbeConfig(MIDPOINT, 16.0, 45.0)
        assert abs(per_state_phase(DOWN, probe)) < 0.1 * abs(
            per_state_phase(UP, probe))

    def test_phase_linear_in_od(self):
        probe = ProbeConfig(-400.0, 16.0, 45.0)
        p1 = per_state_phase(UP, probe, od=1.0)
        p3 = per_state_phase(UP, probe, od=3.0)
        assert p3 == pytest.approx(3.0 * p1, rel=1e-12)

    def test_sign_flip_across_resonance(self):
        left = per_state_phase(UP, ProbeConfig(-40.0, 16.0, 45.0))
        right = per_state_phase(UP, ProbeConfig(40.0, 16.0, 45.0))
        assert left * right < 0

    def test_raises_on_resonance(self):
        with pytest.raises(ResonanceProximityError):
            per_state_phase(UP, ProbeConfig(0.1, 16.0, 45.0))

    def test_table_matches_individual_states(self):
        probe = ProbeConfig(-500.0, 16.0, 45.0)
        table = state_phase_table(probe, od=2.0)
        assert len(table) == 16
        assert table[state_index(4, 0)] == pytest.approx(
            per_state_phase(UP, probe, od=2.0))

    def test_table_matches_amplitude_sum(self):
        # oracle: sum over all 16 x 16 ground/excited pairs of the x- minus
        # z-polarization dispersive shifts, each with its own detuning
        a = amplitude_tensor()
        exc_x = a @ spherical_polarization(90.0)
        exc_z = a @ spherical_polarization(0.0)
        reg = state_registry()
        for det in (-1100.0, -584.0, -335.0, -60.0, 40.0, 8300.0, 9500.0):
            probe = ProbeConfig(det, 16.0, 45.0)
            oracle = np.array([sum(
                (abs(exc_x[g, e]) ** 2 - abs(exc_z[g, e]) ** 2)
                / (det - RESONANCES_MHZ[f"F={gs.F} -> F'={es.F}"])
                for e, es in enumerate(reg)) for g, gs in enumerate(reg)])
            oracle *= 2.5 / 2.0 * GAMMA_MHZ / 2.0
            # states whose x and z shifts cancel are zero up to round-off
            np.testing.assert_allclose(state_phase_table(probe, od=2.5),
                                       oracle, rtol=1e-12,
                                       atol=1e-15 * np.abs(oracle).max())

    def test_faraday_benchmark_ratio(self):
        # birefringent signal is ~30% of the matched Faraday benchmark
        probe = ProbeConfig(MIDPOINT, 16.0, 45.0)
        biref = abs(per_state_phase(UP, probe, od=1.0))
        faraday = faraday_benchmark_phase(od=1.0)
        assert biref / faraday == pytest.approx(0.30, abs=0.05)


class TestStokes:
    def test_rotation_preserves_magnitude(self):
        s = StokesVector(1.0, 0.2, 0.9, 0.1)
        r = apply_birefringence(s, 0.7)
        assert r.degree_of_polarization == pytest.approx(s.degree_of_polarization)
        assert r.j1 == s.j1

    def test_small_angle_moves_j2_into_j3(self):
        s = StokesVector(1.0, 0.0, 1.0, 0.0)
        r = apply_birefringence(s, 1e-3)
        assert polarimeter_signal(r) == pytest.approx(1e-3, rel=1e-5)

    def test_signal_linear_in_phase(self):
        s = StokesVector(1.0, 0.0, 1.0, 0.0)
        j3 = [polarimeter_signal(apply_birefringence(s, phi))
              for phi in (1e-4, 2e-4, 4e-4)]
        assert j3[1] == pytest.approx(2 * j3[0], rel=1e-6)
        assert j3[2] == pytest.approx(4 * j3[0], rel=1e-6)

    def test_pseudospin_validation(self):
        with pytest.raises(ValueError):
            PseudoSpin(1.0, 1.5)


class TestShotNoise:
    def test_variance_matches_prediction(self):
        flux, dt = 1e12, 1e-6
        clean = np.zeros(200_000)
        noisy = shot_noise_trace(clean, flux, dt, seed=5)
        sigma = np.std(noisy)
        assert sigma == pytest.approx(1.0 / math.sqrt(2 * flux * dt), rel=0.02)

    def test_deterministic_per_seed(self):
        clean = np.zeros(100)
        a = shot_noise_trace(clean, 1e12, 1e-6, seed=9)
        b = shot_noise_trace(clean, 1e12, 1e-6, seed=9)
        c = shot_noise_trace(clean, 1e12, 1e-6, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shot_noise_trace(np.zeros(4), -1.0, 1e-6, 0)


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
        pn_small = projection_noise_snr(cloud, probe, 1e-3)
        pn_big = projection_noise_snr(big, probe, 1e-3)
        assert pn_big / pn_small == pytest.approx(math.sqrt(scale), rel=1e-12)

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            snr_eta(ProbeConfig(-400.0, 16.0, 45.0), CloudConfig(), 0.0)
