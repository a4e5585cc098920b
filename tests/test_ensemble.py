"""Inhomogeneity averaging, decay-time extraction, calibrated sweeps."""

import dataclasses
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.special import ndtri

from clockprobe.atom import GAMMA_MHZ
from clockprobe.birefringence import projection_noise_snr
from clockprobe.dynamics import (
    MicrowaveConfig,
    RunSetup,
    SimulationConfig,
    run_simulation,
)
from clockprobe.ensemble import (
    InhomogeneityConfig,
    MeasurementFigure,
    _stratified_factors,
    calibrated_irradiance,
    ensemble_average,
    generalized_rabi_kHz,
    measurement_figure,
    operating_point,
    sweep,
)
from clockprobe.dynamics import clock_mixture, pumping_jump_operators, scattering_rate_per_ms
from clockprobe.errors import InvariantViolationError
from clockprobe.fitting import decay_time, rabi_frequency
from clockprobe.lightshift import (
    ProbeConfig,
    dressed_clock_shift,
    find_magic_detunings,
    resonance_distance,
)

MAGIC = find_magic_detunings(45.0, (-1100.0, -50.0))[0].detuning_MHz


def make_setup(detuning=MAGIC, rate=1.25, mw_kHz=2.0, loss=0.0, t_span=3.0):
    s_cal = calibrated_irradiance(detuning, 45.0, rate)
    return RunSetup(
        probe=ProbeConfig(detuning, s_cal, 45.0),
        microwave=MicrowaveConfig(rabi_kHz=mw_kHz),
        simulation=SimulationConfig(t_span_ms=t_span, dt_ms=0.005,
                                    extra_loss_per_ms=loss,
                                    scattering_rate_per_ms=rate),
    )


class TestStratifiedFactors:
    def test_zero_spread_gives_unity(self):
        assert np.all(_stratified_factors(0.0, 8) == 1.0)

    def test_moments_match_gaussian(self):
        f = _stratified_factors(0.15, 64)
        assert np.mean(f) == pytest.approx(1.0, abs=1e-3)
        assert np.std(f) == pytest.approx(0.15, rel=0.05)

    def test_factors_positive(self):
        # a spread whose lowest factor would be <= 0 is rejected, so every
        # accepted one gives positive, unclipped factors
        with pytest.raises(ValueError, match="probe_irradiance_rms_frac"):
            InhomogeneityConfig(0.5, n_samples=32)
        with pytest.raises(ValueError, match="mw_irradiance_rms_frac"):
            InhomogeneityConfig(0.0, 0.5, n_samples=32)
        InhomogeneityConfig(0.45, 0.45, n_samples=32)
        f = _stratified_factors(0.45, 32)
        assert f.min() == 1.0 + 0.45 * ndtri(0.5 / 32) > 0

    def test_ndtri_bitwise_equal_to_norm_ppf(self):
        from scipy.stats import norm

        for n in range(1, 101):
            q = (np.arange(n) + 0.5) / n
            assert np.array_equal(ndtri(q), norm.ppf(q)), n


class TestEnsembleAverage:
    @pytest.mark.parametrize("n_samples", [3, 4])
    def test_reduces_to_single_run_without_spread(self, n_samples):
        setup = make_setup()
        inh = InhomogeneityConfig(0.0, 0.0, n_samples=n_samples, seed=0)
        avg = ensemble_average(setup, inh)
        single = run_simulation(setup)
        for field in ("signal_rad", "s3", "populations", "lost"):
            assert np.array_equal(getattr(avg, field), getattr(single, field))

    def test_members_are_derived_setups(self):
        # each member is the setup at its probe and microwave factors, the
        # scattering rate scaled with the probe; summed in member order
        setup = make_setup(t_span=0.5)
        inh = InhomogeneityConfig(0.15, 0.1, n_samples=2, seed=1)
        probe_f = _stratified_factors(0.15, 2)
        mw_f = _stratified_factors(0.1, 2)[np.random.default_rng(1).permutation(2)]
        members = [run_simulation(replace(
            setup, probe=replace(setup.probe, irradiance_rel=setup.probe.irradiance_rel * p),
            microwave=replace(setup.microwave, rabi_kHz=2.0 * m),
            simulation=replace(setup.simulation, scattering_rate_per_ms=1.25 * p)))
            for p, m in zip(probe_f, mw_f)]
        avg = ensemble_average(setup, inh)
        for field in ("signal_rad", "s3", "populations", "lost"):
            a, b = (getattr(r, field) for r in members)
            assert np.array_equal(getattr(avg, field), (a + b) / 2)

    def test_deterministic_per_seed(self):
        setup = make_setup(t_span=1.0)
        inh = InhomogeneityConfig(0.15, 0.015, n_samples=4, seed=3)
        a = ensemble_average(setup, inh)
        b = ensemble_average(setup, inh)
        assert np.array_equal(a.s3, b.s3)

    def test_mw_spread_dephases_oscillation(self):
        # fast drive so frequency spread, not scattering, sets the envelope
        setup = make_setup(mw_kHz=10.0, t_span=3.0)
        homog = decay_time(ensemble_average(
            setup, InhomogeneityConfig(0.0, 0.0, 1, 0)), freq_hint_kHz=10.0)
        spread = decay_time(ensemble_average(
            setup, InhomogeneityConfig(0.0, 0.10, 16, 0)), freq_hint_kHz=10.0)
        assert spread < 0.7 * homog


class TestCalibration:
    def test_calibrated_rate_is_exact(self):
        s = calibrated_irradiance(MAGIC, 45.0, 2.0)
        jumps = pumping_jump_operators(ProbeConfig(MAGIC, s, 45.0))
        assert scattering_rate_per_ms(jumps, clock_mixture(0.5)) == \
            pytest.approx(2.0, rel=1e-12)

    def test_rate_scale_is_physical(self):
        # (0.8 ms)^-1 at the magic detuning needs tens of saturation
        # intensities, matching the strong-probe operating point
        s = calibrated_irradiance(MAGIC, 45.0, 1.25)
        assert 10 < s < 60


class TestOperatingPoint:
    @pytest.mark.parametrize("det", [-1000.0, -600.0, -100.0])
    def test_recalibrates_to_the_setup_rate(self, det):
        point = operating_point(make_setup(rate=1.25), det)
        assert point.probe.detuning_MHz == det
        assert point.probe.irradiance_rel == calibrated_irradiance(
            det, 45.0, 1.25)
        assert point.simulation.scattering_rate_per_ms == 1.25

    def test_keeps_the_irradiance_without_a_rate(self):
        setup = make_setup()
        setup = replace(setup, simulation=replace(setup.simulation,
                                                  scattering_rate_per_ms=None))
        point = operating_point(setup, -600.0)
        assert point.probe == replace(setup.probe, detuning_MHz=-600.0)


class TestGeneralizedRabi:
    @pytest.mark.parametrize("drive_det_kHz", [1.0, -1.5])
    @pytest.mark.parametrize("detuning_MHz", [MAGIC, -600.0], ids=["magic", "-600"])
    def test_drive_detuning_enters_the_clock_splitting(self, detuning_MHz,
                                                       drive_det_kHz):
        # the F = 4 block sits at -delta in the rotating frame, so the
        # dressed clock splitting is dU - delta; the chevron operating point
        setup = RunSetup(probe=ProbeConfig(detuning_MHz, 16.0, 45.0),
                         microwave=MicrowaveConfig(rabi_kHz=2.0,
                                                   detuning_kHz=drive_det_kHz),
                         simulation=SimulationConfig(t_span_ms=3.0, dt_ms=0.005))
        du = dressed_clock_shift(setup.probe, bias_field_G=setup.cloud.bias_field_G)
        expected = math.hypot(2.0, du - drive_det_kHz)
        assert generalized_rabi_kHz(setup) == pytest.approx(expected, rel=1e-12)
        omega = rabi_frequency(run_simulation(setup), freq_hint_kHz=expected)
        assert abs(omega - expected) / expected <= 0.02  # acceptance 04's bound


class TestDecayPhysics:
    def test_decay_time_inverse_in_scattering_rate(self):
        rates = [0.625, 1.25, 2.5]
        products = []
        for rate in rates:
            # span ~4 decay times and several oscillation periods per tau
            rec = run_simulation(make_setup(rate=rate, mw_kHz=5.0,
                                            t_span=min(5.0, 3.2 / rate)))
            products.append(decay_time(rec, freq_hint_kHz=5.0) * rate)
        mean = np.mean(products)
        assert np.abs(products - mean).max() / mean < 0.05


class TestMeasurementFigure:
    def test_figure_holds_only_figures_of_merit(self):
        # whether a point was masked or failed is sweep's outcome, not a figure
        assert [f.name for f in dataclasses.fields(MeasurementFigure)] == \
            ["detuning_MHz", "tau_d_ms", "omega_kHz", "eta", "pn_snr"]


def _figures(setup, inhomog, grid):
    return sweep(partial(measurement_figure, setup, inhomog, 1.0), grid, 5.0)


class TestSweep:
    def test_sweep_masks_near_resonance_and_fills_figures(self):
        setup = make_setup(t_span=3.0)
        inh = InhomogeneityConfig(0.0, 0.0, 1, 0)
        outcomes = _figures(setup, inh, [-10.0, MAGIC, -500.0])
        assert outcomes[0] == (None, True, "")
        good, masked, error = outcomes[1]
        assert not masked and not error
        assert good.omega_kHz == pytest.approx(2.0, rel=0.01)
        assert good.eta_sq == pytest.approx(good.eta**2)
        assert good.pn_snr > 0
        # off the magic point the light shift detunes the drive strongly
        assert outcomes[2][0].omega_kHz > 5 * good.omega_kHz

    def test_mask_reads_the_resonance_distance(self):
        # exactly mask_gamma off is masked, just beyond it is computed
        edge = -1168.0 + 2 * GAMMA_MHZ
        grid = [-500.0, edge, edge + 1e-9, 9192.6]
        rows = sweep(abs, grid, mask_gamma=2.0)
        assert [masked for _, masked, _ in rows] == \
            (resonance_distance(grid).min(axis=-1) <= 2 * GAMMA_MHZ).tolist() == \
            [False, True, False, True]
        assert rows[0] == (500.0, False, "")

    def test_pn_snr_is_eta_over_twice_root_n(self):
        setup = make_setup()
        fig = measurement_figure(setup, InhomogeneityConfig(0.0, 0.0, 1, 0), 1.0, MAGIC)
        pn = projection_noise_snr(operating_point(setup, MAGIC).probe, setup.cloud,
                                  fig.tau_d_ms * 1e-3)
        assert fig.pn_snr == fig.eta / (2.0 * math.sqrt(setup.cloud.atom_number)) == pn

    def test_invariant_violation_recorded_per_point(self, monkeypatch):
        from clockprobe import ensemble

        def violate(*args, **kwargs):
            raise InvariantViolationError("positivity violated at t = 0.01 ms")

        monkeypatch.setattr(ensemble, "run_simulation", violate)
        outcomes = _figures(make_setup(), InhomogeneityConfig(0.0, 0.0, 1, 0),
                            [MAGIC, -500.0])
        assert outcomes == [(None, False, "positivity violated at t = 0.01 ms")] * 2
