"""Decaying-sinusoid fitting on synthetic records, and on simulated ones
against the generator's dominant mode."""

import numpy as np
import pytest
from closed_forms import dominant_mode

from clockprobe.atom import IDX_DOWN, IDX_UP, N_GROUND
from clockprobe.config import load_config
from clockprobe.dynamics import (
    MicrowaveConfig,
    RunSetup,
    build_hamiltonian,
    liouvillian,
    pumping_jump_operators,
    pure_state,
)
from clockprobe.ensemble import chevron_point, operating_point
from clockprobe.errors import FitFailureError
from clockprobe.fitting import (
    _analytic_signal,
    _moving_average,
    fit_decaying_sinusoid,
)

T = np.arange(0, 3.0, 0.005)
RNG = np.random.default_rng(42)


def synth(f_kHz, tau_ms, beta=1.0, amp=1.0, offset=0.0, bg_amp=0.0,
          bg_tau=1.0, noise=0.0):
    y = offset + bg_amp * np.exp(-T / bg_tau)
    y = y + amp * np.exp(-((T / tau_ms) ** beta)) * np.cos(2 * np.pi * f_kHz * T)
    if noise:
        y = y + RNG.normal(0, noise, len(T))
    return y


class TestRecovery:
    def test_plain_decaying_sinusoid(self):
        fit = fit_decaying_sinusoid(T, synth(2.0, 1.2), freq_hint_kHz=1.85)
        assert fit.freq_kHz == pytest.approx(2.0, rel=1e-4)
        assert fit.tau_ms == pytest.approx(1.2, rel=1e-3)
        assert fit.beta == pytest.approx(1.0, rel=1e-2)

    def test_stretched_envelope(self):
        fit = fit_decaying_sinusoid(T, synth(3.0, 0.8, beta=2.0),
                                    freq_hint_kHz=3.2)
        assert fit.freq_kHz == pytest.approx(3.0, rel=1e-4)
        assert fit.tau_ms == pytest.approx(0.8, rel=1e-2)
        assert fit.beta == pytest.approx(2.0, rel=0.05)

    def test_with_background_drift_and_noise(self):
        y = synth(2.5, 1.0, amp=0.3, offset=0.2, bg_amp=0.8, bg_tau=0.7,
                  noise=0.01)
        fit = fit_decaying_sinusoid(T, y, freq_hint_kHz=2.35)
        assert fit.freq_kHz == pytest.approx(2.5, rel=1e-2)
        assert fit.tau_ms == pytest.approx(1.0, rel=0.1)

    def test_small_oscillation_on_large_drift_needs_hint(self):
        # 0.5% oscillation riding on a unit-scale pumping drift
        y = synth(30.0, 2.0, amp=0.005, bg_amp=1.0, bg_tau=0.9)
        fit = fit_decaying_sinusoid(T, y, freq_hint_kHz=28.0)
        assert fit.freq_kHz == pytest.approx(30.0, rel=1e-3)

    def test_undamped(self):
        fit = fit_decaying_sinusoid(T, synth(4.0, 1e9), freq_hint_kHz=3.7)
        assert fit.freq_kHz == pytest.approx(4.0, rel=1e-6)


class TestFailures:
    def test_too_short_record(self):
        with pytest.raises(FitFailureError):
            fit_decaying_sinusoid(T[:8], synth(2.0, 1.0)[:8], freq_hint_kHz=1.85)

    def test_too_few_periods(self):
        # a hint <= 0 or NaN fails here too
        for hint in (0.47, 0.0, float("nan")):
            with pytest.raises(FitFailureError, match="periods"):
                fit_decaying_sinusoid(T, synth(0.5, 5.0), freq_hint_kHz=hint)

    def test_pure_noise_rejected(self):
        y = RNG.normal(0, 1.0, len(T))
        with pytest.raises(FitFailureError):
            fit_decaying_sinusoid(T, y, freq_hint_kHz=5.0)

    def test_envelope_shorter_than_a_quarter_period_rejected(self):
        # a smooth drift whose first sample alone is displaced holds no
        # oscillation, yet an envelope that dies within that sample fits
        # it to 1e-11 and names a frequency; the envelope's 1/e time must
        # cover a quarter period (tau f >= 0.25)
        y = synth(20.0, 1.0, amp=0.0, offset=-0.97, bg_amp=-0.03, bg_tau=1.5)
        y[0] -= 0.01
        with pytest.raises(FitFailureError, match="no oscillation resolved"):
            fit_decaying_sinusoid(T, y, freq_hint_kHz=20.0)

    def test_amplitude_below_residual_threshold(self):
        # real oscillation buried under noise 100x larger
        y = synth(5.0, 1.0, amp=0.01, noise=1.0)
        with pytest.raises(FitFailureError):
            fit_decaying_sinusoid(T, y, freq_hint_kHz=5.0)


class TestAnalyticSignal:
    @pytest.mark.parametrize("n", [16, 17, 600, 601])
    def test_bitwise_equal_to_scipy_hilbert(self, n):
        from scipy.signal import hilbert

        y = np.random.default_rng(n).normal(size=n)
        assert np.array_equal(_analytic_signal(y), hilbert(y))


class TestMovingAverage:
    @pytest.mark.parametrize("n", [16, 17, 600, 601])
    def test_bitwise_equal_to_scipy_uniform_filter(self, n):
        from scipy.ndimage import uniform_filter1d

        rng = np.random.default_rng(n)
        for size in (1, 2, 3, 7, n // 4):
            # entries spanning six decades make rounding order visible
            y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3, size=n)
            ref = uniform_filter1d(y, size, mode="nearest")
            assert np.array_equal(_moving_average(y, size).view(np.uint64),
                                  ref.view(np.uint64))


def _s3_generator(setup):
    """The Lindblad generator of ``setup``, as run_simulation builds it."""
    sim = setup.simulation
    jumps = (pumping_jump_operators(setup.probe,
                                    total_rate_per_ms=sim.scattering_rate_per_ms)
             if sim.pumping else [])
    return liouvillian(build_hamiltonian(setup.probe, setup.microwave,
                                         setup.cloud.bias_field_G),
                       jumps, sim.extra_loss_per_ms)


S3 = np.diag([1.0 if i == IDX_UP else -1.0 if i == IDX_DOWN else 0.0
              for i in range(N_GROUND)])


class TestAgainstTheDominantMode:
    """The fitted and the analytic Rabi frequency against the frequency of
    the generator's dominant s3 mode, a yardstick with no fit in it.

    FIT_NOISE is how far 1e-15 relative noise on a record moves a fitted
    frequency (up to 2.0e-5): each fit bound is today's distance plus
    that.  The analytic frequency involves no fit, so its bound is today's
    distance plus 5 %.  Over the chevron preset's 46 points the medians
    are 3.6e-5 (fit) and 3.9e-5 (formula).
    """

    FIT_NOISE = 2.5e-5
    # point: (fit-to-mode, formula-to-mode) relative distances today
    TODAY = {
        "rabi-ideal": (5.9e-7, 2.42e-3),
        -1000.0: (5.77e-5, 2.79e-6),
        -700.0: (1.58e-5, 1.39e-5),
        -520.0: (4.99e-5, 5.16e-5),
        -340.0: (3.7e-6, 2.32e-3),  # near magic, damping pulls the mode below chi
        -100.0: (8.62e-4, 6.29e-5),  # the largest fit-to-mode distance of the grid
    }

    def test_mode_of_a_bare_drive_is_its_rabi_frequency(self):
        # no probe and no loss: s3 oscillates at chi with no damping
        mw = MicrowaveConfig(rabi_kHz=2.0)
        lam = dominant_mode(liouvillian(build_hamiltonian(None, mw, 0.5), [], 0.0),
                            pure_state(3, 0), S3)
        assert lam.imag / (2 * np.pi) == pytest.approx(2.0, rel=1e-12)
        assert abs(lam.real) < 1e-9

    @pytest.mark.parametrize("point", list(TODAY), ids=str)
    def test_fit_and_formula_stay_near_the_mode(self, point):
        preset = "rabi-ideal" if point == "rabi-ideal" else "chevron"
        cfg = load_config(preset=preset)
        setup = RunSetup(cfg.probe, cfg.microwave, cfg.cloud, cfg.simulation)
        det = cfg.probe.detuning_MHz if point == "rabi-ideal" else point
        omega, analytic, _ = chevron_point(setup, cfg.inhomogeneity, det)
        lam = dominant_mode(_s3_generator(operating_point(setup, det)),
                            cfg.simulation.initial_density_matrix(), S3)
        mode = lam.imag / (2 * np.pi)
        fit_today, formula_today = self.TODAY[point]
        assert abs(omega - mode) / mode <= fit_today + self.FIT_NOISE
        assert abs(analytic - mode) / mode <= 1.05 * formula_today
