"""Decaying-sinusoid fitting on synthetic records."""

import numpy as np
import pytest

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
