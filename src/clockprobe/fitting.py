"""Decaying-sinusoid least-squares fitting for Rabi records.

Model: y(t) = c0 + c1 * exp(-t/tau_bg) + A * exp(-(t/tau)^beta) * cos(2 pi f t + phi)

The stretched-exponential envelope covers both pumping-limited decay
(beta ~ 1) and inhomogeneous dephasing (beta > 1); its 1/e time is tau
for any beta.  The exponential background absorbs the optical-pumping
drift of the record.  The caller supplies the starting frequency; the
other initial guesses come from a moving-average background and a
Hilbert envelope.  :func:`rabi_frequency` and :func:`decay_time` read
the two fitted quantities of a simulated record.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft
from scipy.optimize import OptimizeWarning, curve_fit

from .errors import FitFailureError

__all__ = ["SinusoidFit", "fit_decaying_sinusoid", "rabi_frequency", "decay_time"]

# A fit whose oscillation amplitude is below this multiple of its residual
# rms resolves no oscillation.
MIN_AMP_OVER_RESIDUAL = 5.0
# Nor does one whose envelope 1/e time is under this many periods: its
# "oscillation" fits a transient of the first few samples.
MIN_TAU_TIMES_FREQ = 0.25


@dataclass(frozen=True)
class SinusoidFit:
    freq_kHz: float
    tau_ms: float  # 1/e time of the oscillation envelope
    beta: float
    amplitude: float
    phase_rad: float
    residual_rms: float


def _background(t, c0, c1, tau_bg):
    return c0 + c1 * np.exp(-t / abs(tau_bg))


def _model(t, c0, c1, tau_bg, amp, tau, beta, f, phi):
    with np.errstate(over="ignore"):
        z = np.clip((t / abs(tau)) ** abs(beta), 0.0, 700.0)
    return (_background(t, c0, c1, tau_bg)
            + amp * np.exp(-z) * np.cos(2.0 * np.pi * f * t + phi))


def _fit_background(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    p0 = [float(y[-1]), float(y[0] - y[-1]), float(t[-1]) / 2.0]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(_background, t, y, p0=p0, maxfev=5000)
        return np.asarray(popt, dtype=float)
    except RuntimeError:
        return np.array(p0)


def _moving_average(y: np.ndarray, size: int) -> np.ndarray:
    """Centred running mean, edges padded with the end values.

    Bit for bit ``scipy.ndimage.uniform_filter1d(y, size, mode="nearest")``:
    a running sum updated by (entering - leaving) and divided by ``size``.
    """
    half = size // 2
    ext = np.pad(y, (half, size - half - 1), mode="edge")
    # cumsum adds in sequence: 0.0, the first window, then each update
    terms = np.concatenate(([0.0], ext[:size], ext[size:] - ext[:-size]))
    return np.cumsum(terms)[size:] / size


def _analytic_signal(y: np.ndarray) -> np.ndarray:
    """y + i H[y], with the same one-sided spectral weights as scipy.signal.hilbert."""
    n = len(y)
    spec = fft(y)
    spec[1:(n + 1) // 2] *= 2.0  # positive frequencies; an even-n Nyquist bin stays
    spec[n // 2 + 1:] = 0.0  # negative frequencies
    return ifft(spec)


def fit_decaying_sinusoid(t_ms: np.ndarray, y: np.ndarray,
                          freq_hint_kHz: float) -> SinusoidFit:
    """Fit a decaying sinusoid; frequency returned in kHz for t in ms.

    ``freq_hint_kHz`` is the starting frequency, for example the analytic
    generalized Rabi frequency; a start near the answer is what lets a
    small oscillation on a large pumping drift be fitted.  Raises
    :class:`FitFailureError`, never falls back to the initial guess, when
    the record is shorter than 16 samples or than 3 periods at the hint
    (so for a hint <= 0 or NaN), the fit does not converge or leaves
    (0, Nyquist), the amplitude is below ``MIN_AMP_OVER_RESIDUAL`` x residual,
    or the envelope's 1/e time is under ``MIN_TAU_TIMES_FREQ`` periods.
    """
    t = np.asarray(t_ms, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(t) < 16:
        raise FitFailureError("record too short to fit")
    if not freq_hint_kHz * (t[-1] - t[0]) >= 3.0:  # a NaN hint fails here too
        raise FitFailureError(
            f"record holds < 3 oscillation periods at {freq_hint_kHz:g} kHz"
        )
    dt = t[1] - t[0]
    nyquist = 0.5 / dt
    # background from a one-period moving average so the oscillation
    # itself cannot contaminate the drift estimate
    window = int(np.clip(round(1.0 / (freq_hint_kHz * dt)), 1, len(t) // 4))
    bg = _fit_background(t, _moving_average(y, window))
    yd = y - _background(t, *bg)

    env = np.abs(_analytic_signal(yd))
    amp0 = float(np.percentile(env, 90))
    # crude envelope time from the first drop below amp0/e, else span
    below = np.nonzero(env < amp0 / np.e)[0]
    tau0 = float(t[below[0]]) if len(below) and below[0] > 0 else float(t[-1])
    p0 = [bg[0], bg[1], max(abs(bg[2]), t[-1] / 4.0), amp0, tau0, 1.0,
          freq_hint_kHz, 0.0]
    try:
        with warnings.catch_warnings():
            # undamped records leave the envelope parameters unconstrained
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(_model, t, y, p0=p0, maxfev=20000)
    except RuntimeError as exc:
        raise FitFailureError(f"decaying-sinusoid fit failed: {exc}") from exc
    if not 0.0 < abs(popt[6]) < nyquist:
        raise FitFailureError(
            f"fitted frequency {popt[6]:g} kHz outside (0, Nyquist)")
    resid = y - _model(t, *popt)
    fit = SinusoidFit(freq_kHz=abs(popt[6]), tau_ms=abs(popt[4]), beta=abs(popt[5]),
                      amplitude=abs(popt[3]), phase_rad=popt[7],
                      residual_rms=float(np.sqrt(np.mean(resid**2))))
    if fit.amplitude < MIN_AMP_OVER_RESIDUAL * fit.residual_rms:
        raise FitFailureError(
            f"oscillation amplitude {fit.amplitude:g} below "
            f"{MIN_AMP_OVER_RESIDUAL}x residual {fit.residual_rms:g}"
        )
    if not fit.tau_ms * fit.freq_kHz >= MIN_TAU_TIMES_FREQ:
        raise FitFailureError(
            f"envelope 1/e time {fit.tau_ms:g} ms is under {MIN_TAU_TIMES_FREQ} "
            f"periods at {fit.freq_kHz:g} kHz: no oscillation resolved")
    return fit


def rabi_frequency(record, freq_hint_kHz: float) -> float:
    """Fitted oscillation frequency (kHz) of a record's ``s3`` over its ``times_ms``."""
    return fit_decaying_sinusoid(record.times_ms, record.s3,
                                 freq_hint_kHz=freq_hint_kHz).freq_kHz


def decay_time(record, freq_hint_kHz: float) -> float:
    """Fitted envelope 1/e time (ms) of a record's ``signal_rad`` over its ``times_ms``."""
    return fit_decaying_sinusoid(record.times_ms, record.signal_rad,
                                 freq_hint_kHz=freq_hint_kHz).tau_ms
