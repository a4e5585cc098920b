"""Acceptance suite: ten end-to-end checks, one printed PASS/FAIL line each.

Each test evaluates its criterion at the stated tolerance, records a single
summary line (echoed in the terminal summary via conftest), and then
asserts.  Failures here are reported honestly; tolerances are never
loosened to force a pass.
"""

import math
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import conftest

from clockprobe.angular import dipole_element
from clockprobe.atom import (
    EXCITED_HF_SPLITTING_MHZ,
    CloudConfig,
    IDX_DOWN,
    IDX_UP,
    state_registry,
)
from clockprobe.birefringence import (
    projection_noise_snr,
    state_phase_table,
    two_color_balance,
)
from clockprobe.cli import main
from clockprobe.dynamics import (
    MicrowaveConfig,
    RunSetup,
    SimulationConfig,
    run_simulation,
)
from clockprobe.ensemble import (
    InhomogeneityConfig,
    calibrated_irradiance,
    measurement_figure,
    sweep,
)
from clockprobe.fitting import decay_time, rabi_frequency
from clockprobe.lightshift import (
    RESONANCES_MHZ,
    ProbeConfig,
    dressed_clock_shift,
    find_magic_detunings,
)
from closed_forms import PseudoSpin, collective_phase_eq1

LOWER_WINDOW = (-1100.0, -50.0)
MAGIC = find_magic_detunings(45.0, LOWER_WINDOW)[0].detuning_MHz


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"[acceptance {tag}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line


def test_01_magic_detuning_location_and_count():
    # The magic pair: one root in each D1 inter-resonance window.  Within a
    # window the differential shift is strictly monotonic, so each holds one.
    t0 = time.perf_counter()
    lower = find_magic_detunings(45.0, (-1168.0, 0.0))
    dt = time.perf_counter() - t0
    upper = find_magic_detunings(
        45.0, (RESONANCES_MHZ["F=3 -> F'=3"], RESONANCES_MHZ["F=3 -> F'=4"]))
    points = lower + upper
    lower_ok = (len(lower) == 1
                and abs(lower[0].detuning_MHz + 335.0) <= 5.0)
    upper_ok = len(upper) == 1
    max_residual_Hz = max((abs(p.residual_dU_kHz) * 1e3 for p in points),
                          default=0.0)
    ok = (lower_ok and upper_ok and len(points) == 2
          and max_residual_Hz < 1.0 and dt < 1.0)
    detail = (f"roots at {[round(p.detuning_MHz, 2) for p in points]} MHz: "
              f"{len(lower)} in the lower window (need exactly 1 at "
              f"-335 +/- 5, found in {dt:.2f} s < 1 s), {len(upper)} in the "
              f"upper window (need exactly 1), max residual "
              f"{max_residual_Hz:.1e} Hz (< 1 Hz)")
    _report("01 magic point", ok, detail)


def test_02_closed_form_phase_prefactor():
    t0 = time.perf_counter()
    midpoint = -EXCITED_HF_SPLITTING_MHZ / 2.0
    full = state_phase_table(midpoint, od=1.0)[IDX_UP]
    closed = collective_phase_eq1(PseudoSpin(1.0, 1.0), od=1.0)
    rel = abs(full - closed) / abs(closed)
    dt = time.perf_counter() - t0
    ok = rel <= 0.02 and dt < 1.0
    _report("02 phase prefactor", ok,
            f"multi-level vs closed form at the inter-resonance midpoint: "
            f"{rel * 100:.2f}% (<= 2%) in {dt:.2f} s")


def test_03_selection_rule_and_sum_rule():
    clock_pi = dipole_element(4, 0, 4, 0, 0)
    sums = []
    for F, mF in state_registry():
        total = 0.0
        for eF in (3, 4):
            for q in (-1, 0, 1):
                mE = mF + q
                if abs(mE) <= eF:
                    total += dipole_element(F, mF, eF, mE, q) ** 2
        sums.append(total)
    spread = max(sums) - min(sums)
    ok = clock_pi == 0.0 and spread <= 1e-12
    _report("03 selection rules", ok,
            f"pi clock amplitude = {clock_pi} (exact 0), line-strength sum "
            f"spread over 16 sublevels = {spread:.2e} (<= 1e-12)")


def test_04_chevron_matches_generalized_rabi():
    grid = [-1000.0, -900.0, -800.0, -700.0, -600.0, -500.0, -400.0,
            -345.0, MAGIC, -325.0, -250.0, -150.0, -100.0]
    residuals = []
    omega_at_magic = None
    for det in grid:
        probe = ProbeConfig(det, 16.0, 45.0)
        setup = RunSetup(probe=probe, microwave=MicrowaveConfig(rabi_kHz=2.0),
                         simulation=SimulationConfig(t_span_ms=3.0, dt_ms=0.005))
        du = dressed_clock_shift(probe, bias_field_G=0.5)
        analytic = math.hypot(2.0, du)
        omega = rabi_frequency(run_simulation(setup), freq_hint_kHz=analytic)
        residuals.append(abs(omega - analytic) / analytic)
        if det == MAGIC:
            omega_at_magic = omega
    worst = max(residuals)
    magic_dev = abs(omega_at_magic - 2.0) / 2.0
    ok = worst <= 0.02 and magic_dev <= 0.01
    _report("04 chevron", ok,
            f"max |Omega_sim - sqrt(chi^2 + dU^2)| / Omega = {worst * 100:.2f}% "
            f"(<= 2%) over {len(grid)} points; Omega(magic)/chi - 1 = "
            f"{magic_dev * 100:.2f}% (<= 1%)")


def _clock_leakage(bias_G: float) -> float:
    setup = RunSetup(probe=ProbeConfig(MAGIC, 8.0, 45.0),
                     microwave=MicrowaveConfig(rabi_kHz=0.0),
                     simulation=SimulationConfig(t_span_ms=5.0, dt_ms=0.01,
                                                 pumping=False,
                                                 initial_state="mixture"))
    setup = replace(setup, cloud=replace(setup.cloud, bias_field_G=bias_G))
    rec = run_simulation(setup)
    clock = rec.populations[:, IDX_UP] + rec.populations[:, IDX_DOWN]
    return float((1.0 - clock).mean())


def test_05_bias_field_decoupling():
    with_field = _clock_leakage(0.5)
    without = _clock_leakage(0.0)
    ok = with_field < 1e-3 and without > 1e-2
    _report("05 bias-field decoupling", ok,
            f"mean clock-manifold leakage over 5 ms: {with_field:.2e} at "
            f"0.5 G (< 1e-3) vs {without:.2e} at 0 G (> 1e-2)")


def test_06_decay_time_scaling():
    # tau_d proportional to 1 / scattering rate (loss and spreads off)
    products = []
    for rate in (0.625, 1.25, 2.5):
        s_cal = calibrated_irradiance(MAGIC, 45.0, rate)
        setup = RunSetup(probe=ProbeConfig(MAGIC, s_cal, 45.0),
                         microwave=MicrowaveConfig(rabi_kHz=5.0),
                         simulation=SimulationConfig(
                             t_span_ms=min(5.0, 3.2 / rate), dt_ms=0.005,
                             scattering_rate_per_ms=rate))
        products.append(decay_time(run_simulation(setup), freq_hint_kHz=5.0)
                        * rate)
    prop_dev = float(np.abs(products - np.mean(products)).max()
                     / np.mean(products))

    # asymptotic envelope rate as scattering -> 0 with extra loss on:
    # linear intercept of 1/tau_d versus scattering rate
    inv_tau = []
    rates = (0.1, 0.2, 0.4)
    for rate in rates:
        s_cal = calibrated_irradiance(MAGIC, 45.0, rate)
        setup = RunSetup(probe=ProbeConfig(MAGIC, s_cal, 45.0),
                         microwave=MicrowaveConfig(rabi_kHz=5.0),
                         simulation=SimulationConfig(
                             t_span_ms=6.0, dt_ms=0.01, extra_loss_per_ms=0.4,
                             scattering_rate_per_ms=rate))
        inv_tau.append(1.0 / decay_time(run_simulation(setup),
                                        freq_hint_kHz=5.0))
    slope, intercept = np.polyfit(rates, inv_tau, 1)
    tau_limit = 1.0 / intercept
    asym_dev = abs(tau_limit - 2.5) / 2.5
    ok = prop_dev <= 0.05 and asym_dev <= 0.05
    _report("06 decay scaling", ok,
            f"tau_d * rate spread {prop_dev * 100:.1f}% (<= 5%) over a 4x "
            f"rate range; zero-scattering envelope time {tau_limit:.2f} ms "
            f"vs 2.5 ms ({asym_dev * 100:.1f}% <= 5%)")


def _strength_sweep(grid, probe_rms):
    s_cal = calibrated_irradiance(MAGIC, 45.0, 1.25)
    setup = RunSetup(probe=ProbeConfig(MAGIC, s_cal, 45.0),
                     microwave=MicrowaveConfig(rabi_kHz=2.0),
                     cloud=CloudConfig(od_resonant=2.5),
                     simulation=SimulationConfig(t_span_ms=3.0, dt_ms=0.005,
                                                 extra_loss_per_ms=0.4,
                                                 scattering_rate_per_ms=1.25))
    n = 16 if (probe_rms or 0.015) else 1
    inh = InhomogeneityConfig(probe_rms, 0.015, n_samples=n, seed=0)
    outcomes = sweep(partial(measurement_figure, setup, inh, 1.0), grid, 5.0)
    return [fig for fig, masked, error in outcomes if not masked and not error]


SWEEP_GRID = [-635.0, -485.0, -385.0, -345.0, MAGIC, -325.0, -285.0, -185.0]


@pytest.fixture(scope="module")
def sweep_with_spread():
    return _strength_sweep(SWEEP_GRID, probe_rms=0.15)


def test_07_sweep_peaks_at_magic(sweep_with_spread):
    ok_points = sweep_with_spread
    peak_tau = max(ok_points, key=lambda f: f.tau_d_ms)
    peak_eta = max(ok_points, key=lambda f: f.eta_sq)
    homog = _strength_sweep(SWEEP_GRID, probe_rms=0.0)
    contrast = lambda figs: (max(f.tau_d_ms for f in figs)
                             / min(f.tau_d_ms for f in figs))
    c_spread, c_homog = contrast(ok_points), contrast(homog)
    tau_ok = abs(peak_tau.detuning_MHz - MAGIC) <= 15.0
    eta_ok = abs(peak_eta.detuning_MHz - MAGIC) <= 15.0
    flat_ok = c_spread / c_homog >= 2.0
    ok = tau_ok and eta_ok and flat_ok
    _report("07 sweep shape", ok,
            f"tau_d peak at {peak_tau.detuning_MHz:.1f} MHz, eta^2 peak at "
            f"{peak_eta.detuning_MHz:.1f} MHz (magic {MAGIC:.1f} +/- 15); "
            f"tau_d max/min contrast {c_spread:.2f} with 15% spread vs "
            f"{c_homog:.2f} without ({c_spread / c_homog:.1f}x >= 2x)")


def test_08_projection_noise_snr_scaling(sweep_with_spread):
    at_magic = min(sweep_with_spread, key=lambda f: abs(f.detuning_MHz - MAGIC))
    pn_small = at_magic.pn_snr
    cloud = CloudConfig(od_resonant=2.5)
    scale = 1e3 / cloud.od_resonant
    big = replace(cloud, od_resonant=1e3,
                  atom_number=cloud.atom_number * scale)
    s_cal = calibrated_irradiance(at_magic.detuning_MHz, 45.0, 1.25)
    probe = ProbeConfig(at_magic.detuning_MHz, s_cal, 45.0)
    pn_big = projection_noise_snr(probe, big,
                                  at_magic.tau_d_ms * 1e-3)
    ratio = pn_big / pn_small
    ratio_ok = abs(ratio - 20.0) <= 0.5
    abs_ok = 0.1 <= pn_small <= 0.4
    ok = ratio_ok and abs_ok
    _report("08 SNR scaling", ok,
            f"pn_snr(OD 1e3)/pn_snr(OD 2.5) = {ratio:.3f} (20 +/- 0.5); "
            f"pn_snr at the dressed operating point = {pn_small:.3f} "
            f"(within a factor of 2 of 0.2)")


def test_09_numerical_hygiene(tmp_path):
    sim = SimulationConfig(t_span_ms=3.0, dt_ms=0.01, extra_loss_per_ms=0.4)
    setup = RunSetup(probe=ProbeConfig(MAGIC, 16.0, 45.0),
                     microwave=MicrowaveConfig(rabi_kHz=2.0), simulation=sim)
    rec = run_simulation(setup)
    total = rec.populations.sum(axis=1) + rec.lost
    conservation = float(np.abs(total - 1.0).max()) / rec.times_ms[-1]
    # trace + lost = 1 holds by construction; with the loss channel off the
    # trace itself must stay at 1, so its drift is that of the propagator
    lossless = run_simulation(replace(
        setup, simulation=replace(sim, extra_loss_per_ms=0.0)))
    trace = lossless.populations.sum(axis=1)
    trace_drift = float(np.abs(trace - 1.0).max()) / lossless.times_ms[-1]
    positivity = float(rec.populations.min())
    fine = run_simulation(replace(setup, simulation=replace(sim, dt_ms=0.005)))
    halving = float(np.abs(rec.s3 - fine.s3[::2]).max())

    cfg = tmp_path / "c.yaml"
    cfg.write_text("probe:\n  detuning_MHz: -335.0\n  irradiance_rel: 16.0\n"
                   "simulation:\n  t_span_ms: 0.5\n  dt_ms: 0.01\n"
                   "output:\n  plot_scripts: false\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["rabi", "--config", str(cfg), "--out", str(out),
                     "--seed", "11"]) == 0
        outs.append((out / "rabi_record.csv").read_bytes())
    identical = outs[0] == outs[1]

    ok = (conservation < 1e-9 and trace_drift < 1e-9 and positivity >= -1e-9
          and halving < 1e-6 and identical)
    _report("09 numerical hygiene", ok,
            f"trace+lost drift {conservation:.1e}/ms (< 1e-9), loss-off trace "
            f"drift {trace_drift:.1e}/ms (< 1e-9), min population "
            f"{positivity:.1e} (>= -1e-9), step-halving delta {halving:.1e} "
            f"(< 1e-6), same-seed CSVs byte-identical: {identical}")


def test_10_two_color_balance():
    sol = two_color_balance((8100.0, 9100.0), LOWER_WINDOW, 45.0)
    residual = abs(sol.total_phase(0.5, 0.5, od=1.0))
    opposite = sol.phase_34_rad * sol.phase_44_rad < 0
    ok = residual <= 1e-6 and opposite
    _report("10 two-color balance", ok,
            f"collective phase at equal clock mixture = {residual:.1e} rad "
            f"(<= 1e-6); component phases have opposite signs: {opposite}")
