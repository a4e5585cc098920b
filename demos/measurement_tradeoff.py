#!/usr/bin/env python3
"""How strongly can we probe before we destroy what we measure?

Sweeps the probe detuning at a constant photon-scattering rate, so every
operating point damps the atoms equally fast, and compares

  tau_d   - the usable measurement window (Rabi-envelope 1/e time),
  eta^2   - the integrated measurement strength over that window,
  pn_snr  - the signal-to-noise ratio for resolving atomic projection
            noise in a single window.

With a realistic 15% probe-irradiance spread across the cloud, both
figures peak sharply at the magic detuning: there the light shift is
common-mode and the spread cannot dephase the ensemble.
"""

from functools import partial

from clockprobe.atom import CloudConfig
from clockprobe.dynamics import MicrowaveConfig, RunSetup, SimulationConfig
from clockprobe.ensemble import (
    InhomogeneityConfig,
    calibrated_irradiance,
    measurement_figure,
    sweep,
)
from clockprobe.lightshift import ProbeConfig, find_magic_detunings

magic = find_magic_detunings(45.0, (-1100.0, -50.0))[0].detuning_MHz
rate = 1.25  # photon scattering events per atom per ms

setup = RunSetup(
    probe=ProbeConfig(magic, calibrated_irradiance(magic, 45.0, rate), 45.0),
    microwave=MicrowaveConfig(rabi_kHz=2.0),
    cloud=CloudConfig(od_resonant=2.5),
    simulation=SimulationConfig(t_span_ms=3.0, dt_ms=0.005, extra_loss_per_ms=0.4,
                                scattering_rate_per_ms=rate),
)
inhomog = InhomogeneityConfig(0.15, 0.015, n_samples=16, seed=0)

grid = [-635.0, -485.0, -385.0, -345.0, magic, -325.0, -285.0, -185.0]
print(f"constant scattering rate ({1 / rate:.1f} ms)^-1, "
      f"magic detuning {magic:.1f} MHz\n")
print(f"{'detuning (MHz)':>15} {'tau_d (ms)':>11} {'eta^2':>10} {'pn_snr':>8}")
# ideal detection (efficiency 1); points within 5 linewidths of a resonance masked
figure = partial(measurement_figure, setup, inhomog, 1.0)
for fig, masked, error in sweep(figure, grid, mask_gamma=5.0):
    if masked or error:
        continue
    print(f"{fig.detuning_MHz:15.1f} {fig.tau_d_ms:11.3f} "
          f"{fig.eta_sq:10.3g} {fig.pn_snr:8.3f}")

print("\nAway from the magic point the inhomogeneous light shift dephases")
print("the ensemble within ~0.1 ms; at the magic point the full window set")
print("by scattering and loss survives, and projection noise is resolvable.")
