#!/usr/bin/env python3
"""Where can the probe sit without shifting the clock?

Walks the lower inter-resonance window, prints the differential light
shift between the two clock states, and locates the zero crossing (the
"magic" probe detuning).  Also shows how that crossing moves with the
probe polarization angle, and that it disappears for nearly pure pi
polarization.
"""

import numpy as np

from clockprobe.lightshift import (
    ProbeConfig,
    differential_clock_shift,
    dressed_clock_shift,
    find_magic_detunings,
)

window = (-1100.0, -50.0)

print("Differential clock shift vs probe detuning (theta = 45 deg, I = I_sat)")
print(f"{'detuning (MHz)':>16} {'bare dU (kHz)':>15} {'dressed dU (kHz)':>17}")
for det in np.linspace(-1050, -100, 20):
    bare = differential_clock_shift(float(det))
    dressed = dressed_clock_shift(ProbeConfig(float(det), 1.0, 45.0), bias_field_G=0.5)
    print(f"{det:16.1f} {bare:15.4f} {dressed:17.4f}")

print()
print("Zero crossing vs polarization angle:")
print(f"{'theta (deg)':>12} {'magic detuning (MHz)':>22}")
for theta in (25.0, 30.0, 45.0, 60.0, 75.0, 90.0):
    points = find_magic_detunings(theta, window)
    if points:
        print(f"{theta:12.1f} {points[0].detuning_MHz:22.2f}")
    else:
        print(f"{theta:12.1f} {'(no zero in window)':>22}")

print()
print("The shift is strictly monotonic inside the window, so each angle")
print("has at most one zero; near-pi polarization has none because the")
print("tensor part can no longer cancel the scalar asymmetry.")
