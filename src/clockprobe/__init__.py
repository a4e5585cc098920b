"""Continuous polarization-based probing of the Cs clock-transition pseudo-spin.

Library layout:

- :mod:`clockprobe.angular` — closed-form Cs D1 angular factors and dipole amplitudes
- :mod:`clockprobe.atom` — Cs D1 constants, ground-manifold registry, cloud
- :mod:`clockprobe.lightshift` — light-shift operator, differential clock shift, magic points
- :mod:`clockprobe.birefringence` — phase spectra, SNR figures, two-color balance
- :mod:`clockprobe.dynamics` — 16-level Lindblad evolution with microwave drive
- :mod:`clockprobe.fitting` — decaying-sinusoid fit, Rabi frequency and decay time
- :mod:`clockprobe.ensemble` — inhomogeneity averaging and the detuning sweep driver
- :mod:`clockprobe.config` / :mod:`clockprobe.cli` — YAML configs and the CLI
"""

__version__ = "0.1.0"
