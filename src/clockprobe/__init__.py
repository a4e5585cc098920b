"""Continuous polarization-based probing of the Cs clock-transition pseudo-spin.

Library layout:

- :mod:`clockprobe.angular` — Wigner 3j/6j on doubled integers, Cs D1 dipole amplitudes
- :mod:`clockprobe.atom` — Cs D1 constants, ground-manifold registry, cloud
- :mod:`clockprobe.lightshift` — light-shift operator, closed-form xi's, magic points
- :mod:`clockprobe.birefringence` — phase spectra, SNR figures, two-color balance
- :mod:`clockprobe.dynamics` — 16-level Lindblad evolution with microwave drive
- :mod:`clockprobe.fitting` — decaying-sinusoid extraction of frequency and decay
- :mod:`clockprobe.ensemble` — inhomogeneity averaging and the detuning sweep driver
- :mod:`clockprobe.config` / :mod:`clockprobe.cli` — YAML configs and the CLI
"""

from .angular import dipole_element, wigner3j, wigner6j
from .atom import (
    CloudConfig,
    GroundState,
    IDX_DOWN,
    IDX_UP,
    N_GROUND,
    state_index,
    state_registry,
    zeeman_hamiltonian,
)
from .birefringence import (
    PseudoSpin,
    TwoColorSolution,
    collective_phase_eq1,
    photon_flux_per_s,
    projection_noise_snr,
    snr_eta,
    state_phase_table,
    two_color_balance,
)
from .config import PRESETS, RunConfig, load_config
from .dynamics import (
    DensityMatrix,
    MicrowaveConfig,
    RunSetup,
    SimRecord,
    build_hamiltonian,
    clock_mixture,
    evolve,
    pumping_jump_operators,
    pure_state,
    rabi_frequency,
    run_simulation,
    scattering_rate_per_ms,
)
from .ensemble import (
    InhomogeneityConfig,
    MeasurementFigure,
    calibrated_irradiance,
    decay_time,
    ensemble_average,
    sweep_measurement_strength,
)
from .errors import (
    ClockProbeError,
    ConfigError,
    FitFailureError,
    NoBalanceError,
    ResonanceProximityError,
)
from .fitting import SinusoidFit, fit_decaying_sinusoid
from .lightshift import (
    LightShiftOperator,
    MagicPoint,
    ProbeConfig,
    build_light_shift,
    differential_clock_shift,
    dressed_clock_shift,
    find_magic_detunings,
    light_shift_matrix,
)

__version__ = "0.1.0"
