"""Cs D1 physical model: constants, ground-state indexing, Zeeman Hamiltonian.

All frequencies are carried in MHz and magnetic fields in Gauss.  The
6P1/2 manifold is never represented as dynamical state; it enters only
through detuning denominators and branching ratios.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CloudConfig",
    "state_registry",
    "state_index",
    "zeeman_hamiltonian",
    "N_GROUND",
    "MAX_BIAS_FIELD_G",
    "F3_BLOCK",
    "F4_BLOCK",
    "IDX_DOWN",
    "IDX_UP",
    "GAMMA_MHZ",
    "EXCITED_HF_SPLITTING_MHZ",
    "GROUND_HF_SPLITTING_MHZ",
    "I_SAT_W_M2",
    "G_F",
    "ZEEMAN_MHZ_PER_G",
    "WAVELENGTH_NM",
    "PHOTON_ENERGY_J",
]

N_GROUND = 16
# Registry index ranges of the F = 3 (mF = -3..+3) and F = 4 (mF = -4..+4) blocks
F3_BLOCK = slice(0, 7)
F4_BLOCK = slice(7, N_GROUND)

# Cs D1 line.  The excited hyperfine splitting and the linewidth are locked
# together by the ratio 1168 MHz = 256 Gamma, which the closed forms at the
# inter-resonance midpoint (Delta/Gamma = -128) rely on.
GAMMA_MHZ = 1168.0 / 256.0  # 4.5625
EXCITED_HF_SPLITTING_MHZ = 1168.0
GROUND_HF_SPLITTING_MHZ = 9192.631770
# Isotropic-convention D1 saturation irradiance (2.5 mW/cm^2); outputs that
# would depend on it are either ratios or recalibrated, so the convention
# cancels wherever possible.
I_SAT_W_M2 = 25.0
G_F = {3: -0.25, 4: 0.25}  # ground hyperfine g-factors
ZEEMAN_MHZ_PER_G = 1.399624  # Bohr magneton / h
WAVELENGTH_NM = 894.6
PHOTON_ENERGY_J = 6.62607015e-34 * 2.99792458e8 / (WAVELENGTH_NM * 1e-9)  # h c / lambda
# Largest bias field of the linear Zeeman model.  The Breit-Rabi parameter
# x = g_J muB B / dE_hfs = 2.80 MHz/G * B / 9192.6 MHz sets the size of the
# neglected terms: the quadratic one is 15 x / 8 of the linear one on the
# m = +-1 levels.  At x = 0.1, B = 328 G, that is a fifth, and past it the
# linear model no longer describes the levels.
MAX_BIAS_FIELD_G = 0.1 * GROUND_HF_SPLITTING_MHZ / (2.0025 * ZEEMAN_MHZ_PER_G)


def state_registry() -> tuple[tuple[int, int], ...]:
    """The 16 ground sublevels (F, mF): F=3 block (mF = -3..+3) then F=4 (mF = -4..+4)."""
    return tuple((F, m) for F in (3, 4) for m in range(-F, F + 1))


def state_index(F: int, mF: int) -> int:
    """Index of |F, mF> in the registry (bijection onto 0..15)."""
    if F not in (3, 4):
        raise ValueError(f"ground F must be 3 or 4, got {F}")
    if abs(mF) > F:
        raise ValueError(f"|mF| > F: F = {F}, mF = {mF}")
    if F == 3:
        return mF + 3
    return F4_BLOCK.start + mF + 4


IDX_DOWN = state_index(3, 0)  # |3,0>, pseudo-spin down
IDX_UP = state_index(4, 0)  # |4,0>, pseudo-spin up


@dataclass(frozen=True)
class CloudConfig:
    """Atom cloud and probe beam geometry."""

    atom_number: float = 3.5e6
    cloud_radius_mm: float = 0.25  # 1/e
    od_resonant: float = 1.8
    probe_radius_mm: float = 1.2  # 1/e
    bias_field_G: float = 0.5

    def __post_init__(self):
        for name in ("atom_number", "cloud_radius_mm", "od_resonant", "probe_radius_mm"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite")
        if not 0 <= self.bias_field_G <= MAX_BIAS_FIELD_G:
            raise ValueError(f"cloud.bias_field_G = {self.bias_field_G:g} G is outside "
                             f"[0, {MAX_BIAS_FIELD_G:.0f}] G, the range of the linear "
                             "Zeeman model")
        if self.probe_radius_mm <= self.cloud_radius_mm:
            warnings.warn(
                "probe 1/e radius does not exceed the cloud radius; the "
                "light-shift homogeneity assumption is broken",
                stacklevel=2,
            )


def zeeman_hamiltonian(bias_field_G: float) -> np.ndarray:
    """Linear Zeeman Hamiltonian (16x16, MHz), diagonal in the registry basis.

    Entries are gF * mF * (muB/h) * B; gF has opposite signs for the two
    ground manifolds.  The quadratic (Breit-Rabi) term is negligible at
    the sub-Gauss fields considered here and is not included.
    """
    if bias_field_G < 0:
        raise ValueError("bias field must be >= 0")
    diag = np.array(
        [G_F[F] * mF * ZEEMAN_MHZ_PER_G * bias_field_G for F, mF in state_registry()]
    )
    return np.diag(diag)
