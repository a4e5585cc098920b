"""Closed-form oracles that the tests compare the multi-level model with.

Kept out of the package: no program path computes with them.
"""

import math
from dataclasses import dataclass

import numpy as np
from sympy.physics.wigner import wigner_6j

from clockprobe.atom import EXCITED_HF_SPLITTING_MHZ, GAMMA_MHZ
from clockprobe.lightshift import (
    RESONANCES_MHZ,
    ProbeConfig,
    amplitude_tensor,
    excited_detunings_MHz,
    spherical_polarization,
)


@dataclass(frozen=True)
class PseudoSpin:
    """Collective clock pseudo-spin for closed-form expressions (S = N)."""

    s_total: float
    s3: float

    def __post_init__(self):
        if abs(self.s3) > self.s_total * (1 + 1e-12):
            raise ValueError("|S3| must not exceed S")


def collective_phase_eq1(spin: PseudoSpin, od: float) -> float:
    """Closed-form collective phase at the inter-resonance midpoint.

    Valid for a probe tuned exactly halfway between the F=4 -> F'=3,4
    transitions (Delta/Gamma = -128), neglecting the spin-down state.
    """
    if od <= 0:
        raise ValueError("od must be > 0")
    det_over_gamma = -(EXCITED_HF_SPLITTING_MHZ / 2.0) / GAMMA_MHZ
    return (5.0 / 96.0) * (od / det_over_gamma) * (spin.s3 + spin.s_total) / spin.s_total


# N_K (-1)^F' {1 K 1; 4 F' 4} S_4F' of xi_K and the pole r_4F' (MHz), for
# K = 0, 1, 2 and F' = 3, 4; S_4F' is the F = 4 line strength, 7/12 and 5/12
_XI_WEIGHTS = tuple(
    tuple((n_k * (-1) ** fe * float(wigner_6j(1, k, 1, 4, fe, 4)) * s_fe,
           RESONANCES_MHZ[f"F=4 -> F'={fe}"])
          for fe, s_fe in ((3, 7.0 / 12.0), (4, 5.0 / 12.0)))
    for k, n_k in enumerate((-math.sqrt(3.0), math.sqrt(27.0 / 40.0),
                             math.sqrt(27.0 / 154.0))))


def closed_form_xis(probe: ProbeConfig) -> tuple[float, float, float]:
    """Scalar, vector and tensor couplings xi0, xi1, xi2 (MHz) of the F = 4 light shift.

    Closed forms of Deutsch & Jessen, Opt. Commun. 283, 681 (2010):
    xi_K = (Gamma^2/8)(I/I_sat) N_K f_K sum_F' (-1)^F' {1 K 1; 4 F' 4} S_4F'
    / (Delta - r_4F') with f_0 = f_1 = 1 (xi1 is the sigma+ vector
    coupling) and f_2 = (3|eps_0|^2 - 1)/2 (the Fz^2 part of the tensor).
    """
    eps_0 = spherical_polarization(probe.polarization_angle_deg)[1]
    f_k = (1.0, 1.0, (3.0 * abs(eps_0) ** 2 - 1.0) / 2.0)
    pref = GAMMA_MHZ**2 / 8.0 * probe.irradiance_rel
    return tuple(pref * f * sum(w / (probe.detuning_MHz - r) for w, r in weights)
                 for f, weights in zip(f_k, _XI_WEIGHTS))


def dominant_mode(generator: np.ndarray, rho0: np.ndarray,
                  observable: np.ndarray) -> complex:
    """Eigenvalue lambda (1/ms) of the oscillating mode that carries most of
    Tr(observable rho(t)) for rho(t) = exp(generator t) rho0.

    With the eigenpairs (lambda_k, V_k) of the generator, which acts on
    row-stacked rho, Tr(observable rho(t)) = sum_k w_k exp(lambda_k t) with
    w_k = (vec(observable^T) . V_k) (V^-1 vec(rho0))_k.  Of the modes with
    Im lambda > 0 (beyond the eigensolver's noise on real eigenvalues), the
    one of largest |w_k| is returned: Im lambda / 2 pi is its frequency in
    kHz and -1 / Re lambda its envelope time in ms.  No fit and no time
    grid enter.  The mode is picked by weight, not by nearness to a guess:
    the mode nearest the analytic frequency is not always the one the
    record shows.
    """
    lam, vecs = np.linalg.eig(generator)
    weights = (observable.T.reshape(-1) @ vecs) * np.linalg.solve(vecs, rho0.reshape(-1))
    oscillating = lam.imag > 1e-9 * np.abs(lam).max()
    return complex(lam[np.argmax(np.where(oscillating, np.abs(weights), 0.0))])


def saturation(probe: ProbeConfig) -> float:
    """s_eff = (I/I_sat) times the largest, over ground states g, of the sum
    over excited states e of |<e|eps.d|g>|^2 / (1 + 4 delta_ge^2 / Gamma^2).

    Summed pair by pair over the 16 x 16 detunings, not by line strength
    per F'.
    """
    exc = amplitude_tensor() @ spherical_polarization(probe.polarization_angle_deg)
    lorentz = 1.0 / (1.0 + 4.0 * (excited_detunings_MHz(probe.detuning_MHz)
                                  / GAMMA_MHZ) ** 2)
    return probe.irradiance_rel * float((np.abs(exc) ** 2 * lorentz).sum(axis=1).max())
