"""Closed-form oracles that the tests compare the multi-level model with.

Kept out of the package: no program path computes with them.
"""

from dataclasses import dataclass

from clockprobe.atom import EXCITED_HF_SPLITTING_MHZ, GAMMA_MHZ


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
