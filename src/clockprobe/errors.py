"""Exception types shared across the package."""

__all__ = [
    "ClockProbeError",
    "ResonanceProximityError",
    "FitFailureError",
    "NoBalanceError",
    "ConfigError",
    "InvariantViolationError",
    "UnresolvedClockLevelsError",
]


class ClockProbeError(Exception):
    """Base class for all package errors."""


class ResonanceProximityError(ClockProbeError):
    """Probe detuning too close to an atomic resonance for the dispersive model."""

    def __init__(self, detuning_MHz: float, nearest_resonance_MHz: float, label: str,
                 why: str = "is within 0.1 Gamma of"):
        self.detuning_MHz = detuning_MHz
        self.nearest_resonance_MHz = nearest_resonance_MHz
        self.label = label
        super().__init__(
            f"probe detuning {detuning_MHz:g} MHz {why} the "
            f"{label} resonance at {nearest_resonance_MHz:g} MHz"
        )


class FitFailureError(ClockProbeError):
    """Decaying-sinusoid fit could not be trusted."""


class NoBalanceError(ClockProbeError):
    """Two-color cancellation has no solution (component phases share a sign)."""


class ConfigError(ClockProbeError):
    """Invalid or unknown configuration content."""


class InvariantViolationError(ClockProbeError):
    """An evolved density matrix lost Hermiticity or positivity, or the
    generator changed the trace other than through the loss channel."""


class UnresolvedClockLevelsError(ClockProbeError):
    """No Zeeman-dressed level holds more than half of |4,0> or of |3,0>: the
    bias field is too weak to keep the probe's tensor shift from mixing the
    clock states with |F, +-2>."""
