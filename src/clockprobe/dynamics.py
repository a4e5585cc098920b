"""Lindblad master equation for the 16-level ground manifold.

The Hamiltonian is built in the frame rotating at the microwave drive
frequency, so the Lindblad generator that :func:`liouvillian` builds from
it and the jump operators is time independent.  :func:`evolve` takes that
generator and applies its exact exponential propagator at a fixed output
step, so positivity is preserved and halving the step leaves every
observable unchanged; :func:`run_simulation` composes the two.  The
trace is not preserved to machine precision: with the loss channel off at
the measurement operating point, ``lost`` (the trace drift) reaches
1.4e-12 over 3 ms at 5 us steps and, where the error of the exponential of
a large-norm generator shows, 1.7e-9 over 40 s at ``dt_ms = 1000``.

Internal units: time in ms, Hamiltonian entries in MHz, rates in 1/ms.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .atom import (
    F4_BLOCK,
    GAMMA_MHZ,
    IDX_DOWN,
    IDX_UP,
    N_GROUND,
    CloudConfig,
    state_index,
    zeeman_hamiltonian,
)
from .birefringence import state_phase_table
from .errors import InvariantViolationError
from .lightshift import (
    ProbeConfig,
    amplitude_tensor,
    check_off_resonance,
    excited_detunings_MHz,
    light_shift_matrix,
    spherical_polarization,
)

__all__ = [
    "MicrowaveConfig",
    "SimRecord",
    "SimulationConfig",
    "RunSetup",
    "pumping_jump_operators",
    "scattering_rate_per_ms",
    "build_hamiltonian",
    "step_count",
    "check_fits_in_memory",
    "liouvillian",
    "evolve",
    "run_simulation",
    "pure_state",
    "clock_mixture",
]

def pure_state(F: int, mF: int) -> np.ndarray:
    """The 16x16 density matrix of |F, mF>."""
    rho = np.zeros((N_GROUND, N_GROUND), dtype=complex)
    rho[state_index(F, mF), state_index(F, mF)] = 1.0
    return rho


def clock_mixture(p_up: float = 0.5) -> np.ndarray:
    """The 16x16 density matrix of |4,0> with weight p_up and |3,0> with 1 - p_up."""
    rho = np.zeros((N_GROUND, N_GROUND), dtype=complex)
    rho[IDX_UP, IDX_UP] = p_up
    rho[IDX_DOWN, IDX_DOWN] = 1.0 - p_up
    return rho


@dataclass(frozen=True)
class MicrowaveConfig:
    """Microwave drive on the Delta m = 0 magnetic-dipole transitions."""

    rabi_kHz: float = 2.0  # clock-pair Rabi frequency chi
    detuning_kHz: float = 0.0  # drive minus unshifted clock frequency

    def __post_init__(self):
        if not 0 <= self.rabi_kHz < math.inf:
            raise ValueError("rabi_kHz must be >= 0 and finite")
        if not math.isfinite(self.detuning_kHz):
            raise ValueError("detuning_kHz must be finite")


@dataclass(frozen=True)
class SimRecord:
    """Time series output of one evolution (times in ms)."""

    times_ms: np.ndarray
    signal_rad: np.ndarray
    s3: np.ndarray
    populations: np.ndarray  # (n_t, 16)
    lost: np.ndarray

    def __post_init__(self):
        n = len(self.times_ms)
        for name in ("signal_rad", "s3", "lost"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        if self.populations.shape != (n, N_GROUND):
            raise ValueError("populations shape mismatch")
        if np.any(np.diff(self.times_ms) <= 0):
            raise ValueError("times must be strictly increasing")


def pumping_jump_operators(probe: ProbeConfig, total_rate_per_ms: float | None = None):
    """Adiabatic-elimination jump operators, one per emitted polarization q.

    Returns a list of (operator, rate_per_ms) pairs; the Lindblad term for
    each is rate * D[A_q].  When ``total_rate_per_ms`` is given, the
    common rate is rescaled so that the total photon scattering rate of
    the equal clock-state mixture matches it exactly; otherwise rates
    follow I/Delta^2 from the configured irradiance.
    """
    check_off_resonance(probe.detuning_MHz)
    a = amplitude_tensor()
    eps = spherical_polarization(probe.polarization_angle_deg)
    dets = excited_detunings_MHz(probe.detuning_MHz)
    # excitation amplitude weighted by Gamma/Delta (dimensionless)
    exc = (a @ eps) * (GAMMA_MHZ / dets)
    # A_q[g', g]: excite g through every e, decay to g' emitting polarization q
    ops = [a[:, :, qi] @ exc.T for qi in range(3)]
    # natural two-level scale: R = gamma * s * (Gamma/Delta)^2 / 8
    gamma_per_ms = 2.0 * math.pi * GAMMA_MHZ * 1e3
    rate = gamma_per_ms * probe.irradiance_rel / 8.0
    if total_rate_per_ms is not None:
        r_ref = scattering_rate_per_ms([(op, 1.0) for op in ops],
                                       clock_mixture(0.5)) * rate
        rate *= total_rate_per_ms / r_ref
    return [(op, rate) for op in ops]


def scattering_rate_per_ms(jumps, rho: np.ndarray) -> float:
    """Total photon scattering rate of ``rho`` under the given jump list."""
    return sum(
        r * float(np.trace(op.conj().T @ op @ rho).real) for op, r in jumps
    )


def microwave_coupling_matrix() -> np.ndarray:
    """Relative Delta m = 0 magnetic-dipole elements, 1 on the clock pair.

    <4,m|Sz|3,m> is proportional to sqrt((I+1/2)^2 - m^2); dividing by the
    m = 0 value makes the clock-pair element unity.
    """
    c = np.zeros((N_GROUND, N_GROUND))
    for m in range(-3, 4):
        r = math.sqrt(16 - m * m) / 4.0
        i3, i4 = state_index(3, m), state_index(4, m)
        c[i3, i4] = c[i4, i3] = r
    return c


def build_hamiltonian(probe: ProbeConfig | None, mw: MicrowaveConfig | None,
                      bias_field_G: float) -> np.ndarray:
    """Rotating-frame Hamiltonian (16x16, MHz).

    Zeeman + probe light shift + microwave coupling in the rotating-wave
    approximation.  All Delta m = 0 pairs are coupled with their relative
    matrix elements, so Zeeman-detuned spectator transitions are
    represented rather than assumed away.
    """
    h = zeeman_hamiltonian(bias_field_G).astype(complex)
    if probe is not None:
        h += light_shift_matrix(probe)
    if mw is not None:
        chi_MHz = mw.rabi_kHz * 1e-3
        det_MHz = mw.detuning_kHz * 1e-3
        h += 0.5 * chi_MHz * microwave_coupling_matrix()
        for i in range(N_GROUND)[F4_BLOCK]:  # F = 4 block sits at -(drive detuning)
            h[i, i] -= det_MHz
    return h


def _kron_sum(ufunc, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``ufunc(np.kron(a, 1), np.kron(1, b))`` bit for bit, as ``out[i, k, j, l]``.

    The identity puts a on the k == l slots and b on the i == j slots.  Off
    them np.kron holds the signed zeros a * 0 and 0 * b, which are formed
    the same way here, so every entry matches the kron formula bit for bit.
    """
    d = np.arange(N_GROUND)
    a0, a1, b0, b1 = a * 0.0, a * 1.0, 0.0 * b, 1.0 * b
    ufunc(a0[:, None, :, None], b0[None, :, None, :], out=out)
    out[:, d, :, d] = ufunc(a1, b0[d, d, None, None])  # k == l, as [k, i, j]
    out[d, :, d, :] = ufunc(a0[d, d, None, None], b1)  # i == j, as [i, k, l]
    out[d[:, None], d, d[:, None], d] = ufunc(a1[d, d, None], b1[d, d])  # both
    return out


def liouvillian(h: np.ndarray, jumps, extra_loss_per_ms: float) -> np.ndarray:
    """Lindblad generator acting on row-stacked rho, built in place.

    lv[i, k, j, l] is L[16 i + k, 16 j + l].  The terms are added in the
    order of the kron formula: -1j (omega x 1 - 1 x omega^T), then
    r (A x conj(A) - (A^dag A x 1 + 1 x (A^dag A)^T) / 2) per jump, then
    the loss, so L equals that formula bit for bit.
    """
    shape = (N_GROUND,) * 4
    omega = 2.0 * math.pi * 1e3 * h  # MHz -> rad/ms
    lv = _kron_sum(np.subtract, omega, omega.T, np.empty(shape, dtype=complex))
    lv *= -1j
    anti, buf = np.empty_like(lv), np.empty_like(lv)
    for op, rate in jumps:
        opd = op.conj().T @ op
        _kron_sum(np.add, opd, opd.T, anti)
        anti *= 0.5
        # np.kron(op, op.conj()), with the same broadcast product
        np.multiply(op[:, None, :, None], op.conj()[None, :, None, :], out=buf)
        buf -= anti
        buf *= rate
        lv += buf
    if extra_loss_per_ms:
        p = np.zeros((N_GROUND, N_GROUND))
        p[IDX_UP, IDX_UP] = p[IDX_DOWN, IDX_DOWN] = 1.0
        loss = _kron_sum(np.add, p, p.T, np.empty(shape))
        loss *= -0.5 * extra_loss_per_ms
        lv += loss
    return lv.reshape(N_GROUND * N_GROUND, N_GROUND * N_GROUND)


def step_count(t_span_ms: float, dt_ms: float) -> int:
    """Number of output steps; the span must be a whole multiple of the step."""
    if not (0 < dt_ms < math.inf and 0 < t_span_ms < math.inf):
        raise ValueError("t_span_ms and dt_ms must be > 0 and finite")
    ratio = t_span_ms / dt_ms
    if ratio == math.inf:
        raise ValueError(f"t_span_ms / dt_ms = {t_span_ms:g} / {dt_ms:g} overflows")
    n_steps = round(ratio)
    if abs(ratio - n_steps) > 1e-9 * ratio:
        raise ValueError(
            f"t_span_ms = {t_span_ms:g} is not a multiple of dt_ms = {dt_ms:g}"
        )
    return n_steps


def check_fits_in_memory(need_bytes: int, what: str) -> None:
    """Raise ValueError naming ``what`` when an array of ``need_bytes``
    exceeds the physical memory, before anything allocates it."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need_bytes > have:
        raise ValueError(f"{what} need {need_bytes / 2**30:.3g} GiB, more than the "
                         f"{have / 2**30:.3g} GiB of physical memory")


# States per block of the invariant checks: the checks' temporaries stay
# this size whatever the record length.
_CHECK_BLOCK = 64


def _check_invariants(states: np.ndarray, times: np.ndarray) -> None:
    """Raise at the earliest non-Hermitian or non-positive state.

    Hermiticity is the max |rho - rho^dagger| per state (NaN counts as a
    violation).  Positivity holds when the Cholesky factorization of the
    Hermitian part shifted by 1e-9 exists, that is when its smallest
    eigenvalue is above -1e-9; only on failure is ``eigvalsh`` run to
    locate and report the violation.  At equal times Hermiticity is
    reported first.  The states are checked in time order, ``_CHECK_BLOCK``
    at a time, so no temporary spans the whole trajectory.
    """
    shift = 1e-9 * np.eye(N_GROUND)
    for start in range(0, len(states), _CHECK_BLOCK):
        block = states[start:start + _CHECK_BLOCK]
        adjoint = block.conj().transpose(0, 2, 1)
        herm = np.abs(block - adjoint).max(axis=(1, 2))
        bad = np.nonzero(~(herm <= 1e-10))[0]
        first_herm = int(bad[0]) if len(bad) else len(block)
        hermitian = adjoint[:first_herm]  # reused in place for 0.5 (rho + rho^dagger)
        hermitian += block[:first_herm]
        hermitian *= 0.5
        try:
            np.linalg.cholesky(hermitian + shift)
        except np.linalg.LinAlgError:
            w_min = np.linalg.eigvalsh(hermitian).min(axis=1)
            neg = np.nonzero(w_min < -1e-9)[0]
            if len(neg):
                i = int(neg[0])
                raise InvariantViolationError(
                    f"positivity violated at t = {times[start + i]:g} ms: "
                    f"min eig {w_min[i]:g}"
                ) from None
        if first_herm < len(block):
            raise InvariantViolationError(
                f"hermiticity violated at t = {times[start + first_herm]:g} ms: "
                f"{herm[first_herm]:g}"
            )


def evolve(rho0: np.ndarray, generator: np.ndarray, sim: SimulationConfig,
           state_phases: np.ndarray | None = None) -> SimRecord:
    """Propagate the 16x16 state ``rho0`` under the 256x256 Lindblad
    ``generator`` over the window of ``sim`` and synthesize the polarimeter
    record.

    ``evolve`` takes ownership of ``generator``: it scales the array by dt
    in place, and each output step applies exp(L dt) once computed.
    ``state_phases`` gives the per-state birefringent phase used for the
    signal; extrinsic loss at ``sim.extra_loss_per_ms`` drains the clock
    states uniformly into the lost-population reservoir.  The generator is
    checked to change the trace only through that loss, and Hermiticity
    and positivity on every state, block by block; a violation raises
    :class:`InvariantViolationError`.  A ``rho0`` of another shape or of
    trace other than 1, or a generator of another shape, raises
    ``ValueError`` first.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (N_GROUND, N_GROUND):
        raise ValueError("rho must be 16x16")
    trace = float(np.trace(rho0).real)
    if abs(trace - 1.0) > 1e-9:
        raise ValueError(f"trace = {trace} != 1")
    if generator.shape != (N_GROUND**2, N_GROUND**2):
        raise ValueError(f"generator must be 256x256, got shape {generator.shape}")
    # vec(I)^T L = -gamma_loss vec(P)^T, P on the clock pair; rho[i, i] is row 17 i
    drift = generator[::N_GROUND + 1].sum(axis=0)
    drift[(N_GROUND + 1) * np.array([IDX_UP, IDX_DOWN])] += sim.extra_loss_per_ms
    if not np.abs(drift).max() <= 1e-12 * np.abs(generator).max():
        raise InvariantViolationError(
            "generator does not conserve the trace: "
            f"max |vec(I)^T L + gamma_loss vec(P)^T| = {np.abs(drift).max():g}")
    generator *= sim.dt_ms
    prop = expm(generator)
    n_steps = step_count(sim.t_span_ms, sim.dt_ms)
    times = np.arange(n_steps + 1) * sim.dt_ms
    if state_phases is None:
        state_phases = np.zeros(N_GROUND)

    traj = np.empty((n_steps + 1, N_GROUND * N_GROUND), dtype=complex)
    traj[0] = rho0.reshape(-1)
    for i in range(n_steps):
        traj[i + 1] = prop @ traj[i]
    states = traj.reshape(-1, N_GROUND, N_GROUND)
    _check_invariants(states, times)

    pops = np.real(np.diagonal(states, axis1=1, axis2=2)).copy()
    lost = trace - np.trace(states, axis1=1, axis2=2).real
    signal = pops @ state_phases
    s3 = pops[:, IDX_UP] - pops[:, IDX_DOWN]
    return SimRecord(times_ms=times, signal_rad=signal, s3=s3,
                     populations=pops, lost=lost)


@dataclass(frozen=True)
class SimulationConfig:
    """The record's time window, loss channels and initial state."""

    t_span_ms: float = 3.0
    dt_ms: float = 0.005
    extra_loss_per_ms: float = 0.0
    scattering_rate_per_ms: float | None = None  # calibrate probe power when set
    pumping: bool = True
    initial_state: str = "3,0"  # "F,mF" or "mixture"

    def __post_init__(self):
        n_steps = step_count(self.t_span_ms, self.dt_ms)  # a whole number of steps
        # bytes of evolve's complex trajectory
        check_fits_in_memory((n_steps + 1) * N_GROUND**2 * 16,
                             f"t_span_ms / dt_ms = {n_steps} steps")
        if not 0 <= self.extra_loss_per_ms < math.inf:
            raise ValueError("extra_loss_per_ms must be >= 0 and finite")
        if not (self.scattering_rate_per_ms is None
                or 0 < self.scattering_rate_per_ms < math.inf):
            raise ValueError("scattering_rate_per_ms must be > 0 and finite")
        self.initial_density_matrix()  # rejects a malformed initial_state on load

    def initial_density_matrix(self) -> np.ndarray:
        if self.initial_state == "mixture":
            return clock_mixture(0.5)
        try:
            f_str, m_str = str(self.initial_state).split(",")
            return pure_state(int(f_str), int(m_str))
        except ValueError as exc:
            raise ValueError(
                f"initial_state must be 'F,mF' or 'mixture', got {self.initial_state!r}"
            ) from exc


@dataclass(frozen=True)
class RunSetup:
    """Everything needed for one master-equation run."""

    probe: ProbeConfig
    microwave: MicrowaveConfig = MicrowaveConfig()
    cloud: CloudConfig = CloudConfig()
    simulation: SimulationConfig = SimulationConfig()


def run_simulation(setup: RunSetup) -> SimRecord:
    """Build the operators, signal phases and generator of ``setup`` and evolve."""
    probe, sim = setup.probe, setup.simulation
    h = build_hamiltonian(probe, setup.microwave, setup.cloud.bias_field_G)
    jumps = (pumping_jump_operators(probe, total_rate_per_ms=sim.scattering_rate_per_ms)
             if sim.pumping else [])
    phases = state_phase_table(probe.detuning_MHz, od=setup.cloud.od_resonant)
    return evolve(sim.initial_density_matrix(),
                  liouvillian(h, jumps, sim.extra_loss_per_ms), sim,
                  state_phases=phases)
