"""Master-equation dynamics: oracles, conservation laws, pumping, leakage."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from clockprobe import dynamics
from clockprobe.atom import IDX_DOWN, IDX_UP, CloudConfig, state_index
from clockprobe.cli import build_setup
from clockprobe.config import load_config
from clockprobe.dynamics import (
    MicrowaveConfig,
    RunSetup,
    SimulationConfig,
    _check_invariants,
    build_hamiltonian,
    clock_mixture,
    evolve,
    liouvillian,
    pumping_jump_operators,
    pure_state,
    run_simulation,
    scattering_rate_per_ms,
)
from clockprobe.ensemble import operating_point
from clockprobe.errors import InvariantViolationError
from clockprobe.fitting import rabi_frequency
from clockprobe.lightshift import RESONANCES_MHZ, ProbeConfig, find_magic_detunings


def window(t_span_ms, dt_ms, extra_loss_per_ms=0.0):
    """The SimulationConfig that ``evolve`` reads its window and loss from."""
    return SimulationConfig(t_span_ms=t_span_ms, dt_ms=dt_ms,
                            extra_loss_per_ms=extra_loss_per_ms)


class TestStates:
    def test_pure_state_and_mixture(self):
        assert pure_state(3, 0)[IDX_DOWN, IDX_DOWN] == 1.0
        mix = np.diag(clock_mixture(0.25)).real
        assert mix[IDX_UP] == 0.25
        assert mix[IDX_DOWN] == 0.75

    def test_trace_validation(self, monkeypatch):
        # evolve checks the initial state's trace and shape, and the
        # generator's shape, before any work
        def no_expm(_):
            raise AssertionError("expm ran before the inputs were checked")

        monkeypatch.setattr(dynamics, "expm", no_expm)
        h = build_hamiltonian(None, MicrowaveConfig(rabi_kHz=2.0), 0.0)
        bad_trace = np.zeros((16, 16), dtype=complex)
        bad_trace[0, 0] = 0.7
        with pytest.raises(ValueError, match=re.escape("trace = 0.7 != 1")):
            evolve(bad_trace, liouvillian(h, [], 0.0), window(0.1, 0.01))
        with pytest.raises(ValueError, match="rho must be 16x16"):
            evolve(np.eye(4) / 4, liouvillian(h, [], 0.0), window(0.1, 0.01))
        with pytest.raises(ValueError, match="generator must be 256x256"):
            evolve(pure_state(3, 0), -2j * np.pi * 1e3 * h, window(0.1, 0.01))


class TestHamiltonian:
    def test_clock_coupling_element(self):
        mw = MicrowaveConfig(rabi_kHz=2.0)
        h = build_hamiltonian(None, mw, 0.0)
        assert h[IDX_DOWN, IDX_UP] == pytest.approx(0.5 * 2.0e-3)

    def test_spectator_elements_scale(self):
        mw = MicrowaveConfig(rabi_kHz=4.0)
        h = build_hamiltonian(None, mw, 0.0)
        i3, i4 = state_index(3, 2), state_index(4, 2)
        # sqrt(16 - m^2)/4 relative element for m = 2
        assert h[i3, i4] == pytest.approx(0.5 * 4.0e-3 * math.sqrt(12) / 4.0)

    def test_drive_detuning_shifts_f4_block(self):
        mw = MicrowaveConfig(rabi_kHz=2.0, detuning_kHz=1.5)
        h = build_hamiltonian(None, mw, 0.0)
        assert h[IDX_UP, IDX_UP] == pytest.approx(-1.5e-3)
        assert h[IDX_DOWN, IDX_DOWN] == 0.0


class TestTwoLevelOracle:
    def test_resonant_rabi_flopping(self):
        # probe off, resonant drive: s3(t) = -cos(chi t), undamped
        h = build_hamiltonian(None, MicrowaveConfig(rabi_kHz=2.0), 5.0)
        rec = evolve(pure_state(3, 0), liouvillian(h, [], 0.0), window(2.0, 0.002))
        expected = -np.cos(2 * np.pi * 2.0 * rec.times_ms)
        assert np.abs(rec.s3 - expected).max() < 1e-6

    def test_detuned_rabi_formula(self):
        chi, delta = 2.0, 1.5
        omega = math.hypot(chi, delta)
        mw = MicrowaveConfig(rabi_kHz=chi, detuning_kHz=delta)
        h = build_hamiltonian(None, mw, 5.0)
        rec = evolve(pure_state(3, 0), liouvillian(h, [], 0.0), window(2.0, 0.002))
        expected = (chi / omega) ** 2 * np.sin(np.pi * omega * rec.times_ms) ** 2
        assert np.abs(rec.populations[:, IDX_UP] - expected).max() < 1e-6

    def test_fitted_frequency_matches_generalized_rabi(self):
        chi, delta = 2.0, 1.0
        mw = MicrowaveConfig(rabi_kHz=chi, detuning_kHz=delta)
        h = build_hamiltonian(None, mw, 5.0)
        rec = evolve(pure_state(3, 0), liouvillian(h, [], 0.0), window(3.0, 0.005))
        # started 7 % below the answer, sqrt(5) = 2.236 kHz
        omega = rabi_frequency(rec, freq_hint_kHz=2.08)
        assert omega == pytest.approx(math.hypot(chi, delta), rel=1e-3)


class TestPumping:
    def test_rate_calibration_exact_at_reference(self):
        probe = ProbeConfig(-335.0, 16.0, 45.0)
        target = 1.25
        jumps = pumping_jump_operators(probe, total_rate_per_ms=target)
        assert scattering_rate_per_ms(jumps, clock_mixture(0.5)) == \
            pytest.approx(target, rel=1e-12)

    def test_rate_linear_in_irradiance(self):
        j1 = pumping_jump_operators(ProbeConfig(-335.0, 8.0, 45.0))
        j2 = pumping_jump_operators(ProbeConfig(-335.0, 16.0, 45.0))
        rho = clock_mixture(0.5)
        assert scattering_rate_per_ms(j2, rho) == pytest.approx(
            2 * scattering_rate_per_ms(j1, rho), rel=1e-12)

    def test_spin_down_scatters_far_less_at_lower_window(self):
        # probe between the F=4 resonances barely touches F=3 states
        jumps = pumping_jump_operators(ProbeConfig(-335.0, 16.0, 45.0))
        r_up = scattering_rate_per_ms(jumps, clock_mixture(1.0))
        r_down = scattering_rate_per_ms(jumps, clock_mixture(0.0))
        assert r_down < 0.01 * r_up

    def test_population_leaves_clock_manifold_under_pumping(self):
        setup = RunSetup(probe=ProbeConfig(-335.0, 16.0, 45.0),
                         microwave=MicrowaveConfig(rabi_kHz=0.0),
                         simulation=SimulationConfig(t_span_ms=2.0, dt_ms=0.005,
                                                     initial_state="4,0"))
        rec = run_simulation(setup)
        clock_pop = rec.populations[:, IDX_UP] + rec.populations[:, IDX_DOWN]
        assert clock_pop[-1] < clock_pop[0]
        assert rec.populations[-1].sum() == pytest.approx(1.0, abs=1e-9)


class TestConservation:
    def _record(self, extra_loss):
        setup = RunSetup(probe=ProbeConfig(-335.0, 16.0, 45.0),
                         microwave=MicrowaveConfig(rabi_kHz=2.0),
                         simulation=SimulationConfig(t_span_ms=3.0, dt_ms=0.005,
                                                     extra_loss_per_ms=extra_loss))
        return run_simulation(setup)

    def test_trace_plus_lost_conserved(self):
        rec = self._record(extra_loss=0.4)
        total = rec.populations.sum(axis=1) + rec.lost
        assert np.abs(total - 1.0).max() < 1e-9 * rec.times_ms[-1]

    def test_lost_population_monotone(self):
        rec = self._record(extra_loss=0.4)
        assert np.all(np.diff(rec.lost) >= -1e-12)
        assert rec.lost[-1] > 0.3  # (2.5 ms)^-1 over 3 ms drains the clock pair

    def test_no_loss_channel_keeps_everything(self):
        rec = self._record(extra_loss=0.0)
        assert np.abs(rec.lost).max() < 1e-9

    def test_step_halving_leaves_observables_unchanged(self):
        setup = RunSetup(probe=ProbeConfig(-335.0, 16.0, 45.0),
                         microwave=MicrowaveConfig(rabi_kHz=2.0),
                         simulation=SimulationConfig(t_span_ms=1.0, dt_ms=0.01,
                                                     extra_loss_per_ms=0.4))
        coarse = run_simulation(setup)
        fine = run_simulation(with_simulation(setup, dt_ms=0.005))
        assert np.abs(coarse.s3 - fine.s3[::2]).max() < 1e-6
        assert np.abs(coarse.signal_rad - fine.signal_rad[::2]).max() < 1e-6


class TestLossBalance:
    @pytest.mark.parametrize("dt_ms, bound", [(0.005, 2e-6), (0.0025, 5e-7)])
    def test_lost_is_loss_rate_times_clock_population_integral(self, dt_ms, bound):
        # lost(t) = gamma_loss * int_0^t (p_up + p_down) dt, integrated here
        # by a cumulative trapezoid sum whose error scales as dt^2; unlike
        # trace + lost = 1 this fails for a wrong loss term
        setup = measurement_setup()
        rec = run_simulation(with_simulation(setup, dt_ms=dt_ms))
        clock = rec.populations[:, IDX_UP] + rec.populations[:, IDX_DOWN]
        steps = 0.5 * (clock[1:] + clock[:-1]) * np.diff(rec.times_ms)
        loss = setup.simulation.extra_loss_per_ms
        balance = loss * np.concatenate([[0.0], np.cumsum(steps)])
        assert loss == 0.4 and rec.lost[-1] > 0.3
        assert np.abs(rec.lost - balance).max() <= bound


class TestUnitaryOracle:
    @pytest.mark.parametrize("detuning_MHz", [-335.0, -600.0, 7000.0])
    def test_populations_match_hilbert_space_propagator(self, detuning_MHz):
        # pumping and loss off: rho(t) = U rho0 U^dagger with
        # U = exp(-2 pi i 1e3 H t) in the 16-dimensional space, from a
        # random full rho0 with the probe's tensor light shift on
        rng = np.random.default_rng(11)
        z = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho0 = z @ z.conj().T
        rho0 /= np.trace(rho0).real
        h = build_hamiltonian(ProbeConfig(detuning_MHz, 16.0, 45.0),
                              MicrowaveConfig(rabi_kHz=2.0, detuning_kHz=0.3), 0.5)
        rec = evolve(rho0, liouvillian(h, [], 0.0), window(1.0, 0.01))
        for t, pops in zip(rec.times_ms, rec.populations):
            u = expm(-2j * np.pi * 1e3 * h * t)
            exact = np.real(np.diag(u @ rho0 @ u.conj().T))
            assert np.abs(pops - exact).max() <= 1e-11, t


def lindblad_ode_populations(setup, times_ms, rho0=None):
    """Populations of the 16 x 16 ODE d rho = K rho + rho K^dagger +
    sum r A rho A^dagger, with K = -i omega - (sum r A^dagger A + gamma_loss P)
    / 2, integrated by DOP853 from ``rho0`` (default: the setup's initial
    state): no Liouville-space generator."""
    sim = setup.simulation
    h, jumps = operator_terms(setup)
    jumps = jumps if sim.pumping else []
    p = np.zeros((16, 16))
    p[IDX_UP, IDX_UP] = p[IDX_DOWN, IDX_DOWN] = 1.0
    k = -2j * np.pi * 1e3 * h - 0.5 * sim.extra_loss_per_ms * p
    for op, rate in jumps:
        k -= 0.5 * rate * op.conj().T @ op

    def rhs(_, y):
        rho = y.reshape(16, 16)
        drho = k @ rho + rho @ k.conj().T
        for op, rate in jumps:
            drho += rate * op @ rho @ op.conj().T
        return drho.ravel()

    if rho0 is None:
        rho0 = sim.initial_density_matrix()
    sol = solve_ivp(rhs, (0.0, times_ms[-1]), rho0.ravel(), method="DOP853",
                    t_eval=times_ms, rtol=1e-10, atol=1e-14)
    assert sol.success
    return np.real(np.diagonal(sol.y.T.reshape(-1, 16, 16), axis1=1, axis2=2))


# Detunings clear of the D1 resonances by 100 MHz, in the lower window
# (F'=3 to F'=4) or the upper one (F=3 -> F'=3 to F=3 -> F'=4).
ORACLE_DETUNINGS = (st.floats(-1068.0, -100.0)
                    | st.floats(RESONANCES_MHZ["F=3 -> F'=3"] + 100.0,
                                RESONANCES_MHZ["F=3 -> F'=4"] - 100.0))


_PSI = np.array([1.0, 1j]) @ np.random.default_rng(0).normal(size=(2, 16))
COMPLEX_STATE = np.outer(_PSI, _PSI.conj()) / np.vdot(_PSI, _PSI).real


class TestDissipativeOracle:
    def test_populations_match_lindblad_ode(self):
        # pumping and loss on, at the measurement operating point
        setup = with_simulation(measurement_setup(), t_span_ms=0.5)
        rec = run_simulation(setup)
        assert setup.simulation.extra_loss_per_ms > 0 and operator_terms(setup)[1]
        pops = lindblad_ode_populations(setup, rec.times_ms)
        assert np.abs(rec.populations - pops).max() <= 1e-10

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(detuning=ORACLE_DETUNINGS, theta=st.floats(0.0, 179.0),
           irradiance=st.floats(0.5, 16.0), bias_G=st.floats(0.0, 0.5),
           chi_kHz=st.floats(0.0, 10.0), delta_kHz=st.floats(-5.0, 5.0),
           pumping=st.booleans(), loss=st.sampled_from([0.0, 0.4, 2.0]))
    def test_random_operating_points_match_lindblad_ode(
            self, detuning, theta, irradiance, bias_G, chi_kHz, delta_kHz,
            pumping, loss):
        # 10 steps of 5 us.  Over 60 random draws the two paths differed by
        # up to 2.7e-10, from the ODE's rtol; a time-reversed commutator
        # moves the complex state's populations by 1.8e-4
        setup = RunSetup(
            probe=ProbeConfig(detuning, irradiance, theta),
            microwave=MicrowaveConfig(rabi_kHz=chi_kHz, detuning_kHz=delta_kHz),
            cloud=CloudConfig(bias_field_G=bias_G),
            simulation=SimulationConfig(t_span_ms=0.05, dt_ms=0.005, pumping=pumping,
                                        extra_loss_per_ms=loss))
        rec = run_simulation(setup)
        pops = lindblad_ode_populations(setup, rec.times_ms)
        assert np.abs(rec.populations - pops).max() <= 1e-9
        # H and the jumps are real, so from a real state a time-reversed
        # commutator (a valid Lindbladian too) gives the conjugate state
        # and the same populations; a complex state breaks that symmetry
        rec = evolve(COMPLEX_STATE, generator_of(setup), setup.simulation)
        pops = lindblad_ode_populations(setup, rec.times_ms, COMPLEX_STATE)
        assert np.abs(rec.populations - pops).max() <= 1e-9


class TestPumpedSteadyState:
    def test_long_span_reaches_null_vector_of_generator(self):
        # microwave and loss off at the measurement operating point: the
        # generator has a one-dimensional null space, and its slowest decay
        # rate (7.5e-4 /ms) leaves e^-30 of the transient after 40 s
        setup = with_simulation(measurement_setup(), extra_loss_per_ms=0.0,
                                t_span_ms=40000.0, dt_ms=1000.0)
        setup = replace(setup, microwave=MicrowaveConfig(rabi_kHz=0.0))
        h, jumps = operator_terms(setup)
        _, sv, vh = np.linalg.svd(kron_liouvillian(h, jumps, 0.0))
        assert sv[-1] < 1e-10 and sv[-2] > 1e-4
        steady = vh[-1].conj().reshape(16, 16)
        steady /= np.trace(steady)
        rec = run_simulation(setup)
        # measured 3.0e-10; a 1 % error in one jump rate moves the null
        # vector by 2.3e-3
        assert np.abs(rec.populations[-1] - np.real(np.diag(steady))).max() <= 1e-8
        # the loss channel is off, so lost is the trace drift of the long
        # steps' propagator: measured 1.7e-9 (module docstring)
        assert np.abs(rec.lost).max() <= 1e-8


class TestBiasFieldDecoupling:
    def _leakage(self, bias_G, t_span=5.0):
        # time-averaged coherent admixture outside the clock pair for an
        # equal clock mixture under the probe alone
        setup = RunSetup(probe=ProbeConfig(-335.0, 8.0, 45.0),
                         microwave=MicrowaveConfig(rabi_kHz=0.0),
                         simulation=SimulationConfig(t_span_ms=t_span, dt_ms=0.01,
                                                     pumping=False,
                                                     initial_state="mixture"))
        setup = replace(setup, cloud=replace(setup.cloud, bias_field_G=bias_G))
        rec = run_simulation(setup)
        clock = rec.populations[:, IDX_UP] + rec.populations[:, IDX_DOWN]
        return float((1.0 - clock).mean())

    def test_bias_field_suppresses_leakage(self):
        assert self._leakage(0.5) < 1e-3

    def test_zero_field_control_leaks(self):
        assert self._leakage(0.0) > 1e-2


def plain_step_loop(rho0, h, jumps, loss, t_span_ms, dt_ms):
    """Reference trajectory: one matvec per step, states kept as 16x16."""
    prop = expm(liouvillian(h, jumps, loss) * dt_ms)
    vec = rho0.reshape(-1).copy()
    states = [vec.reshape(16, 16)]
    for _ in range(int(round(t_span_ms / dt_ms))):
        vec = prop @ vec
        states.append(vec.reshape(16, 16))
    return np.array(states)


class TestStackedTrajectory:
    def test_bitwise_equal_to_plain_step_loop(self):
        probe = ProbeConfig(-335.0, 16.0, 45.0)
        h = build_hamiltonian(probe, MicrowaveConfig(rabi_kHz=2.0), 0.0)
        jumps = pumping_jump_operators(probe, total_rate_per_ms=1.25)
        phases = np.linspace(-1.0, 1.0, 16)
        rho0 = clock_mixture(0.3)
        rec = evolve(rho0, liouvillian(h, jumps, 0.4), window(1.0, 0.005, 0.4),
                     state_phases=phases)
        states = plain_step_loop(rho0, h, jumps, 0.4, 1.0, 0.005)
        pops = np.array([np.real(np.diag(rho)) for rho in states])
        lost = np.array([1.0 - float(np.trace(rho).real) for rho in states])
        assert np.array_equal(rec.populations, pops)
        assert np.array_equal(rec.lost, lost)
        assert np.array_equal(rec.signal_rad, pops @ phases)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(rabi_kHz=st.floats(0.0, 5.0), drive_det_kHz=st.floats(-3.0, 3.0),
           probe_det_MHz=st.floats(-1000.0, -100.0),
           irradiance=st.floats(0.1, 32.0), loss=st.floats(0.0, 2.0),
           rank=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    def test_invariants_hold_for_random_runs(self, rabi_kHz, drive_det_kHz,
                                             probe_det_MHz, irradiance, loss,
                                             rank, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(16, rank)) + 1j * rng.normal(size=(16, rank))
        rho = a @ a.conj().T
        rho0 = rho / np.trace(rho).real
        probe = ProbeConfig(probe_det_MHz, irradiance, 45.0)
        mw = MicrowaveConfig(rabi_kHz=rabi_kHz, detuning_kHz=drive_det_kHz)
        h = build_hamiltonian(probe, mw, 0.5)
        jumps = pumping_jump_operators(probe)
        rec = evolve(rho0, liouvillian(h, jumps, loss), window(0.5, 0.01, loss))
        total = rec.populations.sum(axis=1) + rec.lost
        assert np.abs(total - 1.0).max() < 1e-9
        states = plain_step_loop(rho0, h, jumps, loss, 0.5, 0.01)
        assert np.linalg.eigvalsh(states).min() >= -1e-9


class TestInvariantChecks:
    def test_non_hermitian_initial_state_fails_at_t0(self):
        rho = pure_state(3, 0)
        rho[IDX_DOWN, IDX_UP] = 1e-3  # no matching conjugate element
        h = build_hamiltonian(None, MicrowaveConfig(rabi_kHz=2.0), 0.0)
        with pytest.raises(InvariantViolationError,
                           match=re.escape("hermiticity violated at t = 0 ms")):
            evolve(rho, liouvillian(h, [], 0.0), window(0.1, 0.01))

    def test_negative_rate_jump_fails_positivity_at_first_step(self):
        # a negative-rate transfer |3,0> -> |4,0> drives the |4,0>
        # population below zero from the first step on
        op = np.zeros((16, 16))
        op[IDX_UP, IDX_DOWN] = 1.0
        h = build_hamiltonian(None, None, 0.0)
        with pytest.raises(InvariantViolationError,
                           match=re.escape("positivity violated at t = 0.01 ms")):
            evolve(pure_state(3, 0), liouvillian(h, [(op, -1.0)], 0.0),
                   window(0.1, 0.01))

    @pytest.mark.parametrize("term", ["anticommutator", "jump", "loss"])
    def test_generator_changing_the_trace_fails(self, term):
        # a 1 % error in one term of the generator makes the trace change
        # other than through the loss channel: evolve refuses it at once
        h, jumps, loss = magic_terms(0.4)
        eye = np.eye(16)
        lv = liouvillian(h, jumps, loss)
        for op, rate in jumps:
            opd = op.conj().T @ op
            if term == "anticommutator":
                lv -= 0.005 * rate * (np.kron(opd, eye) + np.kron(eye, opd.T))
            elif term == "jump":
                lv += 0.01 * rate * np.kron(op, op.conj())
        if term == "loss":
            p = np.diag(np.isin(np.arange(16), [IDX_UP, IDX_DOWN]) * 1.0)
            lv -= 0.005 * loss * (np.kron(p, eye) + np.kron(eye, p))
        with pytest.raises(InvariantViolationError, match="does not conserve the trace"):
            evolve(pure_state(3, 0), lv, window(0.1, 0.01, loss))

    @pytest.mark.parametrize("built_with, sim_loss", [(0.0, 0.4), (0.4, 0.0)])
    def test_generator_with_another_loss_rate_fails(self, built_with, sim_loss):
        # the trace balance is checked against the window's loss rate, not
        # the one the generator was built with
        h, jumps, _ = magic_terms(0.0)
        with pytest.raises(InvariantViolationError, match="does not conserve the trace"):
            evolve(pure_state(3, 0), liouvillian(h, jumps, built_with),
                   window(0.1, 0.01, sim_loss))

    def test_span_not_a_multiple_of_step_rejected(self):
        with pytest.raises(ValueError, match="not a multiple"):
            SimulationConfig(t_span_ms=1.0, dt_ms=0.7)

    def test_overflowing_step_count_rejected(self):
        # finite span and step whose ratio overflows: a ValueError naming
        # the window, not an OverflowError from round()
        with pytest.raises(ValueError, match="overflows"):
            SimulationConfig(t_span_ms=1e300, dt_ms=1e-10)

    def test_negative_loss_rate_rejected(self):
        with pytest.raises(ValueError, match="extra_loss_per_ms must be >= 0"):
            SimulationConfig(t_span_ms=1.0, dt_ms=0.01, extra_loss_per_ms=-0.4)

    def test_nan_loss_rate_rejected(self):
        with pytest.raises(ValueError, match="extra_loss_per_ms must be >= 0"):
            SimulationConfig(t_span_ms=1.0, dt_ms=0.01, extra_loss_per_ms=math.nan)

    def test_run_simulation_rejects_negative_loss_rate(self):
        # without the check the trace grows past 1 and lost goes negative;
        # the run's SimulationConfig rejects the rate before any evolution
        with pytest.raises(ValueError, match="extra_loss_per_ms"):
            run_simulation(RunSetup(
                probe=ProbeConfig(-335.0, 16.0, 45.0),
                simulation=SimulationConfig(t_span_ms=1.0, dt_ms=0.005,
                                            extra_loss_per_ms=-0.4)))


def generator_of(setup: RunSetup) -> np.ndarray:
    """The Lindblad generator of ``setup``'s operating point and window."""
    sim = setup.simulation
    h, jumps = operator_terms(setup)
    return liouvillian(h, jumps if sim.pumping else [], sim.extra_loss_per_ms)


def projected_choi(lv: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) L(|i><j|), projected off the maximally
    entangled vector sum_i |ii> / 4."""
    n = 16
    # lv[16 a + b, 16 i + j] = L(|i><j|)[a, b] is choi[16 i + a, 16 j + b]
    choi = lv.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)
    omega = np.eye(n).reshape(-1) / 4.0
    off = np.eye(n * n) - np.outer(omega, omega)
    return off @ choi @ off


# (detuning MHz, theta deg, pumping, extra loss /ms, scattering rate /ms):
# both inter-resonance windows, with pumping and the loss each on and off
CCP_POINTS = [
    (-700.0, 45.0, True, 0.0, None),
    (-335.0, 45.0, True, 0.4, 1.25),
    (-150.0, 90.0, False, 0.4, None),
    (-60.0, 10.0, True, 0.0, None),
    (-500.0, 170.0, False, 0.0, None),
    (8222.3, 45.0, True, 0.4, None),
    (8600.0, 135.0, False, 0.0, None),
    (9000.0, 60.0, True, 0.4, 1.25),
]


class TestConditionalCompletePositivity:
    """L generates a completely positive semigroup exactly when its Choi
    matrix, projected off the maximally entangled vector, is Hermitian and
    positive semidefinite (Gorini, Kossakowski & Sudarshan 1976; Lindblad
    1976; Wolf & Cirac 2008)."""

    @pytest.mark.parametrize("det,theta,pumping,loss,rate", CCP_POINTS)
    def test_projected_choi_is_positive(self, det, theta, pumping, loss, rate):
        setup = RunSetup(ProbeConfig(det, 16.0, theta),
                         MicrowaveConfig(rabi_kHz=2.0, detuning_kHz=0.3),
                         simulation=SimulationConfig(t_span_ms=0.005, dt_ms=0.005,
                                                     extra_loss_per_ms=loss,
                                                     pumping=pumping,
                                                     scattering_rate_per_ms=rate))
        lv = generator_of(setup)
        choi = projected_choi(lv)
        scale = np.abs(lv).max()
        assert np.abs(choi - choi.conj().T).max() <= 1e-12 * scale
        w = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))
        if pumping:
            assert w.min() >= -1e-9 * w.max()
        else:
            # the Hamiltonian and the loss act as K rho + rho K^dagger,
            # which the projection removes entirely
            assert np.abs(w).max() <= 1e-12 * scale


def kron_liouvillian(h, jumps, extra_loss_per_ms):
    """Reference generator: the np.kron formula, term by term."""
    eye = np.eye(16)
    omega = 2.0 * math.pi * 1e3 * h
    lv = -1j * (np.kron(omega, eye) - np.kron(eye, omega.T))
    for op, rate in jumps:
        opd = op.conj().T @ op
        lv += rate * (
            np.kron(op, op.conj())
            - 0.5 * (np.kron(opd, eye) + np.kron(eye, opd.T))
        )
    if extra_loss_per_ms:
        p = np.zeros((16, 16))
        p[IDX_UP, IDX_UP] = p[IDX_DOWN, IDX_DOWN] = 1.0
        lv += -0.5 * extra_loss_per_ms * (np.kron(p, eye) + np.kron(eye, p.T))
    return lv


def measurement_setup():
    """The ``measurement`` preset's sweep point at the magic detuning."""
    cfg = load_config(preset="measurement")
    return operating_point(RunSetup(cfg.probe, cfg.microwave, cfg.cloud, cfg.simulation),
                           find_magic_detunings(45.0, (-1100.0, -50.0))[0].detuning_MHz)


def with_simulation(setup, **changes):
    """``setup`` with the given SimulationConfig fields replaced."""
    return replace(setup, simulation=replace(setup.simulation, **changes))


def operator_terms(setup):
    h = build_hamiltonian(setup.probe, setup.microwave, setup.cloud.bias_field_G)
    jumps = pumping_jump_operators(
        setup.probe, total_rate_per_ms=setup.simulation.scattering_rate_per_ms)
    return h, jumps


def magic_terms(loss, pumping=True):
    h, jumps = operator_terms(measurement_setup())
    return h, jumps if pumping else [], loss


def chevron_terms(detuning_MHz):
    setup = build_setup(load_config(preset="chevron"))
    probe = replace(setup.probe, detuning_MHz=detuning_MHz, irradiance_rel=16.0)
    return (*operator_terms(replace(setup, probe=probe)), 0.0)


def signed_zero_terms():
    """Random operators whose zero entries carry both signs."""
    rng = np.random.default_rng(7)

    def matrix(zero_frac):
        re, im = rng.normal(size=(2, 16, 16))
        re[rng.random((16, 16)) < zero_frac] = 0.0
        im[rng.random((16, 16)) < zero_frac] = 0.0
        z = np.empty((16, 16), dtype=complex)
        z.real = re * rng.choice([-1.0, 1.0], size=(16, 16))
        z.imag = im * rng.choice([-1.0, 1.0], size=(16, 16))
        return z

    return matrix(0.5), [(matrix(0.8), 1.3), (matrix(0.8), -0.7)], 0.4


class TestLiouvillianBuild:
    @pytest.mark.parametrize("terms", [
        pytest.param(lambda: magic_terms(0.4), id="magic-loss"),
        pytest.param(lambda: magic_terms(0.0), id="magic-no-loss"),
        pytest.param(lambda: chevron_terms(-996.0), id="chevron-996"),
        pytest.param(lambda: chevron_terms(-116.5), id="chevron-116.5"),
        pytest.param(lambda: magic_terms(0.0, pumping=False), id="no-jumps"),
        pytest.param(signed_zero_terms, id="signed-zeros"),
    ])
    def test_bitwise_equal_to_kron_formula(self, terms):
        h, jumps, loss = terms()
        lv = liouvillian(h, jumps, loss)
        ref = kron_liouvillian(h, jumps, loss)
        assert lv.shape == ref.shape == (256, 256)
        assert np.array_equal(lv.view(np.uint64), ref.view(np.uint64))

    def test_run_simulation_peak_allocation(self):
        setup = measurement_setup()
        run_simulation(setup)  # first call pays one-off set-up
        tracemalloc.start()
        try:
            run_simulation(setup)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9.5 * 2**20


def mixture_stack(n=601):
    """n copies of the equal clock mixture and their sample times."""
    return (np.repeat(clock_mixture(0.5)[None], n, axis=0),
            np.arange(n) * 0.005)


def break_positivity(states, i):
    states[i, IDX_UP, IDX_UP] = 1.5
    states[i, IDX_DOWN, IDX_DOWN] = -0.5


def break_hermiticity(states, i):
    states[i, IDX_DOWN, IDX_UP] = 1e-3


class TestInvariantBlocks:
    def test_positivity_violation_names_its_time(self):
        states, times = mixture_stack()
        break_positivity(states, 100)
        with pytest.raises(InvariantViolationError, match=re.escape(
                f"positivity violated at t = {times[100]:g} ms")):
            _check_invariants(states, times)

    def test_hermiticity_reported_first_at_equal_times(self):
        states, times = mixture_stack()
        break_positivity(states, 130)
        break_hermiticity(states, 130)
        with pytest.raises(InvariantViolationError, match=re.escape(
                f"hermiticity violated at t = {times[130]:g} ms")):
            _check_invariants(states, times)

    def test_earlier_positivity_beats_later_hermiticity(self):
        states, times = mixture_stack()
        break_positivity(states, 70)
        break_hermiticity(states, 130)
        with pytest.raises(InvariantViolationError, match=re.escape(
                f"positivity violated at t = {times[70]:g} ms")):
            _check_invariants(states, times)
