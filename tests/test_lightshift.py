"""Light-shift operator, decomposition, magic frequencies, two-color balance."""

import itertools
import math

import numpy as np
import pytest

from clockprobe.angular import dipole_element
from clockprobe.atom import GAMMA_MHZ, IDX_DOWN, IDX_UP, state_registry
from clockprobe.birefringence import two_color_balance
from clockprobe.errors import NoBalanceError, ResonanceProximityError
from clockprobe.lightshift import (
    ProbeConfig,
    build_light_shift,
    circular_polarization,
    differential_clock_shift,
    dressed_clock_shift,
    find_magic_detunings,
    light_shift_matrix,
    RESONANCES_MHZ,
    spherical_polarization,
)



def oracle_level_shift(state, detuning_MHz, irradiance_rel, theta_deg):
    """Independent second-order perturbation sum over all dipole paths."""
    th = math.radians(theta_deg)
    eps = {-1: math.sin(th) / math.sqrt(2.0), 0: math.cos(th),
           1: -math.sin(th) / math.sqrt(2.0)}
    total = 0.0
    for eF in (3, 4):
        delta = detuning_MHz - RESONANCES_MHZ[f"F={state.F} -> F'={eF}"]
        amp = 0.0
        for q in (-1, 0, 1):
            mE = state.mF + q
            if abs(mE) > eF:
                continue
            amp += (eps[q] * dipole_element(state.F, state.mF, eF, mE, q)) ** 2
        total += GAMMA_MHZ**2 / 8.0 * irradiance_rel * amp / delta
    return total


class TestOperator:
    def test_diagonal_matches_perturbation_oracle(self):
        rng = np.random.default_rng(7)
        reg = state_registry()
        grid = np.concatenate([
            np.linspace(-1100, -60, 100),
            np.linspace(150, 7500, 100),
        ])
        for det in grid:
            theta = float(rng.uniform(0, 180))
            v = build_light_shift(ProbeConfig(float(det), 5.0, theta)).total
            for idx in (IDX_UP, IDX_DOWN, 0, 9):
                expected = oracle_level_shift(reg[idx], float(det), 5.0, theta)
                assert v[idx, idx].real == pytest.approx(expected, abs=1e-9)

    def test_hermitian_and_block_diagonal(self):
        v = build_light_shift(ProbeConfig(-300.0, 10.0, 30.0)).total
        assert np.abs(v - v.conj().T).max() < 1e-15
        assert np.abs(v[:7, 7:]).max() == 0.0

    def test_pure_pi_has_no_residual_coupling(self):
        # theta = 0 drives only q = 0, which cannot connect m = 0 to m != 0
        v = light_shift_matrix(ProbeConfig(-335.0, 16.0, 0.0))
        assert np.abs(v - np.diag(np.diag(v))).max() < 1e-15

    def test_resonance_proximity_raises(self):
        with pytest.raises(ResonanceProximityError):
            build_light_shift(ProbeConfig(-1168.1, 1.0, 45.0))
        with pytest.raises(ResonanceProximityError):
            build_light_shift(ProbeConfig(0.3, 1.0, 45.0))

    def test_asymptotic_inverse_detuning(self):
        # far red of all resonances every element falls off as 1/|detuning|
        v1 = build_light_shift(ProbeConfig(-4.0e5, 1.0, 45.0)).total
        v2 = build_light_shift(ProbeConfig(-8.0e5, 1.0, 45.0)).total
        ratio = v1[IDX_UP, IDX_UP].real / v2[IDX_UP, IDX_UP].real
        assert ratio == pytest.approx(2.0, rel=5e-3)


class TestDecomposition:
    def test_completeness_for_100_random_probes(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            det = float(rng.uniform(-1100, -60))
            s = float(rng.uniform(0.5, 40))
            theta = float(rng.uniform(0, 180))
            op = build_light_shift(ProbeConfig(det, s, theta))
            recon = op.scalar_part + op.vector_part + op.tensor_part
            scale = np.abs(op.total).max()
            assert np.abs(op.total - recon).max() <= 1e-12 * scale

    def test_vector_part_vanishes_for_linear_polarization(self):
        # xi1 is an atomic coefficient and stays finite; the operator's
        # vector part carries the ellipticity factor and must vanish
        for theta in (0.0, 30.0, 45.0, 90.0, 120.0):
            op = build_light_shift(ProbeConfig(-400.0, 16.0, theta))
            assert np.abs(op.vector_part).max() < 1e-12
            assert abs(op.xi1_MHz) > 0

    def test_vector_part_nonzero_for_circular(self):
        op = build_light_shift(ProbeConfig(-400.0, 16.0, 45.0),
                               polarization=circular_polarization(+1))
        assert np.abs(op.vector_part).max() > 1e-6
        assert abs(op.xi1_MHz) > 1e-8

    def test_vector_part_flips_with_handedness(self):
        op_p = build_light_shift(ProbeConfig(-400.0, 16.0, 45.0),
                                 polarization=circular_polarization(+1))
        op_m = build_light_shift(ProbeConfig(-400.0, 16.0, 45.0),
                                 polarization=circular_polarization(-1))
        assert np.abs(op_p.vector_part + op_m.vector_part).max() < 1e-12

    def test_scalar_part_is_identity_per_block(self):
        op = build_light_shift(ProbeConfig(-300.0, 8.0, 60.0))
        for blk in (slice(0, 7), slice(7, 16)):
            s = op.scalar_part[blk, blk]
            assert np.allclose(s, s[0, 0] * np.eye(s.shape[0]))


def trace_projection_xis(probe, polarization=None):
    """xi0, xi1, xi2 by trace projection of the numeric F = 4 block.

    xi0 is the scalar trace, xi2 the Fz^2 - <Fz^2> coefficient and xi1 the
    Fy coefficient of the sigma+ operator at the same detuning and power.
    """
    f4 = [i for i, st in enumerate(state_registry()) if st.F == 4]
    m = np.array([state_registry()[i].mF for i in f4], dtype=float)
    fz = np.diag(m)
    fplus = np.zeros((9, 9))
    for i, j in itertools.product(range(9), repeat=2):
        if m[i] == m[j] + 1:
            fplus[i, j] = math.sqrt(20.0 - m[j] * (m[j] + 1.0))
    fy = (fplus - fplus.T) / 2j
    q = fz @ fz - np.trace(fz @ fz) / 9.0 * np.eye(9)
    v = light_shift_matrix(probe, polarization)[np.ix_(f4, f4)]
    v_circ = light_shift_matrix(probe, circular_polarization(+1))[np.ix_(f4, f4)]
    return (np.trace(v).real / 9.0,
            np.trace(v_circ @ fy.conj().T).real / np.trace(fy @ fy.conj().T).real,
            np.trace(v @ q).real / np.trace(q @ q).real)


class TestClosedFormXi:
    DETUNINGS = (-1100.0, -800.0, -335.0, -60.0, 8250.0, 8600.0, 9000.0)

    @pytest.mark.parametrize("pol", [
        *(f"theta={t}" for t in (0, 20, 45, 54.7, 80, 90, 135, 179)),
        "sigma+", "sigma-"])
    def test_matches_trace_projections(self, pol):
        # both D1 windows, linear probes and either circular handedness
        for det in self.DETUNINGS:
            if pol.startswith("theta="):
                probe = ProbeConfig(det, 7.0, float(pol[6:]))
                eps = None
            else:
                probe = ProbeConfig(det, 7.0, 45.0)
                eps = circular_polarization(+1 if pol == "sigma+" else -1)
            op = build_light_shift(probe, polarization=eps)
            oracle = trace_projection_xis(probe, eps)
            got = (op.xi0_MHz, op.xi1_MHz, op.xi2_MHz)
            assert np.abs(np.subtract(got, oracle)).max() <= 1e-12 * abs(oracle[0])

    def test_one_operator_build(self, monkeypatch):
        from clockprobe import lightshift

        calls = []
        build = lightshift.light_shift_matrix
        monkeypatch.setattr(lightshift, "light_shift_matrix",
                            lambda *a, **k: calls.append(a) or build(*a, **k))
        build_light_shift(ProbeConfig(-400.0, 16.0, 45.0))
        assert len(calls) == 1


class TestMagicDetunings:
    def test_single_root_near_minus_335(self):
        points = find_magic_detunings(45.0, (-1168.0, 0.0))
        assert len(points) == 1
        p = points[0]
        assert p.detuning_MHz == pytest.approx(-335.0, abs=5.0)
        assert abs(p.residual_dU_kHz) < 1e-3  # below 1 Hz

    def test_sign_change_across_root(self):
        # each root brackets a sign change, and the closed-form shift there
        # equals the diagonal difference of the full operator
        for theta in (30.0, 45.0, 60.0, 75.0, 90.0):
            points = (find_magic_detunings(theta, (-1100.0, -50.0))
                      + find_magic_detunings(theta, (8100.0, 9100.0)))
            assert len(points) == 2
            for p in points:
                du = []
                for step in (-0.1, 0.1):
                    probe = ProbeConfig(p.detuning_MHz + step, 1.0, theta)
                    v = build_light_shift(probe).total
                    diag = (v[IDX_UP, IDX_UP] - v[IDX_DOWN, IDX_DOWN]).real * 1e3
                    du.append(differential_clock_shift(probe.detuning_MHz, theta))
                    assert du[-1] == pytest.approx(diag, rel=1e-12, abs=0.0)
                assert du[0] * du[1] < 0

    def test_root_independent_of_irradiance(self):
        p1 = find_magic_detunings(45.0, (-1100.0, -50.0), irradiance_rel=1.0)[0]
        p2 = find_magic_detunings(45.0, (-1100.0, -50.0), irradiance_rel=30.0)[0]
        assert p1.detuning_MHz == pytest.approx(p2.detuning_MHz, abs=1e-3)

    def test_differential_shift_monotone_in_window(self):
        # the differential shift decreases monotonically between the F=4
        # resonances, so the window can hold at most one zero crossing
        grid = np.linspace(-1140.0, -30.0, 300)
        assert np.all(np.diff(differential_clock_shift(grid)) < 0)

    def test_differential_shift_monotone_in_upper_window(self):
        # likewise increasing between the F=3 resonances, so the upper
        # window also holds at most one zero crossing
        grid = np.linspace(RESONANCES_MHZ["F=3 -> F'=3"] + 30.0,
                           RESONANCES_MHZ["F=3 -> F'=4"] - 30.0, 300)
        assert np.all(np.diff(differential_clock_shift(grid)) > 0)

    def test_no_root_for_pure_pi_polarization(self):
        assert find_magic_detunings(0.0, (-1100.0, -50.0)) == []

    def test_upper_window_has_root(self):
        points = find_magic_detunings(45.0, (8100.0, 9100.0))
        assert len(points) == 1

    def test_window_containing_resonance_rejected(self):
        with pytest.raises(ValueError):
            find_magic_detunings(45.0, (-200.0, 200.0))


class TestDressedShift:
    def test_agrees_with_diagonal_far_from_resonance(self):
        probe = ProbeConfig(-600.0, 16.0, 45.0)
        diag = differential_clock_shift(-600.0, 45.0, 16.0)
        dressed = dressed_clock_shift(probe, bias_field_G=0.5)
        assert dressed == pytest.approx(diag, rel=0.02)

    def test_repulsion_grows_toward_resonance(self):
        near = ProbeConfig(-100.0, 16.0, 45.0)
        far = ProbeConfig(-600.0, 16.0, 45.0)

        def rel_gap(probe):
            d = differential_clock_shift(probe.detuning_MHz, 45.0, 16.0)
            return abs(dressed_clock_shift(probe, 0.5) - d) / abs(d)

        assert rel_gap(near) > rel_gap(far)


class TestTwoColor:
    def test_balanced_operating_point(self):
        sol = two_color_balance((8100.0, 9100.0), (-1100.0, -50.0), 45.0)
        assert sol.phase_34_rad * sol.phase_44_rad < 0
        assert sol.power_ratio_34_over_44 > 0
        # equal clock mixture (S3 = 0) gives zero collective phase
        assert abs(sol.total_phase(0.5, 0.5, od=1.0)) < 1e-6

    def test_signal_remains_for_polarized_spin(self):
        sol = two_color_balance((8100.0, 9100.0), (-1100.0, -50.0), 45.0)
        assert abs(sol.total_phase(1.0, 0.0, od=1.0)) > 1e-5

    def test_same_window_twice_raises(self):
        with pytest.raises(NoBalanceError):
            two_color_balance((-1100.0, -600.0), (-500.0, -50.0), 45.0)
