"""Light-shift operator, closed-form xi's, magic frequencies, two-color balance."""

import math

import numpy as np
import pytest

from clockprobe.angular import dipole_element
from clockprobe.atom import F3_BLOCK, F4_BLOCK, GAMMA_MHZ, IDX_DOWN, IDX_UP, state_registry
from clockprobe.birefringence import two_color_balance
from clockprobe.errors import (
    NoBalanceError,
    ResonanceProximityError,
    UnresolvedClockLevelsError,
)
from clockprobe.lightshift import (
    ProbeConfig,
    amplitude_tensor,
    build_light_shift,
    check_off_resonance,
    clear_of_resonances,
    differential_clock_shift,
    dressed_clock_shift,
    excited_detunings_MHz,
    find_magic_detunings,
    light_shift_matrix,
    RESONANCES_MHZ,
    resonance_distance,
    spherical_polarization,
)
from closed_forms import closed_form_xis



def oracle_level_shift(state, detuning_MHz, irradiance_rel, theta_deg):
    """Independent second-order perturbation sum over all dipole paths of the
    ground state ``state`` = (F, mF)."""
    F, mF = state
    th = math.radians(theta_deg)
    eps = {-1: math.sin(th) / math.sqrt(2.0), 0: math.cos(th),
           1: -math.sin(th) / math.sqrt(2.0)}
    total = 0.0
    for eF in (3, 4):
        delta = detuning_MHz - RESONANCES_MHZ[f"F={F} -> F'={eF}"]
        amp = 0.0
        for q in (-1, 0, 1):
            mE = mF + q
            if abs(mE) > eF:
                continue
            amp += (eps[q] * dipole_element(F, mF, eF, mE, q)) ** 2
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
            v = light_shift_matrix(ProbeConfig(float(det), 5.0, theta))
            for idx in (IDX_UP, IDX_DOWN, 0, 9):
                expected = oracle_level_shift(reg[idx], float(det), 5.0, theta)
                assert v[idx, idx].real == pytest.approx(expected, abs=1e-9)

    def test_hermitian_and_block_diagonal(self):
        v = build_light_shift(ProbeConfig(-300.0, 10.0, 30.0))
        assert np.abs(v - v.conj().T).max() < 1e-15
        assert np.abs(v[:7, 7:]).max() == 0.0

    def test_pure_pi_has_no_residual_coupling(self):
        # theta = 0 drives only q = 0, which cannot connect m = 0 to m != 0
        v = light_shift_matrix(ProbeConfig(-335.0, 16.0, 0.0))
        assert np.abs(v - np.diag(np.diag(v))).max() < 1e-15

    def test_resonance_proximity_raises(self):
        with pytest.raises(ResonanceProximityError):
            light_shift_matrix(ProbeConfig(-1168.1, 1.0, 45.0))
        with pytest.raises(ResonanceProximityError):
            light_shift_matrix(ProbeConfig(0.3, 1.0, 45.0))

    def test_asymptotic_inverse_detuning(self):
        # far red of all resonances every element falls off as 1/|detuning|
        v1 = light_shift_matrix(ProbeConfig(-4.0e5, 1.0, 45.0))
        v2 = light_shift_matrix(ProbeConfig(-8.0e5, 1.0, 45.0))
        ratio = v1[IDX_UP, IDX_UP].real / v2[IDX_UP, IDX_UP].real
        assert ratio == pytest.approx(2.0, rel=5e-3)


def spin_matrices(blk):
    """Fx, Fy, Fz on one ground-F block of the state registry."""
    m = np.array([mF for _, mF in state_registry()[blk]], dtype=float)
    f = (len(m) - 1) / 2.0
    fplus = np.where(m[:, None] == m + 1, np.sqrt(f * (f + 1.0) - m * (m + 1.0)), 0.0)
    return (fplus + fplus.T) / 2.0, (fplus - fplus.T) / 2j, np.diag(m)


def projection(v, op):
    """Coefficient of ``op`` in ``v`` under the trace inner product."""
    return np.trace(v @ op.conj().T).real / np.trace(op @ op.conj().T).real


class TestResonanceRule:
    def test_distance_broadcasts_in_table_order(self):
        grid = np.array([[-700.0, 8.0e3], [0.05, -1168.2]])
        expected = np.abs(grid[..., None] - np.array(list(RESONANCES_MHZ.values())))
        assert np.array_equal(resonance_distance(grid), expected)
        assert resonance_distance(-700.0).shape == (4,)

    def test_clear_and_check_read_the_distance_at_their_margins(self):
        # exactly 0.2 Gamma off is not clear; exactly 0.1 Gamma off raises
        grid = np.array([0.2 * GAMMA_MHZ, 0.2 * GAMMA_MHZ + 1e-9, -0.1 * GAMMA_MHZ])
        assert clear_of_resonances(grid).tolist() == [False, True, False]
        check_off_resonance(grid[:2])
        with pytest.raises(ResonanceProximityError):
            check_off_resonance(grid[2])

    def test_check_names_the_first_offender_and_its_resonance(self):
        with pytest.raises(ResonanceProximityError) as info:
            check_off_resonance([-500.0, -1168.2, 0.3])
        err = info.value
        assert (err.detuning_MHz, err.nearest_resonance_MHz, err.label) == \
            (-1168.2, -1168.0, "F=4 -> F'=3")
        assert str(err) == ("probe detuning -1168.2 MHz is within 0.1 Gamma of the "
                            "F=4 -> F'=3 resonance at -1168 MHz")


class TestDecomposition:
    def test_vector_part_vanishes_for_linear_polarization(self):
        # xi1 is an atomic coefficient and stays finite; the operator's
        # vector part carries the ellipticity factor and must vanish, so
        # neither F block has a trace projection on Fx, Fy or Fz
        for theta in (0.0, 30.0, 45.0, 90.0, 120.0):
            probe = ProbeConfig(-400.0, 16.0, theta)
            v = light_shift_matrix(probe)
            for blk in (F3_BLOCK, F4_BLOCK):
                scalar = abs(np.trace(v[blk, blk]).real) / (blk.stop - blk.start)
                for f in spin_matrices(blk):
                    assert abs(projection(v[blk, blk], f)) <= 1e-12 * scalar
            assert abs(closed_form_xis(probe)[1]) > 0


def circular_f4_block(probe, handedness):
    """F = 4 block of the light shift of circular light (x + i h z)/sqrt(2).

    Built here from the dipole amplitudes at the probe's detuning and
    power: the library's operator takes linear polarization only.
    """
    eps = np.array([1.0, 1j * handedness * math.sqrt(2.0), -1.0]) / 2.0
    exc = (amplitude_tensor() @ eps)[F4_BLOCK]
    dets = excited_detunings_MHz(probe.detuning_MHz)[F4_BLOCK]
    return GAMMA_MHZ**2 / 8.0 * probe.irradiance_rel * (exc.conj() @ (exc / dets).T)


class TestClosedFormXi:
    DETUNINGS = (-1100.0, -800.0, -335.0, -60.0, 8250.0, 8600.0, 9000.0)

    @pytest.mark.parametrize("pol", [
        *(f"theta={t}" for t in (0, 20, 45, 54.7, 80, 90, 135, 179)),
        "sigma+", "sigma-"])
    def test_matches_trace_projections(self, pol):
        # both D1 windows.  Linear probes: xi0 is the scalar trace and xi2
        # the Fz^2 - <Fz^2> coefficient of the probe's F = 4 block, and xi1
        # the Fy coefficient of the sigma+ block.  Circular light of either
        # handedness h: its Fy coefficient is h xi1
        _, fy, fz = spin_matrices(F4_BLOCK)
        q = fz @ fz - np.trace(fz @ fz) / 9.0 * np.eye(9)
        for det in self.DETUNINGS:
            if pol.startswith("theta="):
                probe = ProbeConfig(det, 7.0, float(pol[6:]))
                v = light_shift_matrix(probe)[F4_BLOCK, F4_BLOCK]
                got = xi = closed_form_xis(probe)
                oracle = (np.trace(v).real / 9.0,
                          projection(circular_f4_block(ProbeConfig(det, 7.0), +1), fy),
                          projection(v, q))
            else:
                h = +1 if pol == "sigma+" else -1
                probe = ProbeConfig(det, 7.0)
                xi = closed_form_xis(probe)
                got = (h * xi[1],)
                oracle = (projection(circular_f4_block(probe, h), fy),)
            assert np.abs(np.subtract(got, oracle)).max() <= 1e-12 * abs(xi[0])


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
                    v = light_shift_matrix(probe)
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

    def test_near_zero_angle_has_no_root(self):
        # the F'=4 weight of |4,0> is ~1e-320 here; kept, it overflowed the
        # numerator's companion matrix and raised LinAlgError
        assert find_magic_detunings(1e-158, (-1100.0, -50.0)) == []

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

    @pytest.mark.parametrize("bias_G,weight", [(0.0, "0.307"), (0.01, "0.41")])
    def test_unresolved_clock_levels_raise(self, bias_G, weight):
        # at low field the tensor shift mixes |4,0> with |4,+-2>; labelled by
        # argmax alone, the shift read 3.61 and 10.35 kHz here (-0.039 kHz at
        # 0.5 G), with no error
        probe = ProbeConfig(-335.0, 16.0, 45.0)
        with pytest.raises(UnresolvedClockLevelsError,
                           match=rf"{bias_G:g} G: .* of \|4,0> \(largest {weight}\)"):
            dressed_clock_shift(probe, bias_field_G=bias_G)

    def test_resolved_just_above_one_half(self):
        # 0.05 G leaves the largest |4,0> weight at 0.52: unique, so a value
        probe = ProbeConfig(-335.0, 16.0, 45.0)
        assert math.isfinite(dressed_clock_shift(probe, bias_field_G=0.05))


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
