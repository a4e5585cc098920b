"""Level registry, constants and Zeeman Hamiltonian."""

import numpy as np
import pytest

from clockprobe.atom import (
    EXCITED_HF_SPLITTING_MHZ,
    G_F,
    GAMMA_MHZ,
    PHOTON_ENERGY_J,
    ZEEMAN_MHZ_PER_G,
    CloudConfig,
    IDX_DOWN,
    IDX_UP,
    N_GROUND,
    state_index,
    state_registry,
    zeeman_hamiltonian,
)


class TestRegistry:
    def test_sixteen_states_ordered_by_f_then_m(self):
        reg = state_registry()
        assert len(reg) == N_GROUND == 16
        assert [s.F for s in reg] == [3] * 7 + [4] * 9
        assert [s.mF for s in reg[:7]] == list(range(-3, 4))
        assert [s.mF for s in reg[7:]] == list(range(-4, 5))

    def test_clock_state_indices(self):
        assert state_index(3, 0) == IDX_DOWN == 3
        assert state_index(4, 0) == IDX_UP == 11

    def test_index_roundtrip(self):
        for i, s in enumerate(state_registry()):
            assert state_index(s.F, s.mF) == i

    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError):
            state_index(5, 0)
        with pytest.raises(ValueError):
            state_index(3, 4)


class TestConstants:
    def test_linewidth_splitting_ratio_locked(self):
        # the closed forms at Delta/Gamma = -128 rely on the exact lock
        assert EXCITED_HF_SPLITTING_MHZ / GAMMA_MHZ == 256.0
        assert GAMMA_MHZ == 4.5625

    def test_g_factors(self):
        assert G_F == {3: -0.25, 4: 0.25}

    def test_photon_energy(self):
        # h c / lambda at 894.6 nm is about 2.22e-19 J
        assert PHOTON_ENERGY_J == pytest.approx(2.221e-19, rel=1e-3)


class TestCloud:
    def test_defaults(self):
        cloud = CloudConfig()
        assert cloud.atom_number == pytest.approx(3.5e6)
        assert cloud.od_resonant == pytest.approx(1.8)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            CloudConfig(atom_number=0)
        with pytest.raises(ValueError):
            CloudConfig(od_resonant=-1)

    def test_probe_smaller_than_cloud_warns(self):
        with pytest.warns(UserWarning):
            CloudConfig(probe_radius_mm=0.1)


class TestZeeman:
    def test_diagonal_linear_splitting(self):
        h = zeeman_hamiltonian(0.5)
        assert h.shape == (16, 16)
        assert np.allclose(h, np.diag(np.diag(h)))
        reg = state_registry()
        for i, s in enumerate(reg):
            expected = G_F[s.F] * s.mF * ZEEMAN_MHZ_PER_G * 0.5
            assert h[i, i] == pytest.approx(expected, abs=1e-15)

    def test_clock_states_unshifted(self):
        h = zeeman_hamiltonian(2.0)
        assert h[IDX_UP, IDX_UP] == 0.0
        assert h[IDX_DOWN, IDX_DOWN] == 0.0

    def test_zero_field_is_zero(self):
        assert np.all(zeeman_hamiltonian(0.0) == 0.0)
