"""Level registry, constants and Zeeman Hamiltonian."""

import math
import re

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
    MAX_BIAS_FIELD_G,
    N_GROUND,
    state_index,
    state_registry,
    zeeman_hamiltonian,
)


class TestRegistry:
    def test_sixteen_states_ordered_by_f_then_m(self):
        reg = state_registry()
        assert len(reg) == N_GROUND == 16
        assert reg == tuple((F, m) for F in (3, 4) for m in range(-F, F + 1))
        assert all(type(F) is int and type(m) is int for F, m in reg)

    def test_clock_state_indices(self):
        assert state_index(3, 0) == IDX_DOWN == 3
        assert state_index(4, 0) == IDX_UP == 11

    def test_index_roundtrip(self):
        for i, (F, mF) in enumerate(state_registry()):
            assert state_index(F, mF) == i

    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError, match="ground F must be 3 or 4, got 5"):
            state_index(5, 0)
        with pytest.raises(ValueError, match=re.escape("|mF| > F: F = 3, mF = 4")):
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

    def test_bias_field_bounded_by_linear_zeeman_range(self):
        # Breit-Rabi x = 2.80 MHz/G * B / 9192.6 MHz <= 0.1
        assert MAX_BIAS_FIELD_G == pytest.approx(328.0, abs=0.5)
        for good in (0.0, 5.0, MAX_BIAS_FIELD_G):
            assert CloudConfig(bias_field_G=good).bias_field_G == good
        for bad in (-0.1, 1.001 * MAX_BIAS_FIELD_G, 8.5e5, 1e300, math.inf, math.nan):
            with pytest.raises(ValueError, match="cloud.bias_field_G"):
                CloudConfig(bias_field_G=bad)

    def test_probe_smaller_than_cloud_warns(self):
        with pytest.warns(UserWarning):
            CloudConfig(probe_radius_mm=0.1)


class TestZeeman:
    def test_diagonal_linear_splitting(self):
        h = zeeman_hamiltonian(0.5)
        assert h.shape == (16, 16)
        assert np.allclose(h, np.diag(np.diag(h)))
        reg = state_registry()
        for i, (F, mF) in enumerate(reg):
            expected = G_F[F] * mF * ZEEMAN_MHZ_PER_G * 0.5
            assert h[i, i] == pytest.approx(expected, abs=1e-15)

    def test_clock_states_unshifted(self):
        h = zeeman_hamiltonian(2.0)
        assert h[IDX_UP, IDX_UP] == 0.0
        assert h[IDX_DOWN, IDX_DOWN] == 0.0

    def test_zero_field_is_zero(self):
        assert np.all(zeeman_hamiltonian(0.0) == 0.0)
