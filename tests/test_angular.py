"""Dipole-amplitude oracles.

sympy.physics.wigner is the independent reference implementation.  Every
closed-form angular factor of the library is a sign times the square root
of an exact rational, rounded once, so each amplitude rebuilt from sympy's
exact 3j and 6j symbols must agree bit for bit; the sum and selection rules
must hold exactly.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from sympy import Rational, sign
from sympy.physics.wigner import wigner_3j, wigner_6j

from clockprobe.angular import dipole_element
from clockprobe.atom import state_registry
from clockprobe.lightshift import amplitude_tensor

HALF = Rational(1, 2)


def _rounded(symbol) -> float:
    """An exact sympy 3j or 6j value as sign * sqrt(float(its exact square))."""
    square = symbol**2
    return int(sign(symbol)) * math.sqrt(float(Fraction(int(square.p), int(square.q))))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def test_amplitude_tensor_matches_sympy_bit_for_bit():
    expected = np.zeros((16, 16, 3))
    for gi, (F, m) in enumerate(state_registry()):
        for ei, (Fe, mE) in enumerate(state_registry()):
            for qi, q in enumerate((-1, 0, 1)):
                if mE != m + q:
                    continue
                three = _rounded(wigner_3j(Fe, 1, F, -mE, q, m))
                six = _rounded(wigner_6j(HALF, HALF, 1, Fe, F, Rational(7, 2)))
                norm = math.sqrt((2 * Fe + 1) * (2 * F + 1) * 2)
                # (-1)**(F' + J + 1 + I + F' - mE), J = 1/2 and I = 7/2
                phase = -1.0 if (2 * Fe + 5 - mE) % 2 else 1.0
                expected[gi, ei, qi] = phase * norm * six * three
    # the uint64 view tells +0.0 from -0.0 as well
    assert np.array_equal(_bits(amplitude_tensor()), _bits(expected))


class TestDipoleElements:
    def test_clock_pi_transition_forbidden_exactly(self):
        assert dipole_element(4, 0, 4, 0, 0) == 0.0

    def test_sum_rule_uniform_over_ground_manifold(self):
        # sum over F', mE, q of amplitude^2 must be the same (=1) for all
        # 16 ground sublevels to machine precision
        totals = []
        for gF in (3, 4):
            for mF in range(-gF, gF + 1):
                s = 0.0
                for eF in (3, 4):
                    for q in (-1, 0, 1):
                        mE = mF + q
                        if abs(mE) > eF:
                            continue
                        s += dipole_element(gF, mF, eF, mE, q) ** 2
                totals.append(s)
        assert max(totals) - min(totals) <= 1e-12
        assert totals[0] == pytest.approx(1.0, abs=1e-12)

    def test_hyperfine_line_strengths(self):
        # relative strengths F=4 -> F'=4 : F'=3 must be 5/12 : 7/12, and
        # F=3 -> F'=3 : F'=4 must be 1/4 : 3/4
        def strength(gF, eF):
            return sum(
                dipole_element(gF, mF, eF, mF + q, q) ** 2
                for mF in range(-gF, gF + 1)
                for q in (-1, 0, 1)
                if abs(mF + q) <= eF
            )

        assert strength(4, 4) == pytest.approx(9 * 5 / 12, abs=1e-12)
        assert strength(4, 3) == pytest.approx(9 * 7 / 12, abs=1e-12)
        assert strength(3, 3) == pytest.approx(7 * 1 / 4, abs=1e-12)
        assert strength(3, 4) == pytest.approx(7 * 3 / 4, abs=1e-12)

    def test_selection_rule_zero(self):
        assert dipole_element(4, 2, 4, 2, 1) == 0.0  # mE != mF + q

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dipole_element(5, 0, 4, 0, 0)  # F outside {3, 4}
        with pytest.raises(ValueError):
            dipole_element(4, 5, 4, 4, -1)  # |mF| > F
        with pytest.raises(ValueError):
            dipole_element(4, 0, 4, 1, 2)  # bad polarization index
        with pytest.raises(ValueError):
            dipole_element(4, 0.3, 4, 0.3, 0)  # mF not an integer
        with pytest.raises(ValueError):
            dipole_element(4, Fraction(1, 3), 4, Fraction(1, 3), 0)
        with pytest.raises(TypeError):
            dipole_element(4, "1/2", 4, 0, 0)
