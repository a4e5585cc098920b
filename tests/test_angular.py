"""Wigner-symbol and dipole-amplitude oracles.

sympy.physics.wigner is the independent reference implementation; the
library must agree with it to near machine precision and satisfy the
standard orthogonality and sum rules exactly.  The library's Wigner
symbols take every argument doubled; sympy takes the quantum numbers.
"""

import math
from fractions import Fraction

import pytest
from sympy import Rational, S
from sympy.physics.wigner import wigner_3j, wigner_6j

from clockprobe.angular import NUCLEAR_SPIN_TWICE, dipole_element, wigner3j, wigner6j


def _half_range(tmax):
    """All doubled quantum numbers 0..tmax."""
    return range(tmax + 1)


class TestHalfInt:
    def test_rejects_non_half_integers(self):
        # m = 0.3 or 1/3 is no half-integer: its doubled value fails parity
        with pytest.raises(ValueError):
            wigner3j(2, 2, 2, 0.6, 0, -0.6)
        with pytest.raises(ValueError):
            wigner3j(2, 2, 2, Fraction(2, 3), 0, Fraction(-2, 3))
        with pytest.raises(TypeError):
            wigner3j(2, 2, 2, "1/2", 0, 0)


class TestWigner3j:
    def test_against_sympy_integer_and_half_integer(self):
        checked = 0
        for tj1 in _half_range(8):
            for tj2 in _half_range(6):
                for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            tm3 = -tm1 - tm2
                            if abs(tm3) > tj3:
                                continue
                            ours = wigner3j(tj1, tj2, tj3, tm1, tm2, tm3)
                            ref = float(wigner_3j(
                                Rational(tj1, 2), Rational(tj2, 2), Rational(tj3, 2),
                                Rational(tm1, 2), Rational(tm2, 2), Rational(tm3, 2)))
                            assert ours == pytest.approx(ref, abs=1e-14)
                            checked += 1
        assert checked > 500

    def test_triangle_violation_is_exact_zero(self):
        assert wigner3j(2, 2, 6, 0, 0, 0) == 0.0  # (1 1 3; 0 0 0)
        assert wigner3j(1, 1, 6, 1, -1, 0) == 0.0  # (1/2 1/2 3; 1/2 -1/2 0)

    def test_m_sum_violation_is_exact_zero(self):
        assert wigner3j(2, 2, 2, 2, 2, 2) == 0.0  # (1 1 1; 1 1 1)

    def test_known_exact_values(self):
        assert wigner3j(2, 2, 0, 0, 0, 0) == pytest.approx(-1 / math.sqrt(3), abs=1e-15)
        assert wigner3j(4, 2, 2, 0, 0, 0) == pytest.approx(math.sqrt(2 / 15), abs=1e-15)
        # (2 1 2; 0 0 0): odd sum with all m = 0 vanishes identically
        assert wigner3j(4, 2, 4, 0, 0, 0) == 0.0

    def test_orthogonality(self):
        # sum_{m1 m2} (2 j3 + 1) [3j]^2 = 1 for each admissible (j3, m3)
        for tj1, tj2 in ((4, 3), (8, 2), (7, 7)):
            for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                total = 0.0
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        tm3 = -tm1 - tm2
                        if abs(tm3) > tj3:
                            continue
                        total += (tj3 + 1) * wigner3j(tj1, tj2, tj3, tm1, tm2, tm3) ** 2
                assert total == pytest.approx(tj3 + 1, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            wigner3j(2, 2, 2, 4, -2, -2)  # |m| > j
        with pytest.raises(ValueError):
            wigner3j(2, 2, 2, 1, 0, -1)  # parity
        with pytest.raises(ValueError):
            wigner3j(-2, 2, 2, 0, 0, 0)  # negative j


class TestWigner6j:
    def test_against_sympy(self):
        checked = 0
        for tj1 in _half_range(5):
            for tj2 in _half_range(5):
                for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tj4 in _half_range(4):
                        for tj5 in range(abs(tj3 - tj4), min(tj3 + tj4, 5) + 1, 2):
                            for tj6 in range(abs(tj1 - tj5), min(tj1 + tj5, 5) + 1, 2):
                                args = (tj1, tj2, tj3, tj4, tj5, tj6)
                                ours = wigner6j(*args)
                                try:
                                    ref = float(wigner_6j(
                                        *(Rational(t, 2) for t in args)))
                                except ValueError:
                                    ref = 0.0
                                assert ours == pytest.approx(ref, abs=1e-13)
                                checked += 1
        assert checked > 300

    def test_hyperfine_values_for_cs_d1(self):
        # {1/2 1/2 1; F' F 7/2} for F, F' in {3, 4}
        for tfe in (6, 8):
            for tfg in (6, 8):
                ours = wigner6j(1, 1, 2, tfe, tfg, 7)
                ref = float(wigner_6j(S(1) / 2, S(1) / 2, 1,
                                      Rational(tfe, 2), Rational(tfg, 2), S(7) / 2))
                assert ours == pytest.approx(ref, abs=1e-15)

    def test_triad_violation_is_exact_zero(self):
        assert wigner6j(2, 2, 6, 2, 2, 2) == 0.0  # {1 1 3; 1 1 1}


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

    def test_nuclear_spin_constant(self):
        assert NUCLEAR_SPIN_TWICE == 7
