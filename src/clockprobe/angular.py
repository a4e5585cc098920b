"""Exact angular-momentum algebra for the Cs D1 line.

Wigner 3j/6j symbols are evaluated from the Racah formulas with exact
rational arithmetic (``fractions.Fraction``), converting to float only at
the boundary.  Every argument is twice its quantum number (an int), as in
GSL's ``gsl_sf_coupling_3j(two_ja, ...)``, so half-integers are exact.
Selection-rule zeros are therefore exact zeros, and sum rules hold to
machine precision.  Hyperfine dipole matrix elements are reduced with the
Wigner-Eckart theorem and normalized so that the line-strength sum rule
over the full 6P1/2 manifold equals 1 for every ground sublevel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "wigner3j",
    "wigner6j",
    "dipole_element",
    "NUCLEAR_SPIN_TWICE",
]

# Cs: I = 7/2, 6S1/2 -> 6P1/2 (J = J' = 1/2), stored doubled.
NUCLEAR_SPIN_TWICE = 7
_J_TWICE = 1
_JP_TWICE = 1


def _check_jm(tj: int, tm: int) -> None:
    if tj < 0:
        raise ValueError(f"negative magnitude quantum number: j = {tj / 2}")
    if abs(tm) > tj:
        raise ValueError(f"|m| > j: j = {tj / 2}, m = {tm / 2}")
    if (tj - tm) % 2 != 0:
        raise ValueError(f"j and m differ by a non-integer: j = {tj / 2}, m = {tm / 2}")


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


def _delta_sq(ta: int, tb: int, tc: int) -> Fraction:
    # triangle coefficient squared; arguments doubled
    f = math.factorial
    return Fraction(
        f((ta + tb - tc) // 2) * f((ta - tb + tc) // 2) * f((-ta + tb + tc) // 2),
        f((ta + tb + tc) // 2 + 1),
    )


def _signed_sqrt(phase_odd: bool, ksum: Fraction, rad: Fraction) -> float:
    mag = math.sqrt(float(ksum * ksum * rad))
    sign = -1.0 if (ksum < 0) != phase_odd else 1.0
    return sign * mag


@lru_cache(maxsize=None)
def wigner3j(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> float:
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3), each argument doubled.

    Returns 0.0 (an exact zero) when the triangle rule or m-sum rule is
    violated; raises ``ValueError`` for a negative j, |m| > j or an m
    whose parity differs from its j.
    """
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        _check_jm(tj, tm)
    if tm1 + tm2 + tm3 != 0 or not _triangle_ok(tj1, tj2, tj3):
        return 0.0

    f = math.factorial
    # Racah sum; all indices below are plain integers (halved doubled sums)
    kmin = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    kmax = min(
        (tj1 + tj2 - tj3) // 2,
        (tj1 - tm1) // 2,
        (tj2 + tm2) // 2,
    )
    ksum = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            f(k)
            * f((tj1 + tj2 - tj3) // 2 - k)
            * f((tj1 - tm1) // 2 - k)
            * f((tj2 + tm2) // 2 - k)
            * f((tj3 - tj2 + tm1) // 2 + k)
            * f((tj3 - tj1 - tm2) // 2 + k)
        )
        ksum += Fraction((-1) ** k, den)
    if ksum == 0:
        return 0.0

    rad = _delta_sq(tj1, tj2, tj3)
    rad *= Fraction(
        f((tj1 + tm1) // 2)
        * f((tj1 - tm1) // 2)
        * f((tj2 + tm2) // 2)
        * f((tj2 - tm2) // 2)
        * f((tj3 + tm3) // 2)
        * f((tj3 - tm3) // 2)
    )
    phase_odd = ((tj1 - tj2 - tm3) // 2) % 2 != 0
    return _signed_sqrt(phase_odd, ksum, rad)


@lru_cache(maxsize=None)
def wigner6j(tj1: int, tj2: int, tj3: int, tj4: int, tj5: int, tj6: int) -> float:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6}, each argument doubled.

    Returns 0.0 (an exact zero) on any triad violation.
    """
    triads = (
        (tj1, tj2, tj3),
        (tj1, tj5, tj6),
        (tj4, tj2, tj6),
        (tj4, tj5, tj3),
    )
    for t in triads:
        if not _triangle_ok(*t):
            return 0.0

    f = math.factorial
    a = [(t[0] + t[1] + t[2]) // 2 for t in triads]
    b = [
        (tj1 + tj2 + tj4 + tj5) // 2,
        (tj2 + tj3 + tj5 + tj6) // 2,
        (tj3 + tj1 + tj6 + tj4) // 2,
    ]
    ksum = Fraction(0)
    for k in range(max(a), min(b) + 1):
        den = 1
        for ai in a:
            den *= f(k - ai)
        for bi in b:
            den *= f(bi - k)
        ksum += Fraction((-1) ** k * f(k + 1), den)
    if ksum == 0:
        return 0.0

    rad = Fraction(1)
    for t in triads:
        rad *= _delta_sq(*t)
    return _signed_sqrt(False, ksum, rad)


@lru_cache(maxsize=None)
def dipole_element(F: int, mF: int, Fe: int, mE: int, q: int) -> float:
    """Hyperfine dipole amplitude |F, mF> -> |F', mE> for polarization q.

    The arguments are the integer Cs quantum numbers (F, F' in {3, 4}).
    The amplitude is the Wigner-Eckart reduction (3j x 6j x degeneracy
    factors) in units of the reduced 6S1/2 -> 6P1/2 matrix element,
    normalized so that sum over (F', mE, q) of amplitude**2 is 1 for every
    ground sublevel.  It is exactly zero whenever a selection rule forbids
    the transition (mE != mF + q, or the clock pi transition F = F',
    mF = 0, q = 0).
    """
    if F not in (3, 4) or Fe not in (3, 4):
        raise ValueError("Cs 6S1/2 -> 6P1/2 requires F and F' in {3, 4}")
    tF, tmF, tFe, tmE = 2 * F, 2 * mF, 2 * Fe, 2 * mE
    _check_jm(tF, tmF)
    _check_jm(tFe, tmE)
    if q not in (-1, 0, 1):
        raise ValueError(f"spherical polarization index q = {q} not in {{-1, 0, +1}}")
    if tmE != tmF + 2 * q:
        return 0.0

    six = wigner6j(_J_TWICE, _JP_TWICE, 2, tFe, tF, NUCLEAR_SPIN_TWICE)
    three = wigner3j(tFe, 2, tF, -tmE, 2 * q, tmF)
    # (2F'+1)(2F+1)(2J+1) degeneracy; sum rule over (F', mE, q) is then 1
    norm = math.sqrt((tFe + 1) * (tF + 1) * (_J_TWICE + 1))
    # phase (-1)**(F' + J + 1 + I + F' - mE), exponents carried doubled
    phase = -1.0 if ((tFe + _J_TWICE + 2 + NUCLEAR_SPIN_TWICE + tFe - tmE) // 2) % 2 else 1.0
    return phase * norm * six * three
