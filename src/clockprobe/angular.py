"""Closed-form angular factors of the Cs D1 line (I = 7/2, J = J' = 1/2).

Only rank-1 3j symbols (F' 1 F; -m' q m) with F, F' in {3, 4} and ten 6j
symbols are needed.  Edmonds (*Angular Momentum in Quantum Mechanics*,
Princeton 1957) gives both in closed form, in Tables 2 (rank-1 Clebsch-Gordan
coefficients) and 5 (6j symbols).  Each is kept as a signed exact square s,
rounded once to sign(s) sqrt|s|, so selection-rule zeros are exact zeros.
"""

import math
from fractions import Fraction

__all__ = ["SIX_J", "dipole_element"]


def _root(s: Fraction) -> float:
    return math.copysign(math.sqrt(float(abs(s))), s)


# The ten 6j symbols keyed by their arguments in reading order: {1/2 1/2 1;
# F' F 7/2} for the dipole amplitudes, {1 K 1; 4 F' 4} for the light-shift xi's.
SIX_J = {key: _root(Fraction(s)) for key, s in {
    (0.5, 0.5, 1, 3, 3, 3.5): "-1/56", (0.5, 0.5, 1, 3, 4, 3.5): "1/24",
    (0.5, 0.5, 1, 4, 3, 3.5): "1/24", (0.5, 0.5, 1, 4, 4, 3.5): "-5/216",
    (1, 0, 1, 4, 3, 4): "1/27", (1, 0, 1, 4, 4, 4): "-1/27",
    (1, 1, 1, 4, 3, 4): "-5/216", (1, 1, 1, 4, 4, 4): "1/1080",
    (1, 2, 1, 4, 3, 4): "11/1512", (1, 2, 1, 4, 4, 4): "77/5400",
}.items()}

# Signed squares (n, d) of <j m; 1 q | F' M>, M = m + q, keyed (F' - j, q)
_CG_SQUARES = {
    (1, 1): lambda j, M: ((j + M) * (j + M + 1), (2 * j + 1) * (2 * j + 2)),
    (1, 0): lambda j, M: ((j - M + 1) * (j + M + 1), (2 * j + 1) * (j + 1)),
    (1, -1): lambda j, M: ((j - M) * (j - M + 1), (2 * j + 1) * (2 * j + 2)),
    (0, 1): lambda j, M: (-(j + M) * (j - M + 1), 2 * j * (j + 1)),
    (0, 0): lambda j, M: (M * abs(M), j * (j + 1)),
    (0, -1): lambda j, M: ((j - M) * (j + M + 1), 2 * j * (j + 1)),
    (-1, 1): lambda j, M: ((j - M) * (j - M + 1), 2 * j * (2 * j + 1)),
    (-1, 0): lambda j, M: (-(j - M) * (j + M), j * (2 * j + 1)),
    (-1, -1): lambda j, M: ((j + M + 1) * (j + M), 2 * j * (2 * j + 1)),
}


def dipole_element(F: int, mF: int, Fe: int, mE: int, q: int) -> float:
    """Hyperfine dipole amplitude |F, mF> -> |F', mE> for polarization q.

    The Wigner-Eckart reduction (3j x 6j x degeneracy factors) over the
    integer Cs quantum numbers, in units of the reduced 6S1/2 -> 6P1/2
    element: the sum over (F', mE, q) of amplitude**2 is 1 for every ground
    sublevel.  Exactly zero if mE != mF + q or for the clock pi transition.
    """
    if F not in (3, 4) or Fe not in (3, 4):
        raise ValueError("Cs 6S1/2 -> 6P1/2 requires F and F' in {3, 4}")
    for f, m in ((F, mF), (Fe, mE)):
        if abs(m) > f or m % 1:
            raise ValueError(f"m = {m} is not an integer in [-{f}, {f}]")
    if q not in (-1, 0, 1):
        raise ValueError(f"spherical polarization index q = {q} not in {{-1, 0, +1}}")
    if mE != mF + q:
        return 0.0

    six = SIX_J[0.5, 0.5, 1, Fe, F, 3.5]
    # (F' 1 F; -m' q m) = (-1)**(F' + m') <F m; 1 q | F' m'> / sqrt(2F' + 1)
    n, d = _CG_SQUARES[Fe - F, q](F, mE)
    three = _root(Fraction((-1) ** (Fe + mE) * n, d * (2 * Fe + 1)))
    # (2F'+1)(2F+1)(2J+1) degeneracy; sum rule over (F', mE, q) is then 1
    norm = math.sqrt((2 * Fe + 1) * (2 * F + 1) * 2)
    # phase (-1)**(F' + J + 1 + I + F' - mE) = (-1)**(1 + mE)
    phase = -1.0 if (1 + mE) % 2 else 1.0
    return phase * norm * six * three
