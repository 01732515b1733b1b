"""mpmath references for the Richardson route of `oscmap.analysis`.

`mp_half_trace` multiplies a scheme's shears in mpmath at the working
precision. `mp_richardson_order_coefficient` is the Richardson estimate of
c_n from it at 50 digits, with mpmath's arccos in place of the package's
fixed-point one. Tests use both as independent references; the package
itself never imports mpmath.
"""

from fractions import Fraction

import mpmath

from oscmap.analysis import _RICHARDSON_H
from oscmap.schemes import DRIFT, GKICK, Scheme


def mp_half_trace(s: Scheme, x: mpmath.mpf) -> mpmath.mpf:
    """Half trace of the scheme matrix at working precision (direct shears)."""
    one, zero = mpmath.mpf(1), mpmath.mpf(0)
    m = [[one, zero], [zero, one]]
    for st in s.active_steps():
        c = to_mpf(st.c)
        if st.kind == DRIFT:
            f = [[one, c * x], [zero, one]]
        else:
            mu = c * x
            if st.kind == GKICK:
                mu += to_mpf(st.u) * x**3
            f = [[one, zero], [-mu, one]]
        m = [
            [f[0][0] * m[0][0] + f[0][1] * m[1][0],
             f[0][0] * m[0][1] + f[0][1] * m[1][1]],
            [f[1][0] * m[0][0] + f[1][1] * m[1][0],
             f[1][0] * m[0][1] + f[1][1] * m[1][1]],
        ]
    return (m[0][0] + m[1][1]) / 2


def to_mpf(v) -> mpmath.mpf:
    """v at working precision; a Fraction as the quotient of its terms."""
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)
    return mpmath.mpf(v)


def richardson_points(n: int) -> list[Fraction]:
    """The points h/2^j, j = 0 .. n/2 + 2, of the Richardson check for n."""
    return [_RICHARDSON_H / 2**j for j in range(n // 2 + 3)]


def mp_richardson_order_coefficient(s: Scheme, n: int) -> float:
    """c_n by Richardson extrapolation of (omega_a/omega - 1)/x^n at 50 digits,
    at the points `analysis` uses for n, eliminating x^-n .. x^-2, x^2, x^4."""
    with mpmath.workdps(50):
        r = []
        for x in map(to_mpf, richardson_points(n)):
            r.append((mpmath.acos(mp_half_trace(s, x)) / x - 1) / x**n)
        for p in (*range(-n, 0, 2), 2, 4):
            f = mpmath.mpf(2) ** p
            r = [(f * b - a) / (f - 1) for a, b in zip(r, r[1:])]
        return float(r[0])
