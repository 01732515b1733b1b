"""mpmath references for the Richardson route of `oscmap.analysis`.

`mp_half_trace` multiplies a scheme's shears in mpmath at the working
precision. `mp_richardson_order_coefficient` is the Richardson estimate of
c_n from it at 50 digits, with mpmath's arccos in place of the package's
fixed-point one. Tests use both as independent references; the package
itself never imports mpmath.
"""

from fractions import Fraction

import mpmath

from oscmap.analysis import _richardson_grid
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


def mp_richardson_order_coefficient(s: Scheme, n: int) -> float:
    """c_n by Richardson extrapolation of (omega_a/omega - 1)/x^n at 50 digits,
    on the grid `analysis` uses for n, relative to the floor at x = 1e-6."""
    with mpmath.workdps(50):
        x_floor = mpmath.mpf("1e-6")
        floor = mpmath.acos(mp_half_trace(s, x_floor)) / x_floor - 1
        r = []
        for x in _richardson_grid(n):
            xm = mpmath.mpf(x)
            dev = mpmath.acos(mp_half_trace(s, xm)) / xm - 1
            r.append((dev - floor) / xm**n)
        r1a = (4 * r[1] - r[0]) / 3
        r1b = (4 * r[2] - r[1]) / 3
        return float((16 * r1b - r1a) / 15)
