"""The grid loop behind `phasemap.sweep`, generated once per scheme and quantity.

Only `sweep` runs it, and `phasemap.sweep` imports this module when called,
so no other command compiles it. It reads the integer lists of
`phasemap._map`, so `sweep` imports neither `analysis` nor `series`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

from . import phasemap
from .phasemap import _KERNEL_VALUES, _NAN_ENTRY, PARABOLIC_TOL, Regime
from .schemes import Scheme, Step

#: Generated sweep kernels, keyed by (active steps, quantity).
_KERNELS: dict[tuple[tuple[Step, ...], str], Callable] = {}


def _horner_y(cs: Iterable[float]) -> str:
    """Source of sum_j cs[j]*y^j by Horner's rule.

    Each coefficient is written as its repr; trailing zeros are dropped.
    """
    cs = list(cs)
    while cs and cs[-1] == 0.0:
        cs.pop()
    src = repr(cs.pop()) if cs else "0.0"
    for c in reversed(cs):
        src = f"{c!r} + y * ({src})"
    return src


def _sweep_kernel(s: Scheme, quantity: str) -> Callable:
    """Compiled grid loop of one scheme and quantity, built once and cached.

    The generated function takes xs and returns sweep's rows. Per point it
    evaluates T = (g + h)/2, tau/x, nu/x and W = w/x^2, where w = (g - h)/2,
    as polynomials in y = x^2 with coefficients rounded once from the exact
    build; every entry is even in x, so each sum has half the terms. A map is
    hyperbolic where |T| - 1 > PARABOLIC_TOL/2, else elliptic where x != 0
    and d = (tau/x)(nu/x) - (x*W)^2 > 0, else parabolic. d equals
    sin^2(theta)/x^2 and is never folded into one polynomial, which would
    lose accuracy near the stability limit; theta = atan2(|x|*sqrt(d), T).
    det is (T + w)(T - w) + y*(tau/x)(nu/x) and the trace 2T. A map with g = h
    has W = 0, and its kernel leaves W out. Every point takes this one route:
    x = 0 is the identity map, parabolic; sums that overflow make T infinite,
    hyperbolic; a NaN x lands in the parabolic branch, which raises the
    ValueError of `spectral` for it.
    """
    key = (s.active_steps(), quantity)
    kernel = _KERNELS.get(key)
    if kernel is not None:
        return kernel
    g, tau_x, nu_x, h, den = phasemap._map(s)
    tilt = _horner_y((a - b) / (2 * den) for a, b in zip(g[2::2], h[2::2]))
    if tilt == "0.0":
        lines = []
        det, disc = "T * T + y * tx * nx", "tx * nx"
    else:
        lines = [f"W = {tilt}", "wx = x * W"]
        det, disc = "(T + x * wx) * (T - x * wx) + y * tx * nx", "tx * nx - wx * wx"
    off, on = _KERNEL_VALUES[quantity]
    elliptic = [f"append((x, {on}, ELLIPTIC))"]
    if "omega_a" in on:
        elliptic[:0] = ["ax = abs(x)", "omega_a = atan2(ax * sqrt(d), T) / ax"]
    body = [
        "y = x * x",
        f"T = {_horner_y((a + b) / (2 * den) for a, b in zip(g[::2], h[::2]))}",
        f"tx = {_horner_y(c / den for c in tau_x[::2])}",
        f"nx = {_horner_y(c / den for c in nu_x[::2])}",
        *lines,
        *([f"det = {det}"] if quantity == "det" else []),
        f"if abs(T) - 1.0 > {PARABOLIC_TOL / 2!r}:",
        f"    append((x, {off}, HYPERBOLIC))",
        "    continue",
        f"d = {disc}",
        "if d > 0.0 and x:",
        *(f"    {line}" for line in elliptic),
        "else:",
        "    if x != x:",
        "        raise ValueError(NAN_ENTRY)",
        f"    append((x, {off}, PARABOLIC))",
    ]
    loop = "\n".join(f"        {line}" for line in body)
    source = f"""\
def kernel(xs):
    rows = []
    append = rows.append
    for x in xs:
{loop}
    return rows
"""
    namespace = {"atan2": math.atan2, "sqrt": math.sqrt,
                 "NAN_ENTRY": _NAN_ENTRY, "ELLIPTIC": Regime.ELLIPTIC,
                 "PARABOLIC": Regime.PARABOLIC, "HYPERBOLIC": Regime.HYPERBOLIC}
    exec(compile(source, f"<sweep kernel {quantity}>", "exec"), namespace)
    kernel = _KERNELS[key] = namespace["kernel"]
    return kernel
