"""Brute-force iteration of schemes on the oscillator.

The stepping applies shear updates directly to (q, p), one multiply and one
add per shear, and reads nothing from the composed 2x2 matrix; that keeps
this module an independent oracle for the closed form and for the
conservation of the shadow energy. The step loop is generated once per
drift/kick pattern of a scheme (e.g. "dkdkdkd") as straight-line Python, one
line per shear in the scheme's order; its body holds the step's lines
`_UNROLL` times over, so the loop control is paid once per `_UNROLL` steps.
Where a step's first and last shears are of one kind, as at the two ends
of a time-reversible scheme's palindrome, one step's last shear and the
next step's first commute and run as one shear by the sum of their
coefficients: n - 1 shears per step, not n. Samples complete the step on a
copy, so a sample's bits do not depend on the stride. The coefficients are
arguments of the generated function, never part of its source, so schemes
with the same pattern share one compiled loop. The state is scaled by
powers of two (`iterate`), so no coefficient forms omega*omega and the
state is O(1). Samples and energies are plain lists of floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .phasemap import _rounded
from .schemes import DRIFT, GKICK, Scheme

__all__ = ["TrajectoryRecord", "iterate"]

#: Steps per pass of the generated loop body.
_UNROLL = 8


class TrajectoryRecord(namedtuple(
        "TrajectoryRecord", "step_index t q p energy")):
    """Sampled states of one discrete trajectory, one list entry per sample.

    `energy` is the true oscillator energy p^2/2 + omega^2 q^2 / 2. A
    diverging run holds inf and NaN, as Python float arithmetic gives them.
    """

    __slots__ = ()


def _kick_drift_program(s: Scheme, eps: float, omega: float):
    """Per-step shear pattern, coefficients and the scale k of p.

    With omega = m * 2**k, m in [1, 2), the loop runs on (q, p * 2**-k) and
    e = eps * 2**k: 'd' for c*e, 'k' for c*e*m^2 (+ u*e^3*m^4). Powers of two
    move between omega and eps exactly, so the coefficients stay in range
    where omega*omega would overflow or underflow; at omega = 1, k = 0.
    """
    k = math.frexp(omega)[1] - 1 if 0.0 < abs(omega) < math.inf else 0
    m = math.ldexp(omega, -k)
    m2 = m * m
    e = _rounded(eps, k)
    try:
        cube = e**3
    except OverflowError:  # a float power raises where e*e*e gives inf
        cube = math.copysign(math.inf, e)
    pattern = []
    coeffs = []
    for st in s.active_steps():
        if st.kind == DRIFT:
            pattern.append("d")
            coeffs.append(float(st.c) * e)
        else:
            mu = float(st.c) * e * m2
            if st.kind == GKICK:
                mu += float(st.u) * cube * m2 * m2
            pattern.append("k")
            coeffs.append(mu)
    return "".join(pattern), coeffs, k


@functools.lru_cache(maxsize=None)
def _shear_loop(pattern: str, merged: bool):
    """Compiled step loop for one drift/kick pattern s0 s1 ... s(n-1).

    The generated function takes (q, p, n_steps, stride, c0, c1, ...) and
    returns the lists of q and p after 0 steps, after every multiple of the
    stride and after the last step. Each shear is one line, `q += ci * p` or
    `p -= ci * q`. Unmerged, a step is the pattern's n lines in order.
    Merged (s0 and s(n-1) of one kind, m = c0 + c(n-1) finite), the state is
    held one shear short of the step boundary: s0 ... s(n-2) run once, then
    each step is one shear by m, the last of one step and the first of the
    next as one, followed by s1 ... s(n-2), so a step costs n - 1 shears. A
    sample applies s(n-1) to a copy of (q, p), so its bits depend on its
    step index alone, and a one-step run is the unmerged one bit for bit.
    The loop body holds the step's lines `_UNROLL` times over and runs
    (goal - done) // _UNROLL times, then the single step runs the rest,
    both counted by `itertools.repeat`.
    """
    def line(kind, c):
        return f"q += {c} * p" if kind == "d" else f"p -= {c} * q"

    def lines(code, indent):
        return ("\n" + " " * indent).join(code)

    n = len(pattern)
    coeffs = ", ".join(f"c{i}" for i in range(n))
    shears = [line(kind, f"c{i}") for i, kind in enumerate(pattern)]
    if merged:
        head = [f"m = c0 + c{n - 1}", *shears[:-1]]
        step = [line(pattern[0], "m"), *shears[1:-1]]
        sample = ((f"q + c{n - 1} * p", "p") if pattern[-1] == "d" else
                  ("q", f"p - c{n - 1} * q"))
    else:
        head, step, sample = [], shears, ("q", "p")
    source = f"""\
def run(q, p, n_steps, stride, {coeffs}):
    qs = [q]
    ps = [p]
    {lines(head, 4)}
    done = {int(merged)}
    goal = 0
    while goal < n_steps:
        goal = min(goal + stride, n_steps)
        for _ in repeat(None, (goal - done) // {_UNROLL}):
            {lines(step * _UNROLL, 12)}
        for _ in repeat(None, (goal - done) % {_UNROLL}):
            {lines(step, 12)}
        done = goal
        qs.append({sample[0]})
        ps.append({sample[1]})
    return qs, ps
"""
    namespace = {"repeat": itertools.repeat}
    exec(compile(source, f"<shear loop {pattern}>", "exec"), namespace)
    return namespace["run"]


def iterate(s: Scheme, q0: float, p0: float, eps: float, omega: float,
            n_steps: int, sample_stride: int = 1) -> TrajectoryRecord:
    """Apply the scheme's shear updates n_steps times, sampling every stride.

    The shears act one by one through the loop `_shear_loop` generates for
    the scheme's pattern, with this call's coefficients as arguments (one
    step's last shear merged with the next one's first where both are of one
    kind and their coefficients' sum is finite), on
    (q, p * 2**-k) * 2**-j: omega = m * 2**k, m in [1, 2), and the larger
    of |q0|, |p0 * 2**-k| in [2**j, 2**(j + 1)). The map is linear, so each
    later sample is scaled back, to a signed inf past the float range, and
    no bit changes while the scaled run holds normal floats. Samples are
    taken at step 0 (q0 and p0 themselves), at every multiple of the stride
    and at the final step. Divergence in the hyperbolic regime is
    legitimate output, not an error.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if sample_stride < 1:
        raise ValueError("sample_stride must be at least 1")
    q0, p0 = float(q0), float(p0)
    pattern, coeffs, k = _kick_drift_program(s, eps, omega)
    # j from the exponents, so no product of the state is formed
    j = max((math.frexp(v)[1] - n for v, n in ((q0, 1), (p0, k + 1)) if v),
            default=0)
    # merge one step's last shear into the next step's first where both are
    # of one kind and their sum is finite
    merged = (pattern[0] == pattern[-1]
              and math.isfinite(coeffs[0] + coeffs[-1]))
    qs, ps = _shear_loop(pattern, merged)(
        math.ldexp(q0, -j), math.ldexp(p0, -k - j), n_steps, sample_stride,
        *coeffs)
    if j:
        qs = [q0, *(_rounded(q, j) for q in qs[1:])]
    if k + j:
        ps = [p0, *(_rounded(p, k + j) for p in ps[1:])]
    index = [*range(0, n_steps, sample_stride), n_steps]
    # p * p, not p ** 2: a float power raises OverflowError where the product
    # of a diverging run just becomes inf
    energy = [0.5 * (p * p) + 0.5 * ((omega * q) * (omega * q))
              for q, p in zip(qs, ps)]
    return TrajectoryRecord(index, [i * eps for i in index], qs, ps, energy)
