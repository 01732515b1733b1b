"""Brute-force iteration of schemes on the oscillator.

The stepping applies each shear update directly to (q, p), one multiply and
one add per factor, without ever forming the composed 2x2 matrix; that keeps
this module an independent oracle for the closed-form propagation and for the
conservation of the modified energy. The step loop is generated once per
drift/kick pattern of a scheme (e.g. "dkdkdkd") as straight-line Python, one
line per shear in the scheme's order; its body holds the step's lines
`_UNROLL` times over, so the loop control is paid once per `_UNROLL` steps,
and each shear is still one line. The coefficients are arguments of the
generated function, never part of its source, so schemes with the same
pattern share one compiled loop. The loop runs on (q, p * 2**-k), where
omega = m * 2**k with m in [1, 2), so that no coefficient forms omega*omega:
at eps = 2**-600, omega = 2**600 the trajectory in q is that of eps = omega
= 1, and at omega = 1 nothing is scaled. Samples and energies are plain
lists of Python floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .phasemap import Regime, _rounded, scheme_matrix, spectral
from .schemes import DRIFT, GKICK, Scheme, is_symmetric

__all__ = ["TrajectoryRecord", "iterate"]

#: Steps per pass of the generated loop body.
_UNROLL = 8


class TrajectoryRecord(namedtuple(
        "TrajectoryRecord", "step_index t q p energy modified_energy")):
    """Sampled states of one discrete trajectory, one list entry per sample.

    `energy` is the true oscillator energy p^2/2 + omega^2 q^2 / 2;
    `modified_energy` is the shadow energy H_A = p^2/(2 m*) + k* q^2/2 when
    the scheme is reversible, g = h in its exact map as `is_symmetric`
    reads it, and the map is elliptic at this step size (None otherwise).
    A diverging run holds inf and NaN, as Python float arithmetic gives them.
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
def _shear_loop(pattern: str):
    """Compiled step loop for one drift/kick pattern.

    The generated function takes (q, p, n_steps, stride, c0, c1, ...) and
    returns the lists of q and p after 0 steps, after every multiple of the
    stride and after the last step. Each shear is one line, `q += ci * p` or
    `p -= ci * q`, in the pattern's order. The loop body holds the step's
    lines `_UNROLL` times over and runs block // _UNROLL times, then the
    single step runs block % _UNROLL times, both counted by
    `itertools.repeat`: the same float operations in the same order as one
    step at a time, with less loop control per step.
    """
    coeffs = ", ".join(f"c{i}" for i in range(len(pattern)))
    step = [f"q += c{i} * p" if kind == "d" else f"p -= c{i} * q"
            for i, kind in enumerate(pattern)]
    lines = "\n            ".join
    source = f"""\
def run(q, p, n_steps, stride, {coeffs}):
    qs = [q]
    ps = [p]
    done = 0
    while done < n_steps:
        block = min(stride, n_steps - done)
        for _ in repeat(None, block // {_UNROLL}):
            {lines(step * _UNROLL)}
        for _ in repeat(None, block % {_UNROLL}):
            {lines(step)}
        done += block
        qs.append(q)
        ps.append(p)
    return qs, ps
"""
    namespace = {"repeat": itertools.repeat}
    exec(compile(source, f"<shear loop {pattern}>", "exec"), namespace)
    return namespace["run"]


def iterate(s: Scheme, q0: float, p0: float, eps: float, omega: float,
            n_steps: int, sample_stride: int = 1) -> TrajectoryRecord:
    """Apply the scheme's shear updates n_steps times, sampling every stride.

    The shears act one by one on (q, p) through the loop `_shear_loop`
    generates for the scheme's drift/kick pattern, with this call's
    coefficients passed as arguments; it runs on (q, p * 2**-k), omega =
    m * 2**k with m in [1, 2), and each later sample of p is scaled back by
    2**k, to a signed inf where that overflows. Samples are taken at step 0,
    at every multiple of the stride and at the final step, which is always
    included.
    The shadow energy H_A follows `is_symmetric`, the test `analyze` prints
    as `reversible`: g = h in the exact map, not in the rounded map at this
    step, so it holds at every step size. Divergence in the hyperbolic
    regime is legitimate output, not an error.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if sample_stride < 1:
        raise ValueError("sample_stride must be at least 1")
    q0, p0 = float(q0), float(p0)
    pattern, coeffs, k = _kick_drift_program(s, eps, omega)
    qs, ps = _shear_loop(pattern)(q0, _rounded(p0, -k), n_steps, sample_stride,
                                  *coeffs)
    if k:  # the first sample is p0 itself, even where p0 * 2**-k underflows
        ps = [p0, *(_rounded(p, k) for p in ps[1:])]
    index = [*range(0, n_steps, sample_stride), n_steps]
    # p * p, not p ** 2: a float power raises OverflowError where the product
    # of a diverging run just becomes inf
    energy = [0.5 * (p * p) + 0.5 * ((omega * q) * (omega * q))
              for q, p in zip(qs, ps)]
    modified = None
    data = spectral(scheme_matrix(s, eps, omega))
    if data.regime is Regime.ELLIPTIC and is_symmetric(s):
        two_m, half_k = 2.0 * data.m_star, 0.5 * data.k_star
        modified = [p * p / two_m + half_k * (q * q) for q, p in zip(qs, ps)]
    return TrajectoryRecord(index, [i * eps for i in index], qs, ps, energy,
                            modified)
