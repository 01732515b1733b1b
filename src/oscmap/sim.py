"""Brute-force iteration of schemes on the oscillator.

The stepping applies each shear update directly to (q, p), one multiply and
one add per factor, without ever forming the composed 2x2 matrix; that keeps
this module an independent oracle for the closed-form propagation and for the
conservation of the modified energy. The step loop is generated once per
drift/kick pattern of a scheme (e.g. "dkdkdkd") as straight-line Python, one
line per shear in the scheme's order; the coefficients are arguments of the
generated function, never part of its source, so schemes with the same
pattern share one compiled loop. Samples and energies are plain lists of
Python floats.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .phasemap import Regime, scheme_matrix, spectral
from .schemes import DRIFT, GKICK, Scheme, is_symmetric

__all__ = ["TrajectoryRecord", "iterate"]


class TrajectoryRecord(NamedTuple):
    """Sampled states of one discrete trajectory, one list entry per sample.

    `energy` is the true oscillator energy p^2/2 + omega^2 q^2 / 2;
    `modified_energy` is the shadow energy H_A = p^2/(2 m*) + k* q^2/2 when
    the scheme is reversible, g = h in its exact map as `is_symmetric`
    reads it, and the map is elliptic at this step size (None otherwise).
    A diverging run holds inf and NaN, as Python float arithmetic gives them.
    """

    step_index: list[int]
    t: list[float]
    q: list[float]
    p: list[float]
    energy: list[float]
    modified_energy: list[float] | None


def _kick_drift_program(s: Scheme, eps: float, omega: float):
    """Per-step shear pattern and coefficients: 'd' for c*eps, 'k' for mu."""
    w2 = omega * omega
    try:
        cube = eps**3
    except OverflowError:  # a float power raises where eps*eps*eps gives inf
        cube = math.copysign(math.inf, eps)
    pattern = []
    coeffs = []
    for st in s.active_steps():
        if st.kind == DRIFT:
            pattern.append("d")
            coeffs.append(float(st.c) * eps)
        else:
            mu = float(st.c) * eps * w2
            if st.kind == GKICK:
                mu += float(st.u) * cube * w2 * w2
            pattern.append("k")
            coeffs.append(mu)
    return "".join(pattern), coeffs


@functools.lru_cache(maxsize=None)
def _shear_loop(pattern: str):
    """Compiled step loop for one drift/kick pattern.

    The generated function takes (q, p, n_steps, stride, c0, c1, ...) and
    returns the lists of q and p after 0 steps, after every multiple of the
    stride and after the last step. Each shear is one line, `q += ci * p` or
    `p -= ci * q`, in the pattern's order.
    """
    coeffs = ", ".join(f"c{i}" for i in range(len(pattern)))
    shears = "\n".join(
        f"            q += c{i} * p" if kind == "d" else f"            p -= c{i} * q"
        for i, kind in enumerate(pattern))
    source = f"""\
def run(q, p, n_steps, stride, {coeffs}):
    qs = [q]
    ps = [p]
    done = 0
    while done < n_steps:
        block = min(stride, n_steps - done)
        for _ in range(block):
{shears}
        done += block
        qs.append(q)
        ps.append(p)
    return qs, ps
"""
    namespace = {}
    exec(compile(source, f"<shear loop {pattern}>", "exec"), namespace)
    return namespace["run"]


def iterate(s: Scheme, q0: float, p0: float, eps: float, omega: float,
            n_steps: int, sample_stride: int = 1) -> TrajectoryRecord:
    """Apply the scheme's shear updates n_steps times, sampling every stride.

    The shears act one by one on (q, p) through the loop `_shear_loop`
    generates for the scheme's drift/kick pattern, with this call's
    coefficients passed as arguments. Samples are taken at step 0, at every
    multiple of the stride and at the final step, which is always included.
    The shadow energy H_A follows `is_symmetric`, the test `analyze` prints
    as `reversible`: g = h in the exact map, not in the rounded map at this
    step, so it holds at every step size. Divergence in the hyperbolic
    regime is legitimate output, not an error.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if sample_stride < 1:
        raise ValueError("sample_stride must be at least 1")
    pattern, coeffs = _kick_drift_program(s, eps, omega)
    qs, ps = _shear_loop(pattern)(float(q0), float(p0), n_steps, sample_stride,
                                  *coeffs)
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
