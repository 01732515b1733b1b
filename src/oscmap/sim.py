"""Brute-force iteration of schemes on the oscillator.

The stepping applies each shear update directly to (q, p), one multiply and
one add per factor, without ever forming the composed 2x2 matrix; that keeps
this module an independent oracle for the closed-form propagation and for the
conservation of the modified energy. The step loop is generated once per
drift/kick pattern of a scheme (e.g. "dkdkdkd") as straight-line Python, one
line per shear in the scheme's order; the coefficients are arguments of the
generated function, never part of its source, so schemes with the same
pattern share one compiled loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .phasemap import Regime, RegimeError, scheme_matrix, spectral
from .schemes import DRIFT, GKICK, Scheme

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TrajectoryRecord", "PortraitFit", "iterate", "phase_drift", "portrait"]


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled states of one discrete trajectory.

    `energy` is the true oscillator energy p^2/2 + omega^2 q^2 / 2;
    `modified_energy` is the shadow energy p^2/(2 m*) + k* q^2/2 when the
    scheme is reversible and elliptic at this step size (None otherwise);
    `phase` is the unwrapped angle atan2(p, sqrt(m* k*) q), reliable when
    consecutive samples advance by less than pi (stride 1 and moderate
    eps*omega).
    """

    step_index: np.ndarray
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energy: np.ndarray
    modified_energy: np.ndarray | None
    phase: np.ndarray | None


def _kick_drift_program(s: Scheme, eps: float, omega: float):
    """Per-step shear pattern and coefficients: 'd' for c*eps, 'k' for mu."""
    w2 = omega * omega
    pattern = []
    coeffs = []
    for st in s.active_steps():
        if st.kind == DRIFT:
            pattern.append("d")
            coeffs.append(float(st.c) * eps)
        else:
            mu = float(st.c) * eps * w2
            if st.kind == GKICK:
                mu += float(st.u) * eps**3 * w2 * w2
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
    Divergence in the hyperbolic regime is legitimate output, not an error.
    """
    import numpy as np

    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if sample_stride < 1:
        raise ValueError("sample_stride must be at least 1")
    pattern, coeffs = _kick_drift_program(s, eps, omega)
    qs, ps = _shear_loop(pattern)(float(q0), float(p0), n_steps, sample_stride,
                                  *coeffs)
    index = np.array([*range(0, n_steps, sample_stride), n_steps], dtype=np.int64)
    q_arr = np.array(qs)
    p_arr = np.array(ps)
    energy = 0.5 * p_arr**2 + 0.5 * (omega * q_arr) ** 2

    modified = phase = None
    data = spectral(scheme_matrix(s, eps, omega))
    if data.regime is Regime.ELLIPTIC and data.m_star is not None:
        if data.reversible:
            modified = p_arr**2 / (2.0 * data.m_star) + 0.5 * data.k_star * q_arr**2
        scale = math.sqrt(data.m_star * data.k_star)
        phase = np.unwrap(np.arctan2(p_arr, scale * q_arr))
    return TrajectoryRecord(index, index * eps, q_arr, p_arr, energy,
                            modified, phase)


def phase_drift(s: Scheme, x: float, periods: int) -> float:
    """Accumulated phase error after the given number of periods.

    Runs the trajectory at eps = x with omega = 1, measures the rotation
    angle swept in the rescaled plane (sqrt(m* k*) q, p), and subtracts the
    exact rotation omega*t at t = periods * 2*pi. The map rotates by exactly
    theta per step, so the angle is linear in the step index and linear
    interpolation onto t (not a multiple of eps in general) is exact up to
    roundoff.
    """
    if not x > 0.0:
        raise ValueError(f"phase drift needs a positive x, got {x!r}")
    if periods < 0:
        raise ValueError("periods must be non-negative")
    if periods == 0:
        return 0.0
    data = spectral(scheme_matrix(s, x, 1.0))
    if data.regime is not Regime.ELLIPTIC:
        raise RegimeError(f"{data.regime.value} map at x = {x}: {data.detail}")
    if not data.reversible:
        raise ValueError("phase drift is defined for time-reversible schemes")
    t_star = periods * 2.0 * math.pi
    j = int(t_star / x)
    frac = t_star / x - j
    # j + 1 steps, so rotation[j + 1] exists also when t_star / x is whole
    rec = iterate(s, 1.0, 0.0, x, 1.0, j + 1, 1)
    rotation = -(rec.phase - rec.phase[0])  # clockwise sweep, increasing
    swept = rotation[j] + frac * (rotation[j + 1] - rotation[j])
    return float(swept - t_star)


@dataclass(frozen=True)
class PortraitFit:
    """Least-squares conic through a sampled orbit: A q^2 + B qp + C p^2 = 1."""

    q: np.ndarray
    p: np.ndarray
    conic: np.ndarray        # [[A, B/2], [B/2, C]]
    tilt_deg: float          # principal (major) axis angle in (-90, 90]
    axis_ratio: float        # major/minor semi-axis ratio, >= 1


def portrait(s: Scheme, q0: float, p0: float, eps: float, omega: float,
             n_steps: int) -> PortraitFit:
    """Sample an orbit and fit the invariant ellipse through it."""
    import numpy as np

    if n_steps < 8:
        raise ValueError("need at least 8 points for a conic fit")
    data = spectral(scheme_matrix(s, eps, omega))
    if data.regime is not Regime.ELLIPTIC:
        raise RegimeError(f"{data.regime.value} map: {data.detail}")
    rec = iterate(s, q0, p0, eps, omega, n_steps, 1)
    design = np.column_stack([rec.q**2, rec.q * rec.p, rec.p**2])
    coef, *_ = np.linalg.lstsq(design, np.ones(len(rec.q)), rcond=None)
    a, b, c = coef
    conic = np.array([[a, b / 2.0], [b / 2.0, c]])
    evals, evecs = np.linalg.eigh(conic)
    major = evecs[:, 0]  # smaller eigenvalue = longer semi-axis
    tilt = math.degrees(math.atan2(major[1], major[0]))
    if tilt > 90.0:
        tilt -= 180.0
    elif tilt <= -90.0:
        tilt += 180.0
    ratio = math.sqrt(evals[1] / evals[0])
    return PortraitFit(rec.q, rec.p, conic, tilt, ratio)
