"""Closed-form evolution and shadow energy of an elliptic map.

`cmd_simulate` and `phasemap.propagate_closed_form` import this module when
called, so no other command compiles it.
"""

from __future__ import annotations

import math

from .phasemap import _NORMAL_MIN, PhaseMatrix, Rows, SpectralData, _scaled


def _generator(mat: PhaseMatrix) -> tuple[float, ...]:
    """(kw, kt, kn) = ((g - h)/2, tau, nu)/xi of K = (M - T I)/xi, which M
    conserves as kn q^2 + 2 kw q p + kt p^2; as entry*2^-e over sqrt(disc)
    (`_scaled`), bitwise the plain quotients where xi is normal."""
    _, e, _, _, disc = _scaled(mat)
    r = math.sqrt(disc)
    return (math.ldexp(mat.g - mat.h, -e - 1) / r, math.ldexp(mat.tau, -e) / r,
            math.ldexp(mat.nu, -e) / r)


def _propagate(mat: PhaseMatrix, data: SpectralData, gen: tuple[float, ...],
               ts: list[float]) -> list[Rows]:
    """`propagate_closed_form` at each time in ts of an elliptic map whose
    `spectral` is data and whose K is gen (`_generator`).

    theta and eps are scaled exactly by eps's power of two, so theta*t does
    not underflow and the angle is bitwise theta*t/eps where that is normal.
    A theta below the normal range lost bits, and the angle is omega_a*t
    (over 1.0, which is exact). The scaling is formed once for all of ts.
    """
    kw, kt, kn = gen
    if data.theta < _NORMAL_MIN:
        rate, unit = math.copysign(data.omega_a, mat.eps), 1.0
    else:
        k = math.frexp(mat.eps)[1]
        rate, unit = math.ldexp(data.theta, -k), math.ldexp(mat.eps, -k)
    rows = []
    for t in ts:
        angle = rate * t / unit
        c, s = math.cos(angle), math.sin(angle)
        rows.append(((c + kw * s, kt * s), (-kn * s, c - kw * s)))
    return rows


def _shadow_energy(gen: tuple[float, ...], data: SpectralData,
                   qs: list[float], ps: list[float]) -> list[float]:
    """The exact invariant H_A at each (q, p) of the elliptic map whose K is
    gen (`_generator`) and whose `spectral` is data.

    H_A = (omega_a/2)(kn q^2 + 2 kw q p + kt p^2), K's form (`_generator`)
    with the sign of kn, so positive definite; in the first stable window
    it is (theta/eps)/2 (...), whose flow over eps is M. For g = h it is
    p^2/(2 m*) + k* q^2/2; its qp coefficient is omega_a*sigma. M(-eps) =
    P M(eps) P, P = diag(1, -1), so H_A at -eps and (q, p) is bitwise H_A
    at eps and (q, -p). q (kn q + kw p) + p (kw q + kt p) adds no 0 * inf.
    """
    kw, kt, kn = gen
    half = math.copysign(0.5 * data.omega_a, kn)
    return [half * (q * (kn * q + kw * p) + p * (kw * q + kt * p))
            for q, p in zip(qs, ps)]
