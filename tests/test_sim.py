"""Tests for the brute-force iteration oracle, phase drift, and portraits.

Phase drift and the portrait fit are measurements made on `iterate`'s
samples with numpy; they live here as test helpers, not in the package.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oscmap.analysis import order_coefficient
from oscmap.closedform import _generator, _shadow_energy
from oscmap.phasemap import (
    Regime, RegimeError, propagate_closed_form, scheme_matrix, spectral, sweep,
)
from oscmap.schemes import (
    DRIFT, GKICK, KICK, Scheme, Step, get_scheme, is_symmetric, load_scheme,
    registry,
)
from oscmap import sim
from oscmap.sim import _kick_drift_program, iterate


def _phase(s, rec, eps, omega):
    """Unwrapped angle atan2(p, sqrt(m* k*) q) of the samples, or None.

    None where m* and k* are undefined (not elliptic, or nu*tau <= 0).
    Reliable when consecutive samples advance by less than pi (stride 1 and
    moderate eps*omega).
    """
    data = spectral(scheme_matrix(s, eps, omega))
    if data.regime is not Regime.ELLIPTIC or data.m_star is None:
        return None
    scale = math.sqrt(data.m_star * data.k_star)
    return np.unwrap(np.arctan2(rec.p, scale * np.array(rec.q)))


def phase_drift(s, x, periods):
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
    if not is_symmetric(s):
        raise ValueError("phase drift is defined for time-reversible schemes")
    t_star = periods * 2.0 * math.pi
    j = int(t_star / x)
    frac = t_star / x - j
    # j + 1 steps, so rotation[j + 1] exists also when t_star / x is whole
    phase = _phase(s, iterate(s, 1.0, 0.0, x, 1.0, j + 1, 1), x, 1.0)
    rotation = -(phase - phase[0])  # clockwise sweep, increasing
    swept = rotation[j] + frac * (rotation[j + 1] - rotation[j])
    return float(swept - t_star)


@dataclass(frozen=True)
class PortraitFit:
    """Least-squares conic through a sampled orbit: A q^2 + B qp + C p^2 = 1."""

    conic: np.ndarray        # [[A, B/2], [B/2, C]]
    tilt_deg: float          # principal (major) axis angle in (-90, 90]
    axis_ratio: float        # major/minor semi-axis ratio, >= 1


def portrait(s, q0, p0, eps, omega, n_steps):
    """Sample an orbit and fit the invariant ellipse through it."""
    if n_steps < 8:
        raise ValueError("need at least 8 points for a conic fit")
    data = spectral(scheme_matrix(s, eps, omega))
    if data.regime is not Regime.ELLIPTIC:
        raise RegimeError(f"{data.regime.value} map: {data.detail}")
    rec = iterate(s, q0, p0, eps, omega, n_steps, 1)
    q, p = np.array(rec.q), np.array(rec.p)
    design = np.column_stack([q**2, q * p, p**2])
    coef, *_ = np.linalg.lstsq(design, np.ones(len(q)), rcond=None)
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
    return PortraitFit(conic, tilt, ratio)


def phase_error(s, x):
    """Per-period phase error 2*pi*(omega_a - 1) at x, as `sweep` gives it."""
    [(_, value, _)] = sweep(s, [x], "phase_error")
    return value


def _times_power_of_two(v, n):
    """v * 2**n rounded once, by exact rationals: a signed inf past the float
    range, a zero of v's sign below it, and inf or NaN as they are."""
    if not math.isfinite(v):
        return v
    try:
        return math.copysign(float(Fraction(v) * Fraction(2) ** n), v)
    except OverflowError:
        return math.copysign(math.inf, v)


def _shears(q, p, program):
    """(q, p) after the (is_drift, coeff) shears of program, in order."""
    for is_drift, coeff in program:
        if is_drift:
            q += coeff * p
        else:
            p -= coeff * q
    return q, p


def _generic_loop(s, q0, p0, eps, omega, n_steps, sample_stride):
    """Reference for `iterate`: one step at a time over (is_drift, coeff)
    pairs.

    Writes omega = m * 2**k with m in [1, 2) and steps the state
    (q, p / 2**k) / 2**j, where 2**j is the power of two at or below the
    larger of |q0| and |p0| / 2**k, found by halving and doubling that
    rational (j = 0 for a zero state), with e = eps * 2**k: drift
    coefficients c*e, kick coefficients c*e*m^2 plus u*e^3*m^4 for a
    force-gradient kick (a signed inf where the float power e**3
    overflows). Where the first and last shear are of one kind and the sum
    of their coefficients is finite, the state is held one shear short of
    each step boundary: step 1 runs all but the last shear, every later
    step runs one shear by that sum and then the middle shears, and a
    sample applies the last shear to a copy. Otherwise each step runs all
    the shears. Each later sample of q is multiplied back by 2**j and of p
    by 2**(k + j), rounded once. Returns (step indices, q samples, p
    samples); the generated per-pattern loops must reproduce them bit for
    bit.
    """
    mant, exp = math.frexp(omega)
    k = exp - 1
    m2 = (2.0 * mant) * (2.0 * mant)
    e = eps * 2.0**k
    try:
        cube = e**3
    except OverflowError:
        cube = math.copysign(math.inf, e)
    program = []
    for step in s.active_steps():
        if step.kind == DRIFT:
            program.append((True, float(step.c) * e))
        else:
            mu = float(step.c) * e * m2
            if step.kind == GKICK:
                mu += float(step.u) * cube * m2 * m2
            program.append((False, mu))
    (first_drift, first), (last_drift, last) = program[0], program[-1]
    if first_drift == last_drift and math.isfinite(first + last):
        head, later, tail = (program[:-1], [(first_drift, first + last),
                                            *program[1:-1]], program[-1:])
    else:
        head, later, tail = program, program, []
    big = max(abs(Fraction(q0)), abs(Fraction(p0)) / Fraction(2) ** k)
    j = 0
    while big >= 2:
        big, j = big / 2, j + 1
    while 0 < big < 1:
        big, j = big * 2, j - 1
    idx = [0]
    qs = [float(q0)]
    ps = [float(p0)]
    q = _times_power_of_two(float(q0), -j)
    p = _times_power_of_two(float(p0), -k - j)
    for n in range(1, n_steps + 1):
        q, p = _shears(q, p, head if n == 1 else later)
        if n % sample_stride == 0 or n == n_steps:
            sq, sp = _shears(q, p, tail)
            idx.append(n)
            qs.append(_times_power_of_two(sq, j))
            ps.append(_times_power_of_two(sp, k + j))
    return idx, qs, ps


def _assert_matches_generic_loop(s, q0, p0, eps, omega, n_steps, stride):
    rec = iterate(s, q0, p0, eps, omega, n_steps, stride)
    idx, qs, ps = _generic_loop(s, q0, p0, eps, omega, n_steps, stride)
    assert rec.step_index == idx
    assert [float.hex(v) for v in rec.q] == [float.hex(v) for v in qs]
    assert [float.hex(v) for v in rec.p] == [float.hex(v) for v in ps]


@pytest.fixture(scope="module")
def uneven_scheme(tmp_path_factory):
    # two drifts in a row, a force-gradient kick and an identity kick
    path = tmp_path_factory.mktemp("schemes") / "uneven.json"
    path.write_text(json.dumps({
        "name": "UNEVEN", "order": 1, "force_evals": 2,
        "steps": [{"kind": "drift", "c": 0.3}, {"kind": "drift", "c": 0.2},
                  {"kind": "gkick", "c": 0.6, "u": 0.01},
                  {"kind": "kick", "c": 0},
                  {"kind": "drift", "c": 0.5}, {"kind": "kick", "c": 0.4}],
    }), encoding="utf-8")
    return load_scheme(str(path))


@st.composite
def _step_counts(draw):
    """(n_steps, stride): 1, stride - 1, stride, k*stride + r, stride > n."""
    stride = draw(st.integers(1, 40))
    k = draw(st.integers(1, 25))
    r = draw(st.integers(0, stride - 1))
    n_steps = draw(st.sampled_from(
        [1, max(stride - 1, 1), stride, k * stride + r]))
    return n_steps, stride


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(registry())),
       counts=_step_counts(),
       q0=st.floats(-10, 10), p0=st.floats(-10, 10),
       eps=st.floats(-3, 3),
       omega=st.sampled_from((1.0, 2.5, 2.0**600, 1.5 * 2.0**-600)))
@example(which=0, counts=(1, 1), q0=0.0, p0=5e-324, eps=0.0, omega=2.5)
@example(which=0, counts=(3, 1), q0=-0.0, p0=-0.0, eps=-0.5, omega=1.0)
@example(which=2, counts=(5, 2), q0=5e-324, p0=-1e-320, eps=0.7, omega=2.0**600)
def test_iterate_matches_generic_loop_bitwise(uneven_scheme, which, counts,
                                              q0, p0, eps, omega):
    schemes = [*registry(), uneven_scheme]
    _assert_matches_generic_loop(schemes[which], q0, p0, eps, omega, *counts)


@pytest.mark.parametrize("stride", [1, 3, 8, 1000])
@pytest.mark.parametrize("n_steps", [1, 7, 8, 9, 17, 1003])
@pytest.mark.parametrize("name", ["SV", "C", "BM", "uneven", "SV diverging"])
def test_iterate_matches_generic_loop_at_the_unroll_boundaries(
        uneven_scheme, name, n_steps, stride):
    # a block of b steps runs b // _UNROLL unrolled passes, then b % _UNROLL
    # single steps; these sizes put each of them at 0, 1 and more
    assert sim._UNROLL == 8
    x = 2.5 if name == "SV diverging" else 0.3
    s = uneven_scheme if name == "uneven" else get_scheme(name.split()[0])
    _assert_matches_generic_loop(s, 1.0, 0.25, x, 1.0, n_steps, stride)


@pytest.mark.parametrize("n_steps, stride", [(600, 1), (2000, 100)])
def test_iterate_matches_generic_loop_when_diverging(n_steps, stride):
    # SV at x = 2.5 (the CLI's diverging run) overflows to inf at step 514
    # and to nan after it; both must land where the generic loop put them
    s = get_scheme("SV")
    rec = iterate(s, 1.0, 0.0, 2.5, 1.0, n_steps, stride)
    assert np.isnan(rec.q[-1])
    assert np.isinf(rec.q).any() == (stride == 1)
    _assert_matches_generic_loop(s, 1.0, 0.0, 2.5, 1.0, n_steps, stride)


#: Kick-drift-kick like SV, with ends of different coefficients.
_SKEW = Scheme("SKEW", (Step(KICK, 0.3), Step(DRIFT, 1.0), Step(KICK, 0.7)),
               order=1, force_evals=2)


@pytest.mark.parametrize("name", [*(s.name for s in registry()), "SKEW",
                                  "uneven"])
def test_sample_stride_does_not_change_a_sample(uneven_scheme, name):
    # a merged loop holds its state one shear short of each step boundary and
    # completes a sample on a copy, so a sample at step n has the bits of
    # the stride-1 run's sample at step n
    s = {"SKEW": _SKEW, "uneven": uneven_scheme}.get(name) or get_scheme(name)
    every = iterate(s, 0.8, -0.6, 0.4, 1.0, 2003, 1)
    for stride in (7, 1000):
        rec = iterate(s, 0.8, -0.6, 0.4, 1.0, 2003, stride)
        assert rec.step_index == [*range(0, 2003, stride), 2003]
        assert _hexes(rec.q) == _hexes(every.q[n] for n in rec.step_index)
        assert _hexes(rec.p) == _hexes(every.p[n] for n in rec.step_index)


def _exact_run(pattern, coeffs, q0, p0, n_steps):
    """(q, p) after each of n_steps steps of the shears with the float
    coefficients read as the binary fractions they are, iterated exactly and
    rounded once per sample. The state is held as integers over one power of
    two: a step multiplies the denominators by up to 2^60 per shear, and a
    Fraction's gcd over numbers that long takes seconds per run."""
    qn, qd = q0.as_integer_ratio()
    pn, pd = p0.as_integer_ratio()
    qn, pn, e = qn * pd, pn * qd, (qd * pd).bit_length() - 1
    program = [(kind, *c.as_integer_ratio())
               for kind, c in zip(pattern, coeffs)]
    out = []
    for _ in range(n_steps):
        for kind, a, b in program:
            f = b.bit_length() - 1
            if kind == "d":
                qn, pn = (qn << f) + a * pn, pn << f
            else:
                qn, pn = qn << f, (pn << f) - a * qn
            e += f
        out.append((qn / (1 << e), pn / (1 << e)))
    return out


@pytest.mark.parametrize("name", [s.name for s in registry()])
def test_both_loops_stay_near_the_exact_iteration(name):
    # each shear rounds a product and a sum of numbers below 2, each by at
    # most 2^-53, and the map at x = 0.5 is close enough to a rotation that
    # it does not amplify what earlier shears lost; the largest error seen
    # is 3.9e-15, a merged shear's coefficient c0 + c(n-1) rounded included
    n_steps = 400
    pattern, coeffs, _ = _kick_drift_program(get_scheme(name), 0.5, 1.0)
    exact = _exact_run(pattern, coeffs, 0.8, -0.6, n_steps)
    bound = n_steps * len(pattern) * 2.0**-52
    # LF1 and LF1T have ends of two kinds and run unmerged only
    for merged in {False, pattern[0] == pattern[-1]}:
        qs, ps = sim._shear_loop(pattern, merged)(0.8, -0.6, n_steps, 1,
                                                   *coeffs)
        assert max(max(abs(q - a), abs(p - b)) for q, p, (a, b)
                   in zip(qs[1:], ps[1:], exact)) <= bound, merged


def test_a_merged_shear_that_overflows_is_not_merged():
    # FR at eps = 1.5e308: its end drifts theta/2 * eps are finite, their sum
    # theta * eps is not. Its kicks overflow too, so the run is NaN; SV at
    # omega = 1.9 keeps its kicks finite where their sum is not, and from
    # (0, 0) only a merged shear by inf would make a NaN
    fr = get_scheme("FR")
    pattern, coeffs, _ = _kick_drift_program(fr, 1.5e308, 1.0)
    assert math.isfinite(coeffs[0]) and coeffs[0] + coeffs[-1] == math.inf
    rec = iterate(fr, 1.0, 0.0, 1.5e308, 1.0, 20, 3)
    qs, ps = sim._shear_loop(pattern, False)(1.0, 0.0, 20, 3, *coeffs)
    assert (_hexes(rec.q), _hexes(rec.p)) == (_hexes(qs), _hexes(ps))
    _assert_matches_generic_loop(fr, 1.0, 0.0, 1.5e308, 1.0, 20, 3)
    sv = get_scheme("SV")
    _, coeffs, _ = _kick_drift_program(sv, 9e307, 1.9)
    assert all(map(math.isfinite, coeffs))
    assert coeffs[0] + coeffs[-1] == math.inf
    rec = iterate(sv, 0.0, 0.0, 9e307, 1.9, 20, 3)
    assert rec.q == rec.p == [0.0] * len(rec.step_index)
    _assert_matches_generic_loop(sv, 0.0, 0.0, 9e307, 1.9, 20, 3)


def _array_energies(s, rec, eps, omega):
    """Energy by the numpy formula `iterate` once used, and the shadow energy
    p^2/(2 m*) + k* q^2/2 of a reversible elliptic map (None otherwise), the
    formula `iterate` used before H_A was read from K for every scheme, taken
    exactly in rationals from the float m* and k*: a float p^2 or q^2 below
    the normal range would lose bits of its own."""
    q, p = np.array(rec.q), np.array(rec.p)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = 0.5 * p**2 + 0.5 * (omega * q) ** 2
    data = spectral(scheme_matrix(s, eps, omega))
    if not (data.regime is Regime.ELLIPTIC and data.m_star is not None
            and is_symmetric(s)):
        return energy, None
    m, k = Fraction(data.m_star), Fraction(data.k_star)
    return energy, [p * p / (2 * m) + k * q * q / 2
                    for q, p in zip(map(Fraction, rec.q), map(Fraction, rec.p))]


def _mp_shadow_parameters(m):
    """omega_a, m* and k* of the float map m at 40 digits: theta =
    atan2(sqrt(nu tau - ((g - h)/2)^2), (g + h)/2), omega_a = theta/|eps|,
    1/m* = omega_a sqrt(tau/nu) and k* = omega_a sqrt(nu/tau)."""
    with mpmath.workdps(40):
        g, tau, nu, h, eps = map(mpmath.mpf, m[:5])
        theta = mpmath.atan2(mpmath.sqrt(nu * tau - ((g - h) / 2) ** 2),
                             (g + h) / 2)
        omega_a = theta / abs(eps)
        root = mpmath.sqrt(tau / nu)
        return [float(v) for v in (omega_a, 1 / (omega_a * root),
                                   omega_a / root)]


def _hexes(values):
    return None if values is None else [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(registry()) - 1),
       q0=st.floats(-10, 10), p0=st.floats(-10, 10),
       eps=st.floats(-3, 3), omega=st.sampled_from((1.0, 2.5)),
       stride=st.integers(1, 7))
@example(which=0, q0=1.0, p0=0.0, eps=2.5, omega=1.0, stride=1)  # SV diverging
@example(which=0, q0=1.0, p0=0.5, eps=5e-324, omega=2.5, stride=1)  # xi subnormal
@example(which=0, q0=0.0, p0=6.1784659303464646e-158, eps=1.0, omega=1.0,
         stride=1)  # p^2 subnormal
def test_energies_match_the_array_formulas_bitwise(which, q0, p0, eps, omega,
                                                   stride):
    s = registry()[which]
    rec = iterate(s, q0, p0, eps, omega, 600, stride)
    energy, modified = _array_energies(s, rec, eps, omega)
    assert _hexes(rec.energy) == _hexes(energy)
    if modified is None:
        return
    m = scheme_matrix(s, eps, omega)
    data = spectral(m)
    # the oracle's m* and k* are spectral's: check them, and omega_a, on
    # the same float map by another route
    assert all(math.isclose(a, b, rel_tol=2e-15) for a, b in zip(
        (data.omega_a, data.m_star, data.k_star), _mp_shadow_parameters(m)))
    h_a = _shadow_energy(_generator(m), data, rec.q, rec.p)
    # 1e-15 relative, and a few spacings 2^-1074 where H_A rounds on the
    # subnormal grid, where no float holds 1e-15 relative
    slack = 4 * Fraction(2) ** -1074
    assert all(abs(Fraction(a) - b) <= b / 10**15 + slack
               for a, b in zip(h_a, modified))


def test_energies_of_the_diverging_run_overflow_to_inf_and_nan():
    # p * p overflows to inf here, where a float p ** 2 would raise
    rec = iterate(get_scheme("SV"), 1.0, 0.0, 2.5, 1.0, 600)
    assert any(map(math.isinf, rec.energy)) and math.isnan(rec.energy[-1])


@pytest.mark.parametrize("eps, sign", [(1e150, -1.0), (-1e150, 1.0)])
def test_gkick_coefficient_overflows_to_a_signed_inf(eps, sign):
    # e**3 raises OverflowError as a float power; C's u = -1/96 flips its
    # sign. e = eps * 2**k is the same at omega = 2**k with eps / omega
    c = get_scheme("C")
    for omega in (1.0, 2.0**600):
        _, coeffs, k = _kick_drift_program(c, eps / omega, omega)
        assert 2.0**k == omega
        assert coeffs[3] == sign * math.inf
        rec = iterate(c, 1.0, 0.0, eps / omega, omega, 2)
        assert all(map(math.isnan, rec.q[1:] + rec.p[1:] + rec.energy[1:]))


def test_gkick_coefficient_is_the_float_power_where_finite():
    # omega = m * 2**k, m in [1, 2); the kick reads c*e*m^2 + u*e^3*m^4 with
    # e = eps * 2**k, which is 2**-k times the unscaled c*eps*omega^2 +
    # u*eps^3*omega^4 bit for bit while both are normal floats
    c = get_scheme("C")
    for eps, omega, k in ((0.3, 1.5, 0), (-1.7, 1.5, 0), (1e100, 1.5, 0),
                          (0.3, 2.5, 1), (-1.7, 2.5, 1), (1e100, 2.5, 1),
                          (1e-100, 1e100, 332), (0.3, 0.7, -1)):
        pattern, coeffs, got_k = _kick_drift_program(c, eps, omega)
        assert (pattern, got_k) == ("dkdkdkd", k)
        m, e = omega / 2.0**k, eps * 2.0**k
        m2 = m * m
        mu = 0.25 * e * m2 + (-1 / 96) * e**3 * m2 * m2
        assert coeffs[3].hex() == mu.hex()
        assert coeffs[0].hex() == (1 / 6 * e).hex()
        w2 = omega * omega
        unscaled = 0.25 * eps * w2 + (-1 / 96) * eps**3 * w2 * w2
        assert coeffs[3].hex() == math.ldexp(unscaled, -k).hex()


@pytest.mark.parametrize("name", [s.name for s in registry()])
def test_extreme_eps_and_omega_follow_the_unit_trajectory(name):
    # only x = eps*omega reaches the map: (2**-600, 2**600) and (2**600,
    # 2**-600) give the q of (x, 1) bit for bit, and p / omega its p, where
    # omega*omega alone would be inf or 0
    s = get_scheme(name)
    ref = iterate(s, 1.0, 0.0, 0.5, 1.0, 40, 3)
    for eps, omega in ((0.5 * 2.0**-600, 2.0**600), (0.5 * 2.0**600, 2.0**-600)):
        rec = iterate(s, 1.0, 0.0, eps, omega, 40, 3)
        assert _hexes(rec.q) == _hexes(ref.q)
        assert _hexes([p / omega for p in rec.p]) == _hexes(ref.p)


def test_extreme_eps_and_omega_pin_the_sv_quarter_turns():
    # SV at x = 1: a quarter turn in q every step and a half, read from
    # (q, p/omega) at the three scalings of one x
    sv = get_scheme("SV")
    for eps, omega in ((2.0**-600, 2.0**600), (2.0**600, 2.0**-600), (1.0, 1.0)):
        rec = iterate(sv, 1.0, 0.0, eps, omega, 3)
        assert rec.q == [1.0, 0.5, -0.5, -1.0]
        assert [p / omega for p in rec.p] == [0.0, -0.75, -0.75, 0.0]


def test_schemes_sharing_a_pattern_keep_their_coefficients():
    # SV and this scheme both compile to the pattern kick-drift-kick, so they
    # run one cached loop that must take its coefficients from each call
    sv = get_scheme("SV")
    runs = [iterate(s, 1.0, 0.0, 0.4, 1.0, 50, 5) for s in (sv, _SKEW, sv)]
    assert not np.array_equal(runs[0].q, runs[1].q)
    assert np.array_equal(runs[0].q, runs[2].q)
    for s in (sv, _SKEW):
        _assert_matches_generic_loop(s, 1.0, 0.0, 0.4, 1.0, 50, 5)


def test_single_step_matches_matrix():
    # The shear loop is the oracle for the polynomial map: its one-step
    # images of the unit vectors are the matrix columns, for every registry
    # scheme (C covers the force-gradient kick), x over (0, 10], two
    # frequencies and both signs of eps.
    for s in registry():
        for omega in (1.0, 2.5):
            for x in np.linspace(10.0 / 64, 10.0, 64):
                for eps in (x / omega, -x / omega):
                    cols = [iterate(s, q0, p0, eps, omega, 1)
                            for q0, p0 in ((1.0, 0.0), (0.0, 1.0))]
                    ref = np.array([[c.q[-1] for c in cols],
                                    [c.p[-1] for c in cols]])
                    m = scheme_matrix(s, eps, omega)
                    m = np.array([[m.g, m.tau], [-m.nu, m.h]])
                    assert np.max(np.abs(m - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_iterate_matches_closed_form_long_run():
    s = get_scheme("SV")
    rec = iterate(s, 1.0, 0.0, 0.3, 1.0, 10_000, sample_stride=10_000)
    m = scheme_matrix(s, 0.3, 1.0)
    ref = np.array(propagate_closed_form(m, 10_000 * 0.3)) @ np.array([1.0, 0.0])
    assert abs(rec.q[-1] - ref[0]) <= 1e-9
    assert abs(rec.p[-1] - ref[1]) <= 1e-9


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5])
def test_iterate_matches_closed_form_all_schemes(x):
    for s in registry():
        rec = iterate(s, 1.0, 0.0, x, 1.0, 10_000, sample_stride=10_000)
        ref = propagate_closed_form(scheme_matrix(s, x, 1.0), 10_000 * x)
        state = np.array(ref) @ np.array([1.0, 0.0])
        assert abs(rec.q[-1] - state[0]) <= 1e-9
        assert abs(rec.p[-1] - state[1]) <= 1e-9


def test_iterate_hyperbolic_growth():
    rec = iterate(get_scheme("SV"), 1.0, 0.0, 2.5, 1.0, 100)
    absq = np.abs(rec.q)
    assert all(absq[k + 1] > absq[k] for k in range(10, 99))
    assert absq[-1] > 1e10


def _loop_shadow_energy(s, x, n_steps, stride=1, q0=1.0, p0=0.0):
    """H_A of the map at x (omega = 1) along the shear loop's samples."""
    m = scheme_matrix(s, x, 1.0)
    rec = iterate(s, q0, p0, x, 1.0, n_steps, stride)
    return _shadow_energy(_generator(m), spectral(m), rec.q, rec.p)


def test_modified_energy_constant():
    h_a = np.array(_loop_shadow_energy(get_scheme("SV"), 0.5, 100_000, 100))
    assert np.max(np.abs(h_a - h_a[0])) / abs(h_a[0]) <= 1e-10


@pytest.mark.parametrize("x", [0.1, 0.5, 1.2, -0.5, 1e-170])
@pytest.mark.parametrize("name", [s.name for s in registry()])
def test_shadow_energy_is_constant_along_the_shear_loop(name, x):
    # every orbit of an elliptic map lies on one level set of H_A, for the
    # non-reversible LF1 and LF1T as for the reversible schemes
    h_a = _loop_shadow_energy(get_scheme(name), x, 2000, q0=0.8, p0=-0.6)
    assert max(h_a) - min(h_a) <= 1e-13 * h_a[0]


@pytest.mark.parametrize("name, x", [("C", 4.0), ("M", 4.0), ("BM", 5.0)])
def test_shadow_energy_is_positive_past_the_first_stable_window(name, x):
    # in a second stable window nu/xi has the sign of -eps; H_A takes the
    # sign of kn and stays p^2/(2 m*) + k* q^2/2 with positive m* and k*
    s = get_scheme(name)
    m = scheme_matrix(s, x, 1.0)
    data = spectral(m)
    assert data.regime is Regime.ELLIPTIC and m.nu < 0.0 < x
    h_a = _loop_shadow_energy(s, x, 1, q0=0.8, p0=-0.6)
    assert math.isclose(h_a[0], 0.36 / (2.0 * data.m_star) + data.k_star * 0.32,
                        rel_tol=1e-15)


@pytest.mark.parametrize("name", [s.name for s in registry()])
def test_shadow_energy_is_the_same_at_minus_x(name):
    # M(-x) = P M(x) P with P = diag(1, -1): from (q0, 0) the orbit at -x is
    # the one at x with p negated, and its H_A column is the same bit for bit
    s = get_scheme(name)
    for x in (0.3, 1e-6, 1.2):
        forward = _loop_shadow_energy(s, x, 200, 7)
        assert _hexes(_loop_shadow_energy(s, -x, 200, 7)) == _hexes(forward)


def test_true_energy_bounded_not_growing():
    rec = iterate(get_scheme("SV"), 1.0, 0.0, 0.5, 1.0, 100_000,
                  sample_stride=1)
    dev = np.abs(np.array(rec.energy) - rec.energy[0])
    # O(x^2) bounded oscillation: window maxima constant across the run.
    # Windows must be long enough that the discrete sampling lands within
    # ~4e-5 rad of the envelope peak; 25k steps per window suffices.
    windows = dev[1:].reshape(4, 25_000)
    maxima = windows.max(axis=1)
    assert np.max(maxima) < 0.1  # O(x^2) = 0.25 scale, well below O(1)
    assert np.max(maxima) - np.min(maxima) <= 1e-10


def test_reversibility_round_trip():
    for s in registry():
        if not is_symmetric(s):
            continue
        fwd = iterate(s, 1.0, 0.25, 0.3, 1.0, 5_000, sample_stride=5_000)
        back = iterate(s, fwd.q[-1], fwd.p[-1], -0.3, 1.0, 5_000,
                       sample_stride=5_000)
        assert abs(back.q[-1] - 1.0) <= 1e-9
        assert abs(back.p[-1] - 0.25) <= 1e-9


def test_non_reversible_schemes_have_a_shadow_energy():
    # g - h = x^2 for LF1 and LF1T, and tau = nu = x: at (1, 0) H_A is
    # (theta/x)/(2 sin(theta)) nu = asin(x/2)/(x sqrt(1 - x^2/4)), down to
    # x = 1e-170 where x^2 underflows and H_A is the oscillator energy 1/2
    for name in ("LF1", "LF1T"):
        s = get_scheme(name)
        for x in (0.3, 1e-6, 1e-170):
            h_a = _loop_shadow_energy(s, x, 1)[0]
            exact = math.asin(x / 2) / (x * math.sqrt(1 - x * x / 4))
            assert math.isclose(h_a, exact, rel_tol=1e-15), (name, x)


def test_iterate_scales_the_whole_state():
    # p0 / omega = 1e600 is past the float range, but the state scaled as a
    # whole by one power of two is not, so the first steps stay finite
    sv = get_scheme("SV")
    assert iterate(sv, 0.0, 1e300, 1.0, 1e-300, 2).q == [0.0, 1e300, 2e300]
    _assert_matches_generic_loop(sv, 0.0, 1e300, 1.0, 1e-300, 2, 1)


# ------------------------------------------------------------------- drift

def test_phase_drift_zero_periods():
    assert phase_drift(get_scheme("SV"), 0.1, 0) == 0.0


def test_phase_drift_sv_hundred_periods():
    drift = phase_drift(get_scheme("SV"), 0.1, 100)
    assert abs(drift - 100 * phase_error(get_scheme("SV"), 0.1)) <= 1e-6
    assert math.isclose(drift, 0.2621, rel_tol=1e-3)


def test_phase_drift_whole_number_of_steps():
    # t_star / x = 4 exactly: the interpolation needs the sample after it
    s = get_scheme("SV")
    drift = phase_drift(s, math.pi / 2, 1)
    assert abs(drift - phase_error(s, math.pi / 2)) <= 1e-6


def test_phase_drift_fr_negative():
    s = get_scheme("FR")
    drift = phase_drift(s, 0.4, 50)
    assert drift < 0
    # rigorous: matches the exact per-period error linearly
    assert abs(drift - 50 * phase_error(s, 0.4)) <= 1e-6
    # leading-order estimate from c4 within 3% (the x^6 term contributes 2.7%)
    n, c4 = order_coefficient(s)
    estimate = 50 * 2 * math.pi * float(c4) * 0.4**4
    assert abs(drift - estimate) / abs(estimate) <= 0.03


def test_phase_drift_rejects_non_reversible():
    with pytest.raises(ValueError, match="time-reversible"):
        phase_drift(get_scheme("LF1"), 0.1, 1)


def test_phase_drift_rejects_hyperbolic():
    with pytest.raises(RegimeError, match="hyperbolic"):
        phase_drift(get_scheme("SV"), 2.5, 1)


@pytest.mark.parametrize("x", [-0.1, 0.0, math.nan])
def test_phase_drift_rejects_nonpositive_x(x):
    with pytest.raises(ValueError, match="positive x"):
        phase_drift(get_scheme("SV"), x, 1)


# ---------------------------------------------------------------- portraits

def test_portrait_sv_axis_aligned():
    fit = portrait(get_scheme("SV"), 1.0, 0.0, 0.3, 1.0, 3000)
    assert abs(fit.tilt_deg) <= 0.5
    assert fit.axis_ratio >= 1.0


def test_portrait_first_order_tilted_45():
    fit = portrait(get_scheme("LF1"), 1.0, 0.0, 0.3, 1.0, 3000)
    assert abs(abs(fit.tilt_deg) - 45.0) <= 1.0


def test_portrait_conic_matches_invariant_form():
    for name in ("SV", "LF1"):
        s = get_scheme(name)
        fit = portrait(s, 1.0, 0.0, 0.3, 1.0, 3000)
        m = scheme_matrix(s, 0.3, 1.0)
        w = (m.g - m.h) / 2.0
        q_ref = np.array([[m.nu, w], [w, m.tau]])  # M^T Q M = Q
        got = fit.conic / np.linalg.norm(fit.conic)
        ref = q_ref / np.linalg.norm(q_ref)
        assert np.max(np.abs(got - ref)) <= 0.01 * np.max(np.abs(ref))


def test_portrait_needs_enough_points():
    with pytest.raises(ValueError, match="at least 8"):
        portrait(get_scheme("SV"), 1.0, 0.0, 0.3, 1.0, 5)


def test_portrait_rejects_hyperbolic():
    with pytest.raises(RegimeError, match="hyperbolic"):
        portrait(get_scheme("SV"), 1.0, 0.0, 2.5, 1.0, 100)
