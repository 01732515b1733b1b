"""Tests for the brute-force iteration oracle, phase drift, and portraits.

Phase drift and the portrait fit are measurements made on `iterate`'s
samples with numpy; they live here as test helpers, not in the package.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oscmap.analysis import order_coefficient
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


def _generic_loop(s, q0, p0, eps, omega, n_steps, sample_stride):
    """Reference for `iterate`: one generic loop over (is_drift, coeff) pairs.

    Writes omega = m * 2**k with m in [1, 2) and steps (q, p / 2**k) with
    e = eps * 2**k: drift coefficients c*e, kick coefficients c*e*m^2 plus
    u*e^3*m^4 for a force-gradient kick (a signed inf where the float power
    e**3 overflows), each sampled p multiplied back by 2**k. Returns (step
    indices, q samples, p samples); the generated per-pattern loops must
    reproduce them bit for bit.
    """
    mant, exp = math.frexp(omega)
    scale = 2.0 ** (exp - 1)
    m2 = (2.0 * mant) * (2.0 * mant)
    e = eps * scale
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
    idx = [0]
    qs = [float(q0)]
    ps = [float(p0)]
    q, p = float(q0), float(p0) / scale
    for k in range(1, n_steps + 1):
        for is_drift, coeff in program:
            if is_drift:
                q += coeff * p
            else:
                p -= coeff * q
        if k % sample_stride == 0 or k == n_steps:
            idx.append(k)
            qs.append(q)
            ps.append(p * scale)
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


def _array_energies(s, rec, eps, omega):
    """Energy and shadow energy by the numpy formulas `iterate` once used."""
    q, p = np.array(rec.q), np.array(rec.p)
    modified = None
    with np.errstate(over="ignore", invalid="ignore"):
        energy = 0.5 * p**2 + 0.5 * (omega * q) ** 2
        data = spectral(scheme_matrix(s, eps, omega))
        if (data.regime is Regime.ELLIPTIC and data.m_star is not None
                and is_symmetric(s)):
            modified = p**2 / (2.0 * data.m_star) + 0.5 * data.k_star * q**2
    return energy, modified


def _hexes(values):
    return None if values is None else [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(registry()) - 1),
       q0=st.floats(-10, 10), p0=st.floats(-10, 10),
       eps=st.floats(-3, 3), omega=st.sampled_from((1.0, 2.5)),
       stride=st.integers(1, 7))
@example(which=0, q0=1.0, p0=0.0, eps=2.5, omega=1.0, stride=1)  # SV diverging
def test_energies_match_the_array_formulas_bitwise(which, q0, p0, eps, omega,
                                                   stride):
    s = registry()[which]
    rec = iterate(s, q0, p0, eps, omega, 600, stride)
    energy, modified = _array_energies(s, rec, eps, omega)
    assert _hexes(rec.energy) == _hexes(energy)
    assert _hexes(rec.modified_energy) == _hexes(modified)


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
        assert rec.modified_energy is None


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
    skew = Scheme("SKEW", (Step(KICK, 0.3), Step(DRIFT, 1.0), Step(KICK, 0.7)),
                  order=1, force_evals=2)
    runs = [iterate(s, 1.0, 0.0, 0.4, 1.0, 50, 5) for s in (sv, skew, sv)]
    assert not np.array_equal(runs[0].q, runs[1].q)
    assert np.array_equal(runs[0].q, runs[2].q)
    for s in (sv, skew):
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


def test_modified_energy_constant():
    rec = iterate(get_scheme("SV"), 1.0, 0.0, 0.5, 1.0, 100_000,
                  sample_stride=100)
    assert rec.modified_energy is not None
    h_a = np.array(rec.modified_energy)
    assert np.max(np.abs(h_a - h_a[0])) / abs(h_a[0]) <= 1e-10


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


def test_non_reversible_excluded_from_modified_energy():
    # g - h = x^2 for LF1: a tolerance on it would call the map reversible
    # at small x, which `is_symmetric` never does
    for name in ("LF1", "LF1T"):
        s = get_scheme(name)
        for x in (0.3, 1e-6, 1e-170):
            rec = iterate(s, 1.0, 0.0, x, 1.0, 10)
            assert rec.modified_energy is None, (name, x)
            # the rotation angle is still defined
            assert _phase(s, rec, x, 1.0) is not None, (name, x)


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
