"""Tests for the brute-force iteration oracle, phase drift, and portraits."""

import math

import numpy as np
import pytest

from oscmap.analysis import phase_error, order_coefficient
from oscmap.phasemap import (
    RegimeError, invariant_quadratic_form, propagate_closed_form,
    scheme_matrix,
)
from oscmap.schemes import get_scheme, registry, is_symmetric
from oscmap.sim import iterate, phase_drift, portrait


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
                    m = scheme_matrix(s, eps, omega).as_array()
                    assert np.max(np.abs(m - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_iterate_matches_closed_form_long_run():
    s = get_scheme("SV")
    rec = iterate(s, 1.0, 0.0, 0.3, 1.0, 10_000, sample_stride=10_000)
    m = scheme_matrix(s, 0.3, 1.0)
    ref = propagate_closed_form(m, 10_000 * 0.3) @ np.array([1.0, 0.0])
    assert abs(rec.q[-1] - ref[0]) <= 1e-9
    assert abs(rec.p[-1] - ref[1]) <= 1e-9


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5])
def test_iterate_matches_closed_form_all_schemes(x):
    for s in registry():
        rec = iterate(s, 1.0, 0.0, x, 1.0, 10_000, sample_stride=10_000)
        ref = propagate_closed_form(scheme_matrix(s, x, 1.0), 10_000 * x)
        state = ref @ np.array([1.0, 0.0])
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
    h_a = rec.modified_energy
    assert h_a is not None
    assert np.max(np.abs(h_a - h_a[0])) / abs(h_a[0]) <= 1e-10


def test_true_energy_bounded_not_growing():
    rec = iterate(get_scheme("SV"), 1.0, 0.0, 0.5, 1.0, 100_000,
                  sample_stride=1)
    dev = np.abs(rec.energy - rec.energy[0])
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
    rec = iterate(get_scheme("LF1"), 1.0, 0.0, 0.3, 1.0, 10)
    assert rec.modified_energy is None
    assert rec.phase is not None  # rotation angle still well defined


# ------------------------------------------------------------------- drift

def test_phase_drift_zero_periods():
    assert phase_drift(get_scheme("SV"), 0.1, 0) == 0.0


def test_phase_drift_sv_hundred_periods():
    drift = phase_drift(get_scheme("SV"), 0.1, 100)
    assert abs(drift - 100 * phase_error(get_scheme("SV"), 0.1)) <= 1e-6
    assert math.isclose(drift, 0.2621, rel_tol=1e-3)


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
        q_ref = invariant_quadratic_form(scheme_matrix(s, 0.3, 1.0))
        got = fit.conic / np.linalg.norm(fit.conic)
        ref = q_ref / np.linalg.norm(q_ref)
        assert np.max(np.abs(got - ref)) <= 0.01 * np.max(np.abs(ref))


def test_portrait_needs_enough_points():
    with pytest.raises(ValueError, match="at least 8"):
        portrait(get_scheme("SV"), 1.0, 0.0, 0.3, 1.0, 5)


def test_portrait_rejects_hyperbolic():
    with pytest.raises(RegimeError, match="hyperbolic"):
        portrait(get_scheme("SV"), 1.0, 0.0, 2.5, 1.0, 100)
