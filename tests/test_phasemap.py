"""Tests for the 2x2 map construction, spectral data, and closed-form power."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oscmap import phasemap
from oscmap.analysis import phase_error, stability_limit
from oscmap.schemes import GKICK, Step, get_scheme, is_symmetric, registry
from oscmap.phasemap import (
    PhaseMatrix, Regime, RegimeError, invariant_quadratic_form,
    SWEEP_QUANTITIES, modified_hamiltonian, propagate_closed_form,
    scheme_matrix, scheme_series_matrix, spectral, sweep,
)

F = Fraction


def _array(m):
    """A numeric map as the 2x2 numpy array [[g, tau], [-nu, h]]."""
    return np.array([[m.g, m.tau], [-m.nu, m.h]])


# ------------------------------------------------------------ scheme matrices

def test_sv_anchor_matrix():
    m = scheme_matrix(get_scheme("SV"), 1.0, 1.0)
    assert math.isclose(m.g, 0.5, abs_tol=1e-15)
    assert math.isclose(m.tau, 1.0, abs_tol=1e-15)
    assert math.isclose(m.nu, 0.75, abs_tol=1e-15)
    assert math.isclose(m.h, 0.5, abs_tol=1e-15)


def test_sv_symbolic_entries():
    # g = 1 - x^2/2, tau = eps, nu = eps*w^2*(1 - x^2/4) at several (eps, w)
    for eps, w in [(0.3, 1.0), (0.17, 2.5), (1.2, 0.6)]:
        m = scheme_matrix(get_scheme("SV"), eps, w)
        x2 = (eps * w) ** 2
        assert math.isclose(m.g, 1 - x2 / 2, rel_tol=1e-15)
        assert math.isclose(m.tau, eps, rel_tol=1e-15)
        assert math.isclose(m.nu, eps * w**2 * (1 - x2 / 4), rel_tol=1e-15)
        assert m.h == m.g


def test_any_scheme_identity_at_zero_step():
    for s in registry():
        m = _array(scheme_matrix(s, 0.0, 1.0))
        assert np.array_equal(m, np.eye(2))


def test_sv_series_matrix_exact():
    m = scheme_series_matrix(get_scheme("SV"), 6)
    assert m.g.coeffs == [1, 0, F(-1, 2), 0, 0, 0, 0]
    assert m.tau.coeffs == [0, 1, 0, 0, 0, 0, 0]
    assert m.nu.coeffs == [0, 1, 0, F(-1, 4), 0, 0, 0]
    assert m.h == m.g


def test_fr_series_matrix_against_surd_polynomials():
    cbrt2 = 2.0 ** (1.0 / 3.0)
    cbrt4 = 2.0 ** (2.0 / 3.0)
    m = scheme_series_matrix(get_scheme("FR"), 8)
    g_ref = [1, 0, -0.5, 0, 1 / 24, 0, (6 + 5 * cbrt2 + 4 * cbrt4) / 288, 0, 0]
    tau_ref = [0, 1, 0, -1 / 6, 0, -(1 + cbrt2) / (72 * cbrt4), 0,
               (25 + 20 * cbrt2 + 16 * cbrt4) / 1728, 0]
    nu_ref = [0, 1, 0, -1 / 6, 0, -(4 + 4 * cbrt2 + 3 * cbrt4) / 144, 0, 0, 0]
    for got, ref in ((m.g.coeffs, g_ref), (m.tau.coeffs, tau_ref),
                     (m.nu.coeffs, nu_ref)):
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-12
    assert m.g.coeffs == m.h.coeffs


def test_series_matrix_det_is_one():
    for name in ("SV", "FR", "C", "LF1"):
        m = scheme_series_matrix(get_scheme(name), 8)
        det = m.det()
        assert all(abs(c) <= 1e-13 for c in det.coeffs[1:])
        assert det.coeffs[0] == 1


def test_symmetric_series_parity():
    for name in ("SV", "FR", "C", "M", "BM"):
        m = scheme_series_matrix(get_scheme(name), 9)
        assert m.g.coeffs == m.h.coeffs        # exact, including float mode
        assert not any(m.g.coeffs[1::2])       # structural zeros are exact
        assert not any(m.tau.coeffs[0::2])
        assert not any(m.nu.coeffs[0::2])


def test_lf1_series_diagonal_gap():
    m = scheme_series_matrix(get_scheme("LF1"), 4)
    gap = m.g - m.h
    assert gap.coeffs == [0, 0, 1, 0, 0]  # g - h = +x^2


def test_rational_mode_requires_exact_coefficients():
    with pytest.raises(TypeError, match="not exact"):
        scheme_series_matrix(get_scheme("FR"), 6, exact=True)


def _with_float_coefficients(s):
    return replace(s, steps=tuple(
        Step(st.kind, float(st.c), None if st.u is None else float(st.u))
        for st in s.steps
    ))


@pytest.mark.parametrize("float_first", [True, False])
@pytest.mark.parametrize("name", ["SV", "C"])
def test_series_mode_follows_coefficient_type_whichever_is_built_first(
        name, float_first, monkeypatch):
    # Float SV's steps compare and hash equal to registry SV's Fraction steps,
    # so the built maps must be told apart by coefficient mode as well.
    monkeypatch.setattr(phasemap, "_POLYNOMIALS", {})
    exact = get_scheme(name)
    approx = _with_float_coefficients(exact)
    for s in ((approx, exact) if float_first else (exact, approx)):
        scheme_series_matrix(s, 8)
    floats = scheme_series_matrix(approx, 8)
    fracs = scheme_series_matrix(exact, 8)
    assert any(isinstance(c, Fraction) for c in fracs.g.coeffs)
    for a, b in ((floats.g, fracs.g), (floats.tau, fracs.tau),
                 (floats.nu, fracs.nu), (floats.h, fracs.h)):
        assert any(isinstance(c, float) for c in a.coeffs)
        assert not any(isinstance(c, Fraction) for c in a.coeffs)
        assert not any(isinstance(c, float) for c in b.coeffs)
        assert all(abs(u - v) <= 1e-15 for u, v in zip(a.coeffs, b.coeffs))
    with pytest.raises(TypeError, match="not exact"):
        scheme_series_matrix(approx, 8, exact=True)
    assert scheme_matrix(approx, 0.3, 1.0) == scheme_matrix(exact, 0.3, 1.0)


def _binary_exact(s):
    return replace(s, steps=tuple(
        Step(st.kind, F(st.c), None if st.u is None else F(st.u))
        for st in s.steps
    ))


@pytest.mark.parametrize("s", [pytest.param(s, id=s.name) for s in registry()] + [
    pytest.param(_with_float_coefficients(get_scheme(name)), id=name + "-float")
    for name in ("SV", "C")
])
def test_float_mode_is_the_correctly_rounded_exact_map(s, monkeypatch):
    degree = sum(3 if st.kind == GKICK else 1 for st in s.active_steps())
    monkeypatch.setattr(phasemap, "_POLYNOMIALS", {})
    exact = scheme_series_matrix(_binary_exact(s), degree, exact=True)
    monkeypatch.setattr(phasemap, "_POLYNOMIALS", {})
    floats = scheme_series_matrix(s, degree, exact=False)
    for a, b in ((floats.g, exact.g), (floats.tau, exact.tau),
                 (floats.nu, exact.nu), (floats.h, exact.h)):
        assert ([float(c).hex() for c in a.coeffs]
                == [float(c).hex() for c in b.coeffs])


def test_one_build_serves_numeric_series_and_stability(monkeypatch):
    monkeypatch.setattr(phasemap, "_POLYNOMIALS", {})
    c = get_scheme("C")
    scheme_matrix(c, 0.3, 1.0)
    scheme_series_matrix(c, 8)
    stability_limit(c)
    assert len(phasemap._POLYNOMIALS) == 1


@pytest.mark.parametrize("order", [0, 1, 5, 7, 30])
def test_series_matrix_pads_or_truncates_the_exact_map(order):
    # FR's map has degree 7: lower orders truncate it, higher ones pad zeros.
    full = scheme_series_matrix(get_scheme("FR"), 40)
    m = scheme_series_matrix(get_scheme("FR"), order)
    for got, ref in ((m.g, full.g), (m.tau, full.tau), (m.nu, full.nu),
                     (m.h, full.h)):
        assert got.order == order
        assert got.coeffs == ref.coeffs[: order + 1]
    assert all(c == 0 for c in full.g.coeffs[8:] + full.tau.coeffs[8:])


# ------------------------------------------------------------------ spectral

def test_spectral_sv_at_unit_step():
    d = spectral(scheme_matrix(get_scheme("SV"), 1.0, 1.0))
    assert d.regime is Regime.ELLIPTIC
    assert math.isclose(d.theta, math.pi / 3, rel_tol=1e-14)
    assert math.isclose(d.omega_a, 1.0471975511965976, rel_tol=1e-12)
    assert d.reversible


def test_spectral_hyperbolic_beyond_limit():
    d = spectral(scheme_matrix(get_scheme("SV"), 2.5, 1.0))
    assert d.regime is Regime.HYPERBOLIC
    assert d.theta is None and d.omega_a is None
    assert "unstable" in d.detail


def test_spectral_parabolic_at_limit():
    d = spectral(scheme_matrix(get_scheme("SV"), 2.0, 1.0))
    assert d.regime is Regime.PARABOLIC


def test_spectral_small_step_limit():
    d = spectral(scheme_matrix(get_scheme("SV"), 1e-8, 1.0))
    assert math.isclose(d.omega_a, 1.0, abs_tol=1e-6)


def test_spectral_carries_omega_scaling():
    d = spectral(scheme_matrix(get_scheme("SV"), 0.25, 2.0))
    x = 0.5
    assert math.isclose(d.omega_a, math.acos(1 - x * x / 2) / 0.25, rel_tol=1e-13)
    assert math.isclose(d.k_star, d.omega_a * 2.0 * math.sqrt(1 - x * x / 4),
                        rel_tol=1e-12)


def test_spectral_rejects_nan_entries():
    nan = float("nan")
    with pytest.raises(ValueError, match="NaN"):
        spectral(PhaseMatrix(nan, 1.0, 1.0, nan, 1.0, 1.0))
    with pytest.raises(ValueError, match="NaN"):
        spectral(scheme_matrix(get_scheme("SV"), nan, 1.0))


def test_spectral_negative_step_keeps_shadow_parameters():
    # M(-eps) = M(eps)^-1 for a palindromic scheme: same ellipse, same rate
    for s in filter(is_symmetric, registry()):
        fwd = spectral(scheme_matrix(s, 0.4, 1.5))
        back = spectral(scheme_matrix(s, -0.4, 1.5))
        assert (back.omega_a, back.m_star, back.k_star) == (
            fwd.omega_a, fwd.m_star, fwd.k_star)
        assert fwd.omega_a > 0 and fwd.m_star > 0 and fwd.k_star > 0


# -------------------------------------------------------------------- sweep

def _bits(v):
    return None if v is None else float(v).hex()


def _sweep_test_grid() -> list[float]:
    """x over (0, 8], each registry stability limit +-1 ulp and SV's x = 2."""
    xs = np.linspace(0.05, 8.0, 160).tolist() + [2.0]
    for s in registry():
        limit = stability_limit(s).x_max
        xs += [math.nextafter(limit, 0.0), limit, math.nextafter(limit, 9.0)]
    return xs


@pytest.mark.parametrize("quantity", SWEEP_QUANTITIES)
@pytest.mark.parametrize("s", registry(), ids=lambda s: s.name)
def test_sweep_is_the_scalar_calls_bitwise(s, quantity):
    xs = _sweep_test_grid()
    rows = sweep(s, xs, quantity)
    assert [x for x, _, _ in rows] == xs
    for x, value, regime in rows:
        m = scheme_matrix(s, x, 1.0)
        d = spectral(m)
        elliptic = d.regime is Regime.ELLIPTIC
        expected = {
            "omega_a": d.omega_a, "m_star": d.m_star, "k_star": d.k_star,
            "phase_error": phase_error(s, x) if elliptic else None,
            "det": m.det(), "trace": m.trace(),
        }[quantity]
        assert (_bits(value), regime) == (_bits(expected), d.regime), x
    if s.name == "SV":
        assert {regime for _, _, regime in rows} == set(Regime)


def test_sweep_rejects_an_unknown_quantity():
    with pytest.raises(ValueError, match="unknown sweep quantity 'theta'"):
        sweep(get_scheme("SV"), [0.5], "theta")


# ------------------------------------------------------------- closed form

def test_propagate_zero_time_is_identity():
    m = scheme_matrix(get_scheme("SV"), 0.3, 1.0)
    assert np.allclose(propagate_closed_form(m, 0.0), np.eye(2), atol=0)


def test_propagate_single_step_reproduces_matrix():
    for name in ("SV", "FR", "LF1", "C"):
        m = scheme_matrix(get_scheme(name), 0.4, 1.0)
        assert np.allclose(propagate_closed_form(m, 0.4), _array(m),
                           rtol=0, atol=1e-14)


def test_propagate_matches_matrix_power():
    m = scheme_matrix(get_scheme("SV"), 0.3, 1.0)
    for n in (1, 10, 1000, 10000):
        brute = np.linalg.matrix_power(_array(m), n)
        closed = np.array(propagate_closed_form(m, n * 0.3))
        assert np.max(np.abs(brute - closed)) <= 1e-9


def test_propagate_matches_matrix_power_nonreversible():
    m = scheme_matrix(get_scheme("LF1"), 0.5, 1.0)
    for n in (1, 10, 1000):
        brute = np.linalg.matrix_power(_array(m), n)
        closed = np.array(propagate_closed_form(m, n * 0.5))
        assert np.max(np.abs(brute - closed)) <= 1e-10


def test_propagate_requires_elliptic():
    m = scheme_matrix(get_scheme("SV"), 2.5, 1.0)
    with pytest.raises(RegimeError, match="hyperbolic"):
        propagate_closed_form(m, 1.0)


def test_sigma_amplitude_first_order():
    # non-reversible map: translation amplitude (g-h)/(2 xi) is nonzero
    x = 0.5
    m = scheme_matrix(get_scheme("LF1"), x, 1.0)
    d = spectral(m)
    amp = (m.g - m.h) / (2 * d.xi)
    assert math.isclose(abs(m.g - m.h), x * x, rel_tol=1e-13)
    assert abs(amp) > 0.2
    # reversible scheme: exactly zero
    msv = scheme_matrix(get_scheme("SV"), x, 1.0)
    assert msv.g - msv.h == 0.0


# ------------------------------------------------------ modified Hamiltonian

def test_modified_hamiltonian_continuum_limit():
    d = spectral(scheme_matrix(get_scheme("SV"), 1e-4, 1.0))
    h_a = modified_hamiltonian(d, 1.0, 0.0)
    assert math.isclose(h_a, 0.5, abs_tol=1e-8)  # H = w^2 q^2 / 2 = 0.5


def test_modified_hamiltonian_sv_closed_form():
    x = 0.5
    d = spectral(scheme_matrix(get_scheme("SV"), x, 1.0))
    k_star = d.omega_a * math.sqrt(1 - x * x / 4)
    assert math.isclose(modified_hamiltonian(d, 1.0, 0.0), k_star / 2,
                        rel_tol=1e-13)


def test_modified_hamiltonian_rejects_nonreversible():
    d = spectral(scheme_matrix(get_scheme("LF1"), 0.3, 1.0))
    with pytest.raises(ValueError, match="time-reversible"):
        modified_hamiltonian(d, 1.0, 0.0)


# ------------------------------------------------------------ invariant form

def test_invariant_form_reversible_is_diagonal():
    q = invariant_quadratic_form(scheme_matrix(get_scheme("SV"), 0.3, 1.0))
    assert q[0][1] == 0.0 and q[1][0] == 0.0


def test_invariant_form_conserved_under_map():
    for name in ("SV", "LF1", "FR", "C", "M", "BM"):
        m = scheme_matrix(get_scheme(name), 0.2, 1.0)
        q = np.array(invariant_quadratic_form(m))
        a = _array(m)
        assert np.max(np.abs(a.T @ q @ a - q)) <= 1e-12


def test_invariant_form_first_order_cross_term():
    # cross term magnitude relative to the p^2 entry is eps*w^2/2
    x = 0.2
    m = scheme_matrix(get_scheme("LF1"), x, 1.0)
    (_, cross), (_, p2) = invariant_quadratic_form(m)
    assert math.isclose(abs(cross) / p2, x / 2, rel_tol=1e-12)


def test_invariant_form_tilt_approaches_45_degrees():
    for x in (0.05, 0.02):
        q = invariant_quadratic_form(scheme_matrix(get_scheme("LF1"), x, 1.0))
        evals, evecs = np.linalg.eigh(np.array(q))
        major = evecs[:, 0]  # smaller eigenvalue = longer axis
        tilt = math.degrees(math.atan2(major[1], major[0]))
        if tilt > 90:
            tilt -= 180
        elif tilt <= -90:
            tilt += 180
        assert abs(abs(tilt) - 45.0) <= 0.5


# --------------------------------------------------------------- properties

def test_det_one_across_sweep():
    for s in registry():
        for x in np.linspace(0.01, 1.99, 50):
            m = scheme_matrix(s, float(x), 1.0)
            assert abs(m.det() - 1.0) <= 1e-12


def test_time_reversibility_of_symmetric_schemes():
    for s in registry():
        from oscmap.schemes import is_symmetric
        if not is_symmetric(s):
            continue
        for x in (0.1, 0.7, 1.4):
            fwd = scheme_matrix(s, x, 1.0)
            back = scheme_matrix(s, -x, 1.0)
            prod = _array(back @ fwd)
            assert np.max(np.abs(prod - np.eye(2))) <= 1e-12
