"""Tests for the 2x2 map construction, spectral data, and closed-form power."""

import functools
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oscmap import phasemap
from oscmap.analysis import stability_limit
from oscmap.series import Series
from oscmap.schemes import GKICK, Scheme, Step, get_scheme, is_symmetric, registry
from oscmap.phasemap import (
    PhaseMatrix, Regime, RegimeError, SWEEP_QUANTITIES, propagate_closed_form,
    scheme_matrix, scheme_series_matrix, spectral, sweep,
)
from oscmap.sim import iterate

from mpmath_oracle import mp_half_trace

F = Fraction


def _array(m):
    """A numeric map as the 2x2 numpy array [[g, tau], [-nu, h]]."""
    return np.array([[m.g, m.tau], [-m.nu, m.h]])


def _det(m):
    return m.g * m.h + m.tau * m.nu


def _invariant_form(m):
    """Rows of Q = [[nu, w], [w, tau]], w = (g - h)/2, with M^T Q M = Q.

    The quadratic form (q, p) Q (q, p)^T is conserved by any map with
    det M = 1, reversible or not; for a non-reversible map the off-diagonal
    entry tilts the invariant ellipse.
    """
    w = (m.g - m.h) / 2.0
    return ((m.nu, w), (w, m.tau))


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
        det = _det(m)
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
    return Scheme(**{**s._asdict(), "steps": tuple(
        Step(st.kind, float(st.c), None if st.u is None else float(st.u))
        for st in s.steps
    )})


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
    return Scheme(**{**s._asdict(), "steps": tuple(
        Step(st.kind, F(st.c), None if st.u is None else F(st.u))
        for st in s.steps
    )})


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

#: Twice the largest relative error of sweep's omega_a against 40-digit
#: mpmath on x = 0.005k, k = 1..2000 (measured: SV, LF1 and LF1T 2.7e-16,
#: FR 2.3e-15, C 1.2e-13, M 5.0e-12, BM 6.3e-11). Near a stability limit
#: theta is near 0 or pi and the error grows; this grid comes within 0.005
#: of every limit.
OMEGA_REL_TOL = {"SV": 5.4e-16, "LF1": 5.4e-16, "LF1T": 5.4e-16, "FR": 4.6e-15,
                 "C": 2.4e-13, "M": 1.01e-11, "BM": 1.27e-10}
#: Within this of a regime boundary, a float evaluation may read either side.
BOUNDARY = 1e-12


def _bits(v):
    return None if v is None else float(v).hex()


def _sweep_test_grid() -> list[float]:
    """x = 0.005k for k = 1..2000, SV's parabolic point x = 2, and each
    registry stability limit, 1 ulp either side of it and 1e-9 past it,
    where |T| - 1 is a few times 1e-9: hyperbolic beyond doubt."""
    xs = [0.005 * k for k in range(1, 2001)] + [2.0]
    for s in registry():
        limit = stability_limit(s).x_max
        xs += [math.nextafter(limit, 0.0), limit, math.nextafter(limit, 9.0),
               limit * (1 + 1e-9)]
    return xs


def _regimes_near(half_trace: Fraction, disc: Fraction) -> set[Regime]:
    """Regimes a float evaluation may read from the exact T and scaled d.

    The map is hyperbolic where |T| - 1 > PARABOLIC_TOL/2, else elliptic
    where d > 0, else parabolic; within BOUNDARY of a boundary either side
    is allowed. At FR's float x_max the exact d is 4.7e-18, for example.
    """
    over = abs(half_trace) - 1 - Fraction(phasemap.PARABOLIC_TOL) / 2
    allowed = set()
    if over > -BOUNDARY:
        allowed.add(Regime.HYPERBOLIC)
    if over < BOUNDARY:
        if disc > -BOUNDARY:
            allowed.add(Regime.ELLIPTIC)
        if disc < BOUNDARY:
            allowed.add(Regime.PARABOLIC)
    return allowed


def _abs_sum(p: Series, y: float) -> float:
    """sum |c_j| y^j over the coefficients of p: the scale of the round-off
    in a float Horner sum of p at y."""
    return sum(abs(float(c)) * y**j for j, c in enumerate(p.coeffs))


@functools.lru_cache(maxsize=None)
def _sweep_reference(name: str) -> list[tuple]:
    """(allowed regimes, exact T, trace tolerance, omega_a, sqrt(tau/nu),
    relative tolerance of that root) at each grid point.

    T = (g + h)/2 and d = (tau/x)(nu/x) - (w/x)^2, w = (g - h)/2, come from
    the exact build at Fraction(x). Where the map is elliptic by a margin,
    omega_a is acos of the 40-digit mpmath shear product over x and the root
    is sqrt(tau/nu) of the exact build; elsewhere both are None. The
    tolerances are 16 units of round-off of each Horner sum.
    """
    s = get_scheme(name)
    polys = phasemap._polynomials(s, True)
    # every entry is even in x: evaluate in y = x^2 at half the length
    g, tau_x, nu_x, h = (Series(p.coeffs[::2]) for p in polys)
    half = Series([(a + b) / 2 for a, b in zip(g.coeffs, h.coeffs)])
    ulp = 2.0 ** -53
    refs = []
    for x in _sweep_test_grid():
        yf, y = Fraction(x) ** 2, x * x
        gv, hv, tv, nv = g(yf), h(yf), tau_x(yf), nu_x(yf)
        half_trace = (gv + hv) / 2
        allowed = _regimes_near(half_trace, tv * nv - (gv - hv) ** 2 / (4 * yf))
        omega_a = root = root_tol = None
        if allowed == {Regime.ELLIPTIC}:
            with mpmath.workdps(40):
                xm = mpmath.mpf(x)
                omega_a = float(mpmath.acos(mp_half_trace(s, xm)) / xm)
            root = math.sqrt(tv / nv)
            root_tol = 16 * ulp * (_abs_sum(tau_x, y) / abs(float(tv))
                                   + _abs_sum(nu_x, y) / abs(float(nv)))
        refs.append((allowed, half_trace, 32 * ulp * _abs_sum(half, y),
                     omega_a, root, root_tol))
    return refs


@functools.lru_cache(maxsize=None)
def _even_sums(name: str) -> tuple[list[float], ...]:
    """Coefficients in y = x^2 of T = (g + h)/2, tau/x, nu/x and W = w/x^2,
    each rounded once by float() from the exact build, trailing zeros
    dropped: the sums the sweep kernel writes out."""
    g, tau_x, nu_x, h = phasemap._polynomials(get_scheme(name), True)
    even_g, even_h = g.coeffs[::2], h.coeffs[::2]
    sums = ([(a + b) / 2 for a, b in zip(even_g, even_h)], tau_x.coeffs[::2],
            nu_x.coeffs[::2], [(a - b) / 2 for a, b in zip(even_g[1:], even_h[1:])])
    out = []
    for coeffs in sums:
        cs = [float(c) for c in coeffs]
        while cs and cs[-1] == 0.0:
            cs.pop()
        out.append(cs)
    return tuple(out)


def _horner(cs: list[float], y: float) -> float:
    acc = 0.0
    for c in reversed(cs):
        acc = acc * y + c
    return acc


def _scalar_row(s, x: float, quantity: str) -> tuple:
    """One sweep row from scalar calls at a single point.

    Where the even sums are finite and x != 0 it is the kernel's arithmetic
    written out for one point; elsewhere `spectral(scheme_matrix(s, x, 1.0))`.
    """
    y = x * x
    T, tx, nx, W = (_horner(cs, y) for cs in _even_sums(s.name))
    if not (x and math.isfinite(T + tx + nx + W)):
        m = scheme_matrix(s, x, 1.0)
        d = spectral(m)
        omega_a = d.omega_a
        value = {
            "omega_a": omega_a, "m_star": d.m_star, "k_star": d.k_star,
            "phase_error": None if omega_a is None else 2.0 * math.pi * (omega_a - 1.0),
            "det": _det(m), "trace": m.g + m.h,
        }[quantity]
        return x, value, d.regime
    wx = x * W
    if quantity == "trace":
        value = 2.0 * T
    elif quantity == "det":
        value = (T + x * wx) * (T - x * wx) + y * tx * nx
    else:
        value = None
    if abs(T) - 1.0 > phasemap.PARABOLIC_TOL / 2:
        return x, value, Regime.HYPERBOLIC
    d = tx * nx - wx * wx
    if not d > 0.0:
        return x, value, Regime.PARABOLIC
    omega_a = math.atan2(abs(x) * math.sqrt(d), T) / abs(x)
    root = math.sqrt(tx / nx)
    value = {
        "omega_a": omega_a, "phase_error": 2.0 * math.pi * (omega_a - 1.0),
        "m_star": 1.0 / (omega_a * root), "k_star": omega_a / root,
    }.get(quantity, value)
    return x, value, Regime.ELLIPTIC


@pytest.mark.parametrize("quantity", SWEEP_QUANTITIES)
@pytest.mark.parametrize("s", registry(), ids=lambda s: s.name)
def test_sweep_is_the_scalar_calls_bitwise(s, quantity):
    # the generated loop is the per-point arithmetic of its docstring, and
    # the scalar route of spectral at x = 0 and where the sums overflow
    xs = (_sweep_test_grid() + [0.0, -0.75, 1e-170, 1e-300]
          + [10.0 ** k for k in range(1, 309, 7)] + [sys.float_info.max])
    rows = sweep(s, xs, quantity)
    assert [x for x, _, _ in rows] == xs
    for x, value, regime in rows:
        _, expected, expected_regime = _scalar_row(s, x, quantity)
        assert (_bits(value), regime) == (_bits(expected), expected_regime), x


@pytest.mark.parametrize("quantity", SWEEP_QUANTITIES)
@pytest.mark.parametrize("s", registry(), ids=lambda s: s.name)
def test_sweep_matches_the_exact_map(s, quantity):
    xs = _sweep_test_grid()
    rows = sweep(s, xs, quantity)
    assert [x for x, _, _ in rows] == xs
    tol = OMEGA_REL_TOL[s.name]
    for (x, value, regime), (allowed, half_trace, trace_tol, omega_a, root,
                             root_tol) in zip(rows, _sweep_reference(s.name)):
        assert regime in allowed, x
        if quantity == "trace":
            assert abs(value - 2 * half_trace) <= trace_tol, x
            continue
        if regime is not Regime.ELLIPTIC and quantity != "det":
            assert value is None, x
        if omega_a is None:
            continue
        if quantity == "det":
            assert abs(value - 1.0) <= 1e-12, x
        elif quantity == "phase_error":
            two_pi = 2.0 * math.pi
            assert abs(value - two_pi * (omega_a - 1.0)) <= two_pi * omega_a * tol, x
        else:
            expected = {"omega_a": omega_a, "m_star": 1.0 / (omega_a * root),
                        "k_star": omega_a / root}[quantity]
            rel_tol = tol if quantity == "omega_a" else tol + root_tol
            assert math.isclose(value, expected, rel_tol=rel_tol), x
    if s.name == "SV":
        assert {regime for _, _, regime in rows} == set(Regime)


@pytest.mark.parametrize("x", [1e-170, 1e-300])
@pytest.mark.parametrize("name", ["SV", "BM"])
def test_sweep_stays_elliptic_where_the_discriminant_would_underflow(name, x):
    # nu*tau - w^2 ~ x^2 underflows below x ~ 1e-162; sweep scales it by x^2
    # and spectral by powers of two, and both keep the map elliptic
    s = get_scheme(name)
    assert sweep(s, [x], "omega_a") == [(x, 1.0, Regime.ELLIPTIC)]
    assert sweep(s, [x], "det") == [(x, 1.0, Regime.ELLIPTIC)]
    d = spectral(scheme_matrix(s, x, 1.0))
    assert (d.regime, d.omega_a, d.m_star, d.k_star) == (
        Regime.ELLIPTIC, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("s", registry(), ids=lambda s: s.name)
def test_sweep_at_zero_and_negative_steps(s):
    # x = 0 is the identity map, parabolic
    for quantity in SWEEP_QUANTITIES:
        [(_, value, regime)] = sweep(s, [0.0], quantity)
        assert regime is Regime.PARABOLIC
        assert value == {"det": 1.0, "trace": 2.0}.get(quantity)
    # omega_a is even in x: M(-eps) has the inverse rotation at the same rate
    xs = [0.01 * k for k in range(1, 300)]
    assert ([row[1:] for row in sweep(s, xs, "omega_a")]
            == [row[1:] for row in sweep(s, [-x for x in xs], "omega_a")])
    # det is computed before the regime test, and must raise all the same
    for quantity in SWEEP_QUANTITIES:
        with pytest.raises(ValueError, match="NaN"):
            sweep(s, [0.5, math.nan], quantity)


def test_sweep_takes_no_scalar_route(monkeypatch):
    # the generated kernel alone handles x = 0, -0.0, negative and tiny steps
    # and sums that overflow: the float build, scheme_matrix and spectral
    # are never called
    polynomials = phasemap._polynomials

    def exact_only(s, exact):
        assert exact, "sweep evaluated the float build"
        return polynomials(s, exact)

    def unreachable(*args):
        raise AssertionError("sweep called the scalar route")

    monkeypatch.setattr(phasemap, "_polynomials", exact_only)
    monkeypatch.setattr(phasemap, "scheme_matrix", unreachable)
    monkeypatch.setattr(phasemap, "spectral", unreachable)
    monkeypatch.setattr(phasemap, "_KERNELS", {})
    xs = ([0.0, -0.0, -0.75, 1e-300] + [10.0 ** k for k in range(1, 309)]
          + [sys.float_info.max])
    for s in registry():
        for quantity in SWEEP_QUANTITIES:
            rows = sweep(s, xs, quantity)
            assert [x for x, _, _ in rows] == xs
            for _, value, regime in rows[:2]:
                assert regime is Regime.PARABOLIC
                assert value == {"det": 1.0, "trace": 2.0}.get(quantity)
            assert rows[-1][2] is Regime.HYPERBOLIC


@pytest.mark.parametrize("quantity", SWEEP_QUANTITIES)
@pytest.mark.parametrize("s", registry(), ids=lambda s: s.name)
def test_sweep_past_float_range_is_hyperbolic(s, quantity):
    # the Horner sums overflow to inf or NaN from some power of ten on
    xs = [10.0 ** k for k in range(1, 309)] + [sys.float_info.max]
    rows = sweep(s, xs, quantity)
    assert {regime for _, _, regime in rows} == {Regime.HYPERBOLIC}
    if quantity not in ("det", "trace"):
        assert {value for _, value, _ in rows} == {None}


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

def _h_a(s, x: float, q: float, p: float):
    """The shadow energy H_A that `iterate` reports at the start (q, p)."""
    energies = iterate(s, q, p, x, 1.0, 1).modified_energy
    return None if energies is None else energies[0]


def test_modified_hamiltonian_continuum_limit():
    h_a = _h_a(get_scheme("SV"), 1e-4, 1.0, 0.0)
    assert math.isclose(h_a, 0.5, abs_tol=1e-8)  # H = w^2 q^2 / 2 = 0.5


def test_modified_hamiltonian_sv_closed_form():
    x = 0.5
    d = spectral(scheme_matrix(get_scheme("SV"), x, 1.0))
    k_star = d.omega_a * math.sqrt(1 - x * x / 4)
    assert math.isclose(_h_a(get_scheme("SV"), x, 1.0, 0.0), k_star / 2,
                        rel_tol=1e-13)


def test_modified_hamiltonian_rejects_nonreversible():
    # the quadratic form p^2/(2 m*) + k* q^2/2 holds for reversible maps only
    assert _h_a(get_scheme("LF1"), 0.3, 1.0, 0.0) is None


# ------------------------------------------------------------ invariant form

def test_invariant_form_reversible_is_diagonal():
    q = _invariant_form(scheme_matrix(get_scheme("SV"), 0.3, 1.0))
    assert q[0][1] == 0.0 and q[1][0] == 0.0


def test_invariant_form_conserved_under_map():
    for name in ("SV", "LF1", "FR", "C", "M", "BM"):
        m = scheme_matrix(get_scheme(name), 0.2, 1.0)
        q = np.array(_invariant_form(m))
        a = _array(m)
        assert np.max(np.abs(a.T @ q @ a - q)) <= 1e-12


def test_invariant_form_first_order_cross_term():
    # cross term magnitude relative to the p^2 entry is eps*w^2/2
    x = 0.2
    m = scheme_matrix(get_scheme("LF1"), x, 1.0)
    (_, cross), (_, p2) = _invariant_form(m)
    assert math.isclose(abs(cross) / p2, x / 2, rel_tol=1e-12)


def test_invariant_form_tilt_approaches_45_degrees():
    for x in (0.05, 0.02):
        q = _invariant_form(scheme_matrix(get_scheme("LF1"), x, 1.0))
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
            assert abs(_det(m) - 1.0) <= 1e-12


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
