"""Tests for the 2x2 map construction, spectral data, and closed-form power."""

import functools
import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oscmap import closedform, phasemap, sweepkernel
from oscmap.analysis import _frequency_parts, omega_a_series, stability_limit
from oscmap.series import Series
from oscmap.schemes import (DRIFT, GKICK, Scheme, Step, get_scheme, is_symmetric,
                            registry)
from oscmap.phasemap import (
    PhaseMatrix, Regime, RegimeError, SWEEP_QUANTITIES, propagate_closed_form,
    scheme_matrix, scheme_series_matrix, spectral, sweep,
)

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


def _fraction_map(s, x):
    """Rows [[g, tau], [-nu, h]] at a rational x, omega = 1, by 2x2 products."""
    m = [[F(1), F(0)], [F(0), F(1)]]
    for st in s.active_steps():
        c = F(st.c)
        if st.kind == DRIFT:
            shear = [[F(1), c * x], [F(0), F(1)]]
        else:
            mu = c * x + (F(st.u) * x**3 if st.kind == GKICK else 0)
            shear = [[F(1), F(0)], [-mu, F(1)]]
        m = [[sum(shear[i][k] * m[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
    return m


def _yoshida_six():
    """The triple jump of FR: w1 = 1/(2 - 2^(1/5)), w0 = 1 - 2 w1, order 6."""
    fr = get_scheme("FR")
    w1 = 1 / (2 - 2 ** (1 / 5))
    return Scheme("Y6", [Step(st.kind, w * st.c) for w in (w1, 1 - 2 * w1, w1)
                         for st in fr.steps], 6, 9)


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
    # g, tau/x, nu/x and h of the exact build
    g, tau_x, nu_x, h = phasemap._polynomials(get_scheme("SV"))
    assert g.coeffs == [1, 0, F(-1, 2), 0]
    assert tau_x.coeffs == [1, 0, 0]
    assert nu_x.coeffs == [1, 0, F(-1, 4)]
    assert h == g


def test_fr_series_matrix_against_surd_polynomials():
    cbrt2 = 2.0 ** (1.0 / 3.0)
    cbrt4 = 2.0 ** (2.0 / 3.0)
    # the exact build of FR's float steps, its coefficients taken as floats
    g, tau_x, nu_x, h = ([float(c) for c in p.coeffs]
                         for p in phasemap._polynomials(get_scheme("FR")))
    g_ref = [1, 0, -0.5, 0, 1 / 24, 0, (6 + 5 * cbrt2 + 4 * cbrt4) / 288, 0]
    tau_x_ref = [1, 0, -1 / 6, 0, -(1 + cbrt2) / (72 * cbrt4), 0,
                 (25 + 20 * cbrt2 + 16 * cbrt4) / 1728]
    nu_x_ref = [1, 0, -1 / 6, 0, -(4 + 4 * cbrt2 + 3 * cbrt4) / 144, 0, 0]
    for got, ref in ((g, g_ref), (tau_x, tau_x_ref), (nu_x, nu_x_ref)):
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-12
    assert g == h


def test_series_matrix_det_is_one():
    for name in ("SV", "FR", "C", "LF1"):
        g, tau_x, nu_x, h = phasemap._polynomials(get_scheme(name))
        # det = g*h + x^2 (tau/x)(nu/x), truncated at the map's degree: the
        # build is exact, so every shear's det = 1 leaves exactly 1
        det = g * h + (tau_x * nu_x).times_x().times_x().truncated(g.order)
        assert det.coeffs == [1] + [0] * g.order


def test_symmetric_series_parity():
    for name in ("SV", "FR", "C", "M", "BM"):
        polys = phasemap._polynomials(get_scheme(name))
        g, tau_x, nu_x, h = (p.coeffs for p in polys)
        assert g == h
        assert not any(g[1::2])            # structural zeros are exact
        assert not any(tau_x[1::2])
        assert not any(nu_x[1::2])


@pytest.mark.parametrize("s", [*filter(is_symmetric, registry()),
                               _yoshida_six()], ids=lambda s: s.name)
def test_reversible_scheme_matrix_has_g_equal_h_bitwise(s):
    # g = h in the exact map, and each is rounded once from that one value
    for eps, omega in [(0.3, 1.0), (-1.7, 0.9), (2.0**-600, 2.0**600),
                       (1e-170, 3.0), (1e200, 1.0), (3.3, 1e-300)]:
        m = scheme_matrix(s, eps, omega)
        assert m.g.hex() == m.h.hex()


def test_lf1_series_diagonal_gap():
    g, _, _, h = phasemap._polynomials(get_scheme("LF1"))
    assert (g - h).coeffs == [0, 0, 1]  # g - h = +x^2


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
        _frequency_parts(s, 8)
    floats = _frequency_parts(approx, 8)
    fracs = _frequency_parts(exact, 8)
    assert any(isinstance(c, Fraction) for c in fracs[1].coeffs)
    for a, b in zip(floats, fracs):
        assert any(isinstance(c, float) for c in a.coeffs)
        assert not any(isinstance(c, Fraction) for c in a.coeffs)
        assert not any(isinstance(c, float) for c in b.coeffs)
        assert all(abs(u - v) <= 1e-15 for u, v in zip(a.coeffs, b.coeffs))
    # float C and Fraction C are two exact maps, each rounded from its own
    for t in (approx, exact):
        assert scheme_matrix(t, 0.3, 1.0)[:4] == _rounded_map(t, 0.3, 1.0)


def _round(v: Fraction) -> float:
    """v correctly rounded to float, or to +-inf beyond the float range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _rounded_map(s, eps, omega):
    """(g, tau, nu, h) at (eps, omega) from the 2x2 Fraction shear product,
    each entry rounded once."""
    w = F(omega)
    (a, b), (c, d) = _fraction_map(s, F(eps) * w)
    # b = x*(tau/x) and c = -x*(nu/x), while tau = eps*(tau/x) = b/omega and
    # nu = eps*omega^2*(nu/x) = -c*omega
    return _round(a), _round(b / w), _round(-c * w), _round(d)


def _random_points(seed, n):
    """n pairs (eps, omega): |x| in [1e-3, 3.3], omega within 2^+-41."""
    rng = random.Random(seed)
    return [(rng.choice((-1, 1)) * rng.uniform(1e-3, 3.3) / omega, omega)
            for omega in (2.0 ** rng.randint(-40, 40) * rng.uniform(0.5, 2)
                          for _ in range(n))]


@pytest.mark.parametrize("s", [
    *(pytest.param(s, id=s.name) for s in registry()),
    pytest.param(_yoshida_six(), id="Y6"),
    *(pytest.param(_with_float_coefficients(get_scheme(name)), id=name + "-float")
      for name in ("SV", "C")),
])
def test_float_mode_is_the_correctly_rounded_exact_map(s):
    points = [*_random_points(20260, 12), (2.0**-600, 2.0**600),
              (2.0**600, 2.0**-600), (1e200, 1.0), (-1e200, 1.0), (0.0, 1.0)]
    for eps, omega in points:
        got = scheme_matrix(s, eps, omega)
        ref = _rounded_map(s, eps, omega)
        assert [v.hex() for v in got[:4]] == [v.hex() for v in ref], (eps, omega)
        assert not any(map(math.isnan, got[:4]))
    if s.name == "LF1":
        m = scheme_matrix(s, 1e200, 1.0)
        assert m.g == 1.0 and m.h == -math.inf


def test_one_build_serves_numeric_series_and_stability(monkeypatch):
    monkeypatch.setattr(phasemap, "_MAPS", {})
    monkeypatch.setattr(phasemap, "_POLYNOMIALS", {})
    c = get_scheme("C")
    scheme_matrix(c, 0.3, 1.0)
    omega_a_series(c, 8)
    stability_limit(c)
    assert len(phasemap._MAPS) == len(phasemap._POLYNOMIALS) == 1
    # the Series view holds the very values of the integer build
    *lists, d = phasemap._map(c)
    for p, ref in zip(phasemap._polynomials(c), lists):
        assert p.coeffs == [F(n, d) for n in ref]


def _series_route_matrix(s, eps, omega):
    """(g, tau, nu, h) as the Series build gave them: each Series of the
    map evaluated exactly at Fraction(eps)*Fraction(omega), rounded once."""
    e, w = F(eps), F(omega)
    x = e * w
    g, tau_x, nu_x, h = phasemap._polynomials(s)
    return tuple(_round(v) for v in (g(x), e * tau_x(x), x * w * nu_x(x), h(x)))


#: Timesteps and frequencies across the float range: powers 2^+-600,
#: subnormals, negatives, zero and values whose entries overflow.
_EDGE_FLOATS = (2.0**600, 2.0**-600, -(2.0**600), 5e-324, -2.5e-310, 1e-170,
                -0.75, 1e200, -1e300, sys.float_info.max, 0.0)
_ANY_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(_EDGE_FLOATS))


def _assert_integer_route_is_the_series_route(s, eps, omega):
    got = scheme_matrix(s, eps, omega)
    ref = _series_route_matrix(s, eps, omega)
    assert [v.hex() for v in got[:4]] == [v.hex() for v in ref], (eps, omega)


@pytest.mark.parametrize("s", [*registry(), _yoshida_six()], ids=lambda s: s.name)
def test_integer_scheme_matrix_is_the_series_route_bitwise(s):
    for eps in _EDGE_FLOATS:
        for omega in (*_EDGE_FLOATS, 1.0, 2.5):
            _assert_integer_route_is_the_series_route(s, eps, omega)


@st.composite
def _drawn_schemes(draw):
    """Up to five random drift, kick and gkick steps, float or Fraction,
    closed by a drift and a kick that make each sum 1."""
    coeff = st.one_of(st.floats(-2, 2), st.fractions(-2, 2, max_denominator=99))
    steps = [Step(kind, draw(coeff), draw(coeff) if kind == GKICK else None)
             for kind in draw(st.lists(st.sampled_from((DRIFT, "kick", GKICK)),
                                       max_size=5))]
    drifts = sum(step.c for step in steps if step.kind == DRIFT)
    kicks = sum(step.c for step in steps if step.kind != DRIFT)
    steps += [Step(DRIFT, 1 - drifts), Step(GKICK, 1 - kicks, draw(coeff))]
    return Scheme("drawn", steps, 1, 1)


@settings(max_examples=150, deadline=None)
@given(s=_drawn_schemes(), eps=_ANY_FLOAT, omega=_ANY_FLOAT)
@example(s=get_scheme("LF1"), eps=1e200, omega=1.0)
@example(s=get_scheme("C"), eps=2.0**-600, omega=2.0**600)
@example(s=get_scheme("BM"), eps=5e-324, omega=0.0)
def test_integer_scheme_matrix_matches_the_series_route_on_drawn_schemes(
        s, eps, omega):
    _assert_integer_route_is_the_series_route(s, eps, omega)
    if omega:  # and the 2x2 Fraction shear product, which builds it apart
        got = scheme_matrix(s, eps, omega)
        ref = _rounded_map(s, eps, omega)
        assert [v.hex() for v in got[:4]] == [v.hex() for v in ref]


@pytest.mark.parametrize("s", [*registry(), _yoshida_six()], ids=lambda s: s.name)
def test_exact_polynomials_equal_the_fraction_shear_product(s):
    g, tau_x, nu_x, h = phasemap._polynomials(s)
    for x in (F(1, 3), F(7, 5)):
        (a, b), (c, d) = _fraction_map(s, x)
        assert (g(x), x * tau_x(x), -x * nu_x(x), h(x)) == (a, b, c, d)


@pytest.mark.parametrize("order", [0, 1, 5, 7, 30])
def test_series_matrix_pads_or_truncates_the_exact_map(order):
    # FR's map has degree 7: lower orders truncate it, higher ones pad zeros.
    g, tau_x, nu_x, h = phasemap._polynomials(get_scheme("FR"))
    full = [p.coeffs + [0] * 40
            for p in (g, tau_x.times_x(), nu_x.times_x(), h)]
    m = scheme_series_matrix(get_scheme("FR"), order)
    for got, ref in zip(m, full):
        assert got.order == order
        assert got.coeffs == ref[: order + 1]


# ------------------------------------------------------------------ spectral

@pytest.mark.parametrize("member, text", [
    (Regime.ELLIPTIC, "elliptic"), (Regime.PARABOLIC, "parabolic"),
    (Regime.HYPERBOLIC, "hyperbolic")])
def test_regime_prints_as_its_value(member, text):
    # format() of a str-mixin Enum differs from 3.10 to 3.12 unless __str__
    # is the value's; the CSV writer's %s fields rely on it
    assert str(member) == text
    assert format(member) == text
    assert f"{member}" == text
    assert "%s" % member == text


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


def test_spectral_hyperbolic_where_the_diagonal_overflows():
    # D(1/3) K(1/2) D(2/3) K(1/2) at x = 1e200 has g = -inf and h = inf, so
    # g + h is NaN; the sweep kernel reads T from the exact map: hyperbolic
    s = Scheme("DKDK", [Step("drift", F(1, 3)), Step("kick", F(1, 2)),
                        Step("drift", F(2, 3)), Step("kick", F(1, 2))], 1, 2)
    m = scheme_matrix(s, 1e200, 1.0)
    assert (m.g, m.h) == (-math.inf, math.inf)
    d = spectral(m)
    assert d.regime is Regime.HYPERBOLIC is sweep(s, [1e200], "trace")[0][2]
    assert d.detail.startswith("the diagonal overflowed to -inf and inf;")
    with pytest.raises(RegimeError, match="^hyperbolic map: the diagonal"):
        propagate_closed_form(m, 1e200)


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


@pytest.mark.parametrize("eps, omega", [(math.nan, 1.0), (0.5, math.nan),
                                        (math.inf, 1.0), (0.5, -math.inf)])
def test_scheme_matrix_rejects_non_finite_eps_and_omega(eps, omega):
    with pytest.raises(ValueError, match="NaN|infinite"):
        scheme_matrix(get_scheme("SV"), eps, omega)


def test_spectral_negative_step_keeps_shadow_parameters():
    # M(-eps) = M(eps)^-1 for a palindromic scheme: same ellipse, same rate
    for s in filter(is_symmetric, registry()):
        fwd = spectral(scheme_matrix(s, 0.4, 1.5))
        back = spectral(scheme_matrix(s, -0.4, 1.5))
        assert (back.omega_a, back.m_star, back.k_star) == (
            fwd.omega_a, fwd.m_star, fwd.k_star)
        assert fwd.omega_a > 0 and fwd.m_star > 0 and fwd.k_star > 0


@pytest.mark.parametrize("name", ["SV", "FR", "LF1"])
@pytest.mark.parametrize("k", [0, 300, -300, 600, -600])
def test_spectral_shadow_parameters_at_extreme_eps_and_omega(name, k):
    # x = eps*omega = 1 throughout, while tau/nu = 4^-k*tau/nu(1, 1) leaves
    # the float range from |k| = 512 on: m* depends on x alone, and k* is
    # omega^2 times its unit value, inf or 0.0 where that product is
    s = get_scheme(name)
    unit = spectral(scheme_matrix(s, 1.0, 1.0))
    d = spectral(scheme_matrix(s, 2.0**-k, 2.0**k))
    assert d.regime is Regime.ELLIPTIC
    assert d.m_star == unit.m_star
    assert d.k_star == unit.k_star * 2.0**k * 2.0**k


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
    polys = phasemap._polynomials(s)
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
    g, tau_x, nu_x, h = phasemap._polynomials(get_scheme(name))
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
    # and sums that overflow from the exact build: scheme_matrix, spectral
    # and the Series view are never called
    build, built = phasemap._map, []

    def exact_only(s):
        lists = build(s)
        assert all(type(c) is int for p in lists[:4] for c in p) \
            and type(lists[4]) is int, "sweep read a rounded map"
        built.append(s)
        return lists

    def unreachable(*args):
        raise AssertionError("sweep called the scalar route")

    monkeypatch.setattr(phasemap, "_map", exact_only)
    for name in ("scheme_matrix", "spectral", "_polynomials"):
        monkeypatch.setattr(phasemap, name, unreachable)
    monkeypatch.setattr(sweepkernel, "_KERNELS", {})
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
    # every kernel was generated from the exact integer map
    assert built == [s for s in registry() for _ in SWEEP_QUANTITIES]


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


@pytest.mark.parametrize("eps", [5e-324, -5e-324])
def test_propagate_turns_at_omega_a_where_theta_is_subnormal(eps):
    # the float map is [[1, eps], [-6 eps, 1]]: xi = sqrt(6)|eps| and theta
    # round to 2|eps|, so the angle is read from omega_a = sqrt(6); either
    # sign of eps gives the flow of H = p^2/2 + 6 q^2/2 over t
    m = scheme_matrix(get_scheme("SV"), eps, 2.5)
    assert (m.g, m.tau, m.nu, m.h) == (1.0, eps, 6 * eps, 1.0)
    assert math.isclose(spectral(m).omega_a, math.sqrt(6), rel_tol=1e-15)
    t = 0.5
    c, s = math.cos(math.sqrt(6) * t), math.sin(math.sqrt(6) * t)
    expected = ((c, s / math.sqrt(6)), (-math.sqrt(6) * s, c))
    assert np.allclose(propagate_closed_form(m, t), expected, rtol=0, atol=1e-15)


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

def _h_a(s, x: float, q: float, p: float) -> float:
    """The shadow energy H_A of the map at x (omega = 1) at (q, p)."""
    m = scheme_matrix(s, x, 1.0)
    [h_a] = closedform._shadow_energy(
        closedform._generator(m), spectral(m), [q], [p])
    return h_a


def test_modified_hamiltonian_continuum_limit():
    h_a = _h_a(get_scheme("SV"), 1e-4, 1.0, 0.0)
    assert math.isclose(h_a, 0.5, abs_tol=1e-8)  # H = w^2 q^2 / 2 = 0.5


def test_modified_hamiltonian_sv_closed_form():
    x = 0.5
    d = spectral(scheme_matrix(get_scheme("SV"), x, 1.0))
    k_star = d.omega_a * math.sqrt(1 - x * x / 4)
    assert math.isclose(_h_a(get_scheme("SV"), x, 1.0, 0.0), k_star / 2,
                        rel_tol=1e-13)


def test_modified_hamiltonian_of_a_non_reversible_map_is_tilted():
    # p^2/(2 m*) + k* q^2/2 holds for reversible maps only; LF1's H_A has a
    # qp term omega_a*sigma, sigma = (g - h)/(2 sin(theta))
    lf1, x = get_scheme("LF1"), 0.3
    d = spectral(scheme_matrix(lf1, x, 1.0))
    sigma = x * x / (2.0 * d.xi)  # g - h = x^2
    cross = _h_a(lf1, x, 1.0, 1.0) - _h_a(lf1, x, 1.0, 0.0) - _h_a(lf1, x, 0.0, 1.0)
    assert math.isclose(abs(cross), d.omega_a * sigma, rel_tol=1e-13)


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
            prod = _array(back) @ _array(fwd)
            assert np.max(np.abs(prod - np.eye(2))) <= 1e-12
