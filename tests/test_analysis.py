"""Tests for the frequency-series and phase-error benchmark machinery."""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscmap import analysis, phasemap
from oscmap.analysis import (
    AnalysisError, analyze, convergence_study, effective_param_series,
    omega_a_series, order_coefficient, stability_limit,
)
from oscmap.phasemap import Regime, scheme_matrix, spectral, sweep
from oscmap.schemes import (
    DRIFT, GKICK, KICK, Scheme, Step, get_scheme, has_exact_coefficients,
    is_symmetric, load_scheme, registry, registry_names,
)

from mpmath_oracle import (mp_half_trace, mp_richardson_order_coefficient,
                           richardson_points, to_mpf)

F = Fraction
CBRT2 = 2.0 ** (1.0 / 3.0)
CBRT4 = 2.0 ** (2.0 / 3.0)


# ------------------------------------------------------------ omega_a series

def test_sv_frequency_series_exact():
    wa = omega_a_series(get_scheme("SV"), 6)
    assert wa.coeffs == [1, 0, F(1, 24), 0, F(3, 640), 0, F(5, 7168)]


def test_fr_frequency_series():
    wa = omega_a_series(get_scheme("FR"), 6)
    c4 = -(32 + 25 * CBRT2 + 20 * CBRT4) / 1440
    c6 = -(89 + 70 * CBRT2 + 56 * CBRT4) / 24192
    assert abs(wa.coeffs[0] - 1) <= 1e-15
    assert abs(wa.coeffs[2]) <= 1e-15
    assert abs(wa.coeffs[4] - c4) <= 1e-12
    assert abs(wa.coeffs[6] - c6) <= 1e-12


def test_c_frequency_series_exact():
    wa = omega_a_series(get_scheme("C"), 4)
    assert wa.coeffs == [1, 0, 0, 0, F(1, 7680)]


@pytest.mark.parametrize("name", ["LF1", "LF1T"])
def test_nonreversible_frequency_series_equals_sv(name):
    # all three maps have the half trace 1 - x^2/2, so the same angle
    assert omega_a_series(get_scheme(name), 20) == omega_a_series(
        get_scheme("SV"), 20)


def test_symmetric_series_have_no_odd_terms():
    for name in ("SV", "FR", "C", "M", "BM"):
        wa = omega_a_series(get_scheme(name), 10)
        assert all(
            (c == 0 if not isinstance(c, float) else abs(c) <= 1e-14)
            for c in wa.coeffs[1::2]
        )


def test_nearly_consistent_fraction_scheme_runs_in_fixed_point():
    # the drift sum 1 - 2^-60 passes the consistency check; the constant
    # term of sin(theta)^2/x^2 is that sum, which has no rational square root
    s = Scheme("SV near", [Step(KICK, F(1, 2)), Step(DRIFT, 1 - F(1, 2**60)),
                           Step(KICK, F(1, 2))], 2, 1)
    rep = analyze(s)
    assert (rep.n, rep.c_n) == (2, 0.041666666666666664)
    assert rep.stability == (2.0, True)
    assert omega_a_series(s, 10) == rep.omega_a


# ------------------------------------------------------- effective parameters

def test_sv_effective_parameters_exact():
    inv_mass, k_star = effective_param_series(get_scheme("SV"), 6)
    assert inv_mass.coeffs == [1, 0, F(1, 6), 0, F(1, 30), 0, F(1, 140)]
    assert k_star.coeffs == [1, 0, F(-1, 12), 0, F(-1, 120), 0, F(-1, 840)]


def test_fr_effective_parameters():
    inv_mass, k_star = effective_param_series(get_scheme("FR"), 6)
    im4 = -(6 + 5 * CBRT2 + 5 * CBRT4) / 720
    im6 = (71 + 56 * CBRT2 + 42 * CBRT4) / 12096
    ks4 = -(26 + 20 * CBRT2 + 15 * CBRT4) / 720
    ks6 = -(80 + 63 * CBRT2 + 49 * CBRT4) / 6048
    assert abs(inv_mass.coeffs[2]) <= 1e-14
    assert abs(inv_mass.coeffs[4] - im4) <= 1e-12
    assert abs(inv_mass.coeffs[6] - im6) <= 1e-12
    assert abs(k_star.coeffs[2]) <= 1e-14
    assert abs(k_star.coeffs[4] - ks4) <= 1e-12
    assert abs(k_star.coeffs[6] - ks6) <= 1e-12


def _binary_exact(s: Scheme) -> Scheme:
    """s with every float coefficient replaced by its exact binary value."""
    return Scheme(**{**s._asdict(), "steps": tuple(
        Step(st.kind, F(st.c), None if st.u is None else F(st.u))
        for st in s.steps)})


@pytest.mark.parametrize("name", ["FR", "M"])
def test_float_frequency_series_at_round_off_floor(name):
    # Fraction(float) is exact, so the rational build is the float scheme's
    # true series; float rounding must stay within 1e-16 out to x^60
    s = get_scheme(name)
    exact = omega_a_series(_binary_exact(s), 60)
    assert all(isinstance(c, (int, Fraction)) for c in exact.coeffs)
    got = omega_a_series(s, 60)
    for a, b in zip(got.coeffs, exact.coeffs):
        assert abs(a - float(b)) <= 1e-16


def test_binary_exact_bm_gives_the_report_of_bm():
    # unlike FR's and M's, BM's drift and kick sums miss 1 in binary, and
    # their product has no rational square root: its Fractions run in fixed
    # point too
    bm = get_scheme("BM")
    exact = _binary_exact(bm)
    assert has_exact_coefficients(exact)
    assert analyze(exact) == analyze(bm)
    assert convergence_study(exact, 2.5, 40) == convergence_study(bm, 2.5, 40)


@pytest.mark.parametrize("name", ["SV", "FR", "C", "M", "BM"])
def test_mass_times_spring_is_frequency_squared(name):
    s = get_scheme(name)
    inv_mass, k_star = effective_param_series(s, 8)
    wa = omega_a_series(s, 8)
    assert all(
        abs(a - b) <= 1e-12
        for a, b in zip((inv_mass * k_star).coeffs, (wa * wa).coeffs)
    )


# ------------------------------------------------------------- tilt series

def _sigma(s, order):
    return analysis._frequency_series(s, order)[3]


def test_tilt_series_vanishes_for_palindromes():
    for s in filter(is_symmetric, registry()):
        assert not any(_sigma(s, 12).coeffs), s.name


def test_tilt_series_first_order():
    # sigma = (x/2) (1 - x^2/4)^(-1/2) for LF1, minus that for its transpose
    sigma = _sigma(get_scheme("LF1"), 5)
    assert sigma.coeffs == [0, F(1, 2), 0, F(1, 16), 0, F(3, 256)]
    assert _sigma(get_scheme("LF1T"), 5) == -sigma


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("name", ["LF1", "LF1T"])
def test_tilt_series_sums_to_the_numeric_tilt(name, x):
    s = get_scheme(name)
    m = scheme_matrix(s, x, 1.0)
    tilt = (m.g - m.h) / (2.0 * spectral(m).xi)
    assert abs(float(_sigma(s, 40)(x)) - tilt) <= 1e-12


def test_lf1_inverse_mass_series_sums_to_the_sweep():
    s = get_scheme("LF1")
    inv_mass, _ = effective_param_series(s, 40)
    [(_, m_star, _)] = sweep(s, [0.2], "m_star")
    assert abs(float(inv_mass(0.2)) - 1.0 / m_star) <= 1e-12


# ----------------------------------------------------------------- phase error

def _phase_error(s, x):
    """sweep's per-period phase error 2*pi*(omega_a - 1) and regime at x."""
    [(_, value, regime)] = sweep(s, [x], "phase_error")
    return value, regime


def test_phase_error_sv_small_step():
    got, regime = _phase_error(get_scheme("SV"), 0.1)
    ref = 2 * math.pi * (2 * math.asin(0.05) / 0.1 - 1)
    assert regime is Regime.ELLIPTIC
    assert math.isclose(got, ref, rel_tol=1e-12)
    assert math.isclose(got, 2.621e-3, rel_tol=1e-3)


def test_phase_error_vanishes_in_continuum():
    got, _ = _phase_error(get_scheme("SV"), 1e-6)
    assert abs(got) <= 1e-11


def test_phase_error_outside_window():
    assert _phase_error(get_scheme("SV"), 2.5) == (None, Regime.HYPERBOLIC)


# ----------------------------------------------------------- order coefficient

def test_order_coefficient_sv():
    n, c = order_coefficient(get_scheme("SV"))
    assert n == 2 and c == F(1, 24)


def test_order_coefficient_fr():
    n, c = order_coefficient(get_scheme("FR"))
    assert n == 4
    assert abs(c - (-0.0661431)) <= 1e-6


def test_order_coefficient_bm():
    n, c = order_coefficient(get_scheme("BM"))
    assert n == 4
    assert abs(c - (-0.0000133432)) <= 1e-6


def test_order_coefficient_m_exact_surd():
    n, c = order_coefficient(get_scheme("M"))
    ref = (-2956612 + 124595 * math.sqrt(471)) / 2797262640
    assert n == 4
    assert abs(c - ref) <= 1e-12


def test_order_coefficient_c_scheme():
    n, c = order_coefficient(get_scheme("C"))
    assert n == 4 and c == F(1, 7680)


def _triple_jump(base: Scheme, name: str) -> Scheme:
    """Yoshida's symmetric triple jump of base, two orders higher.

    w1 = 1/(2 - 2^(1/(p+1))) and w0 = 1 - 2 w1 for base of order p: 9 force
    evaluations and order 6 from FR, 27 and order 8 from that (Phys. Lett.
    A 150 (1990) 262).
    """
    w1 = 1 / (2 - 2 ** (1 / (base.order + 1)))
    w0 = 1 - 2 * w1
    steps = [Step(st.kind, w * st.c) for w in (w1, w0, w1) for st in base.steps]
    return Scheme(name, steps, base.order + 2, 3 * base.force_evals)


Y6 = _triple_jump(get_scheme("FR"), "Y6")
Y8 = _triple_jump(Y6, "Y8")


def test_sixth_order_triple_jump_passes_the_richardson_check():
    rep = analyze(Y6)
    assert (rep.n, rep.order_declared) == (6, 6)
    assert abs(rep.c_n - 0.0216911) <= 1e-7
    assert rep.c_star is None
    assert rep.stability.x_max.hex() == "0x1.986a5f90c062cp+0"


def test_eighth_order_triple_jump_passes_the_richardson_check():
    # a three-point grid gave -0.02041856347419054 here, 3.0e-6 off. The
    # fixed-point series gives this c_8 at every P from 4K + 144 to 3000
    # bits; float series arithmetic gave -0.020418624469887185, a few ulps off.
    assert (Y8.order, Y8.force_evals) == (8, 27)
    assert order_coefficient(Y8) == (8, -0.02041862446988717)


def test_analyze_eighth_order_triple_jump():
    # x_max as the Sturm chain of (T^2 - 1)/x^2 and the Sturm bisection of its
    # two factors gave it too
    rep = analyze(Y8)
    assert (rep.n, rep.c_n) == (8, -0.02041862446988717)
    assert rep.stability.bounded
    assert rep.stability.x_max.hex() == "0x1.89a56a82792fcp+0"


@pytest.mark.parametrize("name", ["FR", "M", "BM"])
def test_float_order_coefficient_is_the_richardson_value_bitwise(name):
    # float series arithmetic missed M's and BM's c_4 by 1.8e-14 and 1.9e-13
    # relative; the fixed-point series is the binary-exact value
    s = get_scheme(name)
    n, c_n = order_coefficient(s)
    assert n == 4
    assert c_n.hex() == analysis._richardson_order_coefficient(s, 4).hex()


def test_analyze_bm_eighth_frequency_coefficient():
    # float series arithmetic printed 5.61997569563e-10
    assert format(analyze(get_scheme("BM")).omega_a.coeffs[8], ".12g") == \
        "5.6199756889e-10"


@pytest.mark.parametrize("s", [get_scheme(name) for name in ("FR", "M", "BM")]
                         + [Y6, Y8], ids=lambda s: s.name)
@pytest.mark.parametrize("order", [14, 120])
def test_fixed_point_series_have_64_bits_to_spare(s, order, monkeypatch):
    # P = 4(K + 1) + 144 bits; 64 more change no coefficient's float
    def floats():
        return [f._floats() for f in analysis._frequency_series(s, order)]

    assert not has_exact_coefficients(s)
    default = floats()
    monkeypatch.setattr(analysis, "_GUARD_BITS", analysis._GUARD_BITS + 64)
    assert floats() == default


@pytest.mark.parametrize("s", [*registry(), Y6, Y8], ids=lambda s: s.name)
def test_richardson_estimate_agrees_with_the_series(s):
    n, c_n = order_coefficient(s)
    numeric = analysis._richardson_order_coefficient(s, n)
    assert abs(numeric - float(c_n)) <= 1e-12 * abs(float(c_n))


@pytest.mark.parametrize("name", registry_names())
def test_exact_half_trace_against_mpmath_shear_product(name):
    s = get_scheme(name)
    n = order_coefficient(s)[0]
    xs = [*richardson_points(n), F(stability_limit(s).x_max)]
    with mpmath.workdps(60):
        for x in xs:
            exact = analysis._exact_half_trace(s, x)
            ref = mp_half_trace(s, to_mpf(x))
            assert abs(to_mpf(exact) - ref) <= mpmath.mpf("1e-50") * abs(ref)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=F(math.cos(0.2)), max_value=1))
@example(F(1))
@example(F(math.cos(0.2)))
# the smallest point for n = 8, x = 1/6400, where T is about 1 - x^2/2
@example(1 - F(1, 2 * 6400**2))
def test_fixed_acos_against_mpmath(t):
    # 300 bits, about 90 digits: mpmath's own error is far below 2^-240
    with mpmath.workprec(300):
        got = to_mpf(analysis._fixed_acos(t))
        assert abs(got - mpmath.acos(to_mpf(t))) <= mpmath.mpf(2) ** -240


@pytest.mark.parametrize("s", [*registry(), Y6, Y8], ids=lambda s: s.name)
def test_richardson_estimate_is_the_mpmath_route_bit_for_bit(s):
    n = order_coefficient(s)[0]
    got = analysis._richardson_order_coefficient(s, n)
    assert got.hex() == mp_richardson_order_coefficient(s, n).hex()


def test_richardson_check_rejects_a_map_beyond_its_range():
    # drifts of +-5e4 make |Tr M/2| > 1 at x = 0.01; the mpmath route took
    # a complex arccos there and failed converting it to float
    steps = [Step(KICK, 0.25), Step(DRIFT, 5e4), Step(KICK, 0.25),
             Step(DRIFT, 1 - 1e5), Step(KICK, 0.25), Step(DRIFT, 5e4),
             Step(KICK, 0.25)]
    s = Scheme("wild", steps, 2, 4)
    with pytest.raises(AnalysisError, match=r"needs 0 <= Tr M/2 <= 1 at x = 0.01"):
        analyze(s)


# ------------------------------------------------------ normalized coefficient

def test_normalized_coefficients_table():
    def c_star(name):
        return analyze(get_scheme(name)).c_star

    assert math.isclose(c_star("FR"), -1.0, abs_tol=1e-12)
    assert abs(c_star("M") - (-0.0043)) <= 1e-4
    assert abs(c_star("BM") - (-0.0032)) <= 1e-4
    assert abs(c_star("C") - 0.0062) <= 1e-4


@pytest.mark.parametrize("name, checks",
                         [("C", 2), ("FR", 1), ("SV", 1), ("LF1", 1)])
def test_analyze_runs_each_richardson_check_once(name, checks, monkeypatch):
    # C needs its own c_4 and FR's; FR is its own reference; SV and LF1 have
    # no c*. Each check needs one build of the frequency series, and no more.
    calls, builds = [], []
    check = analysis._richardson_order_coefficient
    parts = analysis._frequency_parts
    monkeypatch.setattr(analysis, "_richardson_order_coefficient",
                        lambda s, n: calls.append(s.name) or check(s, n))
    monkeypatch.setattr(analysis, "_frequency_parts",
                        lambda s, *a: builds.append(s.name) or parts(s, *a))
    analyze(get_scheme(name))
    assert len(calls) == checks
    assert len(builds) == checks


def test_analyze_matches_the_public_functions():
    s = get_scheme("BM")
    rep = analyze(s, 8)
    assert (rep.n, rep.c_n) == (4, float(order_coefficient(s)[1]))
    c4_fr = float(order_coefficient(get_scheme("FR"))[1])
    assert rep.c_star == rep.c_n * (s.force_evals / 3.0) ** 4 / abs(c4_fr)
    assert rep.omega_a == omega_a_series(s, 8)
    assert (rep.inv_mass, rep.k_star) == effective_param_series(s, 8)


@pytest.mark.parametrize("force_evals", [10**100, 10**400])
def test_normalized_coefficient_beyond_float_range_is_undefined(force_evals):
    # (force_evals/3)^4 overflows a float, or force_evals does not fit one
    s = get_scheme("FR")._replace(name="FR-costly", force_evals=force_evals)
    with pytest.raises(AnalysisError, match="beyond float range"):
        analysis._normalized(s, order_coefficient(s))
    assert analyze(s).c_star is None


def test_normalized_coefficient_needs_order_four():
    sv = get_scheme("SV")
    with pytest.raises(AnalysisError, match="order"):
        analysis._normalized(sv, order_coefficient(sv))
    assert analyze(sv).c_star is None


# ------------------------------------------------------------------ stability

def test_stability_limit_sv():
    lim = stability_limit(get_scheme("SV"))
    assert lim.bounded
    assert abs(lim.x_max - 2.0) <= 1e-9


def test_stability_limit_first_order():
    lim = stability_limit(get_scheme("LF1"))
    assert lim.bounded
    assert abs(lim.x_max - 2.0) <= 1e-9


def test_stability_limit_fr():
    lim = stability_limit(get_scheme("FR"))
    assert lim.bounded
    assert 0.0 < lim.x_max < 2.0
    # regression against the polynomial root of |g| = 1
    assert abs(lim.x_max - 1.5734019474) <= 1e-8


def test_stability_limit_invariant_under_adjoint():
    for name in ("SV", "FR", "LF1"):
        s = get_scheme(name)
        adjoint = Scheme(**{**s._asdict(), "steps": tuple(reversed(s.steps))})
        assert math.isclose(
            stability_limit(s).x_max, stability_limit(adjoint).x_max,
            rel_tol=0, abs_tol=1e-10,
        )


@pytest.mark.parametrize("name, x_max", [
    ("SV", 2.0), ("LF1", 2.0), ("LF1T", 2.0), ("C", math.sqrt(8.0)),
])
def test_stability_limit_is_exact_root(name, x_max):
    assert stability_limit(get_scheme(name)) == (x_max, True)


@pytest.mark.parametrize("name", registry_names())
def test_stability_limit_against_mpmath_shear_product(name):
    s = get_scheme(name)
    x_max = stability_limit(s).x_max
    with mpmath.workdps(50):
        x = mpmath.mpf(x_max)
        assert abs(abs(mp_half_trace(s, x)) - 1) <= 1e-12
        assert abs(mp_half_trace(s, x * (1 - mpmath.mpf("1e-9")))) < 1


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _with_roots(roots, lead=1):
    """lead times the product of (d y - n) over the roots n/d."""
    p = [lead]
    for r in roots:
        n, d = r.as_integer_ratio()
        p = _times(p, [-n, d])
    return p


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6),
       st.lists(st.integers(1, 4), max_size=2), st.sampled_from([-3, -1, 1, 2]))
@example([1, 3], [3], -1)
@example([1, 3], [3], 1)
@example([-5], [1, 2], -1)
# a triple root beside a double one
@example([2, 2, 2, 1, 1, 3], [], 1)
def test_first_sign_change_is_the_first_odd_multiplicity_root(roots, quads,
                                                              lead):
    # integer roots, repeated at will, times factors y^2 + k with no real root
    p = _with_roots(roots, lead)
    for k in quads:
        p = _times(p, [k, 0, 1])
    odd = {r for r in roots if roots.count(r) % 2}
    for lo, hi in ((0.0, 100.0), (-5.5, 2.0), (1.0, 3.5)):
        inside = [r for r in odd if lo < r <= hi]
        assert (analysis._first_sign_change([p], lo, hi)
                == (min(inside) if inside else None))


@pytest.mark.parametrize("roots, lo, first", [
    # an even root at a float, an odd one at the next float
    ((1.0, 1.0, 1.0000000000000002), 0.5, 1.0000000000000002),
    # an odd root exactly at lo is not in (lo, hi]
    ((0.75, 1.5), 0.75, 1.5),
    ((0.75, 1.5), 0.5, 0.75),
    # two odd roots between the adjacent floats 1 and 1 + 2^-52: no float
    # lies between them, so the sign is the same at every float
    ((1 + F(1, 2**54), 1 + F(1, 2**53)), 0.5, None),
])
def test_first_sign_change_on_the_float_grid(roots, lo, first):
    assert analysis._first_sign_change([_with_roots(roots)], lo, 2.0) == first


@pytest.mark.parametrize("factors, lo, first", [
    ([[0, 1]], 0.0, None),
    # a triple root at lo, then an odd one
    ([_with_roots((0.75, 0.75, 0.75, 1.5))], 0.75, 1.5),
    ([_with_roots((0.75, 0.75)), _with_roots((0.75, 1.25))], 0.75, 1.25),
])
def test_a_root_at_lo_does_not_send_the_bisection_to_the_float_grid(
        factors, lo, first, monkeypatch):
    # a closed piece (lo, lo + w] holds the root at lo, so unless it is
    # divided out no left-most piece is cleared: the three took 2160, 284
    # and 308 calls, where the descent to a root in (lo, hi] takes ~86
    calls = []
    root_free = analysis._root_free
    monkeypatch.setattr(analysis, "_root_free",
                        lambda *a: calls.append(a) or root_free(*a))
    assert analysis._first_sign_change(factors, lo, 100.0) == first
    assert len(calls) < 100 * len(factors)


@settings(max_examples=300, deadline=None)
@given(st.floats(-100, 100), st.integers(1, 3),
       st.lists(st.floats(-100, 100), max_size=3),
       st.one_of(st.just(0.0), st.floats(0, 10)),
       st.one_of(st.just(0.0), st.floats(0, 10)))
# an even root at hi, an odd one at the next float
@example(1.0, 2, [1.0000000000000002], 0.5, 0.0)
# an even root at lo, an odd one at hi
@example(1.0, 2, [1.0000000000000002], 0.0, 2.0 ** -52)
# an odd root exactly at lo
@example(0.75, 1, [], 0.0, 1.25)
def test_root_free_never_clears_a_root(root, multiplicity, others, below,
                                       above):
    p = _with_roots([root] * multiplicity + others)
    assert not analysis._root_free(p, root - below, root + above)


def _shear_half_trace(s, xs):
    """|Tr M|/2 over a grid from the plain product of float shears (omega = 1)."""
    a, b = np.ones_like(xs), np.zeros_like(xs)
    c, d = np.zeros_like(xs), np.ones_like(xs)
    for st in s.active_steps():
        if st.kind == DRIFT:  # q += c*x*p
            k = float(st.c) * xs
            a, b = a + k * c, b + k * d
        else:  # p -= (c*x + u*x^3)*q
            mu = float(st.c) * xs
            if st.kind == GKICK:
                mu = mu + float(st.u) * xs**3
            c, d = c - mu * a, d - mu * b
    return abs(a + d) / 2.0


@pytest.mark.parametrize("name", registry_names())
def test_stability_limit_brackets_first_shear_crossing(name):
    s = get_scheme(name)
    xs = np.arange(1, 10001) * 1e-3
    k = int(np.argmax(_shear_half_trace(s, xs) >= 1.0))
    assert k > 0
    lim = stability_limit(s)
    assert lim.bounded
    assert xs[k - 1] <= lim.x_max <= xs[k]



def _repeated_sv(n):
    """n Stoermer-Verlet steps of size 1/n in one map: M(x) = M_SV(x/n)^n."""
    h = Fraction(1, n)
    steps = [Step(KICK, h / 2)]
    for i in range(n):
        steps += [Step(DRIFT, h), Step(KICK, h / 2 if i == n - 1 else h)]
    return Scheme(f"SV{n}", steps, order=2, force_evals=n)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "file"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_stability_limit_steps_over_touch_points(n, exact, tmp_path):
    # T = cos(n*theta) with theta the SV angle at x/n: M = +-I wherever
    # n*theta is a multiple of pi, n - 1 touch points of T = +-1 inside the
    # stable window, which ends at theta = pi, x = 2n
    s = _repeated_sv(n)
    if not exact:  # float coefficients, as read by --file
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": s.name, "order": s.order, "force_evals": s.force_evals,
            "steps": [{"kind": st.kind, "c": float(st.c)} for st in s.steps]}))
        s = load_scheme(path)
    lim = stability_limit(s)
    assert lim.bounded
    if exact or n != 3:  # 1/3 is not a float
        assert lim.x_max == 2 * n
    assert abs(lim.x_max - 2 * n) <= 1e-14 * n
    # a float product rounds |T| past 1 at a touch point on the grid (x = 3
    # for n = 3); past a crossing |T| - 1 grows linearly, far above 1e-12
    xs = np.arange(1, 10001) * 1e-3
    k = int(np.argmax(_shear_half_trace(s, xs) >= 1.0 + 1e-12))
    assert xs[k - 1] <= lim.x_max <= xs[k]


@pytest.mark.parametrize("n, bounded", [(5, True), (6, False)])
def test_stability_limit_at_the_end_of_the_bracket(n, bounded):
    # SV5's edge is x = 10, y = 100 itself; SV6 touches T = +-1 at x = 12
    # sin(k pi/12) for k = 1, 2, 3 in the bracket, and its edge, x = 12, is
    # past it
    assert stability_limit(_repeated_sv(n)) == (10.0, bounded)


def _stability_polynomial_by_fractions(s):
    """(T^2 - 1)/x^2 by Fractions: 2T's even coefficients over their lcm L."""
    g, _, _, h = phasemap._polynomials(s)
    t = [F(a) + F(b) for a, b in zip(g.coeffs[::2], h.coeffs[::2])]
    den = math.lcm(*(v.denominator for v in t))
    n = [int(v * den) for v in t]
    square = [sum(n[i] * n[k - i] for i in range(len(n)) if 0 <= k - i < len(n))
              for k in range(2 * len(n) - 1)]
    p = square[1:]
    while p and not p[-1]:
        p.pop()
    content = math.gcd(*p)
    return [c // content for c in p]


def _gcd_by_fractions(a, b):
    """gcd of two integer polynomials by Euclid's algorithm in Fractions."""
    a, b = [F(c) for c in a], [F(c) for c in b]
    while b:
        r = list(a)
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= q * c
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return a


def _sv3_float():
    return Scheme("SV3 float", [Step(st.kind, float(st.c))
                                for st in _repeated_sv(3).steps], 2, 3)


# x_max.hex() of every registry scheme and of SV from three float steps of
# 1/3, as the Fraction/lcm route to (T^2 - 1)/x^2 gave them
STABILITY_LIMITS = {
    "SV": "0x1.0000000000000p+1", "LF1": "0x1.0000000000000p+1",
    "LF1T": "0x1.0000000000000p+1", "FR": "0x1.92ca7853b1addp+0",
    "C": "0x1.6a09e667f3bcdp+1", "M": "0x1.83d5efac1f119p+1",
    "BM": "0x1.91005b6c1dbefp+1", "SV3 float": "0x1.8000000000001p+2",
}


@pytest.mark.parametrize("name", sorted(STABILITY_LIMITS))
def test_stability_polynomial_reads_the_exact_numerators(name):
    # the two factors multiply to a positive multiple of (T^2 - 1)/x^2 and
    # share no root
    s = _sv3_float() if name == "SV3 float" else get_scheme(name)
    a, b = analysis._stability_factors(s)
    assert all(type(c) is int for c in a + b)
    p, product = _stability_polynomial_by_fractions(s), _times(a, b)
    scale = F(product[-1], p[-1])
    assert scale > 0 and [scale * c for c in p] == product
    assert len(_gcd_by_fractions(a, b)) == 1
    lim = stability_limit(s)
    assert lim.bounded and lim.x_max.hex() == STABILITY_LIMITS[name]


# ---------------------------------------------------------------- convergence

def test_convergence_inside_window():
    study = convergence_study(get_scheme("SV"), 1.0, 20)
    errs = [r.abs_error for r in study.rows]
    assert study.closed_form is not None
    # errors decrease monotonically beyond k = 2 toward < 1e-6
    tail = [e for e in errs[2::2]]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert errs[-1] < 1e-6


def test_convergence_slow_near_limit():
    study = convergence_study(get_scheme("SV"), 1.9, 20)
    errs = [r.abs_error for r in study.rows]
    assert errs[-1] < errs[2]          # converging
    assert errs[-1] > 1e-3             # but slowly
    assert study.closed_form is not None


def test_divergence_outside_window():
    study = convergence_study(get_scheme("SV"), 2.1, 60)
    assert study.closed_form is None
    terms = [
        abs(study.rows[k].partial_sum - study.rows[k - 2].partial_sum)
        for k in range(36, 61, 2)
    ]
    assert all(b > a for a, b in zip(terms, terms[1:]))


@pytest.mark.parametrize("name", ["M", "BM"])
def test_float_scheme_series_converge_to_the_closed_form(name):
    # float series arithmetic ended 4.8e7 (M) and 1.1e8 (BM) away: each
    # coefficient's round-off, times 2.5^k
    study = convergence_study(get_scheme(name), 2.5, 120)
    assert study.closed_form is not None
    assert study.rows[-1].abs_error <= 1e-12


def test_radius_estimate_sv():
    study = convergence_study(get_scheme("SV"), 1.0, 20)
    assert study.radius_estimate is not None
    assert abs(study.radius_estimate - 2.0) <= 0.2


# --------------------------------------------------------------------- report

def test_analyze_report_sv():
    rep = analyze(get_scheme("SV"), 6)
    assert rep.n == 2
    assert math.isclose(rep.c_n, 1 / 24, rel_tol=1e-12)
    assert rep.c_star is None
    assert abs(rep.stability.x_max - 2.0) <= 1e-9
    assert rep.omega_a.coeffs[2] == F(1, 24)


def test_analyze_report_fr():
    rep = analyze(get_scheme("FR"), 6)
    assert rep.n == 4
    assert abs(rep.c_n - (-0.0661431)) <= 1e-6
    assert math.isclose(rep.c_star, -1.0, abs_tol=1e-12)
