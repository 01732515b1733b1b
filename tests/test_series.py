"""Unit and property tests for the truncated power-series ring."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oscmap.analysis import _frequency_parts, effective_param_series
from oscmap.phasemap import scheme_series_matrix
from oscmap.schemes import DRIFT, GKICK, get_scheme
from oscmap.series import Series, asin

F = Fraction


#: Precision P of the fixed-point tests: numerators over 2^128.
BITS = 128


def _values(s: Series) -> list:
    """The exact values of a series' coefficients, as Fractions."""
    return [F(n, s._den) for n in s._nums]


def _assert_within_bound(got: Series, ref: list, units: int = 2**16):
    """got is a fixed-point series within `units` units 2^-P of ref."""
    assert got._bits is not None and got._den == 1 << got._bits
    assert len(got._nums) == len(ref)
    for n, r in zip(got._nums, ref):
        assert abs(n - r * got._den) < units


# ---------------------------------------------------------------- add

def test_add_coefficientwise():
    a = Series([1, 1, 0])          # 1 + x
    b = Series([0, 0, 1])          # x^2
    assert (a + b).coeffs == [1, 1, 1]


def test_add_identity():
    a = Series([3, -2, 5])
    assert a + Series.zero(2) == a


def test_add_cancellation():
    a = Series([1, 0, F(-1, 2)])
    b = Series([0, 0, F(1, 2)])
    assert (a + b) == Series.one(2)


def test_add_order_mismatch():
    with pytest.raises(ValueError, match="order mismatch"):
        Series.one(2) + Series.one(3)


# ---------------------------------------------------------------- mul

def test_mul_difference_of_squares():
    a = Series([1, 1], order=2)
    b = Series([1, -1], order=2)
    assert (a * b).coeffs == [1, 0, -1]


def test_mul_truncates():
    x = Series([0, 1], 1)
    assert (x * x).coeffs == [0, 0]


def test_mul_hand_expanded():
    # (1 - x^2/2)(1 - x^2/4) = 1 - 3x^2/4 + x^4/8
    a = Series([1, 0, F(-1, 2)], order=4)
    b = Series([1, 0, F(-1, 4)], order=4)
    assert (a * b).coeffs == [1, 0, F(-3, 4), 0, F(1, 8)]


def test_mul_order_mismatch():
    with pytest.raises(ValueError, match="order mismatch"):
        Series.one(2) * Series.one(4)


def test_scalar_mul():
    assert (3 * Series([1, 2], order=1)).coeffs == [3, 6]


# ---------------------------------------------------------------- reciprocal

def test_reciprocal_of_one():
    assert Series.one(4).reciprocal() == Series.one(4)


def test_reciprocal_geometric():
    a = Series([1, -1], order=3)
    assert a.reciprocal().coeffs == [1, 1, 1, 1]


def test_reciprocal_zero_constant_term():
    with pytest.raises(ValueError, match="constant term"):
        Series([0, 1], 3).reciprocal()


# ---------------------------------------------------------------- sqrt

def test_sqrt_of_one():
    assert Series.one(5).sqrt() == Series.one(5)


def test_sqrt_perfect_square():
    a = Series([1, 2, 1], order=2)
    assert a.sqrt().coeffs == [1, 1, 0]


def test_sqrt_binomial():
    # sqrt(1 - x^2/4) = 1 - x^2/8 - x^4/128 + O(x^6)
    a = Series([1, 0, F(-1, 4)], order=4)
    assert a.sqrt().coeffs == [1, 0, F(-1, 8), 0, F(-1, 128)]


def test_sqrt_nonpositive_constant_term():
    with pytest.raises(ValueError, match="positive constant term"):
        Series([0, 1], order=1).sqrt()
    with pytest.raises(ValueError, match="positive constant term"):
        Series([-1.0, 0.0], order=1).sqrt()


# ---------------------------------------------------------------- asin

def test_asin_maclaurin():
    got = asin(Series([0, 1], 5))
    assert got.coeffs == [0, 1, 0, F(1, 6), 0, F(3, 40)]


def test_asin_of_zero():
    assert asin(Series.zero(4)) == Series.zero(4)


def test_asin_nonzero_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        asin(Series.one(3))


def test_asin_sv_frequency_expansion():
    # asin(x sqrt(1 - x^2/4)) / x = 1 + x^2/24 + 3x^4/640 + 5x^6/7168
    order = 8
    xi = (Series([1, 0, F(-1, 4)], order - 1).sqrt()).times_x()
    wa = asin(xi).divided_by_x()
    assert wa.coeffs[:7] == [1, 0, F(1, 24), 0, F(3, 640), 0, F(5, 7168)]


def _asin_horner(u: Series) -> Series:
    """Reference arcsine: the Maclaurin series composed with u by Horner.

    arcsin(z) = sum_m C(2m, m) / (4^m (2m + 1)) z^(2m+1), evaluated in u^2
    over the odd coefficients; about K/2 ring products, so O(K^3).
    """
    order = u.order
    if order == 0:
        return Series.zero(0)
    top = order if order % 2 == 1 else order - 1
    u2 = u * u

    def coefficient(m):
        return Fraction(math.comb(2 * m, m), 4**m * (2 * m + 1))

    acc = Series([coefficient(top // 2)], order)
    for j in range(top - 2, 0, -2):
        acc = acc * u2 + Series([coefficient(j // 2)], order)
    return acc * u


def _xi(name: str, order: int) -> Series:
    """sin(theta) of a registry scheme, the argument analysis passes to asin."""
    return _frequency_parts(get_scheme(name), order - 1)[3].times_x()


odd_exact_series = st.integers(min_value=1, max_value=15).flatmap(
    lambda order: st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        min_size=(order + 1) // 2, max_size=(order + 1) // 2,
    ).map(lambda odd: Series(
        [c for v in odd for c in (0, v)][:order + 1], order)))


@settings(max_examples=60, deadline=None)
@given(odd_exact_series)
def test_asin_equals_maclaurin_composition_exact(u):
    assert asin(u) == _asin_horner(u)


@pytest.mark.parametrize("name", ["SV", "C"])
def test_asin_equals_maclaurin_composition_on_scheme_xi(name):
    xi = _xi(name, 60)
    got, ref = asin(xi), _asin_horner(xi)
    assert got.coeffs == ref.coeffs
    # structural zeros stay int 0, which JSON output renders as 0, not 0.0
    assert [type(c) for c in got.coeffs] == [type(c) for c in ref.coeffs]


@pytest.mark.parametrize("name", ["FR", "M", "BM"])
def test_asin_agrees_with_maclaurin_composition_float(name):
    # a float scheme's sin(theta) is fixed point, at P = 240 bits here; its
    # coefficients are below 1, and the arcsine stays within 1.1 units of the
    # oracle (measured), inside the bound of 4
    xi = _xi(name, 24)
    assert xi._bits == 240
    assert all(isinstance(c, float) for c in asin(xi).coeffs)
    _assert_within_bound(asin(xi), _o_asin(_values(xi)), units=4)


# ---------------------------------------------------------------- helpers

def test_truncated_and_shifts():
    a = Series([1, 2, 3, 4])
    assert a.truncated(1).coeffs == [1, 2]
    assert a.times_x().coeffs == [0, 1, 2, 3, 4]
    assert Series([0, 5, 6]).divided_by_x().coeffs == [5, 6]
    with pytest.raises(ValueError, match="constant term"):
        a.divided_by_x()
    with pytest.raises(ValueError, match="non-negative"):
        Series([1, F(1, 3)]).truncated(-1)
    with pytest.raises(ValueError, match="non-negative"):
        scheme_series_matrix(get_scheme("SV"), -1)


def test_evaluation():
    a = Series([1, 2, 3])
    assert a(2.0) == 1 + 4 + 12
    b = Series([1, F(1, 3), F(-2, 7)])
    assert b(F(3, 2)) == 1 + F(1, 2) - F(9, 14)
    assert b(2) == 1 + F(2, 3) - F(8, 7)
    # a float point is taken at its binary value, and the value is exact
    assert b(0.5) == 1 + F(1, 3) / 2 - F(2, 7) / 4
    assert b(0.1) == b(F(0.1)) != b(F(1, 10))
    assert type(b(0.5)) is F and type(a(2)) is F
    # the shared denominator exceeds float range, and nothing is rounded
    tiny = Series([1, F(1, 3), F(1, 2**1100)])
    assert tiny._den > 2**1024
    assert tiny(0.5) == 1 + F(1, 6) + F(1, 2**1102)


# ---------------------------------------------------------------- properties

exact_coeffs = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    min_size=5, max_size=5,
)

@settings(max_examples=60, deadline=None)
@given(exact_coeffs, exact_coeffs, exact_coeffs)
def test_ring_axioms_exact(a, b, c):
    A, B, C = Series(a), Series(b), Series(c)
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C
    assert A * B == B * A
    assert A + B == B + A


@settings(max_examples=60, deadline=None)
@given(exact_coeffs, exact_coeffs, exact_coeffs)
def test_ring_axioms_fixed_point(a, b, c):
    # a product rounds once, by less than one unit; each side of an axiom
    # takes at most two roundings, and A's coefficients are at most 4, so the
    # two sides differ by less than 2 + 5*4 = 22 units
    A, B, C = (Series(v)._fixed(BITS) for v in (a, b, c))
    for lhs, rhs in (((A * B) * C, A * (B * C)), (A * (B + C), A * B + A * C)):
        assert all(abs(u - v) < 22 for u, v in zip(lhs._nums, rhs._nums))
    assert A * B == B * A
    assert A + B == B + A


@settings(max_examples=60, deadline=None)
@given(exact_coeffs, exact_coeffs)
def test_parity_closure(a, b):
    order = 9
    even_a = Series([c if k % 2 == 0 else 0 for k, c in enumerate(a)], order)
    even_b = Series([c if k % 2 == 0 else 0 for k, c in enumerate(b)], order)
    odd_b = Series([0] + [c if k % 2 == 0 else 0 for k, c in enumerate(b)], order)
    assert not any((even_a * even_b).coeffs[1::2])
    assert not any((even_a * odd_b).coeffs[0::2])
    odd_a = Series([0] + [c if k % 2 == 0 else 0 for k, c in enumerate(a)], order)
    assert not any((odd_a * odd_b).coeffs[1::2])


@settings(max_examples=60, deadline=None)
@given(exact_coeffs)
def test_reciprocal_inverts(tail):
    a = Series([F(1)] + tail)
    assert a * a.reciprocal() == Series.one(a.order)


@settings(max_examples=60, deadline=None)
@given(exact_coeffs)
def test_sqrt_squares_back(tail):
    b = Series([F(1)] + tail)
    a = b * b
    assert a.sqrt() == b


@settings(max_examples=40, deadline=None)
@given(exact_coeffs)
def test_sqrt_squares_back_fixed_point(tail):
    # b*b rounds once; the square root passes each error on weighted by
    # |b_k| <= 4 over 2 b_0 = 2, so the error of order k is below 5^(k + 1)
    # units: 4 orders stay below 2^10 (23 at most, measured)
    b = Series([F(1)] + tail)._fixed(BITS)
    _assert_within_bound((b * b).sqrt(), _values(b), units=2**10)


# ------------------------------------------------------- Fraction oracle
# Reference recurrences run one scalar at a time on Fractions: reciprocal
# and square root by their convolution recurrences, not the ring's power
# recurrence, and asin by the same derivative identity. The ring's integer
# numerators over one denominator must give the same exact coefficients, and
# a fixed-point series stays within its stated bound of them, evaluated on
# the exact values of its fixed-point input.

def _o_inverse(c):
    return 1 / F(c)


def _o_mul(a, b):
    out = []
    for n in range(len(a)):
        s = 0
        for k in range(n + 1):
            if a[k] and b[n - k]:
                s += a[k] * b[n - k]
        out.append(s)
    return out


def _o_reciprocal(a):
    inv0 = _o_inverse(a[0])
    b = [inv0]
    for n in range(1, len(a)):
        s = 0
        for k in range(1, n + 1):
            if a[k] and b[n - k]:
                s += a[k] * b[n - k]
        b.append(-inv0 * s)
    return b


def _o_sqrt(a):
    a0 = F(a[0])
    b0 = F(math.isqrt(a0.numerator), math.isqrt(a0.denominator))
    assert b0 * b0 == a0
    inv2b0 = _o_inverse(2 * b0)
    b = [b0]
    for n in range(1, len(a)):
        s = 0
        for k in range(1, n):
            if b[k] and b[n - k]:
                s += b[k] * b[n - k]
        b.append((a[n] - s) * inv2b0)
    return b


def _o_asin(u):
    uu = _o_mul(u, u)
    f = [1] + [-c for c in uu[1:]]
    w = [1]
    for n in range(1, len(f)):
        s = 0
        for k in range(1, n + 1):
            if f[k] and w[n - k]:
                s += (k - 2 * n) * f[k] * w[n - k]
        w.append(s * F(1, 2 * n) if s else s)
    ku = [k * c for k, c in enumerate(u)]
    y = [0]
    for n in range(1, len(ku)):
        s = 0
        for k in range(1, n + 1):
            if ku[k] and w[n - k]:
                s += ku[k] * w[n - k]
        y.append(s * F(1, n) if s else s)
    return y


def _o_map(s, order):
    """g, tau, nu, h of the scheme by its shears, truncated at `order`."""
    one, zero = [F(1)] + [F(0)] * order, [F(0)] * (order + 1)
    g, tau, nu, h = one, zero, zero, one
    for st in s.active_steps():
        if st.kind == DRIFT:    # [[1, c x], [0, 1]] times the map
            cx = [F(0), F(st.c)] + [F(0)] * (order - 1)
            g = [p - q for p, q in zip(g, _o_mul(cx, nu))]
            tau = [p + q for p, q in zip(tau, _o_mul(cx, h))]
        else:                   # [[1, 0], [-mu, 1]] with mu = c x (+ u x^3)
            mu = [F(0), F(st.c), F(0), F(st.u if st.kind == GKICK else 0)]
            mu = (mu + [F(0)] * order)[: order + 1]
            nu = [p + q for p, q in zip(nu, _o_mul(mu, g))]
            h = [p - q for p, q in zip(h, _o_mul(mu, tau))]
    return g, tau, nu, h


def _lowest_terms(s: Series) -> bool:
    return s._den > 0 and math.gcd(s._den, *s._nums) == 1


square_led_pairs = st.integers(min_value=0, max_value=12).flatmap(
    lambda order: st.tuples(
        st.tuples(st.integers(1, 5), st.integers(1, 5)).map(
            lambda pq: F(*pq) ** 2),
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=9),
                 min_size=order, max_size=order),
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=9),
                 min_size=order + 1, max_size=order + 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool),
    ))


@settings(max_examples=80, deadline=None)
@given(square_led_pairs)
def test_exact_ring_equals_the_fraction_oracle(args):
    a0, tail, b, c = args
    a = [a0] + tail
    A, B = Series(a), Series(b)
    u = [F(0)] + b[1:]
    results = {
        "+": (A + B, [p + q for p, q in zip(a, b)]),
        "-": (A - B, [p - q for p, q in zip(a, b)]),
        "scalar *": (c * A, [c * p for p in a]),
        "scalar /": (A / c, [p * _o_inverse(c) for p in a]),
        "*": (A * B, _o_mul(a, b)),
        "reciprocal": (A.reciprocal(), _o_reciprocal(a)),
        "sqrt": (A.sqrt(), _o_sqrt(a)),
        "asin": (asin(Series(u)), _o_asin(u)),
    }
    for op, (got, ref) in results.items():
        assert got.coeffs == ref, op
        assert _lowest_terms(got), op
    assert (A == Series(A._floats())) == all(float(p) == p for p in a)
    assert (Series(A._floats()) == A) == all(float(p) == p for p in a)


@pytest.mark.parametrize("name", ["SV", "C"])
def test_exact_frequency_series_equal_the_fraction_oracle(name):
    order = 120
    s = get_scheme(name)
    g, tau, nu, h = _o_map(s, order + 2)
    t1, n1 = tau[1:], nu[1:]
    w1 = [(p - q) / 2 for p, q in zip(g, h)][1:]
    s1 = _o_sqrt([p - q for p, q in zip(_o_mul(t1, n1), _o_mul(w1, w1))])
    wa = _o_asin([F(0)] + s1)[1:]
    parts = _frequency_parts(s, order)
    for got, ref in zip(parts, (t1, n1, w1, s1, wa)):
        assert got.coeffs == ref
        assert _lowest_terms(got)
    ratio = _o_sqrt(_o_mul(t1, _o_reciprocal(n1)))
    inv_mass, k_star = effective_param_series(s, order)
    assert inv_mass.coeffs == _o_mul(wa, ratio)[: order + 1]
    assert k_star.coeffs == _o_mul(wa, _o_reciprocal(ratio))[: order + 1]
    # the shared denominators stay at the lcm: 403 bits for SV, 549 for C
    assert parts[4]._den.bit_length() == {"SV": 403, "C": 549}[name]


# ------------------------------------------------------------ fixed point

small_fractions = st.fractions(min_value=F(-1, 2), max_value=F(1, 2),
                               max_denominator=18)
fixed_point_args = st.integers(min_value=0, max_value=12).flatmap(
    lambda order: st.tuples(
        st.integers(2, 4).map(lambda p: F(p, 2) ** 2),
        st.lists(small_fractions, min_size=order, max_size=order),
        st.lists(small_fractions, min_size=order + 1, max_size=order + 1),
        st.sampled_from([3, 0.3, F(2, 3), F(-5, 7)]),
    ))


@settings(max_examples=80, deadline=None)
@given(fixed_point_args)
def test_fixed_point_ring_is_the_fraction_oracle_within_its_bound(args):
    # Each result coefficient is rounded once, by less than one unit 2^-P,
    # and a recurrence passes the errors of earlier coefficients on, weighted
    # by input coefficients of at most 1/2 over a constant term of at least
    # 1. Over 12 orders they stayed below 2^3 units in 3000 random cases; the
    # bound of 2^16 units leaves room for the growth a recurrence allows.
    a0, tail, b, c = args
    A, B = Series([a0] + tail)._fixed(BITS), Series(b)._fixed(BITS)
    U = Series([0] + b[1:])._fixed(BITS)
    a, b, u = _values(A), _values(B), _values(U)
    results = {
        "+": (A + B, [p + q for p, q in zip(a, b)]),
        "-": (A - B, [p - q for p, q in zip(a, b)]),
        "scalar *": (c * A, [F(c) * p for p in a]),
        "scalar /": (A / c, [p * _o_inverse(c) for p in a]),
        "*": (A * B, _o_mul(a, b)),
        "/": (B / A, _o_mul(b, _o_reciprocal(a))),
        "reciprocal": (A.reciprocal(), _o_reciprocal(a)),
        "sqrt": (A.sqrt(), _o_sqrt(a)),
        "asin": (asin(U), _o_asin(u)),
    }
    for op, (got, ref) in results.items():
        assert got._bits == BITS, op
        _assert_within_bound(got, ref)
        assert got.coeffs == [float(x) for x in _values(got)], op
    # sums and differences need no rounding
    assert (A + B).coeffs == [float(p + q) for p, q in zip(a, b)]


def test_float_coefficient_enters_binary_exact():
    a = Series([0.1, 1e-300, 3])
    assert a._bits is None
    assert a.coeffs == [F(0.1), F(1e-300), 3]
    assert (a * 0.1).coeffs == [F(0.1) ** 2, F(1e-300) * F(0.1), 3 * F(0.1)]
    assert (a / 0.1).coeffs == [1, F(1e-300) / F(0.1), 3 / F(0.1)]


def test_exact_series_meeting_a_fixed_point_one_raises():
    exact = Series([1, F(1, 3)])
    fixed = exact._fixed(BITS)
    assert fixed.coeffs == [1.0, 1 / 3]
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for lhs, rhs in ((exact, fixed), (fixed, exact)):
            with pytest.raises(ValueError, match="fixed-point"):
                op(lhs, rhs)
    with pytest.raises(ValueError, match="different precision"):
        fixed + exact._fixed(BITS + 1)
