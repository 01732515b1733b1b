"""Unit and property tests for the truncated power-series ring."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oscmap.phasemap import scheme_series_matrix
from oscmap.schemes import get_scheme
from oscmap.series import Series, asin

F = Fraction


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


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
    """sqrt(nu*tau) of a registry scheme, the argument analysis passes to asin."""
    m = scheme_series_matrix(get_scheme(name), order)
    return (m.tau.divided_by_x() * m.nu.divided_by_x()).sqrt().times_x()


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
    xi = _xi(name, 60)
    got, ref = asin(xi), _asin_horner(xi)
    assert all(isinstance(c, (int, float)) for c in got.coeffs)
    for u, v in zip(got.coeffs, ref.coeffs):
        assert close(u, v)


# ---------------------------------------------------------------- helpers

def test_truncated_and_shifts():
    a = Series([1, 2, 3, 4])
    assert a.truncated(1).coeffs == [1, 2]
    assert a.times_x().coeffs == [0, 1, 2, 3, 4]
    assert Series([0, 5, 6]).divided_by_x().coeffs == [5, 6]
    with pytest.raises(ValueError, match="constant term"):
        a.divided_by_x()


def test_evaluation():
    a = Series([1, 2, 3])
    assert a(2.0) == 1 + 4 + 12


# ---------------------------------------------------------------- properties

exact_coeffs = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    min_size=5, max_size=5,
)
float_coeffs = st.lists(
    st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False),
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
@given(float_coeffs, float_coeffs, float_coeffs)
def test_ring_axioms_float(a, b, c):
    A, B, C = Series(a), Series(b), Series(c)
    lhs, rhs = (A * B) * C, A * (B * C)
    for u, v in zip(lhs.coeffs, rhs.coeffs):
        assert close(u, v)
    lhs, rhs = A * (B + C), A * B + A * C
    for u, v in zip(lhs.coeffs, rhs.coeffs):
        assert close(u, v)


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
@given(float_coeffs)
def test_sqrt_squares_back_float(tail):
    b = Series([1.0] + tail)
    a = b * b
    r = a.sqrt()
    for u, v in zip(r.coeffs, b.coeffs):
        assert close(u, v, 1e-9)
