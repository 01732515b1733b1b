"""Benchmark quantities of a scheme: frequency series, phase error, cost.

The one-step map [[g, tau], [-nu, h]] has unit determinant, so its rotation
angle satisfies sin^2(theta) = nu*tau - w^2 with w = (g - h)/2, for any
scheme, reversible or not. The modified-frequency expansion

    omega_a / omega = asin(sqrt(nu*tau - w^2)) / x,    x = eps * omega,

is computed here entirely inside the truncated series ring: exactly for a
scheme with int and Fraction coefficients whose drift and kick sums multiply
to a rational square, and for any other scheme on fixed-point integers
rounded once from its exact map, read as correctly rounded floats. The
leading coefficient beyond 1 is the order coefficient c_n, the per-period
phase error being 2*pi*c_n*x^n to leading order. The tilt amplitude
w/sin(theta) of the invariant ellipse is a series too: identically zero for
a palindromic scheme, where g = h, and starting at x^1 for a first-order
one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import series as series_mod
from .phasemap import Regime, _polynomials, scheme_matrix, spectral
from .schemes import DRIFT, GKICK, Scheme, get_scheme, has_exact_coefficients
from .series import Series

__all__ = [
    "AnalysisError", "PhaseErrorReport", "StabilityLimit", "ConvergenceRow",
    "ConvergenceStudy", "omega_a_series", "effective_param_series",
    "order_coefficient", "stability_limit", "convergence_study", "analyze",
    "RICHARDSON_RTOL",
]

RICHARDSON_RTOL = 1e-6

#: A fixed-point series coefficient at or below this in magnitude is a
#: round-off term, not a leading term: a float scheme's coefficients miss the
#: order conditions by round-off, so the exact series of the map as stored has
#: real terms of that size (BM's x^2 term is 3.6e-18).
_PARITY_TOL = 1e-14

#: Largest point of the Richardson check; each further point halves it.
_RICHARDSON_H = Fraction(1, 100)

#: Fixed-point bits of the Richardson check's arccos.
_ACOS_BITS = 256

_STABILITY_BRACKET = 10.0

#: Guard bits of a fixed-point frequency series.
_GUARD_BITS = 144


class AnalysisError(ValueError):
    """A benchmark quantity is undefined or a cross-check failed."""


class StabilityLimit(NamedTuple):
    """Largest stable x = eps*omega; bounded is False if none found in (0, 10]."""

    x_max: float
    bounded: bool


def _frequency_parts(s: Scheme, order: int):
    """(tau/x, nu/x, w/x, sin(theta)/x, omega_a/omega) at truncation order + 1.

    The first three are read off the scheme's exact map. w/x = (g - h)/(2x)
    is defined because g(0) = h(0) = 1, and is exactly zero for a
    palindromic scheme, whose products the ring then skips. For a scheme
    with a float coefficient the three are rounded once to fixed point with
    P = 4(order + 1) + 144 bits, and the rest is built there. The series of
    the registry's float schemes shrink by about 2 bits per order at most
    (BM's x^120 coefficient is 3.5e-65, near 2^-214), so 4 bits per order
    leave 2 per order and the 144 guard bits for a float's 53 and the error
    growth of the recurrences: with 64 more bits, no coefficient of the
    registry, Y6 or Y8 rounds to another float. An int and Fraction scheme
    runs exact unless the constant term of a = (tau/x)(nu/x) - (w/x)^2, the
    product of its drift and kick sums, has no rational square root, as
    when a sum passes the consistency check without being exactly 1; the
    exact square root then has no exact value, and the scheme runs in fixed
    point too.
    """
    g, tau_x, nu_x, h = _polynomials(s, True)
    parts = [p._resized(order + 1)
             for p in (tau_x, nu_x, ((g - h) / 2).divided_by_x())]
    t1, n1, w1 = parts
    a0 = t1(0) * n1(0) - w1(0) ** 2
    if not (has_exact_coefficients(s)
            and all(math.isqrt(v) ** 2 == v for v in a0.as_integer_ratio())):
        t1, n1, w1 = (p._fixed(4 * (order + 1) + _GUARD_BITS) for p in parts)
    a = t1 * n1 - w1 * w1
    s1 = a.sqrt()
    # u = x s1 squares to x^2 a, a polynomial of the map's degree; s1*s1
    # would be a full series, its tail round-off in fixed point
    u = s1.times_x()
    wa = series_mod._asin(u, a.times_x().times_x().truncated(u.order))
    return t1, n1, w1, s1, wa.divided_by_x()


def omega_a_series(s: Scheme, order: int = 10) -> Series:
    """Series of omega_a/omega in x = eps*omega, for any scheme.

    tau and nu are odd with leading coefficient x and w = (g - h)/2 is even
    with no constant term, so sin(theta) = sqrt(nu*tau - w^2) is built by
    stripping one power of x from each, taking the square root of the even
    remainder, and restoring the power; the result is asin(sin(theta))/x,
    truncated at `order`.
    """
    return _frequency_parts(s, order)[4].truncated(order)


def effective_param_series(s: Scheme, order: int = 10) -> tuple[Series, Series]:
    """Series of (1/m*, k*/omega^2): the effective mass and spring constant.

    1/m* = (omega_a/omega) * sqrt(tau/nu) and k*/omega^2 =
    (omega_a/omega) * sqrt(nu/tau), with the product equal to
    (omega_a/omega)^2 term by term.
    """
    return _frequency_series(s, order)[1:3]


def _frequency_series(s: Scheme, order: int
                      ) -> tuple[Series, Series, Series, Series]:
    """(omega_a/omega, 1/m*, k*/omega^2, sigma) from one build of the parts.

    sigma = w/sin(theta) is the tilt amplitude (g - h)/(2 sin(theta)) of the
    closed-form evolution.
    """
    t1, n1, w1, s1, wa = _frequency_parts(s, order)
    ratio = (t1 * n1.reciprocal()).sqrt()
    return (wa.truncated(order), (wa * ratio).truncated(order),
            (wa * ratio.reciprocal()).truncated(order),
            (w1 * s1.reciprocal()).truncated(order))


# ------------------------------------------------------- order coefficient

def _exact_half_trace(s: Scheme, x: Fraction) -> Fraction:
    """Half trace of the scheme matrix at a rational x, shear by shear.

    Each active step is applied to the running 2x2 product as a numeric
    shear at x, in exact arithmetic; a float coefficient counts at its
    binary value. The entries are kept as integers over one denominator,
    which every shear multiplies by its own. Nothing here goes through
    `phasemap`'s polynomials or the series ring.
    """
    a, b, c, d, den = 1, 0, 0, 1, 1  # [[a, b], [c, d]] / den
    for st in s.active_steps():
        k = Fraction(st.c) * x
        if st.kind == GKICK:
            k += Fraction(st.u) * x**3
        kn, kd = k.numerator, k.denominator
        if st.kind == DRIFT:
            a, b, c, d = a * kd + kn * c, b * kd + kn * d, c * kd, d * kd
        else:
            a, b, c, d = a * kd, b * kd, c * kd - kn * a, d * kd - kn * b
        den *= kd
    return Fraction(a + d, 2 * den)


def _fixed_acos(t: Fraction) -> Fraction:
    """arccos t for 0 <= t <= 1, as a multiple of 2^-_ACOS_BITS.

    arccos t = 2 asin(s) with s = sqrt((1 - t)/2) <= 1/sqrt(2). s is taken
    with `math.isqrt` on 2^P fixed-point integers, P = _ACOS_BITS, and the
    arcsine series sum(a_k s^(2k+1)) is added in the same integers until a
    term is 0. Each step truncates by less than one unit 2^-P and none of
    these errors grows, so the result is off by less than two units per
    term: below 2^-248 for t in [cos 0.2, 1], where s <= sin 0.1 and about
    40 terms are added, and below 2^-246 on all of [0, 1].
    """
    u = (1 - t) / 2
    s = math.isqrt((u.numerator << 2 * _ACOS_BITS) // u.denominator)
    s2 = s * s >> _ACOS_BITS
    total, term, k = 0, s, 1
    # term = s^k (k - 2)!!/(k - 1)!! for odd k; the series adds term/k
    while term:
        total += term // k
        term = term * s2 * k // ((k + 1) << _ACOS_BITS)
        k += 2
    return Fraction(total, 1 << (_ACOS_BITS - 1))


def _richardson_order_coefficient(s: Scheme, n: int) -> float:
    """Numeric c_n: Richardson extrapolation of (omega_a/omega - 1)/x^n.

    The route (shear product, trace, arccos, Richardson) shares nothing with
    the series ring. T is even in x, so r(x) = (arccos T/x - 1)/x^n holds
    only the even powers x^(2j - n): x^-n from a float scheme's offset of
    omega_a(0), x^(2 - n) .. x^-2 from its round-off terms below order n,
    c_n itself, and the remainder x^2, x^4, ... r is taken at x_j = h/2^j,
    j = 0 .. n/2 + 2, with h = 1/100, and each power p of -n, .., -2, 2, 4
    in turn is eliminated from neighbouring values as (2^p r_(j+1) -
    r_j)/(2^p - 1), all in `Fraction`; the one value left is rounded to
    float once. T is exact at each point, and arccos T is within 2^-248
    there: every point is at most h, so T >= cos 0.2 while omega_a/omega
    <= 20. Divided by x and x^n, that error is below 2^-248/x^(n + 1) at the
    smallest point h/2^(n/2 + 2): below 1e-40 for n = 8, x = 1/6400. Each
    elimination step amplifies an error by at most 5/3, so the n/2 + 2 steps
    leave it below 3e-39 for n = 8: far below the float rounding of any
    |c_n| > 1e-20.
    """
    def ratio(x: Fraction) -> Fraction:
        t = _exact_half_trace(s, x)
        if not 0 <= t <= 1:
            raise AnalysisError(
                f"Richardson check of {s.name!r} needs 0 <= Tr M/2 <= 1 at "
                f"x = {float(x)!r}, where it is {float(t)!r}"
            )
        return (_fixed_acos(t) / x - 1) / x**n

    r = [ratio(_RICHARDSON_H / 2**j) for j in range(n // 2 + 3)]
    for p in (*range(-n, 0, 2), 2, 4):
        f = Fraction(2) ** p
        r = [(f * b - a) / (f - 1) for a, b in zip(r, r[1:])]
    return float(r[0])


def order_coefficient(s: Scheme):
    """Leading deviation order and coefficient: omega_a/omega = 1 + c_n x^n + ...

    The search runs to x^max(10, declared order + 4). The series value is
    cross-checked against the independent numeric Richardson estimate;
    disagreement beyond 1e-6 relative raises instead of averaging.
    """
    return _leading_term(s, omega_a_series(s, _lead_order(s)))


def _lead_order(s: Scheme) -> int:
    """Truncation order of the leading-term search."""
    return max(10, s.order + 4)


def _leading_term(s: Scheme, wa: Series):
    """(n, c_n) of order_coefficient, read from the omega_a series wa.

    In a fixed-point series a term within _PARITY_TOL of 0 does not lead.
    """
    coeffs = wa.coeffs
    tol = 0 if wa._bits is None else _PARITY_TOL
    n = next((k for k in range(1, wa.order + 1) if abs(coeffs[k]) > tol), None)
    if n is None:
        raise AnalysisError(
            f"leading order of {s.name!r} exceeds truncation order {wa.order}"
        )
    c_n = coeffs[n]
    numeric = _richardson_order_coefficient(s, n)
    if abs(numeric - float(c_n)) > RICHARDSON_RTOL * abs(float(c_n)):
        raise AnalysisError(
            f"order-coefficient cross-check failed for {s.name!r}: series "
            f"gives {float(c_n)!r}, Richardson gives {numeric!r}"
        )
    return n, c_n


def _normalized(s: Scheme, lead) -> float:
    """Cost-normalized coefficient c* = c4 * (force_evals/3)^4 / |c4(FR)|.

    lead is s's (n, c_n). c* is defined for the fourth-order benchmark table
    only, with the Forest-Ruth scheme as reference; one gradient evaluation
    counts as one force evaluation through the declared force_evals
    metadata. FR's order coefficient is computed only when s is not FR
    itself; it costs a series build and a Richardson check. A c* beyond
    float range, as a huge force_evals gives, is undefined too.
    """
    if s.order != 4:
        raise AnalysisError(
            f"normalization is defined for 4th-order schemes; "
            f"{s.name!r} declares order {s.order}"
        )
    n, c4 = lead
    if n != 4:
        raise AnalysisError(
            f"{s.name!r} declares order 4 but its leading deviation is x^{n}"
        )
    ref = get_scheme("FR")
    c4_ref = c4 if ref == s else order_coefficient(ref)[1]
    try:
        c_star = float(c4) * (s.force_evals / 3.0) ** 4 / abs(float(c4_ref))
    except OverflowError:  # a float power raises where a product gives inf
        c_star = math.inf
    if not math.isfinite(c_star):
        raise AnalysisError(f"c* of {s.name!r} is beyond float range")
    return c_star


# ------------------------------------------------------------ stability

def stability_limit(s: Scheme) -> StabilityLimit:
    """First x in (0, 10] past which |Tr M(x)/2| exceeds 1, from the exact map.

    With T = Tr M/2 and y = x^2, a stable window ends where T^2 - 1 =
    (T - 1)(T + 1) changes sign, at a root of odd multiplicity. At a root of
    even multiplicity T only touches +-1 and the map stays stable on both
    sides; an n-fold repeat of a scheme has n - 1 such touch points.
    `_first_sign_change` bisects y in (0, 100] at float midpoints, left half
    first, down to adjacent floats. The edge is the first such pair (lo, hi]
    where the sign of the two factors' product just right of hi differs
    from its sign just right of 0, and x_max = sqrt(hi), which is the edge
    itself when it is a float (y = 4 for SV, so x_max = 2.0). A touch point
    changes no sign and is stepped over. A piece is skipped when an exact
    Taylor bound about its midpoint shows that neither factor has a root on
    it; that midpoint is taken in integers, because a float lo + hi can
    round, and a bound about a point off the midpoint can clear a piece with
    a root at its end. An unstable excursion narrower than the float
    spacing at y, two odd-multiplicity roots between adjacent floats,
    contains no float: the sign at every float is the same, so it is not an
    edge, where the count-based bisection of Sturm chains reported one.
    Returns (10.0, False) when the sign does not change in (0, 100].
    """
    hi = _first_sign_change(_stability_factors(s), 0.0,
                            _STABILITY_BRACKET ** 2)
    if hi is None:
        return StabilityLimit(_STABILITY_BRACKET, False)
    return StabilityLimit(math.sqrt(hi), True)


# Integer polynomials below are coefficient lists, lowest power first, with
# no trailing zeros; [] is the zero polynomial.

def _stability_factors(s: Scheme) -> tuple[list[int], list[int]]:
    """Positive multiples of (T - 1)/y and T + 1 as integer polynomials in y.

    T = (g + h)/2 is read from the scheme's exact map (`phasemap`), whose
    coefficients are exact rationals, binary-exact ones for a float scheme.
    A rounded map would not do: rounding can split a point where T only
    touches -1 into two close roots, an unstable window that the scheme does
    not have. T is even in x, because every shear keeps the diagonal even and
    the off-diagonal odd, so 2T = sum e_j y^j with y = x^2; with L the lcm
    of the denominators of the e_j, n_j = L*e_j are integers and n_0 = 2L.
    The exact map holds g + h as integer numerators over that very L, so the
    n_j are its even numerators. Then 2L(T - 1) = sum_(j>=1) n_j y^j, which
    y divides, and 2L(T + 1) = 2n_0 + sum_(j>=1) n_j y^j.
    """
    g, _, _, h = _polynomials(s, True)
    n = (g + h)._nums[::2]
    return _primitive(n[1:]), _primitive([2 * n[0], *n[1:]])


def _primitive(p: list[int]) -> list[int]:
    """p without trailing zeros, divided by the positive gcd of its terms."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    content = math.gcd(*p)
    return [c // content for c in p] if content > 1 else p


def _first_sign_change(factors: list[list[int]], lo: float, hi: float
                       ) -> float | None:
    """First float b in (lo, hi] where the factors' product changes sign.

    (lo, hi] is bisected at the float midpoints 0.5*(lo + hi), left half
    first, down to pairs of adjacent floats (a, b]. A piece that
    `_root_free` clears for every factor is skipped. At each pair reached,
    the sign of the product just right of b, read from each factor's first
    nonzero Taylor coefficient at b, is compared with its sign just right of
    lo; the first b where they differ is returned, and None if there is
    none. Every float in (lo, hi] ends one pair and the float grid is
    finite, so the bisection ends, and the factors need not be square-free.
    b is the smallest odd-multiplicity root r of the product in (lo, hi]
    when r is a float, else the next float above r, unless a second such
    root lies between r and that float. A root at lo is divided out first,
    which changes no sign on (lo, hi], where y - lo > 0: the pieces are
    half-open but `_root_free` tests them closed, so a root at lo would keep
    every left-most piece from being cleared, down to the float grid.
    """
    def sign_after(y: float) -> int:
        n, d = y.as_integer_ratio()
        return sum(next(c for c in _taylor(q, n, d.bit_length() - 1) if c) < 0
                   for q in factors) % 2

    factors = [_without_root(q, lo) for q in factors]
    start = sign_after(lo)
    pieces = [(lo, hi)]
    while pieces:
        lo, hi = pieces.pop()
        mid = 0.5 * (lo + hi)
        if lo < mid < hi:
            if not all(_root_free(q, lo, hi) for q in factors):
                pieces += [(mid, hi), (lo, mid)]
        elif sign_after(hi) != start:
            return hi
    return None


def _without_root(q: list[int], y: float) -> list[int]:
    """q(t)/(d t - n)^k, where y = n/d in lowest terms and k is the
    multiplicity of y as a root of q.

    By Gauss's lemma each quotient has integer coefficients; synthetic
    division finds them from the top coefficient down.
    """
    n, d = y.as_integer_ratio()
    while len(q) > 1 and not _taylor(q, n, d.bit_length() - 1)[0]:
        quotient, carry = [], 0
        for c in reversed(q[1:]):
            carry = (c + n * carry) // d
            quotient.append(carry)
        q = quotient[::-1]
    return q


def _root_free(q: list[int], lo: float, hi: float) -> bool:
    """True when an exact Taylor bound shows q has no root in [lo, hi].

    About the midpoint m, with half-width r, q(m + t) = sum q_k t^k has no
    root for |t| <= r when |q_0| > sum_(k>=1) |q_k| r^k. m is taken exactly,
    in integers: a float lo + hi can round, and a bound about a point that
    is not the midpoint can miss a root at an end of the piece.
    """
    (a, d), (b, e) = lo.as_integer_ratio(), hi.as_integer_ratio()
    den = max(d, e)  # d and e are powers of two
    a, b = a * (den // d), b * (den // e)
    # m = (a + b)/(2 den) and r = (b - a)/(2 den), with 2 den = 2^bit_length
    c0, *rest = _taylor(q, a + b, den.bit_length())
    bound = 0
    for c in reversed(rest):
        bound = (bound + abs(c)) * (b - a)
    return abs(c0) > bound


def _taylor(q: list[int], n: int, bits: int) -> list[int]:
    """Coefficients in t of d^deg q((n + t)/d), d = 2^bits.

    They are q's Taylor coefficients at n/d, q^(k)(n/d)/k!, times d^(deg - k).
    """
    deg = len(q) - 1
    p = [c << bits * (deg - k) for k, c in enumerate(q)]
    for i in range(deg):
        for k in range(deg - 1, i - 1, -1):
            p[k] += n * p[k + 1]
    return p


# ----------------------------------------------------------- convergence

class ConvergenceRow(NamedTuple):
    order: int
    partial_sum: float
    abs_error: float | None


class ConvergenceStudy(NamedTuple):
    scheme: str
    x: float
    closed_form: float | None
    rows: tuple[ConvergenceRow, ...]
    radius_estimate: float | None


def convergence_study(s: Scheme, x: float, order: int = 20) -> ConvergenceStudy:
    """Partial sums of the frequency series against the closed form.

    Rows k = 0..order hold the partial sum through x^k and, when the map is
    elliptic at this x, the absolute error against the arccos closed form.
    The radius estimate is a plain ratio test over the last four nonzero
    coefficients (diagnostic only), where a fixed-point series'
    coefficients within _PARITY_TOL of 0 count as zero.
    """
    wa = omega_a_series(s, order)
    data = spectral(scheme_matrix(s, float(x), 1.0))
    closed = data.omega_a if data.regime is Regime.ELLIPTIC else None
    coeffs = wa._floats()
    rows = []
    acc = 0.0
    power = 1.0
    for k, c in enumerate(coeffs):
        # a zero term adds nothing, also where x^k has overflowed to inf
        if c:
            acc += c * power
        power *= x
        err = abs(acc - closed) if closed is not None else None
        rows.append(ConvergenceRow(k, acc, err))
    tol = 0 if wa._bits is None else _PARITY_TOL
    nonzero = [(k, abs(c)) for k, c in enumerate(coeffs) if k >= 1 and abs(c) > tol]
    radius = None
    if len(nonzero) >= 2:
        tail = nonzero[-4:]
        estimates = [
            (c1 / c2) ** (1.0 / (k2 - k1))
            for (k1, c1), (k2, c2) in zip(tail, tail[1:])
        ]
        radius = sum(estimates) / len(estimates)
    return ConvergenceStudy(s.name, float(x), closed, tuple(rows), radius)


# -------------------------------------------------------------- report

class PhaseErrorReport(NamedTuple):
    """Everything cmd_analyze prints for one scheme except `reversible`."""

    scheme: str
    order_declared: int
    n: int
    c_n: float
    c_star: float | None
    stability: StabilityLimit
    omega_a: Series
    inv_mass: Series
    k_star: Series
    sigma: Series


def analyze(s: Scheme, order: int = 10) -> PhaseErrorReport:
    """Full phase-error report of any scheme, reversible or not.

    The frequency series are built once, at the larger of `order` and the
    leading-term search order; series coefficients do not depend on the
    truncation order, so each truncation equals a build at that order.
    """
    lead = _lead_order(s)
    series = _frequency_series(s, max(order, lead))
    n, c_n = _leading_term(s, series[0].truncated(lead))
    try:
        c_star = _normalized(s, (n, c_n))
    except AnalysisError:
        c_star = None
    wa, inv_mass, k_star, sigma = (f.truncated(order) for f in series)
    return PhaseErrorReport(
        scheme=s.name,
        order_declared=s.order,
        n=n,
        c_n=float(c_n),
        c_star=c_star,
        stability=stability_limit(s),
        omega_a=wa,
        inv_mass=inv_mass,
        k_star=k_star,
        sigma=sigma,
    )
