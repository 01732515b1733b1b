"""Benchmark quantities of a scheme: frequency series, phase error, cost.

The one-step map [[g, tau], [-nu, h]] has unit determinant, so its rotation
angle satisfies sin^2(theta) = nu*tau - w^2 with w = (g - h)/2, for any
scheme, reversible or not. The modified-frequency expansion

    omega_a / omega = asin(sqrt(nu*tau - w^2)) / x,    x = eps * omega,

is computed here entirely inside the truncated series ring, which makes the
coefficients exact in rational mode. The leading coefficient beyond 1 is the
order coefficient c_n, the per-period phase error being 2*pi*c_n*x^n to
leading order. The tilt amplitude w/sin(theta) of the invariant ellipse is
a series too: identically zero for a palindromic scheme, where g = h, and
starting at x^1 for a first-order one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from . import series as series_mod
from .phasemap import (Regime, RegimeError, _polynomials, scheme_matrix,
                       scheme_series_matrix, spectral)
from .schemes import DRIFT, GKICK, Scheme, get_scheme
from .series import Series, _is_zero

if TYPE_CHECKING:
    import mpmath

__all__ = [
    "AnalysisError", "PhaseErrorReport", "StabilityLimit", "ConvergenceRow",
    "ConvergenceStudy", "omega_a_series", "effective_param_series",
    "phase_error", "order_coefficient", "normalized_coefficient",
    "stability_limit", "convergence_study", "analyze",
    "RICHARDSON_GRID", "RICHARDSON_RTOL",
]

#: Grid for the numeric Richardson cross-check of the order coefficient.
RICHARDSON_GRID = (1e-2, 5e-3, 2.5e-3)
RICHARDSON_RTOL = 1e-6

_STABILITY_BRACKET = 10.0


class AnalysisError(ValueError):
    """A benchmark quantity is undefined or a cross-check failed."""


class StabilityLimit(NamedTuple):
    """Largest stable x = eps*omega; bounded is False if none found in (0, 10]."""

    x_max: float
    bounded: bool


def _frequency_parts(s: Scheme, order: int, exact: bool | None):
    """(tau/x, nu/x, w/x, sin(theta)/x, omega_a/omega) at truncation order + 1.

    w/x = (g - h)/(2x) is defined because g(0) = h(0) = 1, and is exactly
    zero for a palindromic scheme, whose products the ring then skips.
    """
    m = scheme_series_matrix(s, order + 2, exact)
    t1 = m.tau.divided_by_x()
    n1 = m.nu.divided_by_x()
    w1 = ((m.g - m.h) / 2).divided_by_x()
    s1 = (t1 * n1 - w1 * w1).sqrt()
    return t1, n1, w1, s1, series_mod.asin(s1.times_x()).divided_by_x()


def omega_a_series(s: Scheme, order: int = 10,
                   exact: bool | None = None) -> Series:
    """Series of omega_a/omega in x = eps*omega, for any scheme.

    tau and nu are odd with leading coefficient x and w = (g - h)/2 is even
    with no constant term, so sin(theta) = sqrt(nu*tau - w^2) is built by
    stripping one power of x from each, taking the square root of the even
    remainder, and restoring the power; the result is asin(sin(theta))/x,
    truncated at `order`.
    """
    return _frequency_parts(s, order, exact)[4].truncated(order)


def effective_param_series(s: Scheme, order: int = 10,
                           exact: bool | None = None) -> tuple[Series, Series]:
    """Series of (1/m*, k*/omega^2): the effective mass and spring constant.

    1/m* = (omega_a/omega) * sqrt(tau/nu) and k*/omega^2 =
    (omega_a/omega) * sqrt(nu/tau), with the product equal to
    (omega_a/omega)^2 term by term.
    """
    return _frequency_series(s, order, exact)[1:3]


def _frequency_series(s: Scheme, order: int, exact: bool | None = None
                      ) -> tuple[Series, Series, Series, Series]:
    """(omega_a/omega, 1/m*, k*/omega^2, sigma) from one build of the parts.

    sigma = w/sin(theta) is the tilt amplitude (g - h)/(2 sin(theta)) of the
    closed-form evolution.
    """
    t1, n1, w1, s1, wa = _frequency_parts(s, order, exact)
    ratio = (t1 * n1.reciprocal()).sqrt()
    return (wa.truncated(order), (wa * ratio).truncated(order),
            (wa * ratio.reciprocal()).truncated(order),
            (w1 * s1.reciprocal()).truncated(order))


def phase_error(s: Scheme, x: float) -> float:
    """Per-period phase error 2*pi*(omega_a/omega - 1) at x = eps*omega."""
    data = spectral(scheme_matrix(s, x, 1.0))
    if data.regime is not Regime.ELLIPTIC:
        raise RegimeError(f"{data.regime.value} map at x = {x}: {data.detail}")
    return 2.0 * math.pi * (data.omega_a - 1.0)


# ------------------------------------------------------- order coefficient

def _mp_half_trace(s: Scheme, x: mpmath.mpf) -> mpmath.mpf:
    """Half trace of the scheme matrix at working precision (direct shears)."""
    import mpmath

    one, zero = mpmath.mpf(1), mpmath.mpf(0)
    m = [[one, zero], [zero, one]]
    for st in s.active_steps():
        c = _to_mpf(st.c)
        if st.kind == DRIFT:
            f = [[one, c * x], [zero, one]]
        else:
            mu = c * x
            if st.kind == GKICK:
                mu += _to_mpf(st.u) * x**3
            f = [[one, zero], [-mu, one]]
        m = [
            [f[0][0] * m[0][0] + f[0][1] * m[1][0],
             f[0][0] * m[0][1] + f[0][1] * m[1][1]],
            [f[1][0] * m[0][0] + f[1][1] * m[1][0],
             f[1][0] * m[0][1] + f[1][1] * m[1][1]],
        ]
    return (m[0][0] + m[1][1]) / 2


def _to_mpf(v):
    import mpmath

    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)
    return mpmath.mpf(v)


def _richardson_order_coefficient(s: Scheme, n: int) -> float:
    """Numeric c_n: Richardson extrapolation of (omega_a/omega - 1)/x^n.

    Works at 50 digits because the deviation is as small as c4*x^4 ~ 1e-16
    on the pinned grid; the route (shear product, trace, arccos, Richardson)
    shares nothing with the series ring. The deviation is measured relative
    to its x -> 0 floor: float rounding of the consistency sums (~1e-17)
    shifts omega_a/omega by a constant, which the 1/x^n division would
    otherwise amplify through the extrapolation. mpmath is imported here and
    in the helpers, not at module level, because only this check needs it.
    """
    import mpmath

    with mpmath.workdps(50):
        x_floor = mpmath.mpf("1e-6")
        floor = mpmath.acos(_mp_half_trace(s, x_floor)) / x_floor - 1
        r = []
        for x in RICHARDSON_GRID:
            xm = mpmath.mpf(x)
            dev = mpmath.acos(_mp_half_trace(s, xm)) / xm - 1
            r.append((dev - floor) / xm**n)
        # eliminate the x^2 and x^4 corrections of the even remainder
        r1a = (4 * r[1] - r[0]) / 3
        r1b = (4 * r[2] - r[1]) / 3
        return float((16 * r1b - r1a) / 15)


def order_coefficient(s: Scheme, max_order: int | None = None):
    """Leading deviation order and coefficient: omega_a/omega = 1 + c_n x^n + ...

    The series value is cross-checked against the independent numeric
    Richardson estimate; disagreement beyond 1e-6 relative raises instead of
    averaging.
    """
    order = max_order if max_order is not None else _lead_order(s)
    return _leading_term(s, omega_a_series(s, order))


def _lead_order(s: Scheme) -> int:
    """Default truncation order of the leading-term search."""
    return max(10, s.order + 4)


def _leading_term(s: Scheme, wa: Series):
    """(n, c_n) of order_coefficient, read from the omega_a series wa."""
    n = next((k for k in range(1, wa.order + 1) if not _is_zero(wa.coeffs[k])),
             None)
    if n is None:
        raise AnalysisError(
            f"leading order of {s.name!r} exceeds truncation order {wa.order}"
        )
    c_n = wa.coeffs[n]
    numeric = _richardson_order_coefficient(s, n)
    if abs(numeric - float(c_n)) > RICHARDSON_RTOL * abs(float(c_n)):
        raise AnalysisError(
            f"order-coefficient cross-check failed for {s.name!r}: series "
            f"gives {float(c_n)!r}, Richardson gives {numeric!r}"
        )
    return n, c_n


def normalized_coefficient(s: Scheme, reference: Scheme | None = None) -> float:
    """Cost-normalized coefficient c* = c4 * (force_evals/3)^4 / |c4(ref)|.

    Defined for the fourth-order benchmark table only; the reference defaults
    to the Forest-Ruth scheme and one gradient evaluation counts as one force
    evaluation through the declared force_evals metadata.
    """
    return _normalized(s, reference, None)


def _normalized(s: Scheme, reference: Scheme | None, lead) -> float:
    """normalized_coefficient, given s's (n, c_n) as `lead` or None.

    The reference's order coefficient is computed only when the reference
    is not s itself; each one costs a series build and a Richardson check.
    """
    ref = reference if reference is not None else get_scheme("FR")
    for scheme in (s, ref):
        if scheme.order != 4:
            raise AnalysisError(
                f"normalization is defined for 4th-order schemes; "
                f"{scheme.name!r} declares order {scheme.order}"
            )
    n, c4 = lead if lead is not None else order_coefficient(s)
    if n != 4:
        raise AnalysisError(
            f"{s.name!r} declares order 4 but its leading deviation is x^{n}"
        )
    n_ref, c4_ref = (n, c4) if ref == s else order_coefficient(ref)
    if n_ref != 4:
        raise AnalysisError(
            f"reference {ref.name!r} leading deviation is x^{n_ref}, not x^4"
        )
    return float(c4) * (s.force_evals / 3.0) ** 4 / abs(float(c4_ref))


# ------------------------------------------------------------ stability

def stability_limit(s: Scheme) -> StabilityLimit:
    """First x in (0, 10] past which |Tr M(x)/2| exceeds 1, from the exact roots.

    With T = Tr M/2, the map is unstable where T^2 > 1, and T(0) = 1, so x^2
    divides T^2 - 1. P = (T^2 - 1)/x^2 is a polynomial in y = x^2 with exact
    rational coefficients (binary-exact ones for a float scheme). A stable
    window ends where P changes sign, at a root of odd multiplicity. At a
    root of even multiplicity T only touches +-1 and the map stays stable on
    both sides; an n-fold repeat of a scheme has n - 1 such touch points.
    A Sturm chain of the odd-multiplicity part of P counts the window edges
    exactly, so none is missed however narrow the window. The first one in
    (0, 100] is bisected on Sturm counts down to adjacent floats; x_max =
    sqrt of the upper one, which is the edge itself when it is a float (y = 4
    for SV, so x_max = 2.0). Returns (10.0, False) when P changes sign
    nowhere in (0, 100].
    """
    p = _stability_polynomial(s)
    chain = _sturm_chain(p)
    if len(chain[-1]) > 1:  # repeated roots: keep the odd-multiplicity ones
        chain = _sturm_chain(_odd_part(p))
    lo, hi = 0.0, _STABILITY_BRACKET ** 2
    v_lo, v_hi = _variations(chain, lo), _variations(chain, hi)
    if v_lo == v_hi:
        return StabilityLimit(_STABILITY_BRACKET, False)
    # no edge in (0, lo], at least one in (lo, hi]
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return StabilityLimit(math.sqrt(hi), True)
        v_mid = _variations(chain, mid)
        if v_mid < v_lo:
            hi = mid
        else:
            lo, v_lo = mid, v_mid


# Integer polynomials below are coefficient lists, lowest power first, with
# no trailing zeros; [] is the zero polynomial.

def _stability_polynomial(s: Scheme) -> list[int]:
    """A positive multiple of (T^2 - 1)/x^2 as an integer polynomial in y = x^2.

    T = (g + h)/2 is read from the scheme's exact map (`phasemap`), whose
    coefficients are exact rationals, binary-exact ones for a float scheme.
    A rounded map would not do: rounding can split a point where T only
    touches -1 into two close roots, an unstable window that the scheme does
    not have. T is even in x, because every shear keeps the diagonal even and
    the off-diagonal odd, so 2T = sum e_j y^j; with L the lcm of the
    denominators of the e_j, n_j = L*e_j are integers and n_0 = 2L.
    """
    g, _, _, h = _polynomials(s, True)
    t = [Fraction(v) for v in (g + h).coeffs[::2]]
    den = math.lcm(*(v.denominator for v in t))
    n = [int(v * den) for v in t]
    # (n^2 - n_0^2)/y is a positive multiple of (T^2 - 1)/x^2
    return _primitive(_mul_add([-n[0] ** 2], n, n)[1:])


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _primitive(p: list[int]) -> list[int]:
    """p divided by the positive gcd of its coefficients."""
    p = _trim(list(p))
    content = math.gcd(*p)
    return [c // content for c in p] if content > 1 else p


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with lc(b)^(deg a - deg b + 1) * a = q*b + r and deg r < deg b."""
    lead, db = b[-1], len(b) - 1
    q, r = [0] * (len(a) - db), list(a)
    for k in range(len(q) - 1, -1, -1):
        top = r.pop()
        q = [lead * c for c in q]
        q[k] += top
        r = [lead * c for c in r]
        for i in range(db):
            r[k + i] -= top * b[i]
    return q, _trim(r)


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p', then each term a positive multiple of -rem(two before, one before).

    The last term is gcd(p, p') up to a constant factor.
    """
    chain = [p, _primitive([k * c for k, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        _, r = _pseudo_divmod(a, b)
        if not r:
            break
        # the pseudo-remainder is lc(b)^(deg a - deg b + 1) times rem(a, b)
        flip = b[-1] > 0 or (len(a) - len(b)) % 2 == 1
        chain.append(_primitive([-c if flip else c for c in r]))
    return chain


def _odd_part(p: list[int]) -> list[int]:
    """Product of the factors of p whose roots have odd multiplicity, each once.

    With g_0 = p and g_j = gcd(g_(j-1), g_(j-1)'), s_j = g_(j-1)/g_j has each
    root of multiplicity >= j once, so s_j/s_(j+1) has those of multiplicity
    exactly j; their product over odd j is the result.
    """
    parts = []
    while len(p) > 1:
        g = _sturm_chain(p)[-1]
        parts.append(_exact_div(p, g))
        p = g
    parts.append([1])
    odd = [1]
    for a, b in zip(parts[::2], parts[1::2]):
        odd = _mul_add([], odd, _exact_div(a, b))
    return odd


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a/b, for b dividing a."""
    return _primitive(_pseudo_divmod(a, b)[0])


def _mul_add(p: list[int], a: list[int], b: list[int]) -> list[int]:
    """p + a*b."""
    out = p + [0] * (len(a) + len(b) - 1 - len(p))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sign_at(p: list[int], y: float) -> int:
    """Exact sign of p(y) at a float y."""
    n, d = y.as_integer_ratio()
    acc, scale = 0, 1
    # Horner on the numerator of p(n/d) * d^deg, all in integers
    for c in reversed(p):
        acc = acc * n + c * scale
        scale *= d
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], y: float) -> int:
    """Sign changes along the chain at y, zeros skipped (Sturm's V(y))."""
    signs = [v for v in (_sign_at(p, y) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


# ----------------------------------------------------------- convergence

@dataclass(frozen=True)
class ConvergenceRow:
    order: int
    partial_sum: float
    abs_error: float | None


@dataclass(frozen=True)
class ConvergenceStudy:
    scheme: str
    x: float
    closed_form: float | None
    rows: tuple[ConvergenceRow, ...]
    radius_estimate: float | None


def convergence_study(s: Scheme, x: float, order: int = 20,
                      exact: bool | None = None) -> ConvergenceStudy:
    """Partial sums of the frequency series against the closed form.

    Rows k = 0..order hold the partial sum through x^k and, when the map is
    elliptic at this x, the absolute error against the arccos closed form.
    The radius estimate is a plain ratio test over the last four nonzero
    coefficients (diagnostic only).
    """
    wa = omega_a_series(s, order, exact)
    data = spectral(scheme_matrix(s, float(x), 1.0))
    closed = data.omega_a if data.regime is Regime.ELLIPTIC else None
    rows = []
    acc = 0.0
    power = 1.0
    for k, c in enumerate(wa.coeffs):
        acc += float(c) * power
        power *= x
        err = abs(acc - closed) if closed is not None else None
        rows.append(ConvergenceRow(k, acc, err))
    nonzero = [
        (k, abs(float(c))) for k, c in enumerate(wa.coeffs)
        if k >= 1 and not _is_zero(float(c))
    ]
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

@dataclass(frozen=True)
class PhaseErrorReport:
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


def analyze(s: Scheme, order: int = 10,
            reference: Scheme | None = None) -> PhaseErrorReport:
    """Full phase-error report of any scheme, reversible or not.

    The frequency series are built once, at the larger of `order` and the
    leading-term search order; series coefficients do not depend on the
    truncation order, so each truncation equals a build at that order.
    """
    lead = _lead_order(s)
    series = _frequency_series(s, max(order, lead))
    n, c_n = _leading_term(s, series[0].truncated(lead))
    try:
        c_star = _normalized(s, reference, (n, c_n))
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
