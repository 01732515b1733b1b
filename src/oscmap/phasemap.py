"""The exact per-timestep 2x2 map of a splitting scheme and its spectrum.

A scheme acting on the oscillator is a linear map of (q, p), stored through
the four entries [[g, tau], [-nu, h]]; symplecticity means
det = g*h + tau*nu = 1. In x = eps*omega (and omega = 1) each entry is a
finite polynomial: every drift or kick raises the degree by one and every
force-gradient kick by three. The four polynomials are built once per scheme,
in exact arithmetic, by applying its shears one by one in the Series ring,
where each polynomial is integer numerators over one shared denominator; a
float step coefficient enters as its binary-exact rational, so the build is
exact for any scheme. Every other form is read from it: the frequency series
in `analysis` read the polynomials themselves, exact for a scheme with int
or Fraction coefficients and, otherwise, rounded once to fixed-point
integers and read as correctly rounded floats; `scheme_matrix` evaluates
them exactly at one timestep eps and frequency omega and rounds each entry
once to float. The stability limit in `analysis` reads the half trace's
integer numerators from the exact build, and `schemes.is_symmetric`
compares its diagonal entries g and h. `sweep` runs a kernel generated once
per scheme and quantity, in plain Python floats: per grid point it
evaluates the even polynomials T = (g + h)/2, tau/x, nu/x and W = w/x^2,
w = (g - h)/2, in y = x^2, each coefficient rounded once from the exact
build, and reads the regime from T and the discriminant scaled by x^2,
x = 0 and overflowed sums included. It agrees with `spectral` of
`scheme_matrix` to round-off, not bit for bit.

Two parts live in modules of their own, imported by the first call that
runs them, so a command compiles only what it uses: the sweep kernel in
`sweepkernel`, imported by `sweep`, and the closed-form evolution and the
shadow energy H_A in `closedform`, imported by `propagate_closed_form` and
by `simulate`.

Ordering convention: the first step of a scheme acts first on the phase
point, so the matrix product carries the first step rightmost. The
Stoermer/Verlet anchor g = 1 - x^2/2, tau = eps, nu = eps*omega^2*(1 - x^2/4)
pins this choice.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .series import Series
from .schemes import DRIFT, GKICK, Scheme, SchemeError, Step

__all__ = [
    "PhaseMatrix", "SpectralData", "Regime", "RegimeError",
    "scheme_matrix", "scheme_series_matrix", "spectral", "sweep",
    "propagate_closed_form",
    "PARABOLIC_TOL", "SWEEP_QUANTITIES",
]

#: |Tr M| within this of 2 is classified parabolic rather than elliptic.
PARABOLIC_TOL = 1e-12

#: A numeric 2x2 matrix as its two rows.
Rows = tuple[tuple[float, float], tuple[float, float]]


class Regime(str, Enum):
    __str__ = str.__str__  # str(), format() and %s write the value

    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class RegimeError(ValueError):
    """Raised when a quantity is requested outside the elliptic regime."""


class PhaseMatrix(namedtuple("PhaseMatrix", "g tau nu h eps omega")):
    """One-timestep map [[g, tau], [-nu, h]] on (q, p) at eps and omega."""

    __slots__ = ()


class SpectralData(namedtuple(
        "SpectralData", "theta xi omega_a m_star k_star regime detail",
        defaults=("",))):
    """Rotation data of one numeric map; fields undefined in its regime are None.

    theta, xi, omega_a, m_star and k_star are set in the elliptic regime
    only; `detail` says why a parabolic or hyperbolic map has none of them.
    m_star or k_star beyond the float range is inf or 0.0. Every elliptic
    map, reversible or not, has a shadow energy H_A
    (`closedform._shadow_energy`).
    """

    __slots__ = ()


# ------------------------------------------------------------ polynomial map

#: Built maps, keyed by active steps.
_POLYNOMIALS: dict[tuple[Step, ...], tuple[Series, ...]] = {}


def _polynomials(s: Scheme) -> tuple[Series, ...]:
    """g, tau/x, nu/x and h of the scheme's map as polynomials in x.

    The shears are applied once per scheme, in step order, in the Series ring
    at truncation order = degree, so nothing is dropped, with every step
    coefficient taken at its exact value, binary-exact for a float. A
    drift c*x changes only the top row and a kick mu(x) = c*x (+ u*x^3 for a
    gkick) only the bottom one, so each step is two ring products. The
    build is the exact map of the scheme as stored, in integer numerators
    over one denominator per polynomial. A map coefficient beyond float
    range, which steps within it can multiply to, raises SchemeError. Steps
    that compare equal, such as Fraction(1, 2) and 0.5, have the same exact
    value, so they share one build. Callers must not mutate the result.
    """
    steps = s.active_steps()
    polys = _POLYNOMIALS.get(steps)
    if polys is None:
        degree = sum(3 if st.kind == GKICK else 1 for st in steps)
        g = h = Series.one(degree)
        tau = nu = Series.zero(degree)
        for st in steps:
            if st.kind == DRIFT:
                cx = Series([0, st.c], degree)
                g, tau = g - cx * nu, tau + cx * h
            else:
                mu = Series([0, st.c, 0, st.u] if st.kind == GKICK
                            else [0, st.c], degree)
                nu, h = nu + mu * g, h - mu * tau
        polys = (g, tau.divided_by_x(), nu.divided_by_x(), h)
        try:  # the largest coefficient is the largest numerator over d
            max(max(map(abs, p._nums)) / p._den for p in polys)
        except OverflowError:
            raise SchemeError(f"scheme {s.name!r}: a coefficient of its one-step "
                              "map is beyond float range") from None
        _POLYNOMIALS[steps] = polys
    return polys


def scheme_matrix(s: Scheme, eps: float, omega: float) -> PhaseMatrix:
    """Numeric one-timestep matrix: the exact map at x = eps*omega, rounded once.

    g(x), eps*(tau/x)(x), eps*omega^2*(nu/x)(x) and h(x) are evaluated exactly
    at x = Fraction(eps)*Fraction(omega) and each rounded once, to +-inf past
    the float range: no entry is NaN, and g = h bitwise for a reversible
    scheme. omega = 0 and negative eps are fine; a NaN or infinite eps or
    omega raises ValueError.
    """
    if not (math.isfinite(eps) and math.isfinite(omega)):
        raise ValueError(f"eps = {eps!r}, omega = {omega!r}: NaN or infinite")
    e, w = Fraction(eps), Fraction(omega)
    x = e * w
    g, tau_x, nu_x, h = _polynomials(s)
    return PhaseMatrix(_rounded(g(x)), _rounded(e * tau_x(x)),
                       _rounded(x * w * nu_x(x)), _rounded(h(x)), eps, omega)


def scheme_series_matrix(s: Scheme, order: int) -> tuple[Series, ...]:
    """(g, tau, nu, h) of the exact map at truncation `order`.

    It has no caller in the package; it is kept because the benchmark's span
    list (`perfbench/tracing.py`) names it.
    """
    g, tau_x, nu_x, h = _polynomials(s)
    return tuple(p._resized(order)
                 for p in (g, tau_x.times_x(), nu_x.times_x(), h))


# ------------------------------------------------------------------ spectral

_NAN_ENTRY = "the map has a NaN entry or timestep, so it has no regime"

#: The smallest normal float; below it a float keeps fewer than 53 bits.
_NORMAL_MIN = 2.0 ** -1022


def spectral(mat: PhaseMatrix) -> SpectralData:
    """Classify the map and extract rotation angle and effective parameters.

    In the elliptic regime (|Tr M| < 2) the eigenvalues are exp(+-i*theta)
    with theta on (0, pi); the map rotates an invariant ellipse at the
    modified frequency omega_a = theta/|eps|, with effective mass and spring
    constant 1/m* = omega_a*sqrt(tau/nu), k* = omega_a*sqrt(nu/tau); disc > 0
    below implies nu*tau > 0. A negative eps gives the inverse map, which
    conserves the same ellipse, so omega_a, m* and k* do not change sign
    with it. Parabolic (|Tr M| = 2) and hyperbolic (|Tr M| > 2) maps carry
    only the regime flag and a detail message.

    A map is hyperbolic where |Tr M| exceeds 2 by more than PARABOLIC_TOL
    or is NaN, as where the diagonal overflows to infinities of opposite
    sign, else elliptic where disc > 0, else parabolic. det = 1 makes disc =
    nu*tau - ((g-h)/2)^2 = sin^2(theta); testing it instead of the trace
    keeps the classification sharp near theta -> 0, where the trace is
    quadratically insensitive; it is formed from scaled entries (`_scaled`).
    m* and k* are formed from the same scaled entries and a scaled omega_a,
    with the power of two applied last, so tau/nu never overflows or
    underflows on the way: scaling eps by 2^-k and omega by 2^k keeps m* bit
    for bit and multiplies k* by 4^k, which gives inf or 0.0 only beyond the
    float range. A NaN entry raises ValueError: no regime can be read from it.
    """
    g, tau, nu, h = mat.g, mat.tau, mat.nu, mat.h
    if math.isnan(g) or math.isnan(tau) or math.isnan(nu) or math.isnan(h):
        raise ValueError(_NAN_ENTRY)
    if not abs(g + h) - 2.0 <= PARABOLIC_TOL:  # or NaN, where g = -h = +-inf
        what = (f"the diagonal overflowed to {g!r} and {h!r}"
                if math.isnan(g + h) else
                f"|trace|/2 = {abs(g + h) / 2.0!r} exceeds 1")
        return SpectralData(None, None, None, None, None, Regime.HYPERBOLIC,
                            f"{what}; the map is unstable and has no real "
                            "rotation angle")
    kt, e, tau_s, nu_s, disc = _scaled(mat)
    if not disc > 0.0:
        return SpectralData(None, None, None, None, None, Regime.PARABOLIC,
                            "|trace| equals 2 within tolerance; the rotation "
                            "angle is degenerate and no spectral quantities "
                            "are defined")
    root = math.sqrt(disc)
    xi = math.ldexp(root, e)
    # atan2 form of arccos(half_trace): same principal branch (0, pi) since
    # det = 1 forces xi = sin(theta), but well conditioned as theta -> 0.
    theta = math.atan2(xi, (g + h) / 2.0)
    if theta < _NORMAL_MIN:
        # theta = xi to a relative xi^2/6 here, and both lost bits: read
        # omega_a = xi/|eps| off the scaled root, rounded once at the end
        m, k = math.frexp(abs(mat.eps))
        omega_a = _rounded(root / m, e - k)
    else:
        omega_a = theta / abs(mat.eps)
    # sqrt(tau/nu) = sqrt(tau_s/nu_s)*2^(kt - e) and omega_a = a*2^ka: the
    # products below lie near 1 and round as the unscaled ones do
    a, ka = math.frexp(omega_a)
    root_s = math.sqrt(tau_s / nu_s)
    m_star = _rounded(1.0 / (a * root_s), e - kt - ka)
    k_star = _rounded(a / root_s, e - kt + ka)
    return SpectralData(theta, xi, omega_a, m_star, k_star, Regime.ELLIPTIC)


def _scaled(mat: PhaseMatrix) -> tuple:
    """(kt, e, tau*2^-kt, nu*2^(kt - 2e), disc*4^-e) of a non-NaN map, disc
    = nu*tau - ((g - h)/2)^2: the scaled entries lie near 1, so disc does not
    underflow at the smallest steps, and it is bitwise the unscaled one
    wherever that is normal."""
    kt = math.frexp(mat.tau)[1]
    e = (kt + math.frexp(mat.nu)[1]) // 2
    tau_s, nu_s = math.ldexp(mat.tau, -kt), math.ldexp(mat.nu, kt - 2 * e)
    w_s = math.ldexp((mat.g - mat.h) / 2.0, -e)
    return kt, e, tau_s, nu_s, nu_s * tau_s - w_s * w_s


def _rounded(v: float | Fraction, n: int = 0) -> float:
    """v*2^n rounded once to float, +-inf past the float range (n = 0 for
    a Fraction v)."""
    try:
        return math.ldexp(v, n)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


#: Per sweep quantity, its value in a hyperbolic or parabolic row and in an
#: elliptic row, as expressions in the kernel's locals.
_KERNEL_VALUES = {
    "omega_a": ("None", "omega_a"),
    "phase_error": ("None", f"{2.0 * math.pi!r} * (omega_a - 1.0)"),
    "det": ("det", "det"),
    "trace": ("2.0 * T", "2.0 * T"),
    "m_star": ("None", "1.0 / (omega_a * sqrt(tx / nx))"),
    "k_star": ("None", "omega_a / sqrt(tx / nx)"),
}

#: What `sweep` can tabulate: a spectral field, the phase error per period,
#: or the determinant or trace of the map.
SWEEP_QUANTITIES = tuple(_KERNEL_VALUES)


def sweep(s: Scheme, xs: list[float],
          quantity: str) -> list[tuple[float, float | None, Regime]]:
    """(x, value, regime) of one quantity at each timestep x, with omega = 1.

    value is None where the quantity is undefined in the map's regime; the
    phase error per period is 2*pi*(omega_a - 1). The points run through the
    scheme's generated kernel (`sweepkernel._sweep_kernel`), every point
    alike. It agrees with `spectral(scheme_matrix(s, x, 1.0))` to round-off,
    not bit for bit, and the regimes can differ only within round-off of a
    regime boundary. x = 0 is parabolic, points whose polynomial sums
    overflow are hyperbolic, and a NaN x raises ValueError as it does in
    `spectral`.
    """
    if quantity not in SWEEP_QUANTITIES:
        raise ValueError(f"unknown sweep quantity {quantity!r}; "
                         f"choose from {', '.join(SWEEP_QUANTITIES)}")
    from .sweepkernel import _sweep_kernel
    return _sweep_kernel(s, quantity)(xs)


def propagate_closed_form(mat: PhaseMatrix, t: float) -> Rows:
    """Exact evolution over continuous time t: cos(phi) I + sin(phi) K.

    phi = theta*t/eps and K = (M - T I)/xi (`closedform._generator`),
    K^2 = -I. At t = N*eps this is M^N = U_(N-1)(T) M - U_(N-2)(T) I,
    U_(N-1)(T) = sin(N theta)/sin(theta), and t need not be a multiple of
    the timestep.
    A map that is not elliptic raises RegimeError.
    """
    data = spectral(mat)
    if data.regime is not Regime.ELLIPTIC:
        raise RegimeError(f"{data.regime.value} map: {data.detail}")
    from .closedform import _generator, _propagate
    [rows] = _propagate(mat, data, _generator(mat), [t])
    return rows
