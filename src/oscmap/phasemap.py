"""The exact per-timestep 2x2 map of a splitting scheme and its spectrum.

A scheme acting on the oscillator is a linear map of (q, p), stored through
the four entries [[g, tau], [-nu, h]]; symplecticity means
det = g*h + tau*nu = 1. In x = eps*omega (and omega = 1) each entry is a
finite polynomial: every drift or kick raises the degree by one and every
force-gradient kick by three. The four polynomials are built once per scheme
(`_map`) by applying its shears to lists of integer numerators over one
shared denominator; a float step coefficient enters as its binary-exact
ratio, so the build is exact for any scheme. Every other form is read from
it: the frequency series in `analysis` read its Series view (`_polynomials`,
the one route that imports the ring), exact for a scheme with int or
Fraction coefficients and, otherwise, rounded once to fixed-point integers
and read as correctly rounded floats; `scheme_matrix` evaluates the lists
in integers at one timestep eps and frequency omega and rounds each entry
once to float. The stability limit in `analysis` reads the half trace's
numerators from the lists, and `schemes.is_symmetric` compares the lists
of the diagonal entries g and h. `sweep` runs a kernel generated once
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

#: Built maps and their Series views, each keyed by active steps.
_MAPS: dict[tuple[Step, ...], tuple] = {}
_POLYNOMIALS: dict[tuple[Step, ...], tuple] = {}


def _shear(row: list, other: list, b: int, mu: list) -> tuple[list, list]:
    """(b*row + mu*other, b*other) for rows of two numerator lists each and
    mu as (power, coefficient) pairs, kept to the lists' length."""
    out = []
    for p, o in zip(row, other):
        r = [b * c for c in p]
        for i, m in mu:
            for k in range(i, len(r)):
                r[k] += m * o[k - i]
        out.append(r)
    return out, [[b * c for c in o] for o in other]


def _map(s: Scheme) -> tuple:
    """(g, tau/x, nu/x, h, d): the exact map as integer numerator lists in
    x, lowest power first, over one shared denominator d, built once.

    With each step coefficient at its exact value a/b, binary-exact for a
    float, a drift sets the top row (g, tau) to b*top + a*x*bottom and a kick
    the bottom row (-nu, h) to b*bottom - mu(x)*top, mu = c*x (+ u*x^3 for a
    gkick). A coefficient beyond float range raises SchemeError. Steps that
    compare equal, as Fraction(1, 2) and 0.5 do, share one build, which
    callers must not mutate."""
    steps = s.active_steps()
    built = _MAPS.get(steps)
    if built is None:
        n = 1 + sum(3 if st.kind == GKICK else 1 for st in steps)
        one, zero = [1] + [0] * (n - 1), [0] * n
        top, bottom, d = [one, zero], [zero, one], 1
        for st in steps:
            a, b = st.c.as_integer_ratio()
            if st.kind == DRIFT:
                top, bottom = _shear(top, bottom, b, [(1, a)])
            else:
                u, v = st.u.as_integer_ratio() if st.kind == GKICK else (0, 1)
                b, mu = b * v, [(1, -a * v), (3, -u * b)]
                bottom, top = _shear(bottom, top, b, mu)
            d *= b
        (g, tau), (nu, h) = top, bottom
        built = (g, tau[1:], [-c for c in nu[1:]], h, d)
        try:  # the largest coefficient is the largest numerator over d
            max(abs(c) for p in built[:4] for c in p) / d
        except OverflowError:
            raise SchemeError(f"scheme {s.name!r}: a coefficient of its one-step "
                              "map is beyond float range") from None
        _MAPS[steps] = built
    return built


def _polynomials(s: Scheme) -> tuple:
    """g, tau/x, nu/x and h of `_map` as exact Series in lowest terms, built
    once per active steps; the first call imports the ring."""
    steps = s.active_steps()
    if steps not in _POLYNOMIALS:
        from .series import _reduced
        *lists, d = _map(s)
        _POLYNOMIALS[steps] = tuple(_reduced(p, d, None) for p in lists)
    return _POLYNOMIALS[steps]


def _at(cs: list[int], p: int, q: int) -> int:
    """q^(len(cs) - 1) times the polynomial cs at x = p/q, by Horner's rule."""
    acc, qj = 0, 1
    for c in reversed(cs):
        acc = acc * p + c * qj
        qj *= q
    return acc


def scheme_matrix(s: Scheme, eps: float, omega: float) -> PhaseMatrix:
    """Numeric one-timestep matrix: the exact map at x = eps*omega, rounded once.

    g(x), eps*(tau/x)(x), eps*omega^2*(nu/x)(x) and h(x) are evaluated in
    integers at the exact x = eps*omega, and each is rounded once, by int
    true division, to +-inf past the float range: no entry is NaN, and g = h
    bitwise for a reversible scheme. omega = 0 and negative eps are fine; a
    NaN or infinite eps or omega raises ValueError.
    """
    if not (math.isfinite(eps) and math.isfinite(omega)):
        raise ValueError(f"eps = {eps!r}, omega = {omega!r}: NaN or infinite")
    (pe, qe), (pw, qw) = eps.as_integer_ratio(), omega.as_integer_ratio()
    p, q = pe * pw, qe * qw
    g, tau_x, nu_x, h, d = _map(s)
    dg = d * q ** (len(g) - 1)  # g and h are over dg, tau/x and nu/x over dg/q
    entries = []
    for num, den in ((_at(g, p, q), dg), (pe * _at(tau_x, p, q), qe * dg // q),
                     (p * pw * _at(nu_x, p, q), qw * dg), (_at(h, p, q), dg)):
        try:
            entries.append(num / den)
        except OverflowError:
            entries.append(math.inf if num > 0 else -math.inf)
    return PhaseMatrix(*entries, eps, omega)


def scheme_series_matrix(s: Scheme, order: int) -> tuple:
    """(g, tau, nu, h) of the exact map as Series at truncation `order`.

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


def _rounded(v: float, n: int) -> float:
    """v*2^n rounded once to float, +-inf past the float range."""
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
