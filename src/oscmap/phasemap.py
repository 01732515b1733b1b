"""The exact per-timestep 2x2 map of a splitting scheme and its spectrum.

A scheme acting on the oscillator is a linear map of (q, p), stored through
the four entries [[g, tau], [-nu, h]]; symplecticity means
det = g*h + tau*nu = 1. In x = eps*omega (and omega = 1) each entry is a
finite polynomial: every drift or kick raises the degree by one and every
force-gradient kick by three. The four polynomials are built once per scheme
by multiplying its shears in the Series ring, and every other form is read
from them: series mode pads or truncates them to a requested order, and
numeric mode (explicit timestep eps and frequency omega) evaluates them by
Horner's rule. Numeric mode takes a whole grid of timesteps as one numpy
array just as it takes one float, and `spectral` then classifies every point
of the grid at once; both give, point by point, the bits of the scalar call.
numpy is used only for such grids and for the array results of the closed
form; it is imported inside those functions, so scalar work never loads it.

Ordering convention: the first step of a scheme acts first on the phase
point, so the matrix product carries the first step rightmost. The
Stoermer/Verlet anchor g = 1 - x^2/2, tau = eps, nu = eps*omega^2*(1 - x^2/4)
pins this choice.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .series import Series
from .schemes import DRIFT, GKICK, Scheme, Step, has_exact_coefficients, is_symmetric

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PhaseMatrix", "SpectralData", "Regime", "RegimeError",
    "scheme_matrix", "scheme_series_matrix", "spectral",
    "propagate_closed_form",
    "modified_hamiltonian", "invariant_quadratic_form",
    "PARABOLIC_TOL", "REVERSIBLE_TOL",
]

#: |Tr M| within this of 2 is classified parabolic rather than elliptic.
PARABOLIC_TOL = 1e-12
#: |g - h| at or below this counts as time-reversible in numeric mode.
REVERSIBLE_TOL = 1e-12


class Regime(str, Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class RegimeError(ValueError):
    """Raised when a quantity is requested outside the elliptic regime."""


@dataclass(frozen=True)
class PhaseMatrix:
    """One-timestep map [[g, tau], [-nu, h]] acting on the column (q, p)."""

    g: object
    tau: object
    nu: object
    h: object
    eps: float | None = None     # numeric mode only
    omega: float | None = None   # numeric mode only

    def __matmul__(self, other: "PhaseMatrix") -> "PhaseMatrix":
        return PhaseMatrix(
            g=self.g * other.g - self.tau * other.nu,
            tau=self.g * other.tau + self.tau * other.h,
            nu=self.nu * other.g + self.h * other.nu,
            h=self.h * other.h - self.nu * other.tau,
            eps=self.eps,
            omega=self.omega,
        )

    def det(self):
        return self.g * self.h + self.tau * self.nu

    def trace(self):
        return self.g + self.h

    @property
    def is_series(self) -> bool:
        return isinstance(self.g, Series)

    def is_reversible(self, tol: float = REVERSIBLE_TOL) -> bool:
        if self.is_series:
            return self.g == self.h
        return abs(self.g - self.h) <= tol

    def as_array(self) -> np.ndarray:
        """Numeric 2x2 array; series-mode matrices have no single array."""
        if self.is_series:
            raise TypeError("series-mode matrix cannot be converted to an array")
        import numpy as np

        return np.array([[self.g, self.tau], [-self.nu, self.h]], dtype=float)


@dataclass(frozen=True)
class SpectralData:
    """Rotation data of an elliptic map; degenerate fields are None.

    For a matrix over a grid of timesteps every field is an array over the
    grid: the numeric fields hold NaN where they are undefined, `regime` holds
    a Regime per point and `reversible` a bool per point.
    """

    theta: float | None
    xi: float | None
    omega_a: float | None
    m_star: float | None
    k_star: float | None
    regime: Regime
    reversible: bool
    detail: str = ""


# ------------------------------------------------------------ polynomial map

#: Built maps, keyed by (active steps, exact). The steps alone are not a key:
#: Fraction(1, 2) == 0.5 and both hash alike, so an exact and a float scheme
#: with equal coefficients would otherwise share one build.
_POLYNOMIALS: dict[tuple[tuple[Step, ...], bool], tuple] = {}


def _polynomials(s: Scheme, exact: bool) -> tuple[Series, Series, Series, Series]:
    """g, tau/x, nu/x and h of the scheme's map as polynomials in x.

    Built once per key at truncation order = degree, so nothing is dropped;
    callers must not mutate it. Palindromic sequences are multiplied
    center-outward, M -> m_i M m_i, so g and h stay equal bitwise even with
    float coefficients: conjugating a matrix with g = h by one shear
    preserves the equality term by term.
    """
    steps = s.active_steps()
    if exact:
        inexact = [v for st in steps for v in (st.c, st.u)
                   if v is not None and not isinstance(v, (int, Fraction))]
        if inexact:
            raise TypeError(f"coefficient {inexact[0]!r} is not exact; rational "
                            "series mode needs int or Fraction scheme coefficients")
    key = (steps, exact)
    polys = _POLYNOMIALS.get(key)
    if polys is not None:
        return polys
    coeff = (lambda v: v) if exact else float
    degree = sum(3 if st.kind == GKICK else 1 for st in steps)
    one, zero = Series.one(degree), Series.zero(degree)
    mats = []
    for st in steps:
        c = coeff(st.c)
        if st.kind == DRIFT:
            mats.append(PhaseMatrix(one, Series([0, c], degree), zero, one))
        else:
            mu = [0, c, 0, coeff(st.u)] if st.kind == GKICK else [0, c]
            mats.append(PhaseMatrix(one, zero, Series(mu, degree), one))
    n = len(mats)
    if is_symmetric(s):
        m = mats[n // 2] if n % 2 else PhaseMatrix(one, zero, zero, one)
        for k in range(n // 2 - 1, -1, -1):
            m = mats[n - 1 - k] @ m @ mats[k]
    else:
        m = mats[0]
        for factor in mats[1:]:
            m = factor @ m
    polys = _POLYNOMIALS[key] = (m.g, m.tau.divided_by_x(),
                                 m.nu.divided_by_x(), m.h)
    return polys


def scheme_matrix(s: Scheme, eps: float | np.ndarray,
                  omega: float) -> PhaseMatrix:
    """Numeric one-timestep matrix: the polynomials evaluated at x = eps*omega.

    The entries are g(x), eps*(tau/x)(x), eps*omega^2*(nu/x)(x) and h(x),
    with no division by omega, so omega = 0 and negative eps are fine.

    eps may be a float or a 1-D float array; for an array every entry is an
    array over it. Horner's rule uses only * and +, which numpy rounds like
    Python floats, so each point is bitwise the scalar call at that eps.
    Entries that overflow become inf or NaN silently, as Python floats do.
    """
    g, tau_x, nu_x, h = _polynomials(s, False)
    x = eps * omega
    if type(x) in (float, int):
        quiet = contextlib.nullcontext()
    else:
        import numpy as np

        quiet = np.errstate(over="ignore", invalid="ignore")
    with quiet:
        return PhaseMatrix(g(x), eps * tau_x(x), eps * omega * omega * nu_x(x),
                           h(x), eps, omega)


def scheme_series_matrix(s: Scheme, order: int,
                         exact: bool | None = None) -> PhaseMatrix:
    """Series-mode matrix: the polynomials padded or truncated to `order`.

    exact defaults to whether every coefficient is an int or Fraction.
    """
    if exact is None:
        exact = has_exact_coefficients(s)
    g, tau_x, nu_x, h = _polynomials(s, exact)
    return PhaseMatrix(*(
        Series(c[: order + 1], order)
        for c in (g.coeffs, [0] + tau_x.coeffs, [0] + nu_x.coeffs, h.coeffs)
    ))


# ------------------------------------------------------------------ spectral

def _classify(g, tau, nu, h):
    """The tests behind the regime, for float entries and arrays alike.

    Returns (half_trace, disc, hyperbolic, elliptic, reversible). A map is
    hyperbolic where |Tr M| exceeds 2 by more than PARABOLIC_TOL, else
    elliptic where disc > 0, else parabolic. det = 1 makes disc =
    nu*tau - ((g-h)/2)^2 = sin^2(theta); testing it instead of the trace
    keeps the classification sharp near theta -> 0, where the trace is
    quadratically insensitive.
    """
    w = (g - h) / 2.0
    disc = nu * tau - w * w
    return ((g + h) / 2.0, disc, abs(g + h) - 2.0 > PARABOLIC_TOL, disc > 0.0,
            abs(g - h) <= REVERSIBLE_TOL)


_NAN_ENTRY = ("the map has a NaN entry, so it has no regime; its polynomials "
              "overflowed or the timestep is NaN")


def spectral(mat: PhaseMatrix) -> SpectralData:
    """Classify the map and extract rotation angle and effective parameters.

    In the elliptic regime (|Tr M| < 2) the eigenvalues are exp(+-i*theta)
    with theta on (0, pi); the map rotates an invariant ellipse at the
    modified frequency omega_a = theta/|eps|, with effective mass and spring
    constant 1/m* = omega_a*sqrt(tau/nu), k* = omega_a*sqrt(nu/tau) when
    nu*tau > 0. A negative eps gives the inverse map, which conserves the
    same ellipse, so omega_a, m* and k* do not change sign with it.
    Parabolic (|Tr M| = 2) and hyperbolic (|Tr M| > 2) maps carry only the
    regime flag and a detail message.

    A matrix over a grid of timesteps (see `scheme_matrix`) gives array
    fields, each point bitwise the scalar result. A NaN entry raises
    ValueError: no regime can be read from it.
    """
    if mat.is_series:
        raise TypeError("spectral analysis needs a numeric-mode matrix")
    g, tau, nu, h = mat.g, mat.tau, mat.nu, mat.h
    if not isinstance(g, (int, float)):
        import numpy as np

        if np.isnan((g, tau, nu, h)).any():
            raise ValueError(_NAN_ENTRY)
        with np.errstate(over="ignore", invalid="ignore"):
            return _spectral_grid(mat, *_classify(g, tau, nu, h))
    if any(math.isnan(v) for v in (g, tau, nu, h)):
        raise ValueError(_NAN_ENTRY)
    half_trace, disc, hyperbolic, elliptic, reversible = _classify(g, tau, nu, h)
    if hyperbolic:
        return SpectralData(
            None, None, None, None, None, Regime.HYPERBOLIC, reversible,
            detail=f"|trace|/2 = {abs(half_trace)!r} exceeds 1; the map is "
                   "unstable and has no real rotation angle",
        )
    if not elliptic:
        return SpectralData(
            None, None, None, None, None, Regime.PARABOLIC, reversible,
            detail="|trace| equals 2 within tolerance; the rotation angle is "
                   "degenerate and no spectral quantities are defined",
        )
    xi = math.sqrt(disc)
    # atan2 form of arccos(half_trace): same principal branch (0, pi) since
    # det = 1 forces xi = sin(theta), but well conditioned as theta -> 0.
    theta = math.atan2(xi, half_trace)
    omega_a = theta / abs(mat.eps)
    m_star = k_star = None
    if nu * tau > 0:
        root = math.sqrt(tau / nu)
        m_star = 1.0 / (omega_a * root)
        k_star = omega_a / root
    return SpectralData(theta, xi, omega_a, m_star, k_star,
                        Regime.ELLIPTIC, reversible)


def _spectral_grid(mat: PhaseMatrix, half_trace, disc, hyperbolic, elliptic,
                   reversible) -> SpectralData:
    """The elliptic branch of `spectral` on the points of a grid where it holds."""
    import numpy as np

    elliptic = elliptic & ~hyperbolic
    undefined = np.full(disc.shape, np.nan)
    xi, theta, m_star, k_star = (undefined.copy() for _ in range(4))
    xi[elliptic] = np.sqrt(disc[elliptic])
    # math.atan2 point by point: np.arctan2 can differ from it in the last bit
    theta[elliptic] = [math.atan2(a, b) for a, b in
                       zip(xi[elliptic].tolist(), half_trace[elliptic].tolist())]
    omega_a = theta / np.abs(mat.eps)
    shaped = elliptic & (mat.nu * mat.tau > 0)
    root = np.sqrt(mat.tau[shaped] / mat.nu[shaped])
    m_star[shaped] = 1.0 / (omega_a[shaped] * root)
    k_star[shaped] = omega_a[shaped] / root
    # regime by code: 0 elliptic, 1 parabolic, 2 hyperbolic
    regimes = np.array(list(Regime), dtype=object)
    regime = regimes[np.where(hyperbolic, 2, np.where(elliptic, 0, 1))]
    return SpectralData(theta, xi, omega_a, m_star, k_star, regime, reversible)


def _require_elliptic(mat: PhaseMatrix) -> SpectralData:
    data = spectral(mat)
    if data.regime is not Regime.ELLIPTIC:
        raise RegimeError(f"{data.regime.value} map: {data.detail}")
    return data


def propagate_closed_form(mat: PhaseMatrix, t: float) -> np.ndarray:
    """Exact evolution over continuous time t as rotation plus translation.

    Returns R + Sigma where R is the pure rotation with angle theta*t/eps and
    Sigma = ((g-h)/(2 xi)) sin(theta t/eps) diag(1, -1). Sigma vanishes
    exactly for time-reversible maps (h = g). t need not be a multiple of
    the timestep; at t = N*eps the result equals the N-fold matrix power.
    """
    import numpy as np

    data = _require_elliptic(mat)
    angle = data.theta * t / mat.eps
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([
        [c, (mat.tau / data.xi) * s],
        [-(mat.nu / data.xi) * s, c],
    ])
    shift = ((mat.g - mat.h) / (2.0 * data.xi)) * s
    rot[0, 0] += shift
    rot[1, 1] -= shift
    return rot


def modified_hamiltonian(data: SpectralData, q: float, p: float) -> float:
    """Shadow energy p^2/(2 m*) + k* q^2/2 conserved by a reversible map."""
    if data.regime is not Regime.ELLIPTIC:
        raise RegimeError(f"{data.regime.value} map: {data.detail}")
    if not data.reversible:
        raise ValueError(
            "the modified Hamiltonian in this quadratic form is defined for "
            "time-reversible maps only (equal diagonal entries)"
        )
    if data.m_star is None:
        raise ValueError("m* and k* undefined: nu*tau is not positive")
    return p * p / (2.0 * data.m_star) + 0.5 * data.k_star * q * q


def invariant_quadratic_form(mat: PhaseMatrix) -> np.ndarray:
    """The symmetric matrix Q = [[nu, (g-h)/2], [(g-h)/2, tau]].

    The quadratic form (q, p) Q (q, p)^T is exactly conserved by the map:
    M^T Q M = Q whenever det M = 1, reversible or not. For non-reversible
    maps the off-diagonal entry tilts the invariant ellipse.
    """
    import numpy as np

    _require_elliptic(mat)
    w = (mat.g - mat.h) / 2.0
    return np.array([[mat.nu, w], [w, mat.tau]], dtype=float)
