"""Truncated power-series arithmetic in one dimensionless variable.

Series live in the fixed-truncation ring R[x]/x^(K+1): every operation keeps
exactly K+1 coefficients and never reads or writes beyond index K.
Coefficients may be floats or exact values (int, fractions.Fraction);
arithmetic preserves exactness whenever every input coefficient is exact, so
the same code path serves both the floating-point and the rational mode.
No operation costs more than O(K^2) coefficient operations: products,
reciprocals and square roots by their convolution recurrences, and `asin`
from the derivative identity d/dx asin(u) = u' (1 - u^2)^(-1/2), which needs
one product and two more convolution passes, not a composition of the
Maclaurin series; in rational mode its coefficients are exact.

The variable is the dimensionless product x = (timestep) * (angular
frequency); all frequency expansions in this package are series in x.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["Series", "asin", "PARITY_TOL"]

# Float coefficients with magnitude at or below this count as zero in
# zero-constant-term checks and leading-term searches. Exact coefficients
# must be exactly 0.
PARITY_TOL = 1e-14


def _is_zero(c) -> bool:
    if isinstance(c, float):
        return abs(c) <= PARITY_TOL
    return c == 0


def _exact_inverse(c):
    """1/c, staying exact for int and Fraction scalars."""
    if isinstance(c, int):
        return Fraction(1, c)
    return 1 / c


def _sqrt_scalar(c):
    """Principal square root of the constant term; exact when possible."""
    if isinstance(c, float):
        return math.sqrt(c)
    frac = Fraction(c)
    rp, rq = math.isqrt(frac.numerator), math.isqrt(frac.denominator)
    if rp * rp != frac.numerator or rq * rq != frac.denominator:
        raise ValueError(
            f"constant term {c} has no exact rational square root; "
            "convert the series to float coefficients first"
        )
    root = Fraction(rp, rq)
    return root.numerator if root.denominator == 1 and isinstance(c, int) else root


class Series:
    """Polynomial truncated at a fixed order, coefficients ``a_0 .. a_K``.

    Parameters
    ----------
    coeffs : iterable of scalars
        Coefficients in increasing power order.
    order : int, optional
        Truncation order K. When given, `coeffs` may be shorter than K+1 and
        is zero-padded; it must not be longer.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be non-negative")
            if len(coeffs) > order + 1:
                raise ValueError(
                    f"{len(coeffs)} coefficients exceed truncation order {order}"
                )
            coeffs.extend([0] * (order + 1 - len(coeffs)))
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order)

    # -- basic queries ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self) -> str:
        return f"Series({self.coeffs!r})"

    # -- ring arithmetic ----------------------------------------------

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} != {other.order}"
            )

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Series([-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Series):
            self._check_order(other)
            a, b = self.coeffs, other.coeffs
            out = []
            for n in range(len(a)):
                s = 0
                for k in range(n + 1):
                    # skipping exact-zero factors keeps structural zeros exact
                    if a[k] and b[n - k]:
                        s += a[k] * b[n - k]
                out.append(s)
            return Series(out)
        return Series([other * a for a in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.reciprocal()
        inv = _exact_inverse(other)
        return Series([a * inv for a in self.coeffs])

    def reciprocal(self) -> "Series":
        """Multiplicative inverse in the truncated ring; needs a_0 != 0."""
        a = self.coeffs
        if _is_zero(a[0]):
            raise ValueError("series with zero constant term has no reciprocal")
        inv0 = _exact_inverse(a[0])
        b = [inv0]
        for n in range(1, len(a)):
            s = 0
            for k in range(1, n + 1):
                if a[k] and b[n - k]:
                    s += a[k] * b[n - k]
            b.append(-inv0 * s)
        return Series(b)

    def sqrt(self) -> "Series":
        """Principal square root: b with b*b = self up to truncation, b_0 > 0."""
        a = self.coeffs
        if a[0] <= 0:
            raise ValueError("series square root needs a positive constant term")
        b0 = _sqrt_scalar(a[0])
        inv2b0 = _exact_inverse(2 * b0)
        b = [b0]
        for n in range(1, len(a)):
            s = 0
            for k in range(1, n):
                if b[k] and b[n - k]:
                    s += b[k] * b[n - k]
            b.append((a[n] - s) * inv2b0)
        return Series(b)

    # -- order-changing helpers ----------------------------------------

    def truncated(self, order: int) -> "Series":
        """Copy truncated to a lower (or equal) order."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Series(self.coeffs[: order + 1])

    def times_x(self) -> "Series":
        """Multiply by x; the result's truncation order grows by one."""
        return Series([0] + self.coeffs)

    def divided_by_x(self) -> "Series":
        """Divide by x; needs a_0 = 0, the truncation order drops by one."""
        if not _is_zero(self.coeffs[0]):
            raise ValueError("cannot divide by x: nonzero constant term")
        if self.order == 0:
            raise ValueError("cannot divide an order-0 series by x")
        return Series(self.coeffs[1:])

    # -- evaluation -----------------------------------------------------

    def __call__(self, x0):
        """Evaluate the truncated polynomial at x0 (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc


def asin(u: Series) -> Series:
    """Arcsine of a series with zero constant term, truncated at u's order.

    Built from the derivative identity d/dx asin(u) = u' * (1 - u^2)^(-1/2)
    in three O(K^2) passes: f = 1 - u*u (the only ring multiplication),
    w = f^(-1/2) from the power recurrence
    2n w_n = sum_{k=1..n} (k - 2n) f_k w_(n-k) with w_0 = 1, and the
    integral y_n = (1/n) sum_{k=1..n} k u_k w_(n-k) with y_0 = 0; a float
    u_0 within PARITY_TOL counts as 0. Every division is by an integer
    through `_exact_inverse`, so rational input gives the exact coefficients
    and float input stays float.
    """
    if not _is_zero(u.coeffs[0]):
        raise ValueError("asin composition needs a zero constant term")
    uu = (u * u).coeffs
    f = [1] + [-c for c in uu[1:]]
    w = [1]
    for n in range(1, len(f)):
        s = 0
        for k in range(1, n + 1):
            # skipping exact-zero factors keeps structural zeros exact
            if f[k] and w[n - k]:
                s += (k - 2 * n) * f[k] * w[n - k]
        # a zero sum is kept as it is, so an int 0 stays an int
        w.append(s * _exact_inverse(2 * n) if s else s)
    ku = [k * c for k, c in enumerate(u.coeffs)]
    y = [0]
    for n in range(1, len(ku)):
        s = 0
        for k in range(1, n + 1):
            if ku[k] and w[n - k]:
                s += ku[k] * w[n - k]
        y.append(s * _exact_inverse(n) if s else s)
    return Series(y)
