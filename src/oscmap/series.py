"""Truncated power-series arithmetic in one dimensionless variable.

Series live in the fixed-truncation ring R[x]/x^(K+1): every operation keeps
exactly K+1 coefficients and never reads or writes beyond index K.

A series is stored as numerators over one shared denominator, a_k = n_k/d.
Built from ints and Fractions it is exact: the n_k are ints and d is their
least positive common denominator, so exact arithmetic runs on plain ints. A
product is one integer convolution followed by one gcd; reciprocal, sqrt and
asin accumulate each inner sum in integers and reduce once per output
coefficient. Built with any float coefficient it is a float series: float
numerators over d = 1, with every nonzero coefficient a float and exact
zeros kept as int 0. Both modes run the same code and part only in the
scalar helpers `_divide`, `_exact_inverse` and `_sqrt_scalar`, and where a
float meets an exact operand: the exact one is rounded to float coefficient
by coefficient first (`_operands`, scalar `*`). A float result is exactly
what float arithmetic on the coefficients gives. `coeffs` reads the
coefficients back as ints, Fractions or floats.

No operation costs more than O(K^2) coefficient operations: products,
reciprocals and square roots by their convolution recurrences, and `asin`
from the derivative identity d/dx asin(u) = u' (1 - u^2)^(-1/2), which needs
one product and two more convolution passes, not a composition of the
Maclaurin series.

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


def _has_float(nums: list) -> bool:
    return any(isinstance(c, float) for c in nums)


def _is_zero(c) -> bool:
    if isinstance(c, float):
        return abs(c) <= PARITY_TOL
    return c == 0


def _exact_inverse(c):
    """1/c, staying exact for int and Fraction scalars."""
    if isinstance(c, int):
        return Fraction(1, c)
    return 1 / c


def _divide(n, d):
    """n/d as a (numerator, denominator) pair.

    Ints give the pair in lowest terms with a positive denominator. A float
    n or d gives (n * (1/d), 1): the float times the rounded reciprocal, as
    float arithmetic on the coefficients computes it.
    """
    if isinstance(n, float) or isinstance(d, float):
        return n * (1 / d), 1
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def _sqrt_scalar(n, d):
    """Principal square root of the constant term n/d as a pair; exact for ints."""
    if isinstance(n, float):
        return math.sqrt(n), 1
    g = math.gcd(n, d)
    n, d = n // g, d // g
    rp, rq = math.isqrt(n), math.isqrt(d)
    if rp * rp != n or rq * rq != d:
        raise ValueError(
            f"constant term {Fraction(n, d)} has no exact rational square "
            "root; convert the series to float coefficients first"
        )
    return rp, rq


def _convolve(a: list, b: list, size: int) -> list:
    """The first `size` coefficients of the product of coefficient lists a, b.

    Exact-zero factors are skipped, which keeps structural zeros exact, and
    each coefficient adds its products in increasing power of a.
    """
    out = [0] * size
    tail = [(j, y) for j, y in enumerate(b[:size]) if y]
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in tail:
                if i + j >= size:
                    break
                out[i + j] += x * y
    return out


def _append(nums: list, den, num, q):
    """Append num/q to `nums`, numerators over den; return the new shared den.

    The shared denominator becomes lcm(den, q), and the numerators already
    in `nums` are rescaled to it in place.
    """
    if q == den:
        nums.append(num)
        return den
    g = math.gcd(den, q)
    if g != q:
        up = q // g
        nums[:] = [c * up for c in nums]
        num *= den // g
        den *= up
    else:
        num *= den // q
    nums.append(num)
    return den


def _reduced(nums: list, den) -> "Series":
    """The series nums/den in lowest terms; float numerators need den = 1."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return Series._of(nums, den)


class Series:
    """Polynomial truncated at a fixed order, coefficients ``a_0 .. a_K``.

    Parameters
    ----------
    coeffs : iterable of scalars
        Coefficients in increasing power order: ints, Fractions or floats.
        Any float makes a float series, with each nonzero int or Fraction
        rounded to float.
    order : int, optional
        Truncation order K. When given, `coeffs` may be shorter than K+1 and
        is zero-padded; it must not be longer.
    """

    __slots__ = ("_nums", "_den")

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
        if _has_float(coeffs):
            self._nums = [float(c) if c or isinstance(c, float) else 0
                          for c in coeffs]
            self._den = 1
        else:
            den = math.lcm(*(c.denominator for c in coeffs))
            self._nums = [c.numerator * (den // c.denominator) for c in coeffs]
            self._den = den

    @classmethod
    def _of(cls, nums: list, den) -> "Series":
        """The series nums/den as given, with no conversion or reduction."""
        s = object.__new__(cls)
        s._nums, s._den = nums, den
        return s

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
        return len(self._nums) - 1

    @property
    def coeffs(self) -> list:
        """The coefficients: ints where integral, Fractions, or floats."""
        d = self._den
        if d == 1:
            return list(self._nums)
        return [Fraction(n, d) if n % d else n // d for n in self._nums]

    def _floats(self) -> list[float]:
        """Each coefficient correctly rounded to float; OverflowError beyond range."""
        d = self._den
        return [n / d for n in self._nums]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.order != other.order:
            return False
        if self._den == other._den:
            return self._nums == other._nums
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Series({self.coeffs!r})"

    # -- ring arithmetic ----------------------------------------------

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} != {other.order}"
            )

    def _operands(self, other: "Series") -> tuple[list, list, object, object]:
        """Both numerator lists and denominators, in one mode.

        If only one of the two is a float series, the other's coefficients
        are rounded to float, as float arithmetic on a Fraction rounds it;
        its zeros stay exact.
        """
        self._check_order(other)
        a, b, d, e = self._nums, other._nums, self._den, other._den
        if d == 1 or e == 1:    # a float series has d = 1
            fa, fb = _has_float(a), _has_float(b)
            if fa != fb:
                if fa:
                    b = [c or 0 for c in other._floats()]
                else:
                    a = [c or 0 for c in self._floats()]
                return a, b, 1, 1
        return a, b, d, e

    def _common(self, other: "Series") -> tuple[list, list, object]:
        """Both numerator lists over the least common denominator."""
        a, b, d, e = self._operands(other)
        if d == e:
            return a, b, d
        g = math.gcd(d, e)
        return [c * (e // g) for c in a], [c * (d // g) for c in b], d // g * e

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        a, b, den = self._common(other)
        return _reduced([x + y for x, y in zip(a, b)], den)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        a, b, den = self._common(other)
        return _reduced([x - y for x, y in zip(a, b)], den)

    def __neg__(self):
        return Series._of([-a for a in self._nums], self._den)

    def __mul__(self, other):
        if isinstance(other, Series):
            a, b, d, e = self._operands(other)
            return _reduced(_convolve(a, b, len(a)), d * e)
        a = self._nums
        if isinstance(other, float):
            return Series._of([other * c for c in self._floats()], 1)
        if self._den == 1 and _has_float(a):
            r = float(other)    # as float arithmetic rounds an int or Fraction
            return Series._of(
                [r * c if isinstance(c, float) else c for c in a], 1)
        return _reduced([other.numerator * c for c in a],
                        other.denominator * self._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.reciprocal()
        return self * _exact_inverse(other)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse in the truncated ring; needs a_0 != 0.

        With a_k = A_k/D and b_j = B_j/E for j < n, the recurrence
        b_n = -(1/a_0) sum_{k=1..n} a_k b_(n-k) is -S/(A_0 E), S the integer
        sum of A_k B_(n-k).
        """
        a, d = self._nums, self._den
        if _is_zero(a[0]):
            raise ValueError("series with zero constant term has no reciprocal")
        b0, e = _divide(d, a[0])
        b = [b0]
        for n in range(1, len(a)):
            s = 0
            for k in range(1, n + 1):
                if a[k] and b[n - k]:
                    s += a[k] * b[n - k]
            num, q = _divide(s, a[0] * e)
            e = _append(b, e, -num, q)
        return Series._of(b, e)

    def sqrt(self) -> "Series":
        """Principal square root: b with b*b = self up to truncation, b_0 > 0.

        With a_n = A_n/D, b_0 = P/Q and b_j = B_j/E for j < n, the recurrence
        b_n = (a_n - sum_{k=1..n-1} b_k b_(n-k))/(2 b_0) is
        Q (A_n E^2 - S D)/(2 P D E^2), S the integer sum of B_k B_(n-k).
        """
        a, d = self._nums, self._den
        if a[0] <= 0:
            raise ValueError("series square root needs a positive constant term")
        p, q = _sqrt_scalar(a[0], d)
        b, e = [p], q
        for n in range(1, len(a)):
            s = 0
            for k in range(1, n):
                if b[k] and b[n - k]:
                    s += b[k] * b[n - k]
            num, den = _divide(q * (a[n] * e * e - s * d), 2 * p * d * e * e)
            e = _append(b, e, num, den)
        return Series._of(b, e)

    # -- order-changing helpers ----------------------------------------

    def _resized(self, order: int) -> "Series":
        """Copy truncated or zero-padded to `order`."""
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        nums = self._nums[: order + 1]
        return _reduced(nums + [0] * (order + 1 - len(nums)), self._den)

    def truncated(self, order: int) -> "Series":
        """Copy truncated to a lower (or equal) order."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return self._resized(order)

    def times_x(self) -> "Series":
        """Multiply by x; the result's truncation order grows by one."""
        return Series._of([0] + self._nums, self._den)

    def divided_by_x(self) -> "Series":
        """Divide by x; needs a_0 = 0, the truncation order drops by one."""
        if not _is_zero(self._nums[0]):
            raise ValueError("cannot divide by x: nonzero constant term")
        if self.order == 0:
            raise ValueError("cannot divide an order-0 series by x")
        return Series._of(self._nums[1:], self._den)

    # -- evaluation -----------------------------------------------------

    def __call__(self, x0):
        """Evaluate the truncated polynomial at x0 (Horner).

        An exact series at an int or Fraction x0 gives the exact value; at
        any other x0 each coefficient is rounded to float first.
        """
        exact = self._den != 1 and isinstance(x0, (int, Fraction))
        acc = 0
        for c in reversed(self._nums if exact or self._den == 1
                          else self._floats()):
            acc = acc * x0 + c
        return acc * Fraction(1, self._den) if exact else acc


def asin(u: Series) -> Series:
    """Arcsine of a series with zero constant term, truncated at u's order.

    Built from the derivative identity d/dx asin(u) = u' * (1 - u^2)^(-1/2)
    in three O(K^2) passes: f = 1 - u*u (the only ring multiplication),
    w = f^(-1/2) from the power recurrence
    2n w_n = sum_{k=1..n} (k - 2n) f_k w_(n-k) with w_0 = 1, and the
    integral y_n = (1/n) sum_{k=1..n} k u_k w_(n-k) with y_0 = 0; a float
    u_0 within PARITY_TOL counts as 0. Each sum runs over the numerators, so
    exact input gives exact coefficients through `_divide` and float input
    stays float.
    """
    a, d = u._nums, u._den
    if not _is_zero(a[0]):
        raise ValueError("asin composition needs a zero constant term")
    uu = u * u
    fd = uu._den
    f = [fd] + [-c for c in uu._nums[1:]]
    w, e = [1], 1
    for n in range(1, len(f)):
        s = 0
        for k in range(1, n + 1):
            # skipping exact-zero factors keeps structural zeros exact
            if f[k] and w[n - k]:
                s += (k - 2 * n) * f[k] * w[n - k]
        num, q = _divide(s, 2 * n * fd * e)
        e = _append(w, e, num, q)
    ku = [k * c for k, c in enumerate(a)]
    y, ey = [0], 1
    for n in range(1, len(ku)):
        s = 0
        for k in range(1, n + 1):
            if ku[k] and w[n - k]:
                s += ku[k] * w[n - k]
        num, q = _divide(s, n * d * e)
        ey = _append(y, ey, num, q)
    return Series._of(y, ey)
