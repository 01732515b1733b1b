"""Truncated power-series arithmetic in one dimensionless variable.

Series live in the fixed-truncation ring R[x]/x^(K+1): every operation keeps
exactly K+1 coefficients and never reads or writes beyond index K.

A series is stored as integer numerators over one shared denominator,
a_k = n_k/d, in one of two modes. An exact series is built from ints,
Fractions or floats, a float entering as its binary-exact Fraction; d is the
least positive common denominator of its coefficients, and every operation
on it is exact. A fixed-point series has d = 2^P, with the precision P kept
beside it: each coefficient an operation computes is rounded to a multiple
of 2^-P, off by less than one unit 2^-P. `_fixed` rounds an exact series to
fixed point; an exact series meeting a fixed-point one, or fixed-point
series of different P, raise ValueError. Both modes run the same code: a
product is one integer convolution followed by one gcd (exact) or one shift
(fixed point); reciprocal, sqrt and asin accumulate each inner sum in
integers and divide once per output coefficient. The modes part only in the
scalar helpers `_divide`, `_sqrt_scalar` and `_reduced`. `coeffs` reads an
exact series back as ints and Fractions, and a fixed-point one as correctly
rounded floats.

No operation costs more than O(K^2) coefficient operations: products by
convolution; reciprocals, square roots and the inverse square root inside
`asin` by one power recurrence (`_power`), which costs O(K m) for an input
of degree m; and `asin` from the derivative identity d/dx asin(u) =
u' (1 - u^2)^(-1/2), which needs one product, that power recurrence and one
more convolution, not a composition of the Maclaurin series.

The variable is the dimensionless product x = (timestep) * (angular
frequency); all frequency expansions in this package are series in x.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["Series", "asin"]


def _divide(n, d, bits):
    """n/d as a (numerator, denominator) pair; `bits` is None or the precision P.

    Exact: the pair in lowest terms with a positive denominator. Fixed point:
    (N, 2^P) with N within one unit of n 2^P/d; the powers of two of d are
    stripped first, by shifts, so the one division runs on small operands.
    """
    if bits is None:
        g = math.gcd(n, d)
        if d < 0:
            g = -g
        return n // g, d // g
    t = (d & -d).bit_length() - 1   # d = odd * 2^t
    n = n << (bits - t) if t <= bits else n >> (t - bits)
    return n // (d >> t), 1 << bits


def _sqrt_scalar(n, d, bits):
    """Principal square root of the constant term n/d as a pair.

    Exact, it must have a rational root; in fixed point it is rounded down.
    """
    if bits is not None:
        return math.isqrt((n << 2 * bits) // d), 1 << bits
    g = math.gcd(n, d)
    n, d = n // g, d // g
    rp, rq = math.isqrt(n), math.isqrt(d)
    if rp * rp != n or rq * rq != d:
        raise ValueError(
            f"constant term {Fraction(n, d)} has no exact rational square "
            "root; round the series to fixed point first"
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


def _power(a: list, c: int, b0, e, bits) -> tuple[list, object]:
    """Numerators and shared denominator of a^(c/2 - 1) from b_0 = b0/e.

    b = a^(c/2 - 1) satisfies a b' = (c/2 - 1) a' b, whose x^(n-1)
    coefficient is the recurrence 2n a_0 b_n = sum_{k=1..n} (c k - 2n) a_k
    b_(n-k): the reciprocal for c = 0, the inverse square root for c = 1 and
    the square root for c = 3. With a_k = A_k/D and b_j = B_j/E for j < n,
    b_n is S/(2n A_0 E), S the integer sum of (c k - 2n) A_k B_(n-k). The
    sum runs over the nonzero a_k only, so an a of degree m costs O(m)
    products per coefficient, and zero products are skipped, which keeps
    structural zeros exact.
    """
    nonzero = [k for k in range(1, len(a)) if a[k]]
    b = [b0]
    for n in range(1, len(a)):
        s = 0
        for k in nonzero:
            if k > n:
                break
            if b[n - k]:
                s += (c * k - 2 * n) * a[k] * b[n - k]
        num, q = _divide(s, 2 * n * a[0] * e, bits)
        e = _append(b, e, num, q)
    return b, e


def _reduced(nums: list, den, bits) -> "Series":
    """The series nums/den: in lowest terms if exact, over 2^bits in fixed point."""
    if bits is not None:
        if den != 1 << bits:
            nums = [_divide(c, den, bits)[0] for c in nums]
        return Series._of(nums, 1 << bits, bits)
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
        Coefficients in increasing power order: ints, Fractions or floats,
        each taken at its exact value. The series is exact.
    order : int, optional
        Truncation order K. When given, `coeffs` may be shorter than K+1 and
        is zero-padded; it must not be longer.
    """

    __slots__ = ("_nums", "_den", "_bits")

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
        ratios = [c.as_integer_ratio() for c in coeffs]
        den = math.lcm(*(q for _, q in ratios))
        self._nums = [p * (den // q) for p, q in ratios]
        self._den = den
        self._bits = None

    @classmethod
    def _of(cls, nums: list, den, bits=None) -> "Series":
        """The series nums/den as given, with no conversion or reduction."""
        s = object.__new__(cls)
        s._nums, s._den, s._bits = nums, den, bits
        return s

    def _fixed(self, bits: int) -> "Series":
        """This exact series rounded to fixed point with precision `bits`."""
        return _reduced(self._nums, self._den, bits)

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
        """The coefficients: ints where integral, Fractions, or fixed-point floats."""
        d = self._den
        if self._bits is not None:
            return self._floats()
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
        """Both numerator lists and denominators, of one mode and precision."""
        self._check_order(other)
        if self._bits != other._bits:
            raise ValueError("an exact series cannot meet a fixed-point one, "
                             "nor fixed-point series of different precision")
        return self._nums, other._nums, self._den, other._den

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
        return _reduced([x + y for x, y in zip(a, b)], den, self._bits)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        a, b, den = self._common(other)
        return _reduced([x - y for x, y in zip(a, b)], den, self._bits)

    def __neg__(self):
        return Series._of([-a for a in self._nums], self._den, self._bits)

    def __mul__(self, other):
        if isinstance(other, Series):
            a, b, d, e = self._operands(other)
            return _reduced(_convolve(a, b, len(a)), d * e, self._bits)
        p, q = other.as_integer_ratio()
        return _reduced([p * c for c in self._nums], q * self._den, self._bits)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.reciprocal()
        return self * (1 / Fraction(other))

    def reciprocal(self) -> "Series":
        """Multiplicative inverse in the truncated ring; needs a_0 != 0."""
        a, d, bits = self._nums, self._den, self._bits
        if not a[0]:
            raise ValueError("series with zero constant term has no reciprocal")
        return Series._of(*_power(a, 0, *_divide(d, a[0], bits), bits), bits)

    def sqrt(self) -> "Series":
        """Principal square root: b with b*b = self up to truncation, b_0 > 0."""
        a, d, bits = self._nums, self._den, self._bits
        if a[0] <= 0:
            raise ValueError("series square root needs a positive constant term")
        return Series._of(*_power(a, 3, *_sqrt_scalar(a[0], d, bits), bits), bits)

    # -- order-changing helpers ----------------------------------------

    def _resized(self, order: int) -> "Series":
        """Copy truncated or zero-padded to `order`."""
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        nums = self._nums[: order + 1]
        return _reduced(nums + [0] * (order + 1 - len(nums)), self._den,
                        self._bits)

    def truncated(self, order: int) -> "Series":
        """Copy truncated to a lower (or equal) order."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return self._resized(order)

    def times_x(self) -> "Series":
        """Multiply by x; the result's truncation order grows by one."""
        return Series._of([0] + self._nums, self._den, self._bits)

    def divided_by_x(self) -> "Series":
        """Divide by x; needs a_0 = 0, the truncation order drops by one."""
        if self._nums[0]:
            raise ValueError("cannot divide by x: nonzero constant term")
        if self.order == 0:
            raise ValueError("cannot divide an order-0 series by x")
        return Series._of(self._nums[1:], self._den, self._bits)

    # -- evaluation -----------------------------------------------------

    def __call__(self, x0):
        """The exact value of the truncated polynomial at x0, as a Fraction.

        x0 is an int, a Fraction or a float, taken at its binary value. With
        x0 = p/q, Horner's rule runs in integers on q^K times the
        polynomial, and the one division is the Fraction's.
        """
        p, q = x0.as_integer_ratio()
        acc = 0
        for j, c in enumerate(reversed(self._nums)):
            acc = acc * p + c * q**j
        return Fraction(acc, self._den * q**self.order)


def asin(u: Series) -> Series:
    """Arcsine of a series with zero constant term, truncated at u's order.

    Built from the derivative identity d/dx asin(u) = u' * (1 - u^2)^(-1/2)
    in three O(K^2) passes: f = 1 - u*u (the only ring multiplication),
    w = f^(-1/2) from the power recurrence
    2n w_n = sum_{k=1..n} (k - 2n) f_k w_(n-k) with w_0 = 1 (`_power`), and
    the integral y_n = (1/n) sum_{k=1..n} k u_k w_(n-k) with y_0 = 0, one
    convolution. Each sum runs over the numerators and is divided once by
    `_divide`, so exact input gives exact coefficients and fixed-point input
    fixed-point ones.
    """
    return _asin(u, u * u)


def _asin(u: Series, uu: Series) -> Series:
    """asin(u) from uu = u*u, for a caller that has u*u as a shorter series.

    The power recurrence skips the zero coefficients of f = 1 - uu, so a uu
    of degree m makes the pass for w O(K m).
    """
    a, d, bits = u._nums, u._den, u._bits
    if a[0]:
        raise ValueError("asin composition needs a zero constant term")
    f = [uu._den] + [-c for c in uu._nums[1:]]
    w, e = _power(f, 1, 1, 1, bits)
    y, ey = [0], 1
    ku = [k * c for k, c in enumerate(a)]
    for n, s in enumerate(_convolve(ku, w, len(ku))[1:], 1):
        num, q = _divide(s, n * d * e, bits)
        ey = _append(y, ey, num, q)
    return _reduced(y, ey, bits)
