"""Exact arithmetic in Q(i), the field of Gaussian rationals.

Every value is a pair of exact rationals; there is no floating point
anywhere in this package.  The constant I satisfies I**2 == -1 and
I**4 == 1, so it is the primitive 4th root of unity used everywhere
an order-4 symmetry shows up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple, Union

Scalarish = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """An element a + b*i of Q(i), immutable and hashable."""

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- coercion -----------------------------------------------------

    @staticmethod
    def coerce(x: Scalarish) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into Q(i)")

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    # -- field operations ----------------------------------------------

    def __add__(self, other: Scalarish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other: Scalarish) -> "GaussianRational":
        return GaussianRational.coerce(other) / self

    def __pow__(self, n: int) -> "GaussianRational":
        if n < 0:
            return (ONE / self) ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """a*conj(a), an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        return ONE / self

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def sort_key(self) -> Tuple[int, int, int, int]:
        """Total order on Q(i) for canonical, reproducible output."""
        return (
            self.re.numerator, self.re.denominator,
            self.im.numerator, self.im.denominator,
        )

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- text form ------------------------------------------------------
    # Grammar: `a/b + c/d*i` with optional parts, e.g. "3", "-1/2*i", "1+i".
    # str() and parse_gaussian round-trip exactly.

    def __str__(self) -> str:
        if not self.im:
            return _fmt_frac(self.re)
        imag = _fmt_imag(abs(self.im))
        if not self.re:
            return imag if self.im > 0 else "-" + imag
        sign = "+" if self.im > 0 else "-"
        return f"{_fmt_frac(self.re)}{sign}{imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _fmt_frac(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _fmt_imag(f: Fraction) -> str:
    # f > 0
    if f == 1:
        return "i"
    return f"{_fmt_frac(f)}*i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
MINUS_ONE = GaussianRational(-1)
MINUS_I = GaussianRational(0, -1)

#: The four 4th roots of unity in canonical report order.
FOURTH_ROOTS = (ONE, MINUS_ONE, I, MINUS_I)


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the text form of an element of Q(i).

    Accepts e.g. "3", "-1/2", "i", "-i", "2*i", "2i", "1+i", "1/2 - 3/4*i".
    Raises ValueError on anything else.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty Q(i) literal")
    re_part = Fraction(0)
    im_part = Fraction(0)
    pos = 0
    n = len(s)
    seen_any = False
    while pos < n:
        while pos < n and s[pos].isspace():
            pos += 1
        if pos >= n:
            break
        sign = 1
        if s[pos] in "+-":
            if s[pos] == "-":
                sign = -1
            pos += 1
            while pos < n and s[pos].isspace():
                pos += 1
        start = pos
        while pos < n and (s[pos].isdigit() or s[pos] == "/"):
            pos += 1
        digits = s[start:pos]
        while pos < n and s[pos].isspace():
            pos += 1
        if pos < n and s[pos] == "*":
            pos += 1
            while pos < n and s[pos].isspace():
                pos += 1
        is_imag = False
        if pos < n and s[pos] in "iI":
            is_imag = True
            pos += 1
        if not digits and not is_imag:
            raise ValueError(f"bad Q(i) literal {text!r} at offset {start}")
        if digits:
            try:
                value = Fraction(digits)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational {digits!r} in {text!r}") from exc
        else:
            value = Fraction(1)
        if is_imag:
            im_part += sign * value
        else:
            re_part += sign * value
        seen_any = True
    if not seen_any:
        raise ValueError(f"empty Q(i) literal {text!r}")
    return GaussianRational(re_part, im_part)


def _rational_sqrt(f: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if f < 0:
        return None
    ns = math.isqrt(f.numerator)
    ds = math.isqrt(f.denominator)
    if ns * ns == f.numerator and ds * ds == f.denominator:
        return Fraction(ns, ds)
    return None


def gaussian_sqrt(z: GaussianRational) -> Optional[GaussianRational]:
    """An exact square root of z in Q(i), or None if z is not a square there.

    z = a + bi is a square in Q(i) iff norm(z) is a rational square r**2
    and (a + r)/2 is a rational square.
    """
    if z.is_zero():
        return ZERO
    a, b = z.re, z.im
    if not b:
        s = _rational_sqrt(a)
        if s is not None:
            return GaussianRational(s)
        s = _rational_sqrt(-a)
        if s is not None:
            return GaussianRational(0, s)
        return None
    r = _rational_sqrt(a * a + b * b)
    if r is None:
        return None
    c = _rational_sqrt((a + r) / 2)
    if c is None or c == 0:
        return None
    d = b / (2 * c)
    cand = GaussianRational(c, d)
    if cand * cand == z:
        return cand
    return None
