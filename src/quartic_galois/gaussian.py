"""Exact arithmetic in Q(i), the field of Gaussian rationals.

Every value is a pair of exact rationals; there is no floating point
anywhere in this package.  The constant I satisfies I**2 == -1 and
I**4 == 1, so it is the primitive 4th root of unity used everywhere
an order-4 symmetry shows up.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import ParseError

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
    # `a/b+c/d*i` with optional parts, e.g. "3", "-1/2*i", "1+i";
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


# ---------------------------------------------------------------------------
# Reading text: one term grammar for every reader in the package.
# ---------------------------------------------------------------------------

Term = Tuple[Tuple[int, ...], GaussianRational, int]

_TOKEN = re.compile(r"\s*(([0-9]+(?:/[0-9]+)?)|(\S)(?:\^([0-9]+))?)")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_UNIT_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _shown(text: str) -> str:
    """text, cut to a short prefix when it is long, for an error message."""
    return text if len(text) <= 16 else text[:12] + "..."


def parse_integer(text: str, what: str, pos: int = -1) -> int:
    """text as an int: an optional sign and ASCII digits, nothing else
    (int() would also take other scripts' digits, '_' and surrounding
    whitespace).  A ParseError names `what`, also for a number longer
    than Python converts to an int."""
    if not _INTEGER.fullmatch(text):
        raise ParseError(f"{what} {_shown(text)!r} is not an integer", pos)
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} {_shown(text)!r} has too many digits",
                         pos) from None


def scan_terms(text: str, names: Sequence[str] = (), lo: int = 0,
               hi: Optional[int] = None) -> List[Term]:
    """Read text[lo:hi] as a sum of terms over Q(i) and the one-letter
    variables `names`.

    Terms are joined by + or -, and the first may carry a sign.  A term
    is factors standing side by side, or with a * strictly between two of
    them.  A factor is a number a or a/b in ASCII digits, i (or I), a
    parenthesised Q(i) literal, or a variable with an optional ^power.  A
    number begins its term or follows a *.  Each term comes back as
    (exponents over `names`, coefficient, offset of its first factor);
    every offset, also that of a ParseError, is into `text`.
    """
    hi = len(text) if hi is None else hi
    index = {name: k for k, name in enumerate(names)}
    terms: List[Term] = []
    m = _TOKEN.match(text, lo, hi)
    while True:
        sign = m and m.group(1)
        if sign in ("+", "-"):
            m = _TOKEN.match(text, m.end(), hi)
        at = m.start(1) if m else hi
        # the coefficient is rational * i**ipow * paren
        rational, ipow, paren = -1 if sign == "-" else 1, 0, None
        exps = [0] * len(names)
        prev = None                      # None, "*" or "factor"
        while m is not None:
            number, ch, power = m.group(2, 3, 4)
            pos, end = m.start(1), m.end()
            if power is not None and ch not in index:
                raise ParseError("unexpected character '^'", m.start(4) - 1)
            if ch in ("+", "-"):
                break
            if ch == "*":
                if prev != "factor":
                    raise ParseError("'*' must stand between two factors", pos)
                prev, star = "*", pos
                m = _TOKEN.match(text, end, hi)
                continue
            if number is not None:
                if prev == "factor":
                    raise ParseError(
                        "a number must begin its term or follow '*'", pos)
                num, _, den = number.partition("/")
                rational *= parse_integer(num, "number", pos)
                if den:
                    q = parse_integer(den, "denominator", pos + len(num) + 1)
                    if not q:
                        raise ParseError(f"bad number {_shown(number)!r}", pos)
                    rational = Fraction(rational, q)
            elif ch == "(":
                end = text.find(")", pos, hi) + 1
                if not end:
                    raise ParseError("unbalanced parenthesis", pos)
                nested = text.find("(", pos + 1, end)
                if nested >= 0:
                    raise ParseError("nested parenthesis", nested)
                value = _literal(scan_terms(text, (), pos + 1, end - 1))
                paren = value if paren is None else paren * value
            elif ch in ("i", "I"):
                ipow += 1
            elif ch in index:
                exps[index[ch]] += parse_integer(power, "exponent",
                                                 m.start(4)) if power else 1
            else:
                raise ParseError(f"unexpected character {ch!r}", pos)
            prev = "factor"
            m = _TOKEN.match(text, end, hi)
        if prev is None:
            raise ParseError("empty term", at)
        if prev == "*":
            raise ParseError("'*' must stand between two factors", star)
        re_sign, im_sign = _UNIT_POWERS[ipow % 4]
        coeff = GaussianRational(re_sign * rational, im_sign * rational)
        if paren is not None:
            coeff = paren if coeff == ONE else coeff * paren
        terms.append((tuple(exps), coeff, at))
        if m is None:
            return terms


def _literal(terms: List[Term]) -> GaussianRational:
    return sum((c for _e, c, _p in terms[1:]), terms[0][1])


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the text form of an element of Q(i): scan_terms without
    variables, its terms summed.

    Accepts e.g. "3", "-1/2", "i", "-i", "2*i", "2i", "1+i", "1/2 - 3/4*i",
    "(1+i)*(1-i)".  Raises ParseError, a ValueError, on anything else.
    """
    return _literal(scan_terms(text))


def scan_piece(text: str, lo: int, hi: int, piece: str,
               names: Sequence[str] = ()) -> List[Term]:
    """scan_terms on text[lo:hi], one named piece of a longer argument: a
    ParseError starts with `piece` and keeps its offset into text."""
    try:
        return scan_terms(text, names, lo, hi)
    except ParseError as exc:
        raise ParseError(f"{piece}: {exc.reason}", exc.position) from None


def parse_literals(text: str, spans: Sequence[Tuple[int, int]],
                   what: str) -> List[GaussianRational]:
    """The Q(i) literals text[lo:hi] for (lo, hi) in spans, read as
    parse_gaussian reads them; a ParseError names the literal as `what`
    and its number, counting from 1."""
    return [_literal(scan_piece(text, lo, hi, f"{what} {k}"))
            for k, (lo, hi) in enumerate(spans, 1)]


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
