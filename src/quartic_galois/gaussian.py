"""Exact arithmetic in Q(i), the field of Gaussian rationals.

Every value is three Python ints, (a + b*i)/d in lowest terms, so each
field operation is a few integer products and one gcd; there is no
floating point anywhere in this package.  The constant I satisfies
I**2 == -1 and I**4 == 1, so it is the primitive 4th root of unity used
everywhere an order-4 symmetry shows up.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import ParseError

Scalarish = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """An element (a + b*i)/d of Q(i), immutable and hashable.

    a, b and d are ints with d > 0 and gcd(a, b, d) == 1, so equal
    values store equal triples.  GaussianRational(re, im) takes the two
    parts as ints or Fractions; GaussianRational(a, b, den) takes the
    ints of (a + b*i)/den for any nonzero den.  re and im read the parts
    back as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Union[int, Fraction] = 0,
                 im: Union[int, Fraction] = 0, den: Optional[int] = None):
        if den is None:
            den = re.denominator * im.denominator
            re, im = re.numerator * im.denominator, im.numerator * re.denominator
        elif den < 0:
            re, im, den = -re, -im, -den
        elif not den:
            raise ZeroDivisionError("division by zero in Q(i)")
        g = math.gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
        self.a, self.b, self.d = re, im, den

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

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
        return not self.a and not self.b

    # -- field operations ----------------------------------------------

    def __add__(self, other: Scalarish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        d, e = self.d, o.d
        if d == e:
            return GaussianRational(self.a + o.a, self.b + o.b, d)
        return GaussianRational(self.a * e + o.a * d, self.b * e + o.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        d, e = self.d, o.d
        if d == e:
            return GaussianRational(self.a - o.a, self.b - o.b, d)
        return GaussianRational(self.a * e - o.a * d, self.b * e - o.b * d, d * e)

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.a, -self.b, self.d)

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        return GaussianRational(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        """(a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))."""
        o = GaussianRational.coerce(other)
        a, b, c, e, f = self.a, self.b, o.a, o.b, o.d
        return GaussianRational((a * c + b * e) * f, (b * c - a * e) * f,
                                self.d * (c * c + e * e))

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
        return GaussianRational(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """self*conj(self), an exact nonnegative rational."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def inverse(self) -> "GaussianRational":
        return ONE / self

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return (not self.b and self.a == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        # that of re, or of the pair (re, im), as Fractions
        h = _rational_hash(self.a, self.d)
        return hash((h, _rational_hash(self.b, self.d))) if self.b else h

    def sort_key(self) -> Tuple[int, int, int, int]:
        """Total order on Q(i) for canonical, reproducible output: the
        lowest-terms numerator and denominator of re, then of im."""
        return _lowest(self.a, self.d) + _lowest(self.b, self.d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- text form ------------------------------------------------------
    # `a/b+c/d*i` with optional parts, e.g. "3", "-1/2*i", "1+i";
    # str() and parse_gaussian round-trip exactly.

    def __str__(self) -> str:
        a, b, d = self.a, self.b, self.d
        if not b:
            return _fmt_frac(a, d)
        imag = _fmt_imag(abs(b), d)
        if not a:
            return imag if b > 0 else "-" + imag
        sign = "+" if b > 0 else "-"
        return f"{_fmt_frac(a, d)}{sign}{imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _lowest(n: int, d: int) -> Tuple[int, int]:
    """n/d in lowest terms, for d > 0 (0/d is 0/1)."""
    g = math.gcd(n, d)
    return n // g, d // g


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for d > 0, as CPython computes it: |n|/d mod
    sys.hash_info.modulus in lowest terms (hash_info.inf if d has no
    inverse there), with the sign of n, and -1 sent to -2."""
    (n, d), m = _lowest(n, d), sys.hash_info.modulus
    if d == 1:
        return hash(n)
    h = abs(n) * pow(d, -1, m) % m if d % m else sys.hash_info.inf
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _fmt_frac(n: int, d: int) -> str:
    n, d = _lowest(n, d)
    return str(n) if d == 1 else f"{n}/{d}"


def _fmt_imag(n: int, d: int) -> str:
    # n/d > 0
    return "i" if n == d else f"{_fmt_frac(n, d)}*i"


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
        # the coefficient is rational / den * i**ipow * paren
        rational, den, ipow, paren = -1 if sign == "-" else 1, 1, 0, None
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
                num, _, under = number.partition("/")
                rational *= parse_integer(num, "number", pos)
                if under:
                    q = parse_integer(under, "denominator", pos + len(num) + 1)
                    if not q:
                        raise ParseError(f"bad number {_shown(number)!r}", pos)
                    den *= q
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
        coeff = GaussianRational(re_sign * rational, im_sign * rational, den)
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

