"""Exact homogeneous multivariate polynomials over Q(i).

The central type is HomPoly: a strictly homogeneous form in at most 4
variables with Gaussian-rational coefficients, stored sparsely as one
denominator and Z[i] numerators keyed by exponent vectors; every
operation below runs on those integers.  A form in n variables prints
in the first n of the letters X, Y, Z, W, its terms in descending lex
order, so the text depends only on the form's value, and equal forms
print the same.  parse_poly reads that text back as a form in all four
letters, which restrict takes down to the original variables.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .errors import ParseError
from .gaussian import (ZERO, ONE, GaussianRational, parse_literals,
                       scan_terms)
from .linalg import Matrix
from . import univariate
from .univariate import GInt, _common_denominator, _gi_mul

Exponent = Tuple[int, ...]
DEFAULT_NAMES = ("X", "Y", "Z", "W")


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> Tuple[Exponent, ...]:
    """All exponent vectors of the given total degree, descending lex."""
    if nvars == 1:
        return ((degree,),)
    out: List[Exponent] = []
    for e in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - e):
            out.append((e,) + rest)
    return tuple(out)


class HomPoly:
    """A homogeneous polynomial; immutable after construction.

    It is num / den: num maps each exponent vector to a nonzero Z[i]
    numerator (re, im), the solver module's Form, and den is the least
    common denominator of the coefficients, so equal polynomials store
    equal data.  terms is the read-only view of the coefficients in Q(i).
    """

    __slots__ = ("nvars", "degree", "num", "den")

    def __init__(self, nvars: int, degree: int,
                 terms: Mapping[Exponent, GaussianRational]):
        if not 1 <= nvars <= 4:
            raise ValueError("HomPoly supports 1..4 variables")
        clean: Dict[Exponent, GaussianRational] = {}
        for exp, coeff in terms.items():
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong length")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if sum(exp) != degree:
                raise ValueError(
                    f"term {exp} breaks homogeneity (degree {degree})")
            c = GaussianRational.coerce(coeff)
            if not c.is_zero():
                clean[exp] = c
        self.den, nums = _common_denominator(list(clean.values()))
        self.num = dict(zip(clean, nums))
        self.nvars = nvars
        self.degree = degree

    @classmethod
    def _from_num(cls, nvars: int, degree: int, num: Dict[Exponent, GInt],
                  den: int) -> "HomPoly":
        """num / den for Z[i] numerators and a positive integer den: the
        zero numerators are dropped and the integer factor common to den
        and every numerator is cancelled."""
        num = {e: c for e, c in num.items() if c != (0, 0)}
        g = math.gcd(den, *(x for c in num.values() for x in c))
        if g > 1:
            num = {e: (a // g, b // g) for e, (a, b) in num.items()}
        f = cls(nvars, degree, {})
        f.num, f.den = num, den // g
        return f

    # -- basics -----------------------------------------------------------

    @staticmethod
    def zero(nvars: int, degree: int) -> "HomPoly":
        return HomPoly(nvars, degree, {})

    @staticmethod
    def constant(nvars: int, value) -> "HomPoly":
        return HomPoly(nvars, 0, {(0,) * nvars: value})

    def is_zero(self) -> bool:
        return not self.num

    @property
    def terms(self) -> Mapping[Exponent, GaussianRational]:
        """The nonzero coefficients in Q(i), as a read-only map."""
        return MappingProxyType({e: self._coefficient(c)
                                 for e, c in self.num.items()})

    def _coefficient(self, c: GInt) -> GaussianRational:
        return GaussianRational(c[0], c[1], self.den)

    def coeff(self, exp: Exponent) -> GaussianRational:
        return self._coefficient(self.num.get(tuple(exp), (0, 0)))

    def sorted_terms(self) -> List[Tuple[Exponent, GaussianRational]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomPoly):
            return NotImplemented
        if (self.nvars != other.nvars or self.den != other.den
                or self.num != other.num):
            return False
        return self.is_zero() or self.degree == other.degree

    def __hash__(self) -> int:
        return hash((self.nvars, self.den, tuple(sorted(self.num.items()))))

    # -- arithmetic ---------------------------------------------------------

    def _compat(self, other: "HomPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        if not self.is_zero() and not other.is_zero() and self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")

    def __add__(self, other: "HomPoly") -> "HomPoly":
        self._compat(other)
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {e: (a * s, b * s) for e, (a, b) in self.num.items()}
        for e, (a, b) in other.num.items():
            re, im = out.get(e, (0, 0))
            out[e] = (re + a * t, im + b * t)
        deg = self.degree if not self.is_zero() else other.degree
        return HomPoly._from_num(self.nvars, deg, out, den)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __neg__(self) -> "HomPoly":
        return self.scale(-1)

    def __mul__(self, other: "HomPoly") -> "HomPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        out: Dict[Exponent, GInt] = {}
        for e1, (a, b) in self.num.items():
            for e2, (c, d) in other.num.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                re, im = out.get(e, (0, 0))
                out[e] = (re + a * c - b * d, im + a * d + b * c)
        return HomPoly._from_num(self.nvars, self.degree + other.degree, out,
                                 self.den * other.den)

    def scale(self, c) -> "HomPoly":
        dc, (z,) = _common_denominator([GaussianRational.coerce(c)])
        return HomPoly._from_num(self.nvars, self.degree,
                                 {e: _gi_mul(z, v) for e, v in self.num.items()},
                                 self.den * dc)

    def __pow__(self, n: int) -> "HomPoly":
        if n < 0:
            raise ValueError("negative power")
        result = HomPoly.constant(self.nvars, ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval(self, point: Sequence) -> GaussianRational:
        """f(point), summed over Z[i]: with d_P the common denominator of
        the point, f(P) = num(d_P P) / (den d_P**deg f) by homogeneity, so
        there is one division."""
        vals = [GaussianRational.coerce(x) for x in point]
        if len(vals) != self.nvars:
            raise ValueError("point length mismatch")
        dp, xs = _common_denominator(vals)
        powers = [_gi_powers(x, self.degree) for x in xs]
        re = im = 0
        for exp, c in self.num.items():
            for pw, e in zip(powers, exp):
                if e:
                    c = _gi_mul(c, pw[e])
            re += c[0]
            im += c[1]
        return GaussianRational(re, im, self.den * dp ** self.degree)

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: List[str] = []
        for exp, coeff in self.sorted_terms():
            mono = self._fmt_monomial(exp)
            body, negative = _fmt_coeff(coeff, mono)
            if not parts:
                parts.append("-" + body if negative else body)
            else:
                parts.append(("-" if negative else "+") + body)
        return "".join(parts)

    def _fmt_monomial(self, exp: Exponent) -> str:
        pieces = []
        for name, e in zip(DEFAULT_NAMES, exp):
            if e == 1:
                pieces.append(name)
            elif e > 1:
                pieces.append(f"{name}^{e}")
        return "*".join(pieces)

    def __repr__(self) -> str:
        return f"HomPoly({self})"


def _fmt_coeff(coeff: GaussianRational, mono: str) -> Tuple[str, bool]:
    """Return (body, negative) with the sign pulled out when printable."""
    body = str(coeff)
    if coeff.a and coeff.b:
        body, negative = f"({body})", False
    else:
        negative = body.startswith("-")
        body = body[negative:]
    if not mono:
        return body, negative
    return (mono if body == "1" else f"{body}*{mono}"), negative


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------

def parse_poly(text: str, expected_degree: int) -> HomPoly:
    """Parse a homogeneous form in X, Y, Z, W, as a form in 4 variables.

    The grammar is that of gaussian.scan_terms, e.g. "2X^2Y^2 + i*Z^4",
    "X^4 + (1+i)*Y^2*Z^2 - 1/2*W^4".  Rejects inhomogeneous input and
    wrong total degree.
    """
    terms = scan_terms(text, DEFAULT_NAMES)
    degrees = {sum(e) for e, _c, _p in terms}
    if len(degrees) > 1:
        offender = next(p for e, _c, p in terms if sum(e) != expected_degree)
        raise ParseError("inhomogeneous polynomial", offender)
    deg = degrees.pop()
    if deg != expected_degree:
        raise ParseError(
            f"degree mismatch: expected {expected_degree}, found {deg}",
            terms[0][2])
    acc: Dict[Exponent, GaussianRational] = {}
    for exp, coeff, _p in terms:
        acc[exp] = acc.get(exp, ZERO) + coeff
    return HomPoly(4, expected_degree, acc)


# ---------------------------------------------------------------------------
# Projective points.
# ---------------------------------------------------------------------------

class ProjPoint:
    """A point of projective space in canonical form.

    The first nonzero coordinate is scaled to 1, so equality of points
    is plain equality of coordinate tuples.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        vals = [GaussianRational.coerce(c) for c in coords]
        pivot = next((v for v in vals if not v.is_zero()), None)
        if pivot is None:
            raise ValueError("projective point needs a nonzero coordinate")
        self.coords = tuple(v / pivot for v in vals)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, k: int) -> GaussianRational:
        return self.coords[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def pivot_index(self) -> int:
        return next(k for k, v in enumerate(self.coords) if not v.is_zero())

    def __str__(self) -> str:
        return ":".join(str(c) for c in self.coords)

    def __repr__(self) -> str:
        return f"ProjPoint({self})"


def parse_point(text: str) -> ProjPoint:
    """Parse four colon-separated homogeneous coordinates, optionally in
    one pair of [ ].  A wrong count is a ParseError at the fifth
    coordinate, or at the end of text when there are fewer than four."""
    body = re.fullmatch(r"\s*(\[(.*)\]|.*?)\s*", text, re.S)
    lo, hi = body.span(2 if body.group(2) is not None else 1)
    stray = re.compile(r"[][]").search(text, lo, hi)
    if stray:
        raise ParseError(f"unmatched or nested {stray.group()!r}", stray.start())
    spans = []
    for part in text[lo:hi].split(":"):
        spans.append((lo, lo + len(part)))
        lo += len(part) + 1
    if len(spans) != 4:
        raise ParseError(f"expected 4 coordinates, got {len(spans)}",
                         spans[4][0] if len(spans) > 4 else len(text))
    return ProjPoint(parse_literals(text, spans, "point coordinate"))


# ---------------------------------------------------------------------------
# Operations used throughout the geometry.
# ---------------------------------------------------------------------------

def substitute_linear(f: HomPoly, m: Matrix) -> HomPoly:
    """The pullback f(M x): substitute variable k by row k of M applied to x.

    M may be rectangular (nvars-in rows, nvars-out columns), which
    restricts f to a linear subspace.  With d_M the common denominator
    of M, f(Mx) = num(d_M M x) / (den d_M**deg f) by homogeneity: the
    expansion runs over Z[i] and the result keeps one denominator.
    """
    if m.rows != f.nvars:
        raise ValueError(
            f"matrix has {m.rows} rows but polynomial has {f.nvars} variables")
    nout, deg = m.cols, f.degree
    dm, entries = _common_denominator(m.entries)
    # An output exponent vector is one int, its digits in base deg+1 (no
    # exponent exceeds deg): exponents add as ints and descending lex
    # order is descending int order.
    base = deg + 1
    units = [base ** (nout - 1 - j) for j in range(nout)]
    lin = [{units[j]: c for j, c in enumerate(entries[k * nout:(k + 1) * nout])
            if c != (0, 0)} for k in range(f.nvars)]
    powers: List[List[Dict[int, GInt]]] = []
    for k in range(f.nvars):
        top = max((exp[k] for exp in f.num), default=0)
        cache = [{0: (1, 0)}]
        for _ in range(top):
            cache.append(_gi_addmul({}, cache[-1], lin[k]))
        powers.append(cache)
    # products of the powers over a prefix of the exponent vector, shared
    # by every term of f with that prefix
    prefix: Dict[Exponent, Dict[int, GInt]] = {(): {0: (1, 0)}}
    acc: Dict[int, GInt] = {}
    for exp, c in f.num.items():
        key: Exponent = ()
        for k, e in enumerate(exp[:-1]):
            parent, key = key, key + (e,)
            if key not in prefix:
                prefix[key] = _gi_addmul({}, prefix[parent], powers[k][e])
        scaled = {e: _gi_mul(c, v) for e, v in prefix[key].items()}
        _gi_addmul(acc, scaled, powers[-1][exp[-1]])
    num = {tuple((e // u) % base for u in units): acc[e]
           for e in sorted(acc, reverse=True)}
    return HomPoly._from_num(nout, deg, num, f.den * dm ** deg)


def restrict(f: HomPoly, keep: Sequence[int]) -> HomPoly:
    """f with the variables outside keep set to 0, as a form in the
    variables keep, in that order (f pulled back by those columns of I)."""
    return HomPoly._from_num(len(keep), f.degree, {
        tuple(e[v] for v in keep): c for e, c in f.num.items()
        if sum(e[v] for v in keep) == f.degree}, f.den)


def _gi_addmul(acc: Dict[int, GInt], p: Dict[int, GInt],
               q: Dict[int, GInt]) -> Dict[int, GInt]:
    """acc += p*q for Z[i] polynomials keyed by packed exponents."""
    for e1, (a, b) in p.items():
        for e2, (c, d) in q.items():
            e = e1 + e2
            re, im = acc.get(e, (0, 0))
            acc[e] = (re + a * c - b * d, im + a * d + b * c)
    return acc


def _gi_powers(x: GInt, top: int) -> List[GInt]:
    """[x**0, x**1, ..., x**top] over Z[i]."""
    out = [(1, 0)]
    for _ in range(top):
        out.append(_gi_mul(out[-1], x))
    return out


def partials(f: HomPoly) -> List[HomPoly]:
    """All formal partial derivatives; Euler's identity holds exactly."""
    if f.degree < 1:
        raise ValueError("cannot differentiate a degree-0 form")
    out = []
    for k in range(f.nvars):
        num = {exp[:k] + (e - 1,) + exp[k + 1:]: (a * e, b * e)
               for exp, (a, b) in f.num.items() if (e := exp[k])}
        out.append(HomPoly._from_num(f.nvars, f.degree - 1, num, f.den))
    return out


class XDecomposition:
    """f written as sum of c_k * (chart variable)**(d-k).

    c_k is a form of degree k in the remaining variables; c_0 is the
    scalar coefficient of the pure chart power.  reassemble() is exact.
    """

    __slots__ = ("chart", "c", "nvars", "degree")

    def __init__(self, chart: int, c: List[HomPoly], nvars: int, degree: int):
        self.chart = chart
        self.c = c
        self.nvars = nvars
        self.degree = degree

    def reassemble(self) -> HomPoly:
        out = HomPoly.zero(self.nvars, self.degree)
        for k, ck in enumerate(self.c):
            out = out + HomPoly._from_num(self.nvars, self.degree, {
                exp[:self.chart] + (self.degree - k,) + exp[self.chart:]: c
                for exp, c in ck.num.items()}, ck.den)
        return out


def x_decompose(f: HomPoly, chart: int) -> XDecomposition:
    """Decompose f by powers of the chart variable."""
    if not 0 <= chart < f.nvars:
        raise ValueError("chart index out of range")
    if f.nvars < 2:
        raise ValueError("decomposition needs at least 2 variables")
    d = f.degree
    buckets: List[Dict[Exponent, GInt]] = [{} for _ in range(d + 1)]
    for exp, coeff in f.num.items():
        k = d - exp[chart]
        rest = exp[:chart] + exp[chart + 1:]
        buckets[k][rest] = coeff
    c = [HomPoly._from_num(f.nvars - 1, k, buckets[k], f.den)
         for k in range(d + 1)]
    return XDecomposition(chart, c, f.nvars, d)


def polar_forms(f: HomPoly, p: Union[ProjPoint, Sequence]) -> List[HomPoly]:
    """The forms e_k with f(s*p + t*q) = sum_k s**(d-k) t**k e_k(q).

    e_0 is the scalar f(p) and e_d is f itself; e_k has degree k in q.
    With d_P the common denominator of p, e_k is summed over Z[i] at
    d_P p and divided by den d_P**(d-k).
    """
    vals = [GaussianRational.coerce(x) for x in p]
    if len(vals) != f.nvars:
        raise ValueError("point length mismatch")
    d = f.degree
    dp, xs = _common_denominator(vals)
    powers = [_gi_powers(x, d) for x in xs]
    out: List[Dict[Exponent, GInt]] = [{} for _ in range(d + 1)]
    for exp, coeff in f.num.items():
        for sub in _sub_exponents(exp):
            c = coeff
            for a, j, pw in zip(exp, sub, powers):
                c = _gi_mul(c, pw[a - j])
            m = math.prod(math.comb(a, j) for a, j in zip(exp, sub))
            bucket = out[sum(sub)]
            re, im = bucket.get(sub, (0, 0))
            bucket[sub] = (re + m * c[0], im + m * c[1])
    return [HomPoly._from_num(f.nvars, k, out[k], f.den * dp ** (d - k))
            for k in range(d + 1)]


def _sub_exponents(exp: Exponent) -> List[Exponent]:
    subs: List[Tuple[int, ...]] = [()]
    for e in exp:
        subs = [s + (j,) for s in subs for j in range(e + 1)]
    return subs


def squarefree_profile(f: HomPoly) -> List[int]:
    """Multiset of linear-factor multiplicities of a nonzero binary form.

    Decided entirely by gcds with the derivative; no root extraction.
    "Distinct factors" is equivalent to the profile being all ones.
    """
    if f.nvars != 2:
        raise ValueError("squarefree profile is defined for binary forms")
    if f.is_zero():
        raise ValueError("zero binary form")
    d = f.degree
    coeffs = [f.coeff((j, d - j)) for j in range(d + 1)]
    g = univariate.trim(list(coeffs))
    e = univariate.degree(g)
    profile = [d - e] if d > e else []
    return sorted(profile + univariate.multiplicity_profile(g))

