"""Exact Q(i) arithmetic of the benchmark's own, independent of the package.

The corpus generator builds surfaces, matrices and points with it, and
derives every expected answer from the construction: the pull-back
f(A x), the moved points A^-1 p, the conjugated automorphism A^-1 M A and
the moved singular point.  The correctness gate parses the CLI's printed
Q(i) values with `parse`.  Nothing here imports `quartic_galois`, so an
expectation never depends on the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Dict, List, Sequence, Tuple

Exp = Tuple[int, ...]
VARS = ("X", "Y", "Z", "W")


class Q:
    """An element re + im*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        o = lift(o)
        return Q(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = lift(o)
        return Q(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return Q(-self.re, -self.im)

    def __mul__(self, o):
        o = lift(o)
        return Q(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = lift(o)
        n = o.re * o.re + o.im * o.im
        return self * Q(o.re / n, -o.im / n)

    def __eq__(self, o):
        o = lift(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __str__(self):
        """The package's literal grammar: `a/b`, `a/b+c/d*i`."""
        if not self.im:
            return str(self.re)
        sign = "-" if self.im < 0 else "+"
        return f"{self.re}{sign}{abs(self.im)}*i"


I = Q(0, 1)


def lift(x) -> Q:
    return x if isinstance(x, Q) else Q(x)


def parse(text: str) -> Q:
    """Parse a printed Q(i) value such as `3`, `-i`, `1/2-3/4*i`."""
    s = text.strip()
    if not s.endswith("i"):
        return Q(Fraction(s))
    body = s[:-1].rstrip("*")
    k = max(body.rfind("+"), body.rfind("-"))
    re_txt, im_txt = (body[:k], body[k:]) if k > 0 else ("0", body)
    im = {"": 1, "+": 1, "-": -1}.get(im_txt)
    return Q(Fraction(re_txt), im if im is not None else Fraction(im_txt))


# -- forms: {exponent tuple: coefficient} --------------------------------

Poly = Dict[Exp, Q]


def poly(terms: Sequence[Tuple[int, Exp]]) -> Poly:
    return {e: lift(c) for c, e in terms}


def _mul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for (e1, c1), (e2, c2) in product(f.items(), g.items()):
        e = tuple(a + b for a, b in zip(e1, e2))
        out[e] = out.get(e, Q()) + c1 * c2
    return {e: c for e, c in out.items() if c}


def pullback(f: Poly, a: "Mat") -> Poly:
    """f(A x): variable k becomes row k of A applied to x."""
    n = len(a)
    lin = [{tuple(int(t == j) for t in range(n)): a[k][j]
            for j in range(n) if a[k][j]} for k in range(n)]
    out: Poly = {}
    for exp, c in f.items():
        term: Poly = {(0,) * n: c}
        for k, e in enumerate(exp):
            for _ in range(e):
                term = _mul(term, lin[k])
        for e, v in term.items():
            out[e] = out.get(e, Q()) + v
    return {e: c for e, c in out.items() if c}


def evaluate(f: Poly, p: Sequence[Q]) -> Q:
    total = Q()
    for exp, c in f.items():
        term = c
        for x, e in zip(p, exp):
            for _ in range(e):
                term = term * x
        total = total + term
    return total


def partial(f: Poly, k: int) -> Poly:
    out: Poly = {}
    for exp, c in f.items():
        if exp[k]:
            e = list(exp)
            e[k] -= 1
            out[tuple(e)] = c * exp[k]
    return out


def is_singular_at(f: Poly, p: Sequence[Q]) -> bool:
    return not evaluate(f, p) and all(not evaluate(partial(f, k), p)
                                      for k in range(len(p)))


def poly_text(f: Poly) -> str:
    terms = []
    for exp in sorted(f, reverse=True):
        mono = "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in zip(VARS, exp) if e)
        terms.append(f"({f[exp]})*{mono}")
    return "+".join(terms)


# -- 4x4 matrices and points ---------------------------------------------

Mat = List[List[Q]]


def mat(rows) -> Mat:
    return [[lift(x) for x in row] for row in rows]


def identity() -> Mat:
    return mat([[int(i == j) for j in range(4)] for i in range(4)])


def diag(values) -> Mat:
    n = len(values)
    return mat([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def mat_mul(a: Mat, b: Mat) -> Mat:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Q())
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_vec(a: Mat, v: Sequence[Q]) -> List[Q]:
    return [sum((a[i][k] * v[k] for k in range(len(v))), Q()) for i in range(len(a))]


def inverse(a: Mat) -> Mat:
    """Gauss-Jordan inverse; raises ZeroDivisionError when singular."""
    n = len(a)
    work = [list(row) + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if work[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        work[c], work[piv] = work[piv], work[c]
        inv = Q(1) / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [row[n:] for row in work]


def random_matrix(rng: random.Random, height: int) -> Mat:
    """Entries a+b*i with a, b uniform in [-height, height], row-major,
    redrawn until invertible (the construction of ROADMAP's Conj(b))."""
    while True:
        a = [[Q(rng.randint(-height, height), rng.randint(-height, height))
              for _ in range(4)] for _ in range(4)]
        try:
            inverse(a)
        except ZeroDivisionError:
            continue
        return a


def mat_text(a: Mat) -> str:
    return " ".join(str(x) for row in a for x in row)


def moved(a: Mat, p: Sequence) -> List[Q]:
    """A^-1 p: where the point p of f lies on f(A x)."""
    return mat_vec(inverse(a), [lift(x) for x in p])


def normalize(p: Sequence[Q]) -> Tuple[Q, ...]:
    """Projective normal form: first nonzero coordinate scaled to 1."""
    pivot = next(x for x in p if x)
    return tuple(x / pivot for x in p)


def point_text(p: Sequence[Q]) -> str:
    return ":".join(str(x) for x in normalize(p))
