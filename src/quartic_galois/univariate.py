"""Dense univariate polynomials over Q(i).

A polynomial is a list of GaussianRational coefficients indexed by
power, with no trailing zeros (the zero polynomial is the empty list).
These helpers back the squarefree analysis of binary forms.  The
Gaussian-integer and Z/p helpers below serve poly's Z[i] kernels and
the modular steps of the linalg and solver modules: one common
denominator, the one reduction of Z[i] modulo a Gaussian prime, the
int64 matrix product mod p, roots mod p and rational reconstruction.
The roots mod p come one at a time, from powers of companion matrices
on that matrix product.  gaussian_roots finds Q(i) roots from the roots
mod p, Newton-lifted in one variable and reconstructed by the solver
(solver._root_candidates), each verified by exact evaluation.
"""

from __future__ import annotations

import math
from random import Random
from typing import Iterator, List, Sequence, Tuple

from .gaussian import ZERO, ONE, GaussianRational

Poly = List[GaussianRational]


class _LazyNumpy:
    """numpy, imported at the first attribute read, so that the exact core
    runs without it; each attribute read is then cached on the handle."""

    def __getattr__(self, name: str):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _LazyNumpy()


def trim(p: Poly) -> Poly:
    while p and p[-1].is_zero():
        p.pop()
    return p


def degree(p: Poly) -> int:
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = []
    for k in range(n):
        a = p[k] if k < len(p) else ZERO
        b = q[k] if k < len(q) else ZERO
        out.append(a + b)
    return trim(out)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, [-c for c in q])


def divmod_poly(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quot = [ZERO] * max(0, len(p) - len(q) + 1)
    dq = degree(q)
    lead = q[-1]
    while len(r) - 1 >= dq and r:
        shift = len(r) - 1 - dq
        coeff = r[-1] / lead
        quot[shift] = coeff
        for k in range(len(q)):
            r[shift + k] = r[shift + k] - coeff * q[k]
        r.pop()
        trim(r)
    return trim(quot), r


def monic(p: Poly) -> Poly:
    if not p:
        return []
    lead = p[-1]
    if lead == ONE:
        return list(p)
    return [c / lead for c in p]


def gcd(p: Poly, q: Poly) -> Poly:
    a, b = list(p), list(q)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return monic(a)


def derivative(p: Poly) -> Poly:
    return trim([p[k] * k for k in range(1, len(p))])


def eval_poly(p: Poly, x: GaussianRational) -> GaussianRational:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def squarefree_decomposition(p: Poly) -> List[Tuple[Poly, int]]:
    """Yun's algorithm: [(g_m, m)] with p ~ prod g_m**m, each g_m squarefree.

    Constant factors are dropped; valid over any characteristic-zero field.
    """
    if not p:
        raise ValueError("zero polynomial has no squarefree decomposition")
    if degree(p) == 0:
        return []
    out: List[Tuple[Poly, int]] = []
    dp = derivative(p)
    a = gcd(p, dp)
    b = divmod_poly(p, a)[0]
    c = divmod_poly(dp, a)[0]
    d = sub(c, derivative(b))
    m = 1
    while degree(b) > 0:
        g = gcd(b, d)
        if degree(g) > 0:
            out.append((g, m))
        b2 = divmod_poly(b, g)[0]
        c2 = divmod_poly(d, g)[0]
        b, d = b2, sub(c2, derivative(b2))
        m += 1
    return out


def multiplicity_profile(p: Poly) -> List[int]:
    """Multiset of root multiplicities of p over the complex numbers.

    Computed through gcds only; no root is ever extracted.  The list is
    sorted ascending and its sum is deg(p).
    """
    profile: List[int] = []
    for factor, m in squarefree_decomposition(p):
        profile.extend([m] * degree(factor))
    return sorted(profile)


# ---------------------------------------------------------------------------
# Gaussian integers, polynomials over Z/p and rational reconstruction.
# ---------------------------------------------------------------------------

GInt = Tuple[int, int]  # a + b*i with integer a, b


def _gi_mul(x: GInt, y: GInt) -> GInt:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gi_norm(x: GInt) -> int:
    return x[0] * x[0] + x[1] * x[1]


def _gi_divmod(x: GInt, y: GInt) -> Tuple[GInt, GInt]:
    # nearest-integer division: remainder norm <= norm(y) / 2
    n = _gi_norm(y)
    pr = x[0] * y[0] + x[1] * y[1]
    pi = x[1] * y[0] - x[0] * y[1]
    qr = (2 * pr + n) // (2 * n)
    qi = (2 * pi + n) // (2 * n)
    q = (qr, qi)
    r = (x[0] - (qr * y[0] - qi * y[1]), x[1] - (qr * y[1] + qi * y[0]))
    return q, r


def _gi_gcd(x: GInt, y: GInt) -> GInt:
    while y != (0, 0):
        x, y = y, _gi_divmod(x, y)[1]
    return x


def _sqrt_minus_one_mod(p: int) -> int:
    # p prime, p % 4 == 1
    for a in range(2, p):
        s = pow(a, (p - 1) // 4, p)
        if s * s % p == p - 1:
            return s
    raise ValueError(f"no sqrt(-1) mod {p}")


def _gaussian_prime_above(p: int) -> Tuple[int, GInt]:
    """(s, pi) for a prime p = 1 (mod 4): s = _sqrt_minus_one_mod(p) and
    pi = gcd(p, i - s), of norm p.  Reduction mod pi sends i to s; every
    modular step of the package reduces Z[i] this way, so a residue and
    its reconstruction by _rational_reconstructions agree on the prime."""
    s = _sqrt_minus_one_mod(p)
    return s, _gi_gcd((p, 0), (-s, 1))


def _common_denominator(cs: Sequence[GaussianRational]
                        ) -> Tuple[int, List[GInt]]:
    """(d, [d*c for c in cs]): d is the lcm of the stored denominators
    (1 for no values), so each d*c is a Gaussian integer."""
    d = math.lcm(*(c.d for c in cs))
    return d, [(c.a * (d // c.d), c.b * (d // c.d)) for c in cs]


# Dense polynomials over Z/m as int lists indexed by power, no trailing zeros.

def _fp_add(a: List[int], b: List[int], m: int) -> List[int]:
    out = [((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)) % m
           for k in range(max(len(a), len(b)))]
    while out and not out[-1]:
        out.pop()
    return out


def _fp_divmod(a: List[int], b: List[int], p: int) -> Tuple[List[int], List[int]]:
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(r) - db)
    while len(r) > db:
        c = r[-1] * inv % p
        shift = len(r) - 1 - db
        q[shift] = c
        for k in range(db):
            r[shift + k] = (r[shift + k] - c * b[k]) % p
        r.pop()
        while r and not r[-1]:
            r.pop()
    return q, r


def _fp_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for entries in [0, p), p < 2**31, inner size < 2**15:
    a is split into 16-bit halves, so no int64 sum overflows."""
    return (((a >> 16) @ b % p << 16) + (a & 0xFFFF) @ b) % p


def _fp_linear_power(a: int, e: int, g: List[int], p: int) -> List[int]:
    """(x + a)**e modulo a monic g of degree >= 1, over Z/p: the matrix of
    multiplication by x + a on Z/p[x]/(g), the companion matrix of g plus
    a, raised to the e-th power by squaring and applied to 1."""
    r = len(g) - 1
    m = np.zeros((r, r), dtype=np.int64)
    m[range(1, r), range(r - 1)] = 1
    m[:, -1] = [-c % p for c in g[:-1]]
    m[range(r), range(r)] += a
    m %= p
    v = np.zeros((r, 1), dtype=np.int64)
    v[0] = 1
    while e:
        if e & 1:
            v = _matmul_mod_p(m, v, p)
        e >>= 1
        if e:
            m = _matmul_mod_p(m, m, p)
    return _fp_add(v[:, 0].tolist(), [], p)


def _fp_roots(f: List[int], p: int) -> Iterator[int]:
    """The distinct roots in Z/p of a nonzero f, one at a time, each once
    whatever its multiplicity.  gcd(f, x^p - x) is the product of the
    distinct linear factors; Cantor-Zassenhaus splits a product g of
    them by gcd(g, (x + r)^((p-1)/2) - 1) for a random r, and splits the
    smaller factor first, so the first root comes after about log2(deg)
    splits.  The draws come from Random(p), so the work done is a
    function of the input."""
    rng = Random(p)
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    if len(f) < 2:
        return
    stack = [_fp_gcd(f, _fp_add(_fp_linear_power(0, p, f, p), [0, -1], p), p)]
    while stack:
        g = stack.pop()
        if len(g) == 2:
            yield -g[0] % p
        if len(g) <= 2:
            continue
        while True:
            h = _fp_linear_power(rng.randrange(p), (p - 1) // 2, g, p)
            d = _fp_gcd(g, _fp_add(h, [-1], p), p)
            if 1 < len(d) < len(g):
                break
        stack += sorted([d, _fp_divmod(g, d, p)[0]], key=len, reverse=True)


def _rational_reconstructions(r: int, m: GInt, bound: int):
    """Pairs (u, v) with u = r*v mod m and both norms at most bound, from
    the half-extended Euclidean algorithm in Z[i] on (m, r)."""
    r0, r1 = m, _gi_divmod((r, 0), m)[1]
    t0, t1 = (0, 0), (1, 0)
    while r1 != (0, 0):
        if _gi_norm(r1) <= bound and _gi_norm(t1) <= bound:
            yield r1, t1
        q, rem = _gi_divmod(r0, r1)
        qt = _gi_mul(q, t1)
        r0, r1 = r1, rem
        t0, t1 = t1, (t0[0] - qt[0], t0[1] - qt[1])


def gaussian_roots(p: Poly) -> Tuple[List[GaussianRational], bool]:
    """All roots of p lying in Q(i), with a certificate flag.

    Returns (roots, fully_split).  fully_split is True only when the
    returned roots together with their multiplicities account for every
    complex root of p, i.e. p factors completely into linear factors
    over Q(i).  Roots are reported once each (multiplicity dropped) in
    canonical order.

    The squarefree factors are p itself, less its root at zero, when it
    is squarefree modulo the first certificate prime
    (solver._squarefree_candidates), and else Yun's.
    Each squarefree factor of degree d >= 2 is cleared to its primitive
    Z[i] coefficients a_0, ..., a_d; a root u/v of sum a_j x^j in lowest
    terms has u | a_0 and v | a_d, so neither norm exceeds the height
    max(N(a_0), N(a_d)) to which solver._root_candidates lifts the roots
    mod p, prime after prime, until d roots are found.
    The modular step only proposes candidates: a root is returned only
    after exact evaluation over Q(i) gives zero, and fully_split counts
    verified roots against the degree, so the certificate never rests on
    the primes, the height or the precision cap.
    """
    from .poly import HomPoly
    from .solver import _primitive, _root_candidates, _squarefree_candidates

    def primitive(factor: Poly) -> Tuple[List[GInt], int]:
        d = degree(factor)
        form = _primitive(HomPoly(2, d, {(j, d - j): c for j, c in enumerate(factor)}))
        num = [form.get((j, d - j), (0, 0)) for j in range(d + 1)]
        return num, max(_gi_norm(num[0]), _gi_norm(num[-1]))

    if not p:
        raise ValueError("zero polynomial")
    k = next(j for j, c in enumerate(p) if not c.is_zero())  # the root at zero
    roots, fully_split = [ZERO] if k else [], True
    # the squarefree factors are coprime and prime to x: p[k:] itself when
    # its degree is at most 1 or it is squarefree modulo the first prime
    q = p[k:]
    walk = _squarefree_candidates(*primitive(q)) if degree(q) > 1 else None
    if walk is None and degree(q) > 1:
        factors = [(g, None) for g, _m in squarefree_decomposition(q)]
    else:
        factors = [(q, walk)]
    for factor, candidates in factors:
        d = degree(factor)
        found = [-factor[0] / factor[1]] if d == 1 else []
        if d > 1:
            for r in candidates or _root_candidates(*primitive(factor)):
                if r not in found and eval_poly(factor, r).is_zero():
                    found.append(r)
                    if len(found) == d:
                        break
        roots.extend(found)
        fully_split = fully_split and len(found) == d
    roots.sort(key=lambda z: z.sort_key())
    return roots, fully_split
