"""Modular search for the points whose polar is a perfect cube.

A point P (off the surface) is an outer Galois point of a smooth
quartic f exactly when the first polar of f at P is a nonzero perfect
cube of a linear form; see the galois module for the derivation.  The
cube condition on a cubic form C is that its matrix of second partial
derivatives has rank at most 1 identically, i.e. all 2x2 minors vanish
as forms.  Since the second partials of the polar are bilinear in P
and x, every minor coefficient is a quadratic form in P over Z[i].
cube_locus_quadrics keeps of these only a basis mod each certificate
prime: their ideal I_S lies in the ideal I of all the minors, so the
search below sees the same system mod p, and V(I) lies in V(I_S).
galois finds its points on the Hessian pencil instead, so
solve_projective on these quadrics has no caller in the package: it is
the reference search that the tests hold galois find to.

The system is solved by one modular computation whose completeness is
certified by counting.  Modulo a Gaussian prime pi above a prime
p = 1 (mod 4), the Macaulay matrices of the quadrics give the Hilbert
function H_p at degrees 4 and 5; when they agree, the zeros mod p are
the joint eigenvectors of the multiplication maps on the degree-4 part
of the quotient ring (Auzinger-Stetter).  Each zero is reconstructed in
Q(i) at p or after Newton lifting pi-adically, and kept only when it is
an exact zero of every quadric, so no point rests on the modular step.
The engine (_generator_rows, _macaulay, _macaulay_echelon) and the zero
finder and lift (_zeros_mod_p, _lift) take forms of any degree: the
package's one modular Macaulay engine, and its one route from a zero
mod p of a system to a Q(i) point.  A form is the Z[i] numerator map of
a HomPoly (HomPoly.num), divided by its Z[i] content where a polynomial
enters the engine (_primitive).  The engine orders its columns by
degree-reverse-lex, caches each column layout, and leaves out every row
that a Koszul syzygy puts in the span of the rows kept, so ranks, pivot
columns and reduced echelon forms are those of the full matrix.  Each
matrix is eliminated once, by linalg._pivots_mod_p.

This module alone holds the certificate primes (_CERT_PRIMES), and every
walk over them takes them from _primes: _searches builds each echelon
once and finds the zeros mod p, and so the exact points, one at a time
as the caller asks (see _zeros_mod_p); _root_candidates lifts the roots
mod p of one polynomial in one variable, with no matrix.  Each caller
keeps only its policy: the smoothness test of the geometry module stops
at a full-rank image, or at the first exact singular point at the first
prime; solve_projective takes every point; univariate.gaussian_roots
keeps the candidates that are exact roots, up to the degree.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement, islice, product
from random import Random
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .gaussian import ZERO, ONE, GaussianRational
from .linalg import (Echelon, Matrix, _back_substitute, _echelon_mod_p,
                     _pivots_mod_p)
from .poly import HomPoly, ProjPoint, monomials
from .univariate import (GInt, Poly, _common_denominator, _fp_roots,
                         _gaussian_prime_above, _gi_divmod, _gi_gcd, _gi_mul,
                         _gi_norm, _matmul_mod_p, _rational_reconstructions,
                         degree, np)

# a form with Z[i] coefficients, keyed by exponent vectors: the numerator
# map of a HomPoly (HomPoly.num)
Form = Dict[Tuple[int, ...], GInt]
Quadric = Form

HILBERT_NOT_STABLE = "hilbert-not-stable"
POINTS_NOT_RECOVERED = "points-not-recovered"

# the certificate primes p = 1 (mod 4), below 2**31 so numpy int64 products
# cannot overflow; at each, Z[i] is reduced modulo the Gaussian prime
# _CERT_PIS[p], which sends i to _CERT_ROOTS[p]
_CERT_PRIMES: Tuple[int, ...] = (2130706433, 469762049, 167772161)
_CERT_ROOTS: Dict[int, int] = {p: _gaussian_prime_above(p)[0] for p in _CERT_PRIMES}
_CERT_PIS: Dict[int, GInt] = {p: _gaussian_prime_above(p)[1] for p in _CERT_PRIMES}

# p-adic precision cap, as a power of p; a zero whose reconstruction
# needs more is not recovered, which can only cost completeness
_MAX_PRECISION = 128


def _primitive(f: HomPoly) -> Form:
    """The numerators of f divided by their Z[i] content, the form in
    which a polynomial enters the modular engine: were every coefficient
    divisible by a Gaussian prime of the certificate, each reduction
    would vanish and the engine could prove nothing."""
    g = reduce(_gi_gcd, f.num.values(), (0, 0))
    if _gi_norm(g) <= 1:
        return f.num
    return {e: _gi_divmod(c, g)[0] for e, c in f.num.items()}


# ---------------------------------------------------------------------------
# The quadric system cutting out points with perfect-cube polars.
# ---------------------------------------------------------------------------

def cube_locus_quadrics(f: HomPoly) -> List[Quadric]:
    """Z[i] quadrics in P spanning, mod each p of _CERT_PRIMES, the 2x2
    minors of the Hessian of the polar sum_l P_l df/dx_l, which all
    vanish exactly where the polar is a cube of a linear form (or zero).
    The minors are evaluated mod p from _minor_table, and only the first
    ones independent mod p are expanded over Z[i], in minor order, each
    once.  Their ideal I_S lies in the ideal I of all the minors, so V(I)
    lies in V(I_S): a count proving V(I_S) complete proves V(I) complete."""
    w, uv = _minor_table(f.nvars)
    coeffs = _primitive(f)
    c = [coeffs.get(e, (0, 0)) for e in monomials(f.nvars, 4)]
    rows: Set[int] = set()
    for p in _CERT_PRIMES:
        cp = np.array([_residue(x, _CERT_ROOTS[p], p) for x in c], dtype=np.int64)
        # each product c_u c_v is reduced mod p before the sums, so no
        # int64 overflows (|w| <= 24 * 24, 8 terms to a cell)
        prods = np.outer(cp, cp) % p
        minors = (w * np.take(prods, uv)).sum(axis=2) % p
        nonzero = np.flatnonzero(minors.any(axis=1))
        # the pivot columns of the transpose are the first independent rows
        rows.update(nonzero[_echelon_mod_p(minors[nonzero].T.copy(), p)].tolist())
    # the same table on the kept rows, over Z[i] in Python integers
    w, (u, v) = w[sorted(rows)], np.divmod(uv[sorted(rows)], len(c))
    re, im = np.array(c, dtype=object).T
    qre = (w * (re[u] * re[v] - im[u] * im[v])).sum(axis=2).tolist()
    qim = (w * (re[u] * im[v] + im[u] * re[v])).sum(axis=2).tolist()
    return [{key: (a, b) for key, a, b in zip(_drevlex(f.nvars, 2), ra, ia) if a or b}
            for ra, ia in zip(qre, qim)]


@lru_cache(maxsize=None)
def _minor_table(n: int) -> np.ndarray:
    """(w, uv): the 2x2 minors of the Hessian (H_ij) of the polar
    of a quartic in n variables, bilinear in its coefficients c_u (u
    indexing monomials(n, 4)).  H_ij is sum_{m, l} T[i, j, m, l] x_m P_l,
    where the fourth-derivative tensor entry T[i, j, m, l] is c_u for
    x_i x_j x_m x_l times the factorials of its exponents.  Row r of w
    and uv is the coefficient of x_m x_s (m <= s) in H_ik H_jl - H_il H_jk
    (i < j, k < l, (i, j) <= (k, l): H is symmetric); its column t, that
    of P_a P_b (a <= b), the t-th key of _drevlex(n, 2), is the sum of
    w * c_u * c_v over its cell, uv = u * len(c) + v, one entry for each
    sign, order of (m, s) and order of (a, b); w = 0 where one repeats."""
    keys, monos = _drevlex(n, 2), {e: u for u, e in enumerate(monomials(n, 4))}
    exps = [tuple(idx.count(t) for t in range(n)) for idx in product(range(n), repeat=4)]
    mono = np.array([monos[e] for e in exps]).reshape((n,) * 4)
    scale = np.array([math.prod(map(math.factorial, e)) for e in exps]).reshape((n,) * 4)
    i, j, k, l, m, s = np.array([
        (*ij, *kl, *ms) for ij, kl in combinations_with_replacement(
            list(combinations(range(n), 2)), 2)
        for ms in combinations_with_replacement(range(n), 2)]).T[:, :, None, None]
    a, b = np.array([[t for t in range(n) for _ in range(e[t])] for e in keys]
                    ).T[:, None, :, None]
    sign, order, swap = (np.array(bits)[None, None, :] for bits in zip(*product(
        (1, -1), (0, 1), (0, 1))))
    u_at = (i, np.where(sign > 0, k, l), np.where(order, s, m), np.where(swap, b, a))
    v_at = (j, np.where(sign > 0, l, k), np.where(order, m, s), np.where(swap, a, b))
    w = (sign * scale[u_at] * scale[v_at]
         * ((order == 0) | (m != s)) * ((swap == 0) | (a != b)))
    return np.stack(np.broadcast_arrays(w, mono[u_at] * len(monos) + mono[v_at]))


# ---------------------------------------------------------------------------
# The modular search and its certificate.
# ---------------------------------------------------------------------------

def solve_projective(quadrics: List[Quadric], nvars: int
                     ) -> Tuple[List[ProjPoint], Optional[str]]:
    """The Q(i)-points of P^(nvars-1) where every quadric vanishes.

    Returns (points, reason): every point is an exact zero of the whole
    system, and reason is None exactly when the list is proved to hold
    every complex zero; otherwise it is HILBERT_NOT_STABLE or
    POINTS_NOT_RECOVERED.

    Certificate.  Let I be the ideal of the quadrics over Q(i), H its
    Hilbert function, H_p that of their reductions modulo a Gaussian
    prime pi | p, and N the number of distinct exact zeros found.  The
    list is complete when H_p(4) = H_p(5) = N <= 4:
      - the Macaulay matrices mod pi are reductions of the Z[i] ones,
        and rank can only drop under reduction, so H(d) <= H_p(d);
      - N distinct points impose independent conditions on forms of
        degree >= N - 1, so H(d) >= N for d >= 3;
      - hence H(4) = H(5) = N with 4 >= N, which is maximal growth in
        Macaulay's sense; since I is generated in degree 2 <= 4,
        Gotzmann persistence gives H(d) = N for all d >= 4, so V(I) is
        a scheme of degree N and has no complex point beyond the N found.
    When the count does not close, the next prime of _CERT_PRIMES is
    tried; points found at any prime are kept, since each is exact.
    Random choices come from Random(p), so the output is deterministic.
    """
    found: List[ProjPoint] = []
    reason: Optional[str] = HILBERT_NOT_STABLE
    for h5, search in _searches(quadrics, nvars, 2, 4):
        h4, points = search()
        for point in points:
            if point not in found:
                found.append(point)
        stable = h4 == h5 <= 4
        if stable and h4 == len(found):
            reason = None
            break
        reason = POINTS_NOT_RECOVERED if stable else HILBERT_NOT_STABLE
    found.sort(key=lambda q: q.sort_key())
    return found, reason


def _primes() -> Iterator[int]:
    """The certificate primes, in the order every walk over them takes."""
    return iter(_CERT_PRIMES)


def _searches(forms: List[Form], n: int, k: int, d: int
              ) -> Iterator[Tuple[int, Callable[[], Tuple[int, Iterator[ProjPoint]]]]]:
    """The walk of the Macaulay engine over the certificate primes: for
    each p of _primes(), the Z[i] forms of degree k in n variables are
    reduced mod the Gaussian prime _CERT_PIS[p] and their degree-(d+1)
    Macaulay echelon is built once, and (H_p(d+1), search) is yielded.
    search() gives (H_p(d), exact zeros): the degree-d echelon is built
    only then, and the zeros come one at a time, each a zero mod p from
    _zeros_mod_p that _lift takes to an exact zero of every form over
    Q(i); a zero that does not lift is skipped.  A caller that stops
    early, or advances to the next prime without a search, pays for no
    more."""
    for p in _primes():
        basis = _generator_rows(forms, n, k, p)
        top = _macaulay_echelon(basis, n, k, d + 1, p)

        def search(basis=basis, top=top, p=p):
            h, _, zeros = _zeros_mod_p(basis, n, k, d, p, top)
            return h, (point for z in zeros
                       if (point := _lift(forms, z, p)) is not None)
        yield top.ncols - len(top.pivots), search


def _zeros_mod_p(basis: np.ndarray, n: int, k: int, d: int, p: int,
                 top: Echelon) -> Tuple[int, int, Iterator[List[int]]]:
    """(H_p(d), H_p(d+1), zeros mod p) of the ideal spanned mod p by the
    rows of basis, forms of degree k in n variables as _generator_rows
    gives them; top is the echelon of their degree-(d+1) Macaulay matrix
    (_macaulay_echelon), which the caller has already built.  The zeros
    are recovered only when the two values agree: then multiplication by
    a generic linear form l0 maps the degree-d part of the quotient onto
    the degree-(d+1) part, and the maps M_t = l0^-1 x_t on the degree-d
    part commute.  The evaluation functional of a zero P, and the
    functionals supported at P when P is not reduced, span the left
    generalised eigenspace on which each M_t has the one eigenvalue
    x_t(P) / l0(P).  So for each root lam of the characteristic
    polynomial of a generic combination a of the M_t, the left kernel V
    of a - lam is invariant under every M_t, and
    P = (trace(M_t|V) / dim V)_t; the common factor dim V is dropped.
    The normal form of each degree-(d+1) monomial is read off top by
    back-substitution on its standard (non-pivot) columns alone.  The
    Hilbert values are computed at once; the zeros are an iterator that
    finds the next root and its eigenspace only when asked, so a caller
    that stops early pays for the zeros it took."""
    index, index1 = _layout(n, k, d)[0], _layout(n, k, d + 1)[0]
    piv, piv1 = set(_macaulay_echelon(basis, n, k, d, p).pivots), top.pivots
    h, h1 = len(index) - len(piv), len(index1) - len(piv1)
    if h != h1 or h == 0:
        return h, h1, iter(())
    # normal forms of the degree-(d+1) monomials in the standard monomials
    std1 = sorted(set(range(len(index1))) - set(piv1))
    nf = np.zeros((h, len(index1)), dtype=np.int64)
    nf[range(h), std1] = 1
    nf[:, piv1] = -top.reduced(std1, p).T % p
    std = [e for e, c in index.items() if c not in piv]
    mult = [nf[:, [index1[tuple(a + (t == v) for v, a in enumerate(b))]
                   for b in std]] for t in range(n)]
    rng = Random(p)
    l0 = sum(rng.randrange(1, p) * x % p for x in mult) % p
    aug = np.concatenate([l0] + mult, axis=1)
    if _echelon_mod_p(aug, p) != list(range(h)):
        return h, h1, iter(())
    # l0^-1 M_t: the reduced form of [l0 | M_1 ... M_n] right of l0
    ms = np.hsplit(_back_substitute(aug, range(h), range(h, (n + 1) * h), p), n)
    a = sum(rng.randrange(p) * m % p for m in ms) % p
    return h, h1, _eigenpoints(a, ms, p)


def _eigenpoints(a: np.ndarray, ms: List[np.ndarray], p: int
                 ) -> Iterator[List[int]]:
    """For each root lam of the characteristic polynomial of a, in the
    order _fp_roots gives them, the point (trace(M_t|V))_t of the left
    kernel V of a - lam (see _zeros_mod_p)."""
    h = len(a)
    for lam in _fp_roots(_charpoly_mod_p(a, p), p):
        # a basis of V: the row w_f is 1 at its free column f, 0 at the others
        left = (a.T - lam * np.eye(h, dtype=np.int64)) % p
        pivots = _echelon_mod_p(left, p)
        free = sorted(set(range(h)) - set(pivots))
        v = np.zeros((len(free), h), dtype=np.int64)
        v[range(len(free)), free] = 1
        back = _back_substitute(left[:len(pivots)], pivots, free, p)
        v[:, pivots] = -back.T % p
        # (v M_t)[:, free] is the matrix of M_t|V in that basis
        yield [int(np.trace(_matmul_mod_p(v, m[:, free], p))) % p for m in ms]


@lru_cache(maxsize=None)
def _drevlex(n: int, d: int) -> Dict[Tuple[int, ...], int]:
    """The monomials of degree d in n variables, each mapped to its
    position in descending degree-reverse-lex order (a comes before b
    when the last nonzero entry of a - b is negative), and listed in it."""
    order = sorted(monomials(n, d), key=lambda e: e[::-1])
    return {e: c for c, e in enumerate(order)}


def _generator_rows(forms: List[Form], n: int, k: int, p: int) -> np.ndarray:
    """A basis mod p of the span of the forms of degree k, reduced mod
    the Gaussian prime _CERT_PIS[p] (i -> _CERT_ROOTS[p]): the nonzero
    rows of their echelon form over _drevlex(n, k), so the leading
    monomial of each row is its first nonzero column."""
    cols, i_p = _drevlex(n, k), _CERT_ROOTS[p]
    gens = np.zeros((len(forms), len(cols)), dtype=np.int64)
    at = [(row, cols[key], _residue(c, i_p, p))
          for row, form in enumerate(forms) for key, c in form.items()]
    if at:
        rows, where, values = zip(*at)
        gens[rows, where] = values
    return gens[:len(_echelon_mod_p(gens, p))]


@lru_cache(maxsize=None)
def _layout(n: int, k: int, d: int
            ) -> Tuple[Dict[Tuple[int, ...], int], np.ndarray, np.ndarray]:
    """The columns of the degree-d Macaulay matrix of forms of degree k in
    n variables, all in _drevlex order: (index, where, divides), where
    index maps each monomial of degree d to its column, where[s, t] is
    the column of the product of shift s (of degree d - k) and monomial t
    (of degree k, a column of _generator_rows), and divides[s, t] says
    that t divides s."""
    index = _drevlex(n, d)
    shifts, gens = _drevlex(n, d - k), _drevlex(n, k)
    where = np.array([[index[tuple(x + y for x, y in zip(s, t))] for t in gens]
                      for s in shifts], dtype=np.intp)
    divides = np.array([[all(y <= x for x, y in zip(s, t)) for t in gens]
                        for s in shifts])
    return index, where, divides


def _macaulay(basis: np.ndarray, n: int, k: int, d: int
              ) -> Tuple[np.ndarray, Dict[Tuple[int, ...], int]]:
    """The degree-d Macaulay matrix of forms g_1, g_2, ... of degree k,
    given as the nonzero rows of an echelon form over _drevlex(n, k) (as
    _generator_rows returns them), and its column index: the row m*g_j
    for each monomial m of degree d - k, except where the leading
    monomial of an earlier g_i divides m.

    The rows left out lie in the span of the rows kept, so the row space
    over F_p, its rank, pivot columns and reduced echelon form are those
    of the full matrix.  The proof holds for any monomial order < whose
    descending order lists the columns; here it is degree-reverse-lex.
    Write g_i = c lm(g_i) + t_i, with c != 0 and every monomial of t_i
    below lm(g_i), and m = m' lm(g_i).  The Koszul syzygy
    g_i g_j = g_j g_i gives
        c m g_j = m' g_j g_i - m' t_i g_j,
    a combination of rows u g_i, with i < j, and of rows m' v g_j for the
    monomials v of t_i; a monomial order is multiplicative, so v < lm(g_i)
    gives m' v < m.  So, with the rows ordered by j and then by m
    ascending, each row left out is in the span of the rows before it,
    and by induction the rows kept span them all (Faugere's F5 criterion
    on the trivial syzygies)."""
    index, where, divides = _layout(n, k, d)
    # hit[s, i]: the leading monomial of g_i divides shift s; earlier[s, j]:
    # that of some g_i with i < j does
    hit = divides[:, (basis != 0).argmax(axis=1)]
    earlier = np.zeros_like(hit)
    earlier[:, 1:] = np.logical_or.accumulate(hit, axis=1)[:, :-1]
    shift, gen = np.nonzero(~earlier)
    mac = np.zeros((len(shift), len(index)), dtype=np.int64)
    mac[np.arange(len(shift))[:, None], where[shift]] = basis[gen]
    return mac, index


def _macaulay_echelon(basis: np.ndarray, n: int, k: int, d: int, p: int
                      ) -> Echelon:
    """The echelon mod p of the degree-d Macaulay matrix of basis (as
    _macaulay takes it), by linalg._pivots_mod_p."""
    return _pivots_mod_p(_macaulay(basis, n, k, d)[0], p)


def _residue(c: GInt, i_m: int, m: int) -> int:
    return (c[0] + c[1] * i_m) % m


def _charpoly_mod_p(a: np.ndarray, p: int) -> Poly:
    """det(x I - a) mod p, low degree first, by Faddeev-LeVerrier
    (valid since p exceeds the size of a)."""
    h = len(a)
    coeffs = [0] * h + [1]
    m = np.eye(h, dtype=np.int64)
    for k in range(1, h + 1):
        am = _matmul_mod_p(a, m, p)
        coeffs[h - k] = -int(np.trace(am)) * pow(k, -1, p) % p
        m = (am + coeffs[h - k] * np.eye(h, dtype=np.int64)) % p
    return coeffs


# ---------------------------------------------------------------------------
# Lifting a zero mod p to an exact zero over Q(i).
# ---------------------------------------------------------------------------

def _lift(forms: List[Form], zero: List[int], p: int) -> Optional[ProjPoint]:
    """The exact zero of the forms that reduces to the given zero mod the
    Gaussian prime _CERT_PIS[p], or None.  The reconstruction at p itself
    is tried first: it is the only chance of a non-reduced zero, whose
    Jacobian is singular.  Otherwise, in the chart of its first nonzero
    coordinate, the zero is Newton-lifted mod p^(2^j) on the first n-1
    forms whose gradients mod p are independent; each coordinate is
    reconstructed in Q(i), and the point is returned once two successive
    precisions agree and it is an exact zero of every form."""
    n, i_p = len(zero), _CERT_ROOTS[p]
    chart = next(t for t in range(n) if zero[t])
    x = [v * pow(zero[chart], -1, p) % p for v in zero]
    at_p = _powers(set().union(*forms), x, p)
    if any(_evaluate(f, at_p, i_p, p) for f in forms):
        return None
    prev = _reconstruct(x, _CERT_PIS[p], p)
    if prev is not None and _is_exact_zero(forms, prev):
        return ProjPoint(prev)
    # the pivot columns of the transposed Jacobian, a form at a time: the
    # first n - 1 forms with independent gradients mod p
    free = [t for t in range(n) if t != chart]
    chosen, grads = [], []
    for f in forms:
        g = grads + [_gradient(f, x, i_p, p, free)]
        if len(_echelon_mod_p(np.array(g, dtype=np.int64), p)) == len(g):
            chosen, grads = chosen + [f], g
            if len(g) == n - 1:
                break
    if len(chosen) < n - 1:
        return None
    m, i_m, pik = p, i_p, _CERT_PIS[p]
    keys = set().union(*chosen)
    for _ in range(_MAX_PRECISION.bit_length() - 1):
        m, i_m, pik = _square_precision(m, i_m, pik)
        at_m = _powers(keys, x, m)
        delta = _solve_mod([_gradient(f, x, i_m, m, free) for f in chosen],
                           [_evaluate(f, at_m, i_m, m) for f in chosen], m)
        for t, dt in zip(free, delta):
            x[t] = (x[t] - dt) % m
        cur = _reconstruct(x, pik, m)
        if cur is not None and cur == prev and _is_exact_zero(forms, cur):
            return ProjPoint(cur)
        prev = cur
    return None


def _square_precision(m: int, i_m: int, pik: GInt) -> Tuple[int, int, GInt]:
    """(m^2, i_m2, pi^2k) from (m, i_m, pi^k), m = p^k: the image i_m2 of i
    mod pi^2k is one Newton step on x^2 + 1 from its image i_m mod pi^k."""
    m2 = m * m
    return m2, (i_m - (i_m * i_m + 1) * pow(2 * i_m, -1, m2)) % m2, _gi_mul(pik, pik)


def _root_candidates(f: List[GInt], bound: int) -> Iterator[GaussianRational]:
    """Candidate Q(i) roots of the Z[i] polynomial f (low degree first,
    degree >= 1), no root u/v of which in lowest terms has N(u) or N(v)
    above bound.  At each prime where the leading coefficient does not
    vanish, each root mod the Gaussian prime is Newton-lifted mod p^(2^j)
    until the bound sqrt(p^(2^j))/16 of _reconstruct passes bound (or
    p^(2^j) the cap), then reconstructed: a root of f is then the one
    reconstruction of its residue.  A multiple root mod p cannot lift and
    is reconstructed at p, as in _lift.  The caller checks each exactly."""
    for p in _primes():
        fp, cap = [_residue(c, _CERT_ROOTS[p], p) for c in f], p ** _MAX_PRECISION
        for x in _fp_roots(fp, p) if fp[-1] else ():
            m, i_m, pik = p, _CERT_ROOTS[p], _CERT_PIS[p]
            simple = sum(j * c * pow(x, j - 1, p) for j, c in enumerate(fp) if j) % p
            while simple and math.isqrt(m >> 8) < bound and m < cap:
                m, i_m, pik = _square_precision(m, i_m, pik)
                x = _newton_step([_residue(c, i_m, m) for c in f], x, m)
            for u, v in islice(_rational_reconstructions(x, pik, math.isqrt(m >> 8)), 1):
                yield GaussianRational(*u) / GaussianRational(*v)


def _newton_step(f: List[int], x: int, m: int) -> int:
    """x - f(x)/f'(x) mod m, for f with coefficients mod m: a root of f
    mod sqrt(m) that is simple there, lifted to a root mod m."""
    v = dv = 0
    for c in reversed(f):
        v, dv = (v * x + c) % m, (dv * x + v) % m
    return (x - v * pow(dv, -1, m)) % m


def _powers(keys: Set[Tuple[int, ...]], x: List[int], m: int
            ) -> Dict[Tuple[int, ...], int]:
    """The value mod m at x of each monomial in keys (exponent vectors,
    as in a Form), so that a monomial shared by many forms is multiplied
    out once."""
    return {key: math.prod(v ** e for v, e in zip(x, key)) % m for key in keys}


def _evaluate(f: Form, powers: Dict[Tuple[int, ...], int], i_m: int,
              m: int) -> int:
    """f mod m at the point whose monomial values are powers."""
    re = im = 0
    for key, (a, b) in f.items():
        v = powers[key]
        re += a * v
        im += b * v
    return (re + im * i_m) % m


def _gradient(f: Form, x: List[int], i_m: int, m: int,
              free: List[int]) -> List[int]:
    """The partial derivatives of f at x mod m, in the variables free."""
    out = []
    for t in free:
        total = 0
        for key, c in f.items():
            if key[t]:
                total += (_residue(c, i_m, m) * key[t]
                          * math.prod(v ** (e - (a == t))
                                      for a, (v, e) in enumerate(zip(x, key))))
        out.append(total % m)
    return out


def _solve_mod(a: List[List[int]], b: List[int], m: int) -> List[int]:
    """The solution of a y = b mod m, for a square a invertible mod m."""
    n = len(a)
    rows = [list(r) + [v] for r, v in zip(a, b)]
    for c in range(n):
        piv = next(r for r in range(c, n) if math.gcd(rows[r][c], m) == 1)
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, m)
        rows[c] = [v * inv % m for v in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [(v - rows[r][c] * w) % m
                           for v, w in zip(rows[r], rows[c])]
    return [row[n] for row in rows]


def _reconstruct(x: List[int], pik: GInt, m: int
                 ) -> Optional[List[GaussianRational]]:
    """The point with residues x mod pi^k (m = p^k), scaled so that its
    first coordinate prime to p is 1, each other coordinate as u/v with
    N(u), N(v) <= sqrt(m)/16; None if some coordinate has none."""
    inv = pow(next(v for v in x if math.gcd(v, m) == 1), -1, m)
    bound = math.isqrt(m >> 8)
    out = []
    for v in x:
        v = v * inv % m
        if v == 0:
            out.append(ZERO)
            continue
        uv = next(_rational_reconstructions(v, pik, bound), None)
        if uv is None:
            return None
        u, w = uv
        out.append(GaussianRational(*u) / GaussianRational(*w))
    return out


def _is_exact_zero(forms: List[Form],
                   coords: List[GaussianRational]) -> bool:
    """Every form vanishes at the point, checked in Z[i] after clearing
    the coordinates' denominators; each monomial is multiplied out once."""
    x = _common_denominator(coords)[1]
    powers = {key: reduce(_gi_mul, (v for v, e in zip(x, key) for _ in range(e)),
                          (1, 0))
              for key in set().union(*forms)}
    for f in forms:
        re = im = 0
        for key, (a, b) in f.items():
            u, v = powers[key]
            re += a * u - b * v
            im += a * v + b * u
        if re or im:
            return False
    return True


def resultant(p: Poly, q: Poly) -> GaussianRational:
    """Sylvester resultant of two nonzero univariate Q(i) polynomials
    (coefficient lists, lowest degree first)."""
    if not p or not q:
        raise ValueError("resultant of the zero polynomial")
    m, n = degree(p), degree(q)
    rows = [[ZERO] * r + p[::-1] + [ZERO] * (n - 1 - r) for r in range(n)]
    rows += [[ZERO] * r + q[::-1] + [ZERO] * (m - 1 - r) for r in range(m)]
    return Matrix.from_rows(rows).det() if rows else ONE
