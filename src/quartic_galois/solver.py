"""Exact solver for the Galois-point search.

A point P (off the surface) is an outer Galois point of a smooth
quartic f exactly when the first polar of f at P is a nonzero perfect
cube of a linear form; see the galois module for the derivation.  The
cube condition on a cubic form C is that its matrix of second partial
derivatives has rank at most 1 identically, i.e. all 2x2 minors vanish
as forms.  Since the second partials of the polar are bilinear in P
and x, every minor coefficient is a quadratic form in P: the search
space is cut out by a system of quadrics, which this module solves by
exact linear reduction and iterated resultants.  The univariate
eliminants and fibers go to univariate.gaussian_roots, which finds
candidate roots modulo a split prime, lifts and reconstructs them, and
keeps only those that vanish under exact evaluation over Q(i).

Completeness is tracked honestly: a report is marked complete only
when every eliminant in the chain splits into linear factors over
Q(i), counted by exactly verified roots, so that no complex solution
can have been missed whatever the modular step proposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussian import ZERO, ONE, GaussianRational
from .linalg import sparse_rref
from .poly import HomPoly, ProjPoint, monomials, partials
from . import univariate

Exponent = Tuple[int, ...]


@dataclass(frozen=True)
class SolverLimits:
    """Resource caps; exceeding any of them downgrades completeness."""
    max_eliminant_degree: int = 24
    max_pair_polys: int = 10


DEFAULT_LIMITS = SolverLimits()


class MPoly:
    """Sparse multivariate polynomial over Q(i), not necessarily homogeneous."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponent, GaussianRational]):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @staticmethod
    def const(nvars: int, value) -> "MPoly":
        v = GaussianRational.coerce(value)
        return MPoly(nvars, {(0,) * nvars: v})

    @staticmethod
    def variable(nvars: int, k: int) -> "MPoly":
        e = [0] * nvars
        e[k] = 1
        return MPoly(nvars, {tuple(e): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def const_value(self) -> GaussianRational:
        return self.terms.get((0,) * self.nvars, ZERO)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.terms), default=0)

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, ZERO) + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return MPoly(self.nvars, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MPoly") -> "MPoly":
        out: Dict[Exponent, GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return MPoly(self.nvars, out)

    def scale(self, c) -> "MPoly":
        c = GaussianRational.coerce(c)
        return MPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def eval_full(self, values: Sequence[GaussianRational]) -> GaussianRational:
        acc = ZERO
        for e, c in self.terms.items():
            t = c
            for v, k in zip(values, e):
                if k:
                    t = t * v ** k
            acc = acc + t
        return acc

    def partial_eval(self, var: int, value: GaussianRational) -> "MPoly":
        """Substitute a constant for one variable and drop it."""
        out: Dict[Exponent, GaussianRational] = {}
        for e, c in self.terms.items():
            k = e[var]
            coeff = c if k == 0 else c * value ** k
            if coeff.is_zero():
                continue
            ne = e[:var] + e[var + 1:]
            s = out.get(ne, ZERO) + coeff
            if s.is_zero():
                out.pop(ne, None)
            else:
                out[ne] = s
        return MPoly(self.nvars - 1, out)

    def as_univariate(self, var: int) -> List["MPoly"]:
        """Coefficients in the chosen variable; entries live in nvars-1 vars."""
        d = self.degree_in(var)
        buckets: List[Dict[Exponent, GaussianRational]] = [{} for _ in range(d + 1)]
        for e, c in self.terms.items():
            ne = e[:var] + e[var + 1:]
            buckets[e[var]][ne] = buckets[e[var]].get(ne, ZERO) + c
        return [MPoly(self.nvars - 1, b) for b in buckets]

    def substitute_affine(self, var: int, expr: "MPoly") -> "MPoly":
        """Replace the variable by an expression in the remaining variables."""
        coeffs = self.as_univariate(var)
        acc = MPoly(self.nvars - 1, {})
        for c in reversed(coeffs):
            acc = acc * expr + c
        return acc

    def univariate_coeffs(self) -> List[GaussianRational]:
        if self.nvars != 1:
            raise ValueError("not univariate")
        d = self.total_degree()
        out = [ZERO] * (d + 1)
        for e, c in self.terms.items():
            out[e[0]] = c
        return univariate.trim(out)

    def canonical_key(self):
        items = sorted(self.terms.items())
        if not items:
            return ()
        lead = items[-1][1]
        return tuple((e, (c / lead).re, (c / lead).im) for e, c in items)

    def __repr__(self) -> str:
        return f"MPoly({self.nvars} vars, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# The quadric system cutting out points with perfect-cube polars.
# ---------------------------------------------------------------------------

def cube_locus_quadrics(f: HomPoly) -> List[MPoly]:
    """Quadratic forms in P whose common zeros are exactly the points P
    where the first polar sum_l P_l df/dx_l is a cube of a linear form
    (possibly zero).

    Built from the 2x2 minors of the second-derivative matrix of the
    polar, reduced to a linearly independent basis.
    """
    n = f.nvars
    grads = partials(f)
    second = [partials(g) for g in grads]
    third = [[partials(h) for h in row] for row in second]
    # hx[i][j][m] = linear form in P: coefficient of x_m in the (i,j)
    # second partial of the polar at P
    hx: List[List[List[MPoly]]] = []
    for i in range(n):
        row = []
        for j in range(n):
            per_x = []
            for m in range(n):
                e_m = tuple(1 if t == m else 0 for t in range(n))
                terms: Dict[Exponent, GaussianRational] = {}
                for l in range(n):
                    c = third[i][j][l].coeff(e_m)
                    if not c.is_zero():
                        pe = tuple(1 if t == l else 0 for t in range(n))
                        terms[pe] = terms.get(pe, ZERO) + c
                per_x.append(MPoly(n, terms))
            row.append(per_x)
        hx.append(row)

    quadrics: List[MPoly] = []
    seen = set()
    for i, j in combinations(range(n), 2):
        for k, l in combinations(range(n), 2):
            # minor rows (i, j), columns (k, l): H_ik H_jl - H_il H_jk,
            # split by x-monomial
            for m in range(n):
                for p in range(m, n):
                    if m == p:
                        q = hx[i][k][m] * hx[j][l][m] - hx[i][l][m] * hx[j][k][m]
                    else:
                        q = (hx[i][k][m] * hx[j][l][p] + hx[i][k][p] * hx[j][l][m]
                             - hx[i][l][m] * hx[j][k][p] - hx[i][l][p] * hx[j][k][m])
                    if q.is_zero():
                        continue
                    key = q.canonical_key()
                    if key not in seen:
                        seen.add(key)
                        quadrics.append(q)
    return _reduce_quadrics(quadrics, n)


def _reduce_quadrics(quadrics: List[MPoly], n: int) -> List[MPoly]:
    basis_monomials = monomials(n, 2)
    index = {e: k for k, e in enumerate(basis_monomials)}
    rows = []
    for q in quadrics:
        row = {index[e]: c for e, c in q.terms.items()}
        rows.append(row)
    rref = sparse_rref(rows)
    out = []
    for lead in sorted(rref):
        terms = {basis_monomials[c]: v for c, v in rref[lead].items()}
        out.append(MPoly(n, terms))
    return out


# ---------------------------------------------------------------------------
# Exact system solving.
# ---------------------------------------------------------------------------

def _dedupe(polys: List[MPoly]) -> List[MPoly]:
    seen = set()
    out = []
    for p in polys:
        k = p.canonical_key()
        if k not in seen:
            seen.add(k)
            out.append(p)
    return out


def solve_affine(polys: List[MPoly], nvars: int,
                 limits: SolverLimits = DEFAULT_LIMITS
                 ) -> Tuple[List[Tuple[GaussianRational, ...]], bool]:
    """All Q(i)-solutions of the system, with a completeness certificate.

    The second component is True only when the elimination chain proves
    that the returned list contains every complex solution (each
    eliminant splits over Q(i) and no fiber is infinite).
    """
    polys = _dedupe([p for p in polys if not p.is_zero()])
    for p in polys:
        if p.is_constant():
            return [], True
    if nvars == 0:
        return [()], True
    if not polys:
        # nothing constrains the variables: positive-dimensional
        return [], False

    # use exact linear relations first
    for idx, p in enumerate(polys):
        if p.total_degree() == 1:
            coeffs = [p.terms.get(tuple(1 if t == v else 0 for t in range(nvars)), ZERO)
                      for v in range(nvars)]
            pivot = next(v for v in range(nvars) if not coeffs[v].is_zero())
            c0 = p.const_value()
            # pivot = -(c0 + sum_{j != pivot} c_j x_j) / c_pivot
            expr_terms: Dict[Exponent, GaussianRational] = {}
            if not c0.is_zero():
                expr_terms[(0,) * (nvars - 1)] = -c0 / coeffs[pivot]
            for j in range(nvars):
                if j == pivot or coeffs[j].is_zero():
                    continue
                nj = j if j < pivot else j - 1
                e = tuple(1 if t == nj else 0 for t in range(nvars - 1))
                expr_terms[e] = -coeffs[j] / coeffs[pivot]
            expr = MPoly(nvars - 1, expr_terms)
            reduced = [q.substitute_affine(pivot, expr)
                       for k, q in enumerate(polys) if k != idx]
            sub_sols, complete = solve_affine(reduced, nvars - 1, limits)
            lifted = []
            for s in sub_sols:
                v = expr.eval_full(s)
                lifted.append(s[:pivot] + (v,) + s[pivot:])
            return lifted, complete

    if nvars == 1:
        g: Optional[List[GaussianRational]] = None
        for p in polys:
            u = p.univariate_coeffs()
            g = u if g is None else univariate.gcd(g, u)
        assert g is not None
        if univariate.degree(g) <= 0:
            return [], True
        roots, split = univariate.gaussian_roots(g)
        sols = [(r,) for r in roots]
        return sols, split

    # eliminate the last variable by resultants
    last = nvars - 1
    base = [p.partial_eval(last, ZERO) for p in polys if p.degree_in(last) == 0]
    active = [p for p in polys if p.degree_in(last) > 0]
    if not active:
        sub_sols, sub_complete = solve_affine(base, nvars - 1, limits)
        if not sub_sols and sub_complete:
            return [], True
        return [], False

    eliminants: List[MPoly] = list(base)
    degree_ok = True
    for p, q in combinations(active[:limits.max_pair_polys], 2):
        r = resultant(p, q, last)
        if r.is_zero():
            continue
        if r.total_degree() > limits.max_eliminant_degree:
            degree_ok = False
            continue
        eliminants.append(r)

    proj_sols, proj_complete = solve_affine(eliminants, nvars - 1, limits)
    complete = proj_complete and degree_ok
    sols: List[Tuple[GaussianRational, ...]] = []
    for q in proj_sols:
        fibers = []
        all_vanish = True
        for p in active:
            reduced = p
            for var in range(nvars - 2, -1, -1):
                reduced = reduced.partial_eval(var, q[var])
            u = reduced.univariate_coeffs()
            if u:
                all_vanish = False
                fibers.append(u)
        if all_vanish:
            # the whole fiber line solves the active system
            complete = False
            continue
        g = fibers[0]
        for u in fibers[1:]:
            g = univariate.gcd(g, u)
        if univariate.degree(g) <= 0:
            continue
        roots, split = univariate.gaussian_roots(g)
        complete = complete and split
        for r in roots:
            cand = q + (r,)
            if all(p.eval_full(cand).is_zero() for p in polys):
                sols.append(cand)
    # dedupe
    seen = set()
    unique = []
    for s in sols:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    return unique, complete


def resultant(p: MPoly, q: MPoly, var: int) -> MPoly:
    """Sylvester resultant of p and q with respect to one variable."""
    a = p.as_univariate(var)
    b = q.as_univariate(var)
    m = len(a) - 1
    n = len(b) - 1
    nv = p.nvars - 1
    if m < 1 or n < 1:
        raise ValueError("resultant needs positive degree in the variable")
    size = m + n
    zero = MPoly(nv, {})
    mat = [[zero] * size for _ in range(size)]
    for r in range(n):
        for k in range(m + 1):
            mat[r][r + k] = a[m - k]
    for r in range(m):
        for k in range(n + 1):
            mat[n + r][r + k] = b[n - k]
    return _det_dp(mat, nv)


def _det_dp(mat: List[List[MPoly]], nv: int) -> MPoly:
    """Determinant of a small matrix of polynomials, expanding by rows
    with memoization over the set of unused columns."""
    k = len(mat)
    memo: Dict[int, MPoly] = {}
    full = (1 << k) - 1

    def rec(mask: int) -> MPoly:
        if mask == 0:
            return MPoly.const(nv, 1)
        got = memo.get(mask)
        if got is not None:
            return got
        r = k - bin(mask).count("1")
        acc = MPoly(nv, {})
        sign = 1
        mm = mask
        while mm:
            low = mm & (-mm)
            c = low.bit_length() - 1
            entry = mat[r][c]
            if not entry.is_zero():
                sub = rec(mask ^ low)
                term = entry * sub
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
            mm ^= low
        memo[mask] = acc
        return acc

    return rec(full)


def solve_projective(quadrics: List[MPoly], nvars: int,
                     limits: SolverLimits = DEFAULT_LIMITS
                     ) -> Tuple[List[ProjPoint], bool]:
    """All Q(i)-points of projective space satisfying the system, chart
    by chart (first nonzero coordinate scaled to 1), with the combined
    completeness certificate."""
    points: List[ProjPoint] = []
    complete = True
    for chart in range(nvars):
        reduced = []
        for q in quadrics:
            p = q
            # variables below the chart vanish, the chart variable is 1;
            # eliminate from highest index down so indices stay valid
            p = p.partial_eval(chart, ONE)
            for v in range(chart - 1, -1, -1):
                p = p.partial_eval(v, ZERO)
            reduced.append(p)
        unknowns = nvars - chart - 1
        sols, comp = solve_affine(reduced, unknowns, limits)
        complete = complete and comp
        for s in sols:
            coords = [ZERO] * chart + [ONE] + list(s)
            points.append(ProjPoint(coords))
    points.sort(key=lambda p: p.sort_key())
    return points, complete
