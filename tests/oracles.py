"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the package's Macaulay-rank and elimination
machinery: smoothness is decided by a chartwise common-zero search on
the partial derivatives through sympy Groebner bases, and matrix ranks,
determinants and inverses are recomputed by sympy's exact linear
algebra (determinants and adjugates by Berkowitz, without division).
Matrix products are schoolbook sums of Fraction pairs, without
GaussianRational arithmetic.  Reduced row echelon forms modulo a prime
come from a plain Gauss-Jordan loop that clears each pivot column above
and below at once.  The cube-locus minors are expanded term by term
over Z[i], with no modular step.  Outer Galois points are decided by
the chart criterion, not by the homology the package builds: f pulled
back by sympy to a basis adapted to P, and two shear identities on its
coefficients in the first variable, and a generator is checked by
pulling f back by it.  A Gram matrix is moved as U^T G U by 2x2 integer
products, and the apolar space of a quartic is measured by sympy's rank
of its catalecticant.  The Q(i) roots of a univariate polynomial are
read off the linear and quadratic factors over Q of its norm, which
sympy factors over Z, with no modular step of the package's own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import List, Sequence, Tuple

import numpy as np
import sympy
from sympy.polys.matrices import DomainMatrix

from quartic_galois.galois import adapted_basis
from quartic_galois.gaussian import GaussianRational
from quartic_galois.k3 import GramMatrix2
from quartic_galois.linalg import Matrix
from quartic_galois.poly import (HomPoly, ProjPoint, monomials, partials,
                                 x_decompose)
from quartic_galois.solver import _primitive
from quartic_galois.univariate import _gi_mul


def gr_to_sympy(c: GaussianRational):
    return (sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))


def hompoly_to_sympy(f: HomPoly, syms) -> sympy.Expr:
    expr = sympy.Integer(0)
    for exp, coeff in f.terms.items():
        term = gr_to_sympy(coeff)
        for s, e in zip(syms, exp):
            if e:
                term *= s ** e
        expr += term
    return sympy.expand(expr)


def sympy_to_gr(value) -> GaussianRational:
    re, im = sympy.sympify(value).as_real_imag()
    return GaussianRational(Fraction(int(re.p), int(re.q)),
                            Fraction(int(im.p), int(im.q)))


def oracle_substitute_linear(f: HomPoly, m: Matrix) -> HomPoly:
    """f(M x) expanded by sympy's Poly arithmetic over QQ_I."""
    ys = sympy.symbols(f"y0:{m.cols}")
    sm = sympy_matrix(m)
    images = [sympy.Poly(sum(sm[k, j] * ys[j] for j in range(m.cols)),
                         *ys, domain="QQ_I") for k in range(f.nvars)]
    total = sympy.Poly(0, *ys, domain="QQ_I")
    for exp, coeff in f.terms.items():
        term = sympy.Poly(gr_to_sympy(coeff), *ys, domain="QQ_I")
        for image, e in zip(images, exp):
            term = term * image ** e
        total = total + term
    terms = {exp: sympy_to_gr(c) for exp, c in total.terms() if c != 0}
    return HomPoly(m.cols, f.degree, terms)


def sympy_to_hompoly(expr, syms, degree: int) -> HomPoly:
    """A form of the given degree in syms, its coefficients read by
    sympy's Poly over QQ_I, as a HomPoly."""
    poly = sympy.Poly(expr, *syms, domain="QQ_I")
    return HomPoly(len(syms), degree,
                   {exp: sympy_to_gr(c) for exp, c in poly.terms() if c != 0})


def oracle_is_outer_galois_point(f: HomPoly, p: ProjPoint) -> bool:
    """The chart criterion for p off the surface.  With f(adapted_basis(p) y)
    = c0*T**4 + c1*T**3 + c2*T**2 + c3*T + c4, c_k of degree k in the other
    variables and c0 = f(p), the shear T -> T - c1/(4 c0) kills the T**3
    term, and it kills the T**2 and T terms as well, leaving the split form
    c0*T**4 + (quartic without T), exactly when

        8*c0*c2 == 3*c1**2   and   8*c0**2*c3 == 4*c0*c1*c2 - c1**3.
    """
    c = x_decompose(oracle_substitute_linear(f, adapted_basis(p)), 0).c
    c0 = c[0].coeff((0, 0, 0))
    eight_c0 = GaussianRational(8) * c0
    if c[2].scale(eight_c0) != (c[1] * c[1]).scale(3):
        return False
    lhs = c[3].scale(eight_c0 * c0)
    rhs = (c[1] * c[2]).scale(GaussianRational(4) * c0) - c[1] * c[1] * c[1]
    return lhs == rhs


def oracle_preserves(f: HomPoly, m: Matrix) -> bool:
    """f(M x) == f, with the pullback expanded by sympy
    (oracle_substitute_linear): the proof that a generator sigma_P
    preserves f which the package replaces by the first-polar identity."""
    return oracle_substitute_linear(f, m) == f


def oracle_polar_forms(f: HomPoly, p: Sequence[GaussianRational]) -> List[HomPoly]:
    """The coefficients e_k of s**(d-k) t**k in f(s*p + t*q), from
    sympy's expansion of the substituted expression."""
    qs = sympy.symbols(f"q0:{f.nvars}")
    s, t = sympy.symbols("s t")
    expr = hompoly_to_sympy(f, qs).xreplace(
        {q: s * gr_to_sympy(c) + t * q for q, c in zip(qs, p)})
    st = sympy.Poly(sympy.expand(expr), s, t)
    d = f.degree
    return [sympy_to_hompoly(st.coeff_monomial(s ** (d - k) * t ** k), qs, k)
            for k in range(d + 1)]


def oracle_eval(f: HomPoly, point: Sequence[GaussianRational]) -> GaussianRational:
    xs = sympy.symbols(f"x0:{f.nvars}")
    expr = hompoly_to_sympy(f, xs)
    value = expr.xreplace({x: gr_to_sympy(v) for x, v in zip(xs, point)})
    return sympy_to_gr(sympy.expand(value))


def oracle_common_projective_zero(forms: List[HomPoly]) -> bool:
    """True iff the forms share a projective zero, by chartwise elimination."""
    nvars = forms[0].nvars
    syms = sympy.symbols(f"x0:{nvars}")
    exprs = [hompoly_to_sympy(f, syms) for f in forms]
    for chart in range(nvars):
        chart_exprs = [e.subs(syms[chart], 1) for e in exprs]
        gens = [s for k, s in enumerate(syms) if k != chart]
        nonzero = [e for e in chart_exprs if e != 0]
        if len(nonzero) < len(chart_exprs):
            # some generator vanishes identically on this chart
            if not nonzero:
                return True
        gb = sympy.groebner(nonzero, *gens, order="grevlex", domain="QQ_I")
        if gb.exprs != [sympy.Integer(1)]:
            return True
    return False


def oracle_is_smooth(f: HomPoly) -> bool:
    """Brute-force smoothness: the partials have no common projective zero."""
    grads = partials(f)
    if any(g.is_zero() for g in grads):
        return False
    return not oracle_common_projective_zero(grads)


def sympy_matrix(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols,
                        [gr_to_sympy(x) for x in m.entries])


def oracle_rank(m: Matrix) -> int:
    return sympy_matrix(m).rank()


def _domain_matrix(m: Matrix) -> DomainMatrix:
    return DomainMatrix.from_Matrix(sympy_matrix(m)).convert_to(sympy.QQ_I)


def oracle_det(m: Matrix) -> GaussianRational:
    """(-1)^n times the constant term of the characteristic polynomial,
    which sympy computes by the division-free Berkowitz method."""
    constant = _domain_matrix(m).charpoly()[-1]
    return sympy_to_gr(sympy.QQ_I.to_sympy(constant)) * (-1) ** m.rows


def oracle_inverse(m: Matrix) -> Matrix:
    """The adjugate (also by Berkowitz) divided by the determinant."""
    adjugate = _domain_matrix(m).adjugate().to_Matrix()
    det = oracle_det(m)
    return Matrix(m.rows, m.cols, [sympy_to_gr(x) / det for x in adjugate])


def oracle_matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a*b, entry by entry on the (re, im) Fraction pairs."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            re = im = Fraction(0)
            for k in range(a.cols):
                x, y = a[i, k].re, a[i, k].im
                u, v = b[k, j].re, b[k, j].im
                re += x * u - y * v
                im += x * v + y * u
            out.append(GaussianRational(re, im))
    return Matrix(a.rows, b.cols, out)


def oracle_matpow(a: Matrix, n: int) -> Matrix:
    """a**n by n oracle products with the identity as start."""
    result = Matrix.identity(a.rows)
    for _ in range(n):
        result = oracle_matmul(result, a)
    return result


def oracle_rref_mod_p(a: np.ndarray, p: int):
    """(pivot columns, rows) of the reduced row echelon form of a mod p,
    p < 2**31, by Gauss-Jordan elimination on a copy of a."""
    a = a % p
    pivots: List[int] = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == len(a):
            break
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        a[others] = (a[others] - a[others, c][:, None] * a[r]) % p
        pivots.append(c)
    return pivots, a[:len(pivots)].tolist()


def oracle_cube_locus_quadrics(f: HomPoly) -> List[dict]:
    """Every nonzero 2x2 minor of the Hessian of the polar of f, as a
    quadric in P with Z[i] coefficients, expanded term by term from the
    fourth-derivative tensor of f's primitive numerators; exact
    duplicates are dropped, first occurrence kept."""
    n = f.nvars
    coeffs = _primitive(f)

    def fourth(idx):
        e = tuple(idx.count(v) for v in range(n))
        a, b = coeffs.get(e, (0, 0))
        scale = math.prod(math.factorial(k) for k in e)
        return (a * scale, b * scale)

    def add_product(q, u, v, sign):
        # q += sign * (u . P) * (v . P) for sparse linear forms u, v
        for a, ua in u:
            for b, vb in v:
                c = _gi_mul(ua, vb)
                ab = tuple((t == a) + (t == b) for t in range(n))
                old = q.get(ab, (0, 0))
                q[ab] = (old[0] + sign * c[0], old[1] + sign * c[1])

    # hx[i][j][m]: the coefficient of x_m in the (i, j) second partial
    # of the polar, a linear form in P given by its nonzero (l, coeff)
    hx = [[[[(l, c) for l in range(n) if (c := fourth((i, j, m, l))) != (0, 0)]
            for m in range(n)] for j in range(n)] for i in range(n)]
    unique = {}
    # the Hessian is symmetric, so minor (rows a, cols b) == minor (b, a)
    for (i, j), (k, l) in combinations_with_replacement(
            list(combinations(range(n), 2)), 2):
        for m in range(n):
            for s in range(m, n):
                # coefficient of x_m x_s in H_ik H_jl - H_il H_jk
                q = {}
                for u, v, sign in ((hx[i][k], hx[j][l], 1),
                                   (hx[i][l], hx[j][k], -1)):
                    add_product(q, u[m], v[s], sign)
                    if m != s:
                        add_product(q, u[s], v[m], sign)
                key = tuple(sorted(t for t in q.items() if t[1] != (0, 0)))
                if key:
                    unique.setdefault(key, dict(key))
    return list(unique.values())


def oracle_transform_gram(g: GramMatrix2, u) -> GramMatrix2:
    """U^T G U for an integer unimodular U, as 2x2 matrix products."""
    assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1
    m = ((2 * g.a, g.b), (g.b, 2 * g.c))
    out = [[sum(u[k][i] * m[k][l] * u[l][j] for k in range(2) for l in range(2))
            for j in range(2)] for i in range(2)]
    return GramMatrix2.from_entries(out[0][0], out[0][1], out[1][1])


def oracle_apolar_dimension(f: HomPoly) -> int:
    """The dimension of the apolar space of f: the operators
    sum_jk A_jk d_j d_k that kill f, 10 minus the rank of the
    catalecticant whose column (j, k) holds the coefficients of d_j d_k f."""
    syms = sympy.symbols("x0:4")
    expr = hompoly_to_sympy(f, syms)
    cols = [sympy.Poly(sympy.diff(expr, syms[j], syms[k]), *syms)
            for j, k in combinations_with_replacement(range(4), 2)]
    rows = [[c.coeff_monomial(e) for c in cols] for e in monomials(4, 2)]
    return 10 - sympy.Matrix(rows).rank()


def oracle_gaussian_roots(p: Sequence[GaussianRational]
                          ) -> Tuple[List[GaussianRational], bool]:
    """The roots in Q(i) of a nonconstant polynomial p (coefficients lowest
    degree first), once each in canonical order, and whether they account
    for all deg p of its roots with their multiplicities.  A root in Q(i)
    has degree at most 2 over Q, so it is a root of a linear or a
    quadratic factor over Q of the norm re(p)^2 + im(p)^2 = p * conj(p)
    (re, im taken coefficientwise); a candidate is kept as often as sympy
    divides p by x - r over QQ_I with no remainder."""
    x = sympy.Symbol("x")
    f = sympy.Poly([gr_to_sympy(c) for c in reversed(p)], x, domain=sympy.QQ_I)
    re, im = (sympy.Poly([sympy.Rational(v.numerator, v.denominator) for v in part],
                         x, domain=sympy.QQ)
              for part in zip(*((c.re, c.im) for c in reversed(p))))
    candidates = set()
    for g, _ in (re ** 2 + im ** 2).factor_list()[1]:
        if g.degree() == 1:
            candidates.add(-g.nth(0) / g.nth(1))
        elif g.degree() == 2:
            a, b, c = g.all_coeffs()
            q = sympy.sqrt(4 * a * c - b * b)
            if q.is_Rational:  # the roots (-b +- q i) / 2a
                candidates |= {(-b + sign * q * sympy.I) / (2 * a) for sign in (1, -1)}
    roots, count = [], 0
    for r in candidates:
        lin = sympy.Poly(x - r, x, domain=sympy.QQ_I)
        quot, rem = f.div(lin)
        if rem.is_zero:
            roots.append(sympy_to_gr(r))
        while rem.is_zero:
            count, (quot, rem) = count + 1, quot.div(lin)
    return sorted(roots, key=lambda z: z.sort_key()), count == f.degree()
