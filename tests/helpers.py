"""Deterministic random generators shared by the test modules."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from typing import Tuple

from quartic_galois import geometry, poly
from quartic_galois.gaussian import ONE, ZERO, GaussianRational, I
from quartic_galois.geometry import is_smooth_plane_quartic
from quartic_galois.linalg import Matrix
from quartic_galois.poly import HomPoly, monomials, squarefree_profile
from quartic_galois.solver import _generator_rows, _macaulay_echelon, _zeros_mod_p


def zeros_mod_p(forms, n, p, k=2, d=4):
    """solver._zeros_mod_p on Z[i] forms of degree k in n variables,
    reduced mod the certificate's Gaussian prime above p, with the
    degree-(d+1) echelon built here as its callers build it."""
    basis = _generator_rows(forms, n, k, p)
    return _zeros_mod_p(basis, n, k, d, p, _macaulay_echelon(basis, n, k, d + 1, p))


def engine_sizes(monkeypatch):
    """The variable counts of the forms that the smoothness test hands to
    the modular engine (geometry._searches), one per call, in order."""
    sizes = []
    engine = geometry._searches

    def spying(forms, n, k, d):
        sizes.append(n)
        return engine(forms, n, k, d)

    monkeypatch.setattr(geometry, "_searches", spying)
    return sizes


def calls_of(monkeypatch, original):
    """The arguments of every call of the package function `original`, in
    order, made through any module of the package that binds its name."""
    calls = []

    def spying(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if (name.startswith("quartic_galois")
                and getattr(module, original.__name__, None) is original):
            monkeypatch.setattr(module, original.__name__, spying)
    return calls


def pullbacks(monkeypatch):
    """The (f, M) of every substitute_linear call, in order."""
    return calls_of(monkeypatch, poly.substitute_linear)


def rand_gr(rng: random.Random, lo: int = -3, hi: int = 3,
            complex_part: bool = True, denominators: Tuple[int, ...] = (1,)
            ) -> GaussianRational:
    re = Fraction(rng.randint(lo, hi), rng.choice(denominators))
    im = Fraction(rng.randint(lo, hi), rng.choice(denominators)) if complex_part else Fraction(0)
    return GaussianRational(re, im)


def poly_mul(p, q):
    """The product of two dense univariate Q(i) polynomials (coefficient
    lists, lowest degree first, no trailing zeros), by schoolbook sums."""
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    while out and out[-1].is_zero():
        out.pop()
    return out


def rand_invertible(rng: random.Random, size: int = 4) -> Matrix:
    while True:
        m = Matrix(size, size,
                   [rand_gr(rng, -2, 2) for _ in range(size * size)])
        if not m.det().is_zero():
            return m


def gaussian_matrix(seed: int, height: int) -> Matrix:
    """A seeded invertible matrix with entries a + b*i, |a|, |b| <= height."""
    rng = random.Random(seed)
    while True:
        a = Matrix(4, 4, [GaussianRational(rng.randint(-height, height),
                                           rng.randint(-height, height))
                          for _ in range(16)])
        if not a.det().is_zero():
            return a


def height1_gaussian(seed: int) -> Matrix:
    """A seeded invertible matrix with entries a + b*i, a, b in {-1, 0, 1}."""
    rng = random.Random(seed)
    while True:
        m = Matrix(4, 4, [GaussianRational(rng.randint(-1, 1), rng.randint(-1, 1))
                          for _ in range(16)])
        if not m.det().is_zero():
            return m


def rand_sl2(rng: random.Random, bound: int = 10) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """A random SL2(Z) matrix with entries bounded in absolute value."""
    shear_t = ((1, 1), (0, 1))
    shear_b = ((1, 0), (1, 1))
    swap = ((0, -1), (1, 0))
    while True:
        u = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 6)):
            step = rng.choice((shear_t, shear_b, swap))
            u = _mul2(u, step)
        if max(abs(x) for row in u for x in row) <= bound:
            return u


def _mul2(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0],
         a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0],
         a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def rand_plane_quartic(rng: random.Random, nterms: int = 8) -> HomPoly:
    mons = list(monomials(3, 4))
    chosen = rng.sample(mons, min(nterms, len(mons)))
    # keep the pure powers so the curve has a chance of being smooth
    for pure in ((4, 0, 0), (0, 4, 0), (0, 0, 4)):
        if pure not in chosen:
            chosen.append(pure)
    terms = {}
    for e in chosen:
        c = rng.randint(-3, 3)
        if e in ((4, 0, 0), (0, 4, 0), (0, 0, 4)) and c == 0:
            c = rng.choice((1, 2, -1))
        if c:
            terms[e] = GaussianRational(c)
    return HomPoly(3, 4, terms)


def rand_smooth_plane_quartic(rng: random.Random) -> HomPoly:
    while True:
        f = rand_plane_quartic(rng)
        if is_smooth_plane_quartic(f):
            return f


def rand_squarefree_binary_quartic(rng: random.Random) -> HomPoly:
    while True:
        terms = {}
        for e in monomials(2, 4):
            c = rng.randint(-3, 3)
            if e in ((4, 0), (0, 4)) and c == 0:
                c = rng.choice((1, 2, -1))
            if c:
                terms[e] = GaussianRational(c)
        f = HomPoly(2, 4, terms)
        if not f.is_zero() and squarefree_profile(f) == [1] * 4:
            return f


def rand_sparse_quartic(rng: random.Random, nterms: int = 6) -> HomPoly:
    mons = rng.sample(list(monomials(4, 4)), nterms)
    terms = {}
    for e in mons:
        c = rand_gr(rng, -3, 3)
        if not c.is_zero():
            terms[e] = c
    if not terms:
        terms[(4, 0, 0, 0)] = ONE
    return HomPoly(4, 4, terms)


def euler_identity_holds(f: HomPoly) -> bool:
    """sum_k x_k df/dx_k == deg(f) * f, exactly."""
    acc = HomPoly.zero(f.nvars, f.degree)
    for k, d in enumerate(poly.partials(f)):
        xk = HomPoly(f.nvars, 1, {tuple(int(t == k) for t in range(f.nvars)): ONE})
        acc = acc + xk * d
    return acc == f.scale(f.degree)


def lift_form1(f4: HomPoly) -> HomPoly:
    """X**4 + F4(Y, Z, W) from a ternary quartic."""
    terms = {(4, 0, 0, 0): ONE}
    for e, c in f4.terms.items():
        terms[(0,) + e] = c
    return HomPoly(4, 4, terms)


def lift_form2(f4: HomPoly) -> HomPoly:
    """X**4 + Y**4 + F4(Z, W) from a binary quartic."""
    terms = {(4, 0, 0, 0): ONE, (0, 4, 0, 0): ONE}
    for e, c in f4.terms.items():
        terms[(0, 0) + e] = c
    return HomPoly(4, 4, terms)


def diag(*values) -> Matrix:
    return Matrix.diagonal(list(values))


SIGMA1 = diag(I, 1, 1, 1)
SIGMA2 = diag(1, I, 1, 1)
SIGMA3 = diag(1, 1, I, 1)
SIGMA4 = diag(1, 1, 1, I)

# fixed mixed corpus (15 smooth, 15 singular) shared by the smoothness
# oracle-agreement and bound-stability tests
SMOOTH_SURFACES = [
    "X^4+Y^4+Z^4+W^4",
    "X^4+Y^4+Z^4+W^4+Y^2*Z*W",
    "X^4+Y^4+Z^4+Z*W^3+W^4",
    "X^3*Y+Y^4+Z^4+W^4",
    "X^4+Y^4+Z^4+W^4+X*Y*Z*W",
    "X^4+2*Y^4+3*Z^4+4*W^4",
    "X^4-Y^4+Z^4-W^4",
    "X^4+Y^4+Z^4+W^4+X^2*Y*Z",
    "X^4+Y^4+Z^4+W^4+Z^2*W^2",
    "X^4+X*Y^3+Z^4+W^4",
    "X^4+Y^4+X*Z^3+Z*W^3",
    "X^4+Y^4+Z^4+W^3*X",
    "X^4+Y^4+Z^3*W+W^3*Z",
    "X^4+Y^3*W+Z^4+W^4",
    "X^4+Y^4+Z^4+W^4+(1+i)*X^2*Y^2",
]
SINGULAR_SURFACES = [
    "X^4+Y^4+Z^4",
    "X^4+Y^4+Z^4+W^4+2*X^2*Y^2",
    "X^4+Y^4+Z^4+W^4-4*X*Y*Z*W",
    "X^4+X^3*Y",
    "X^2*Y^2+Z^2*W^2",
    "X^4+Y^3*Z",
    "Y^4+Z^4+W^4+Y^2*Z*W",
    "X^2*Y*Z+Y^4+Z^4+W^4",
    "X^4+4*X^3*Y+6*X^2*Y^2+4*X*Y^3+Y^4+Z^4+W^4",
    "X^4+Y^4+Z^2*W^2",
    "X^3*W+Y^4+Z^4",
    "X^4+Y^4+Z^4+2*Z^2*W^2+W^4",
    "X^4+X^2*Y^2+Y^4+Z^4+W^4+2*Z^2*W^2",
    "X^4+Y^4+W^4+X^2*Y^2",
    "X^2*Y^2+Y^4+Z^4+W^4",
]
SMOOTHNESS_CORPUS = SMOOTH_SURFACES + SINGULAR_SURFACES
