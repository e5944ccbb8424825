"""Outer Galois points of smooth quartic surfaces.

A point P off a smooth quartic S = {f = 0} is an outer Galois point when
the projection away from P makes the function-field extension Galois;
for quartic surfaces the group is then cyclic of order 4 and its
generator is a linear homology of period 4 centered at P.

Criterion used throughout this module.  P is an outer Galois point
exactly when the homology of period 4 with center P and the polar plane
ker grad f(P) as axis,

    sigma_P(x) = x + (i - 1) * (grad f(P) . x) / (4 f(P)) * P,

preserves f, and sigma_P then generates the Galois group.  By Euler's
identity the divisor 4 f(P) is grad f(P) . P, nonzero as P is off S.

Proof.  If P is an outer Galois point, take the generator with
eigenvalue i at P, and let H be its axis.  Its multiplier is 1, since
f(i P) = f(P) != 0.  So in coordinates (T, rest) where it is
diag(i, 1, 1, 1) only the monomials T**4 and those without T survive:
f = c0*T**4 + G(rest) with c0 = f(P).  Hence grad f(P) = 4*c0*dT and
H = ker grad f(P).  The homology with center P, axis H and eigenvalue i
at P is unique, so it is sigma_P.  Conversely, an order-4
homology centered at P that preserves f maps every line through P to
itself, so its powers are four automorphisms of S over the projection
from P, as many as its degree: the projection is Galois.

The first polar is the whole proof: with ell = grad f(P) . x / (4 f(P)),
ell(P) = 1, sigma_P preserves f exactly when D_P f = sum_j P_j df/dx_j
is 4 f(P) * ell**3.  In the coordinates above D_P f = 4*c0*T**3, ell = T.
Conversely, g = f - f(P) * ell**4 has D_P g = 0, so g(x + t P) = g(x);
sigma_P(x) = x + (i - 1) * ell(x) * P adds a multiple of P to x and gives
ell(sigma_P x) = i * ell(x), so f(sigma_P x) = f(P) * ell(x)**4 + g(x)
= f(x).  No quartic is pulled back.  The enumerator reads its
candidates off the joint eigenlines of the Hessian pencil, (d) below.

A smooth quartic has N in {0, 1, 2, 4} outer Galois points, and the
labels form-1, form-2 and form-3 name the strata N = 1, 2 and 4, whose
members are projectively X**4 + G(Y, Z, W), X**4 + Y**4 + g(Z, W) and the
Fermat quartic.  So a report's normal form is read off N, in any
coordinates, whenever the report knows N.

Descent through the polar plane.  The criterion, and what follows, hold
for a quartic form f in any number n >= 2 of variables; call a point off
f whose first polar is 4 f(P) ell**3 a point of f.  Let P be one, in
coordinates (T, x) with P = e_T and H_P = ker grad f(P) = {T = 0}, so that
f = c*T**4 + G(x) with c = f(P) != 0, and let B = f|H_P = G.
  (a) f is smooth exactly when B is.  The partials of f are 4*c*T**3 and
      those of G, so their common zeros are the points (0 : x) with x a
      common zero of the partials of G, a singular point of B.
  (b) If f is smooth, the points of f other than P are those of B, in
      H_P.  Let Q = (q0 : q) be one; its first polar 4*c*q0*T**3 + D_q G is a
      nonzero cube (a*T + b.x)**3.  If q0 != 0, then a != 0, and the terms
      in T**2 and T force b = 0, so D_q G = 0: G is a cone with vertex q,
      singular there, against (a).  So q0 = 0, Q lies in H_P, and
      D_Q f = D_q G: the first-polar identity for B at q, one dimension
      down.  The converse is the same computation.
  (c) So N <= 4.  Applied to B at a second point Q, (b) puts every further
      point on the line H_P n H_Q, as a point of the binary quartic f
      there, which is smooth (squarefree) by (a); applied to that binary
      quartic at a point, on the one point of its polar.  So
      N <= 1 + 1 + 2.
  (d) The Hessian pencil.  Let H(y) be the Hessian matrix of f at y.
      Differentiating D_P f = 4*c*ell**3 once gives H(y) P =
      12*c*ell(y)**2 grad ell for every y.  Take y0 with det H(y0) != 0,
      so that ell(y0) != 0 (else H(y0) P = 0), and M_j = H(y0)^-1 H(y_j):
      then M_j P = (ell(y_j) / ell(y0))**2 P.  So the points of f are
      common eigenvectors of M_1 and M_2, their span lies in
      ker [M_1, M_2] and both map it into itself, and so it lies in W*,
      the largest subspace of ker [M_1, M_2] that M_1 and M_2 map into
      itself, where the two commute.  Each point of f lies in a joint
      eigenspace of M_1 and M_2 on W*.  So when all their eigenvalues
      there lie in Q(i) and each joint eigenspace is a line, the points
      of f are among those lines, and verifying each decides N; dim W* = 0
      proves N = 0.  A smooth f has such a y0: a form whose Hessian
      determinant vanishes identically is a cone (Gordan and Noether, in
      at most 4 variables), and a cone is singular.  So det H(y) is a
      nonzero form of degree 2n, which cannot vanish at every point of
      S**n for a set S of more than 2n integers.
  (e) The ladder.  Let P_1, ..., P_N be verified points of a quartic
      surface f, in no particular coordinates, and ell_k that of P_k, so
      ell_k(P_k) = 1; nothing here assumes f smooth.  If ell_j(P_k) != 0
      for some j != k, f is singular, by (b).  Else ell_j(P_k) is 1 for
      j = k and 0 otherwise, so the points are independent and N <= 4.
      With N = 4, in the coordinates y_k = ell_k(x) of the basis P_k each
      sigma_k is diagonal, i at P_k and 1 at the others, so a monomial y**a
      of f has a_k = 0 mod 4 for every k: f = sum f(P_k) y_k**4 with each
      f(P_k) != 0, which is smooth.  With N >= 2, Q = P_2 lies on
      H_P = H_{P_1} and is a point of B = f|H_P: its first polar there is
      that of f restricted, 4 f(Q) (ell_Q|H_P)**3, and ell_Q is nonzero on
      H_P as ell_Q(Q) = 1.  So by (a), twice, f is smooth exactly when the
      binary quartic f on H_P n H_Q, the kernel of the two gradients, is:
      when it is nonzero with distinct linear factors, an exact gcd test.
      With N = 1, by (a) once, exactly when the plane quartic B is.
The enumerator thus proves a report complete in one way, by (d), and
certifies the smoothness of f on its verified points by (e): with none
on f itself, with one on a plane quartic (36 columns in place of the
surface's 220), with two or three on a binary quartic, with four by
nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (ConsistencyError, InnerPointError, SingularSurfaceError,
                     SurfaceNotPreservedError, UnnormalizedAutomorphismError)
from .gaussian import ZERO, ONE, I, GaussianRational
from .geometry import (EigenForm, eigen_form, is_smooth_plane_quartic,
                       is_smooth_surface, variable_blocks)
from .linalg import Matrix, Vector
from .poly import (HomPoly, ProjPoint, _gi_powers, partials, squarefree_profile,
                   substitute_linear)
from .univariate import GInt, _common_denominator, _gi_mul, gaussian_roots

PROVED_COMPLETE = "proved-complete"
CANDIDATES_ONLY = "candidates-only"
POINTS_NOT_RECOVERED = "points-not-recovered"
# y0 is the first of these at which the Hessian is invertible, and y1, y2
# the other two ((d) of the module docstring); no small linear form takes
# equal ratios at them, so the Galois points of surfaces in small
# coordinates get distinct joint eigenvalues
_PENCIL = ((14, -17, 16, 4), (-4, -12, -15, 9), (-1, -20, -18, 14))
_PAIRS = [(j, k) for j in range(4) for k in range(j, 4)]
# the cubic monomials m with their multinomial weights 3! / m!, the
# coefficients of (g . x)**3 = sum_m weight * g**m * x**m
_CUBIC = [(m, 6 // math.prod(map(math.factorial, m)))
          for m in product(range(4), repeat=4) if sum(m) == 3]


@dataclass(frozen=True)
class LinearAuto:
    """An exact linear automorphism of a quartic: f(M x) == multiplier * f.
    eigen, left out of equality, is f in M's eigen-coordinates, which
    linear_auto records and a homology built by galois_generator leaves
    out; k3 takes M alone and calls linear_auto itself.
    """
    matrix: Matrix
    multiplier: GaussianRational
    eigen: Optional[EigenForm] = field(default=None, compare=False, repr=False)


def linear_auto(f: HomPoly, m: Matrix) -> LinearAuto:
    """Validate that m preserves the surface of f and package it.

    Requires m**4 == identity exactly (the normalization every homology
    in scope satisfies), proved by m's eigendecomposition.  In its
    eigen-coordinates m = diag(i**k_j) preserves g = f(B y) with multiplier
    lam exactly when every monomial y**a of g has i**(sum_j k_j a_j) = lam.
    """
    if m.rows != 4 or m.cols != 4:
        raise ValueError("expected a 4x4 matrix")
    if f.is_zero():
        raise ValueError("zero form does not define a surface")
    try:
        eig = eigen_form(f, m)
    except UnnormalizedAutomorphismError:
        raise UnnormalizedAutomorphismError(
            "matrix does not satisfy M**4 == I; rescale it inside Q(i)") from None
    shifts = {sum(k * a for k, a in zip(eig.powers, e)) % 4 for e in eig.form.num}
    if len(shifts) != 1:
        raise SurfaceNotPreservedError(
            "matrix does not map the surface to itself")
    return LinearAuto(m, I ** shifts.pop(), eig)


@dataclass
class GaloisReport:
    """Outcome of a Galois-point test or search.

    reason is None when the list of points is proved complete, and is
    POINTS_NOT_RECOVERED otherwise: the Hessian pencil of the module
    docstring, (d), left an eigenvalue outside Q(i) or a joint eigenspace
    that is not a line.
    """
    surface: HomPoly
    points: List[Tuple[ProjPoint, LinearAuto]]
    reason: Optional[str] = None

    @property
    def completeness(self) -> str:
        return PROVED_COMPLETE if self.reason is None else CANDIDATES_ONLY

    @property
    def normal_form(self) -> str:
        """The paper's normal form for the number N of outer Galois points:
        form-1, form-2 or form-3 for N = 1, 2 or 4, in some coordinates.  N
        is known when the list is proved complete; else, and for N = 0,
        "unrecognized"."""
        if self.reason is not None:
            return "unrecognized"
        return {1: "form-1", 2: "form-2", 4: "form-3"}.get(len(self.points),
                                                          "unrecognized")

    def point_list(self) -> List[ProjPoint]:
        return [p for p, _g in self.points]

    def to_dict(self) -> Dict:
        out = {
            "surface": str(self.surface),
            "normal_form": self.normal_form,
            "completeness": self.completeness,
            "points": [
                {
                    "point": str(p),
                    "generator": [str(x) for x in g.matrix.entries],
                    "multiplier": str(g.multiplier),
                }
                for p, g in self.points
            ],
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _require_smooth(f: HomPoly,
                    pairs: Sequence[Tuple[ProjPoint, LinearAuto]] = (),
                    vertex: Optional[Vector] = None) -> None:
    """Refuse a singular f, by the ladder (e) of the module docstring over
    pairs, verified Galois points P with their homologies sigma_P.  Each
    point must lie on the polar plane H_Q = ker(sigma_Q - 1) of every
    other, or f is refused; then four points certify f with no matrix,
    two or three certify it on the binary quartic on H_P n H_Q of the
    first two, one on its plane quartic f|H_P, and none on f itself.  A
    vertex at which every partial of f vanishes refuses f with no
    certificate."""
    rows = [_polar_row(p, gen) for p, gen in pairs]
    if vertex is not None and all(g.eval(vertex).is_zero() for g in partials(f)):
        smooth = False
    elif any(sum((a * x for a, x in zip(row, q)), ZERO)
             for j, row in enumerate(rows)
             for k, (q, _g) in enumerate(pairs) if j != k):
        smooth = False
    elif len(rows) == 4:
        smooth = True
    elif rows:
        rows = rows[:2]
        axis = Matrix(len(rows), 4, sum(rows, [])).kernel_basis()
        b = substitute_linear(f, Matrix.from_columns(axis))
        smooth = not b.is_zero() and (max(squarefree_profile(b)) == 1 if b.nvars == 2
                                      else is_smooth_plane_quartic(b))
    else:
        smooth = is_smooth_surface(f)
    if not smooth:
        raise SingularSurfaceError(
            "the quartic is singular; Galois-point analysis is refused")


def _polar_row(p: ProjPoint, gen: LinearAuto) -> Vector:
    """(i - 1) ell_P for sigma_P = 1 + (i - 1) P ell_P: the row of
    sigma_P - 1 at p's first nonzero coordinate, which is 1."""
    k = p.pivot_index()
    return [a - ONE if c == k else a for c, a in enumerate(gen.matrix.row(k))]


def adapted_basis(p: ProjPoint) -> Matrix:
    """Deterministic completion of p to a basis of C^4.

    Column 0 is p itself; the remaining columns are the standard basis
    vectors away from p's pivot coordinate, in increasing order.
    """
    pivot = p.pivot_index()
    cols: List[List[GaussianRational]] = [list(p.coords)]
    for j in range(4):
        if j == pivot:
            continue
        cols.append([ONE if t == j else ZERO for t in range(4)])
    return Matrix.from_columns(cols)


def _tested_generator(f: HomPoly, p: ProjPoint) -> Optional[LinearAuto]:
    """_generator_or_none at p on a certified f.  A point on the surface is
    refused once f is certified, as a singular f is refused first; a point
    off it is verified first, so that the certificate can be the plane
    quartic of a Galois point."""
    if f.eval(p.coords).is_zero():
        _require_smooth(f)
        raise InnerPointError(
            "point lies on the surface: inner Galois points are out of scope")
    gen = _generator_or_none(f, p)
    _require_smooth(f, [] if gen is None else [(p, gen)])
    return gen


def is_outer_galois_point(f: HomPoly, p: ProjPoint) -> bool:
    """Decide whether p (off the surface) is an outer Galois point of f."""
    return _tested_generator(f, p) is not None


def galois_generator(f: HomPoly, p: ProjPoint) -> LinearAuto:
    """The homology sigma_P of the module docstring, which generates the
    Galois group at p, with multiplier 1.  SurfaceNotPreservedError when
    sigma_P does not preserve f, that is when p is not an outer Galois
    point.
    """
    gen = _tested_generator(f, p)
    if gen is None:
        raise SurfaceNotPreservedError(
            f"{p} is not an outer Galois point of this quartic")
    return gen


def _generator_or_none(f: HomPoly, p: ProjPoint) -> Optional[LinearAuto]:
    """sigma_P at p when p is off the surface and sigma_P preserves f
    exactly, or None.

    By the module docstring, sigma_P preserves f exactly when the first
    polar sum_j p_j df/dx_j is the cube 4 f(P) ell**3 =
    (grad f(P) . x)**3 / D**2, with D = grad f(P) . P = 4 f(P): that one
    identity is the test, the generator and its proof.  It is checked on
    f's Z[i] numerators F at p with its denominators cleared, where both
    sides scale alike, as D_p F * D**2 == (grad F(p) . x)**3 coefficient
    by coefficient: one pass over the terms c x**e of F gives
    e_j c p**(e - e_j) to grad F(p)_j and e_j c p_j to the coefficient of
    x**(e - e_j) in D_p F.  D is 0 exactly on the surface, where p is
    refused; the homology is built only for a verified point.
    """
    den, xs = _common_denominator(p.coords)
    powers = [_gi_powers(x, 3) for x in xs]
    cubes = {m: _gi_monomial(powers, m) for m, _w in _CUBIC}
    grad = [[0, 0] for _ in range(4)]
    polar: Dict[Tuple[int, ...], List[int]] = {}
    for e, (a, b) in f.num.items():
        for j, n in enumerate(e):
            if n:
                m = e[:j] + (n - 1,) + e[j + 1:]
                u, v = cubes[m]
                g = grad[j]
                g[0] += n * (a * u - b * v)
                g[1] += n * (a * v + b * u)
                u, v = xs[j]
                acc = polar.setdefault(m, [0, 0])
                acc[0] += n * (a * u - b * v)
                acc[1] += n * (a * v + b * u)
    dot = (0, 0)
    for g, x in zip(grad, xs):
        a, b = _gi_mul(g, x)
        dot = (dot[0] + a, dot[1] + b)
    if dot == (0, 0):
        return None
    dot2 = _gi_mul(dot, dot)
    gpowers = [_gi_powers(g, 3) for g in grad]
    for m, weight in _CUBIC:
        a, b = _gi_mul(dot2, polar.get(m, (0, 0)))
        c = _gi_monomial(gpowers, m)
        if (a, b) != (weight * c[0], weight * c[1]):
            return None
    # (i - 1) * ell, with ell = grad f(P) / (grad f(P) . P) and ell(P) = 1
    scale = (I - ONE) / GaussianRational(*dot, den)
    row = [scale * GaussianRational(*g, 1) for g in grad]
    return LinearAuto(Matrix(4, 4, [(ONE if r == c else ZERO) + p[r] * row[c]
                                    for r in range(4) for c in range(4)]), ONE)


def _gi_monomial(powers: Sequence[Sequence[GInt]], m: Tuple[int, ...]) -> GInt:
    """The Z[i] value of the monomial x**m, from powers[t][k] = x_t**k."""
    out = (1, 0)
    for t, k in enumerate(m):
        if k:
            out = _gi_mul(out, powers[t][k])
    return out


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------

def _verified_pairs(f: HomPoly, candidates: Sequence[ProjPoint]
                    ) -> List[Tuple[ProjPoint, LinearAuto]]:
    out = []
    for p in candidates:
        gen = _generator_or_none(f, p)
        if gen is not None:
            out.append((p, gen))
    out.sort(key=lambda pg: pg[0].sort_key())
    return out


def _hessian(f: HomPoly, y: Sequence[int]) -> Matrix:
    """The Hessian matrix of f at y, an integer point with no zero
    coordinate, times f's common denominator, from its ten distinct
    second partials: entry (j, k) sums c * e_j * (e_k - [j == k]) *
    y**e / (y_j y_k) over the terms c x**e of f."""
    acc = {jk: [0, 0] for jk in _PAIRS}
    for e, (a, b) in f.num.items():
        mono = math.prod(v ** n for v, n in zip(y, e))
        for j, k in _PAIRS:
            if w := e[j] * (e[k] - (j == k)):
                w = w * mono // (y[j] * y[k])
                acc[j, k][0] += a * w
                acc[j, k][1] += b * w
    return Matrix(4, 4, [GaussianRational(*acc[min(r, c), max(r, c)])
                         for r in range(4) for c in range(4)])


def _restriction(m: Matrix, basis: List[Vector]) -> Tuple[Matrix, Matrix]:
    """(R, D) for the span of basis, a kernel_basis, with B its matrix: R
    is read off the image m B, and D = m B - B R is 0 exactly when m maps
    the span into itself, R then being the matrix of m on it.  The i-th
    vector of a kernel_basis is 1 at its last nonzero coordinate t_i and
    0 at the other t_j, and t_1 < t_2 < ...; so B c has the entries c at
    the t_i, R is the image read there, and the vectors B c for c in a
    kernel_basis of coordinates are a kernel_basis again (_span)."""
    b = Matrix.from_columns(basis)
    at = [max(t for t in range(4) if not v[t].is_zero()) for v in basis]
    image = m * b
    r = Matrix(len(at), len(at), [x for t in at for x in image.row(t)])
    return r, image - b * r


def _span(basis: List[Vector], coords: List[Vector]) -> List[Vector]:
    b = Matrix.from_columns(basis)
    return [b.apply(c) for c in coords]


def _invariant_kernel(m1: Matrix, m2: Matrix, h1: Matrix) -> List[Vector]:
    """A basis of W*, the largest subspace of ker [M1, M2] that M1 and M2
    map into itself ((d) of the module docstring): from W = ker [M1, M2],
    W <- {v in W : M1 v, M2 v in W} until W stops shrinking; with D1, D2
    the defects of _restriction, v = B c is kept when D1 c = D2 c = 0.
    ker [M1, M2] is that of T - T^t for T = H(y1) M2, with h1 = H(y1):
    H(y0) [M1, M2] = H1 H0^-1 H2 - H2 H0^-1 H1, and each H is symmetric."""
    t = h1 * m2
    basis = (t - Matrix.from_columns([t.row(i) for i in range(4)])).kernel_basis()
    while basis:
        (_, d1), (_, d2) = (_restriction(m, basis) for m in (m1, m2))
        kept = Matrix(8, len(basis), d1.entries + d2.entries).kernel_basis()
        if len(kept) == len(basis):
            break
        basis = _span(basis, kept)
    return basis


def _charpoly(r: Matrix) -> List[GaussianRational]:
    """det(x I - r), low degree first, by Faddeev-LeVerrier."""
    n = r.rows
    coeffs, m = [ONE], Matrix.identity(n)
    for k in range(1, n + 1):
        am = r * m
        c = -sum(am.entries[::n + 1], ZERO) / k
        coeffs.append(c)
        m = am + Matrix.identity(n).scale(c)
    return coeffs[::-1]


def _eigenlines(ms: Sequence[Matrix], basis: List[Vector]
                ) -> Tuple[List[ProjPoint], bool]:
    """Split the span of basis, a kernel_basis that each of ms maps into
    itself and on which they commute, into the eigenspaces of ms[0] for
    its eigenvalues in Q(i), and each of those into the eigenspaces of
    ms[1]: (the lines among those joint eigenspaces, whether every
    eigenvalue lay in Q(i) and every joint eigenspace is a line)."""
    spaces, split = [basis] if basis else [], True
    for m in ms:
        parts = []
        for space in spaces:
            if len(space) == 1:
                parts.append(space)
                continue
            r = _restriction(m, space)[0]
            roots, full = gaussian_roots(_charpoly(r))
            split = split and full
            for lam in roots:
                eigen = (r - Matrix.identity(r.rows).scale(lam)).kernel_basis()
                parts.append(_span(space, eigen))
        spaces = parts
    return ([ProjPoint(s[0]) for s in spaces if len(s) == 1],
            split and all(len(s) == 1 for s in spaces))


def recognize_normal_form(f: HomPoly) -> GaloisReport:
    """The report of enumerate_outer_galois_points, whose normal_form names
    the paper's normal form of f from its number of outer Galois points."""
    return enumerate_outer_galois_points(f)


def enumerate_outer_galois_points(f: HomPoly) -> GaloisReport:
    """Every outer Galois point of a smooth quartic, by the Hessian pencil
    ((d) of the module docstring).

    y0 is the first point of _PENCIL at which the Hessian is invertible,
    and y1, y2 are the other two.  The candidates are the lines among the
    joint eigenspaces of M1 and M2 on W*, and each is kept only when
    sigma_P preserves f, with sigma_P as its verified generator; so every
    reported point is correct.  The report is proved complete exactly when
    every eigenvalue lies in Q(i) and every joint eigenspace is a line.

    A singular f is refused before any answer, by the ladder (e) over the
    verified points: on f itself when there is none.  f is certified
    first when its variables split into blocks, as that certificate is
    cheap, and when its Hessian is singular at all three points of
    _PENCIL, as a cone's is everywhere; y0 then walks the grid {1..9}**4.
    A proved-complete point count outside {0, 1, 2, 4} is impossible for
    smooth quartics and raises ConsistencyError.
    """
    if f.nvars != 4 or f.degree != 4:
        raise ValueError("expected a quartic form in 4 variables")
    certified = len(variable_blocks(f)) > 1
    if certified:
        _require_smooth(f)
    hs = [_hessian(f, y) for y in _PENCIL]
    grid = (_hessian(f, y) for y in product(range(1, 10), repeat=4))
    for k, h0 in enumerate(chain(hs, grid)):
        if k == len(hs) and not certified:
            # a cone, whose det H vanishes, is singular at its vertex, which
            # every H(y) kills: try a common null vector of the three first
            null = Matrix(12, 4, sum((h.entries for h in hs), ())).kernel_basis()
            _require_smooth(f, vertex=null[0] if null else None)
            certified = True
        try:
            inv = h0.inverse()
        except ValueError:
            continue
        h1, h2 = (hs[:k] + hs[k + 1:])[:2]
        m1, m2 = inv * h1, inv * h2
        break
    lines, complete = _eigenlines((m1, m2), _invariant_kernel(m1, m2, h1))
    pairs = _verified_pairs(f, lines)
    if not certified:
        _require_smooth(f, pairs)
    if complete and len(pairs) not in (0, 1, 2, 4):
        raise ConsistencyError(
            f"certified search returned {len(pairs)} Galois points; "
            "only 0, 1, 2 or 4 are possible for a smooth quartic")
    return GaloisReport(f, pairs, None if complete else POINTS_NOT_RECOVERED)
