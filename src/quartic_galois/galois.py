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
The enumerator thus proves a report complete in one way, by (d).  And
once a point P verifies, it certifies the smoothness of f on the plane
quartic B, by (a): 36 columns in place of the surface's 220.
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
from .poly import HomPoly, ProjPoint, partials, substitute_linear
from .univariate import gaussian_roots

PROVED_COMPLETE = "proved-complete"
CANDIDATES_ONLY = "candidates-only"
POINTS_NOT_RECOVERED = "points-not-recovered"
# y0 is the first of these at which the Hessian is invertible, and y1, y2
# the other two ((d) of the module docstring); no small linear form takes
# equal ratios at them, so the Galois points of surfaces in small
# coordinates get distinct joint eigenvalues
_PENCIL = ((14, -17, 16, 4), (-4, -12, -15, 9), (-1, -20, -18, 14))
_PAIRS = [(j, k) for j in range(4) for k in range(j, 4)]


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


def _require_smooth(f: HomPoly, gen: Optional[LinearAuto] = None,
                    vertex: Optional[Vector] = None) -> None:
    """Refuse a singular f.  With gen the verified sigma_P of a Galois
    point P, f is smooth exactly when its plane quartic f|H_P is ((a) of
    the module docstring), and that is certified in its place; H_P is the
    axis of sigma_P, ker(sigma_P - 1).  A vertex at which every partial
    of f vanishes refuses f with no certificate."""
    if vertex is not None and all(g.eval(vertex).is_zero() for g in partials(f)):
        smooth = False
    elif gen is None:
        smooth = is_smooth_surface(f)
    else:
        axis = (gen.matrix - Matrix.identity(4)).kernel_basis()
        b = substitute_linear(f, Matrix.from_columns(axis))
        smooth = not b.is_zero() and is_smooth_plane_quartic(b)
    if not smooth:
        raise SingularSurfaceError(
            "the quartic is singular; Galois-point analysis is refused")


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
    _require_smooth(f, gen)
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
    """sigma_P at p (off the surface) when it preserves f exactly, or None.

    By the module docstring, sigma_P preserves f exactly when the first
    polar sum_j p_j df/dx_j is the cube 4 f(P) ell**3 =
    (grad f(P) . x)**3 / (grad f(P) . P)**2: that one identity is the
    test, the generator and its proof.
    """
    grads = partials(f)
    grad = [g.eval(p.coords) for g in grads]
    dot = sum((a * x for a, x in zip(grad, p)), ZERO)
    polar = HomPoly.zero(4, 3)
    for g, x in zip(grads, p):
        if not x.is_zero():
            polar = polar + g.scale(x)
    lin = HomPoly(4, 1, {tuple(int(t == j) for t in range(4)): a
                         for j, a in enumerate(grad)})
    if polar.scale(dot * dot) != lin * lin * lin:
        return None
    # (i - 1) * ell, with ell = grad f(P) / (grad f(P) . P) and ell(P) = 1
    scale = (I - ONE) / dot
    row = [scale * a for a in grad]
    return LinearAuto(Matrix(4, 4, [(ONE if r == c else ZERO) + p[r] * row[c]
                                    for r in range(4) for c in range(4)]), ONE)


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------

def _verified_pairs(f: HomPoly, candidates: Sequence[ProjPoint]
                    ) -> List[Tuple[ProjPoint, LinearAuto]]:
    out = []
    for p in candidates:
        if f.eval(p.coords).is_zero():
            continue
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

    A singular f is refused before any answer: on the plane quartic of
    the first verified point, by (a), or else on f itself.  f is certified
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
        _require_smooth(f, pairs[0][1] if pairs else None)
    if complete and len(pairs) not in (0, 1, 2, 4):
        raise ConsistencyError(
            f"certified search returned {len(pairs)} Galois points; "
            "only 0, 1, 2 or 4 are possible for a smooth quartic")
    return GaloisReport(f, pairs, None if complete else POINTS_NOT_RECOVERED)
