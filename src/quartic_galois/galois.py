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
= f(x).  No quartic is pulled back.  The enumerator searches the locus
where the first polar is a cube.

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
  (d) Let K be the apolar space of f: the operators sum_jk A_jk d_j d_k,
      A a symmetric matrix, that kill f; it is the kernel of f's 10x10
      catalecticant.  For q in H_P, D_P D_q f = 12*c*ell**2*ell(q) = 0, so
      K contains P.H_P = {P q^t + q P^t : q in H_P}, of dimension 3, whose
      members have the column spaces span(P, q).  So dim K < 3 proves
      N = 0.  When dim K = 3 and P exists, K = P.H_P, and the column spaces
      of any basis of K meet in P alone; so there is at most one point, it
      is the common point of those column spaces, and verifying it
      decides N in {0, 1}.
The enumerator thus proves a report complete in one of three ways: dim K
< 3 or dim K = 3, by (d); the solver's Hilbert-function count, when dim
K >= 4; or four verified points, by (c).  And once a point P verifies, it
certifies the smoothness of f on the plane quartic B, by (a): 36 columns
in place of the surface's 220.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (ConsistencyError, InnerPointError, SingularSurfaceError,
                     SurfaceNotPreservedError, UnnormalizedAutomorphismError)
from .gaussian import ZERO, ONE, I, GaussianRational
from .geometry import (EigenForm, eigen_form, is_smooth_plane_quartic,
                       is_smooth_surface, variable_blocks)
from .linalg import Matrix, SparseRow, kernel_basis_sparse
from .poly import HomPoly, ProjPoint, partials, substitute_linear
from .solver import cube_locus_quadrics, solve_projective

PROVED_COMPLETE = "proved-complete"
CANDIDATES_ONLY = "candidates-only"


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

    reason is None when the list of points is proved complete, and says
    why it is not otherwise: "hilbert-not-stable" or
    "points-not-recovered" (see the solver module).
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


def _require_smooth(f: HomPoly, gen: Optional[LinearAuto] = None) -> None:
    """Refuse a singular f.  With gen the verified sigma_P of a Galois
    point P, f is smooth exactly when its plane quartic f|H_P is ((a) of
    the module docstring), and that is certified in its place; H_P is the
    axis of sigma_P, ker(sigma_P - 1)."""
    if gen is None:
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

def _coordinate_point(v: int) -> ProjPoint:
    return ProjPoint([ONE if t == v else ZERO for t in range(4)])


def _verified_pairs(f: HomPoly, candidates: Sequence[ProjPoint]
                    ) -> List[Tuple[ProjPoint, LinearAuto]]:
    out = []
    seen = set()
    for p in candidates:
        if p in seen:
            continue
        seen.add(p)
        if f.eval(p.coords).is_zero():
            continue
        gen = _generator_or_none(f, p)
        if gen is not None:
            out.append((p, gen))
    out.sort(key=lambda pg: pg[0].sort_key())
    return out


def _apolar_space(f: HomPoly) -> List[Matrix]:
    """A basis of the apolar space K of f (the module docstring, (d)), the
    kernel of its catalecticant, whose column (j, k), j <= k, holds the
    coefficients of d_j d_k f; each member as its symmetric matrix A,
    scaled by 2."""
    ops = list(combinations_with_replacement(range(4), 2))
    rows: Dict[Tuple[int, ...], SparseRow] = {}
    for col, (j, k) in enumerate(ops):
        for e, (a, b) in f.num.items():
            w = e[j] * (e[k] - (j == k))
            if w:
                m = tuple(x - (t == j) - (t == k) for t, x in enumerate(e))
                rows.setdefault(m, {})[col] = GaussianRational(a * w, b * w)
    at = {jk: col for col, jk in enumerate(ops)}
    return [Matrix(4, 4, [v[at[min(r, c), max(r, c)]] * (2 if r == c else 1)
                          for r in range(4) for c in range(4)])
            for v in kernel_basis_sparse(list(rows.values()), len(ops))]


def _common_column_point(space: List[Matrix]) -> List[ProjPoint]:
    """The one point common to the column spaces of the symmetric
    matrices, or [] when they share none or more than one.  The column
    space of a symmetric A is the annihilator of ker A, so the common
    points are the kernel of all the kernels, stacked."""
    normals = [v for a in space for v in a.kernel_basis()]
    common = Matrix.from_rows(normals or [[ZERO] * 4]).kernel_basis()
    return [ProjPoint(common[0])] if len(common) == 1 else []


def recognize_normal_form(f: HomPoly) -> GaloisReport:
    """The report of enumerate_outer_galois_points, whose normal_form names
    the paper's normal form of f from its number of outer Galois points."""
    return enumerate_outer_galois_points(f)


def enumerate_outer_galois_points(
        f: HomPoly,
        extra_candidates: Sequence[ProjPoint] = ()) -> GaloisReport:
    """Search for every outer Galois point of a smooth quartic.

    The apolar space K decides first ((d) of the module docstring): when
    dim K < 3 there is no point, and when dim K = 3 the one candidate is
    the common point of the column spaces of K, so the report is proved
    complete with no search.  Otherwise the outer Galois points are among
    the common zeros of the cube-locus quadrics, a basis mod each
    certificate prime of the cube condition's minors, whose zeros contain
    those of all the minors.  solver.solve_projective finds them mod p,
    lifts them to Q(i) and keeps each only as an exact zero, and the
    report is proved complete when its Hilbert-function count certifies
    that no complex zero was missed; the four coordinate points and the
    extra candidates could then add nothing, and are tested only when
    the count does not close, with the solver's reason.  Four verified
    points are all there are, by (c), whatever the count.  Each candidate
    is kept when sigma_P preserves f, with sigma_P as its verified
    generator; so every reported point is correct whatever the search
    proved.

    A singular f is refused before any answer: on the plane quartic of
    the first verified point, by (a), or else on f itself.  A surface
    whose variables split into blocks is certified on f before anything
    else, as its certificate then costs less than a search.  A
    proved-complete point count outside {0, 1, 2, 4} is impossible for
    smooth quartics and raises ConsistencyError.
    """
    if f.nvars != 4 or f.degree != 4:
        raise ValueError("expected a quartic form in 4 variables")
    split = len(variable_blocks(f)) > 1
    if split:
        _require_smooth(f)
    apolar = _apolar_space(f)
    reason: Optional[str] = None
    if len(apolar) < 3:
        pairs = []
    elif len(apolar) == 3:
        pairs = _verified_pairs(f, _common_column_point(apolar))
    else:
        sols, reason = solve_projective(cube_locus_quadrics(f), 4)
        candidates = list(sols)
        if reason is not None:
            candidates.extend(_coordinate_point(v) for v in range(4))
            candidates.extend(extra_candidates)
        pairs = _verified_pairs(f, candidates)
    if not split:
        _require_smooth(f, pairs[0][1] if pairs else None)
    if len(pairs) >= 4:
        reason = None
    if reason is None and len(pairs) not in (0, 1, 2, 4):
        raise ConsistencyError(
            f"certified search returned {len(pairs)} Galois points; "
            "only 0, 1, 2 or 4 are possible for a smooth quartic")
    return GaloisReport(f, pairs, reason)
