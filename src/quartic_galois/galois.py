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
      proves N = 0.  All of it runs on Z[i] integers, with no division
      but exact ones: adj H(y0) H(y_j) = det H(y0) M_j has M_j's
      eigenvectors, invariant subspaces and commutator kernel, and each
      kernel comes from fraction-free (Bareiss) elimination as a basis
      scaled by one delta.  On such a span the matrix R read off the
      image is s = delta det H(y0) times that of M_j, so coefficient k of
      det(x I - R), by Berkowitz's division-free algorithm, over
      s**(d - k) gives M_j's own characteristic polynomial there, whose
      roots are sought; an eigenvalue u/v enters as v R - s u I.  The
      cone test: the partials of f are linearly
      dependent, sum c_j df/dx_j = 0, exactly when f(x + t c) = f(x), a
      cone with vertex c, which is singular there.  Every other form has
      such a y0: a form whose Hessian determinant vanishes identically is
      a cone (Gordan and Noether, in at most 4 variables), so det H(y) is
      a nonzero form of degree 2n, which cannot vanish at every point of
      S**n for a set S of more than 2n integers.
  (e) The ladder.  Let P_1, ..., P_N be verified points of a quartic
      surface f, in no particular coordinates, and ell_k that of P_k, so
      ell_k(P_k) = 1; nothing here assumes f smooth.  If ell_j(P_k) != 0
      for some j != k, f is singular, by (b).  Else ell_j(P_k) is 1 for
      j = k and 0 otherwise, so the points are independent and N <= 4.
      Each Q = P_k, k >= 2, lies on H_P = H_{P_1} and is a point of
      B = f|H_P: its first polar there is that of f restricted,
      4 f(Q) (ell_Q|H_P)**3, and ell_Q is nonzero on H_P as ell_Q(Q) = 1.
      So f is smooth exactly when its restriction to H_P1 n ... n H_PN,
      the kernel of the N gradients, is, by (a) once per point: a form in
      4 - N variables, with nothing left to certify at N = 4.
  (f) One route: require_smooth alone chooses a certificate, for every
      command.  With verified points from the caller (galois test's one:
      a plane quartic, 36 columns in place of 220), (e) over them; else
      f's blocks when its variables split, with no pencil; else (e) over
      the pencil's points, f itself when N = 0.
The enumerator proves a report complete in one way, by (d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (ConsistencyError, InnerPointError, SingularSurfaceError,
                     SurfaceNotPreservedError, UnnormalizedAutomorphismError)
from .gaussian import ZERO, ONE, I, GaussianRational
from .geometry import (EigenForm, eigen_form, is_smooth_surface,
                       jacobian_ideal_is_irrelevant, variable_blocks)
from .linalg import Matrix, Vector
from .poly import HomPoly, ProjPoint, _gi_powers, partials, substitute_linear
from .solver import POINTS_NOT_RECOVERED
from .univariate import (GInt, Poly, _common_denominator, _gi_divmod, _gi_mul,
                         _gi_norm, gaussian_roots)

PROVED_COMPLETE = "proved-complete"
CANDIDATES_ONLY = "candidates-only"
_SINGULAR = "the quartic is singular; Galois-point analysis is refused"
# y0 is the first of these at which the Hessian is invertible, and y1, y2
# the other two ((d) of the module docstring); no small linear form takes
# equal ratios at them, so the Galois points of surfaces in small
# coordinates get distinct joint eigenvalues
_PENCIL = ((14, -17, 16, 4), (-4, -12, -15, 9), (-1, -20, -18, 14))
_QUADRATIC = [q for q in product(range(3), repeat=4) if sum(q) == 2]
# for j <= k, the second partial d2/dx_j dx_k of x**e is w * x**q, for the
# quartic monomials e = q + u_j + u_k, with w = e_j * (e_k - [j == k])
_SECOND = {(j, k): [(q, e, e[j] * (e[k] - (j == k))) for q in _QUADRATIC
                    for e in [tuple(n + (t == j) + (t == k) for t, n in enumerate(q))]]
           for j in range(4) for k in range(j, 4)}
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


Pairs = Sequence[Tuple[ProjPoint, LinearAuto]]   # verified points with sigma_P
# a Z[i] matrix of the pencil, row by row
ZMat = List[List[GInt]]


@dataclass
class GaloisReport:
    """Outcome of a Galois-point search.  reason is None when the list of
    points is proved complete, and POINTS_NOT_RECOVERED when the Hessian
    pencil, (d) of the module docstring, left an eigenvalue outside Q(i)
    or a joint eigenspace that is not a line."""
    surface: HomPoly
    points: List[Tuple[ProjPoint, LinearAuto]]
    reason: Optional[str] = None

    @property
    def completeness(self) -> str:
        return PROVED_COMPLETE if self.reason is None else CANDIDATES_ONLY

    @property
    def normal_form(self) -> str:
        """The paper's normal form for the number N of outer Galois points,
        known when the list is proved complete: form-1, form-2 or form-3
        for N = 1, 2 or 4, in some coordinates; else "unrecognized"."""
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


def require_smooth(f: HomPoly, pairs: Pairs = ()) -> Optional[Tuple[Pairs, bool]]:
    """Refuse a singular quartic surface f with SingularSurfaceError: the
    one smoothness route of every command, (f) of the module docstring.
    The ladder (e) runs over pairs, the caller's verified points; with
    none, over the points of the Hessian pencil, whose (points,
    completeness) it returns, unless f's variables split into blocks."""
    if f.nvars != 4 or f.degree != 4:
        raise ValueError("expected a quartic form in 4 variables")
    found = None
    if not pairs and len(variable_blocks(f)) == 1:
        found = _pencil(f)
        pairs = found[0]
    _ladder(f, pairs)
    return found


def _ladder(f: HomPoly, pairs: Pairs) -> None:
    """Refuse a singular f by the ladder (e) over pairs: with no point, on
    f itself; else a point off the polar plane H_Q = ker(sigma_Q - 1) of
    another refuses f, and otherwise f is certified on the form left on
    the common polar plane of the N points, in 4 - N variables, with
    nothing left at N = 4."""
    rows = [_polar_row(p, gen) for p, gen in pairs]
    if not rows:
        smooth = is_smooth_surface(f)
    elif any(sum((a * x for a, x in zip(row, q)), ZERO)
             for j, row in enumerate(rows)
             for k, (q, _g) in enumerate(pairs) if j != k):
        smooth = False
    else:
        axis = Matrix(len(rows), 4, sum(rows, [])).kernel_basis()
        smooth = not axis or jacobian_ideal_is_irrelevant(
            substitute_linear(f, Matrix.from_columns(axis)))
    if not smooth:
        raise SingularSurfaceError(_SINGULAR)


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
    """_generator_or_none at p on a certified f: a Galois point certifies
    f by its plane quartic, and a point on a singular surface is refused
    as singular before it is refused as inner."""
    gen = _generator_or_none(f, p)
    require_smooth(f, [] if gen is None else [(p, gen)])
    if gen is None and f.eval(p.coords).is_zero():
        raise InnerPointError(
            "point lies on the surface: inner Galois points are out of scope")
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
    exactly, or None: when the first polar D_p f is the cube 4 f(P) ell**3
    = (grad f(P) . x)**3 / D**2, D = grad f(P) . P = 4 f(P) (module
    docstring).  It is checked on f's Z[i] numerators F at p with its
    denominators cleared, as D_p F * D**2 == (grad F(p) . x)**3
    coefficient by coefficient: one pass over the terms c x**e of F gives
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

def _verified_pairs(f: HomPoly, candidates: Sequence[ProjPoint]) -> Pairs:
    out = []
    for p in candidates:
        gen = _generator_or_none(f, p)
        if gen is not None:
            out.append((p, gen))
    out.sort(key=lambda pg: pg[0].sort_key())
    return out


def _hessian(f: HomPoly, y: Sequence[int]) -> ZMat:
    """The Hessian matrix of f at the integer point y, times f's common
    denominator, over Z[i], from its ten distinct second partials: entry
    (j, k) sums c * w * y**q over the terms (q, e, w) of _SECOND[j, k]
    with c x**e a term of f."""
    ys = {q: math.prod(v ** n for v, n in zip(y, q)) for q in _QUADRATIC}
    acc = {}
    for jk, terms in _SECOND.items():
        re = im = 0
        for q, e, w in terms:
            if (c := f.num.get(e)) is not None:
                w *= ys[q]
                re += c[0] * w
                im += c[1] * w
        acc[jk] = (re, im)
    return [[acc[min(r, c), max(r, c)] for c in range(4)] for r in range(4)]


def _dot(u: Sequence[GInt], v: Sequence[GInt]) -> GInt:
    re = im = 0
    for (a, b), (c, d) in zip(u, v):
        re += a * c - b * d
        im += a * d + b * c
    return re, im


def _product(a: ZMat, b: ZMat) -> ZMat:
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def _sub(x: GInt, y: GInt) -> GInt:
    return x[0] - y[0], x[1] - y[1]


def _adjugate(a: ZMat) -> Tuple[ZMat, GInt]:
    """(adj a, det a) of a 4x4 Z[i] matrix by Laplace expansion: the minor
    of a at (r, c) expands along r's partner row (r xor 1) over the 2x2
    minors of the other pair of rows, with signs +, -, +."""
    minors = {}
    for r in (0, 2):
        for j, k in combinations(range(4), 2):
            minors[r, j, k] = _sub(_gi_mul(a[r][j], a[r + 1][k]),
                                   _gi_mul(a[r][k], a[r + 1][j]))
    adj = [[(0, 0)] * 4 for _ in range(4)]
    for r in range(4):
        row, pair = a[r ^ 1], 2 - (r & 2)
        for c in range(4):
            j, k, l = (t for t in range(4) if t != c)
            mid = minors[pair, j, l]
            u = _dot((row[j], row[k], row[l]),
                     (minors[pair, k, l], (-mid[0], -mid[1]), minors[pair, j, k]))
            adj[c][r] = u if (r + c) % 2 == 0 else (-u[0], -u[1])
    return adj, _dot(a[0], [adj[c][0] for c in range(4)])


def _echelon(a: ZMat, n: int) -> Tuple[ZMat, List[int]]:
    """(rows, pivot columns) of the fraction-free (Bareiss) echelon form of
    the Z[i] rows a with n columns, its zero rows dropped.  After the k-th
    pivot every entry left below it is a (k+1) x (k+1) minor of a, rows
    reordered, so each division by the previous pivot is exact (the
    nearest quotient of _gi_divmod is then the quotient), and the last
    pivot is the minor of a at the pivot rows and columns."""
    rows, pivots, prev = [list(r) for r in a], [], (1, 0)
    for c in range(n):
        k = len(pivots)
        i = next((i for i in range(k, len(rows)) if rows[i][c] != (0, 0)), None)
        if i is None:
            continue
        rows[k], rows[i] = rows[i], rows[k]
        top, p = rows[k], rows[k][c]
        for row in rows[k + 1:]:
            q = row[c]
            row[c] = (0, 0)
            for j in range(c + 1, n):
                row[j] = _gi_divmod(_sub(_gi_mul(p, row[j]), _gi_mul(q, top[j])), prev)[0]
        prev = p
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _kernel(a: ZMat, n: int) -> List[List[GInt]]:
    """A basis of the right kernel of the Z[i] rows a with n columns: the
    vectors of Matrix.kernel_basis times the last pivot D of _echelon, one
    for each free column f, in increasing order.  Each is D at f, 0 at the
    other free columns and at the pivot columns after f, and at the pivot
    columns before f what back-substitution gives, Z[i] integers by
    Cramer's rule since D is the minor of a at the pivot rows and columns."""
    rows, pivots = _echelon(a, n)
    d = rows[-1][pivots[-1]] if pivots else (1, 0)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        x = [(0, 0)] * n
        x[f] = d
        for row, c in reversed(list(zip(rows, pivots))):
            if c < f:
                s = _dot(row[c + 1:f + 1], x[c + 1:f + 1])
                x[c] = _gi_divmod((-s[0], -s[1]), row[c])[0]
        basis.append(x)
    return basis


def _scale(basis: List[List[GInt]]) -> GInt:
    """The common value of the vectors of a _kernel (or a _span of one) at
    their last nonzero coordinates."""
    v = basis[0]
    return next(x for x in reversed(v) if x != (0, 0))


def _restriction(m: ZMat, basis: List[List[GInt]]) -> Tuple[ZMat, ZMat]:
    """(R, D) for the span of basis, a _kernel: its i-th vector is delta =
    _scale(basis) at its last nonzero coordinate t_i and 0 at the other
    t_j, and t_1 < t_2 < ...  With B its matrix, R is the image m B read
    at the rows t_i, delta times the matrix of m on the span when m maps
    the span into itself, and D = delta m B - B R is 0 exactly then.  B c
    has c times delta at the t_i, so the vectors B c for c in a _kernel of
    coordinates are again such a basis (_span)."""
    at = [max(t for t in range(4) if v[t] != (0, 0)) for v in basis]
    delta = basis[0][at[0]]
    image = [[_dot(row, v) for row in m] for v in basis]
    r = [[w[t] for w in image] for t in at]
    defect = []
    for t in range(4):
        b = [v[t] for v in basis]
        defect.append([])
        for j, w in enumerate(image):
            defect[-1].append(_sub(_gi_mul(delta, w[t]), _dot(b, [row[j] for row in r])))
    return r, defect


def _span(basis: List[List[GInt]], coords: List[List[GInt]]) -> List[List[GInt]]:
    return [[_dot([v[t] for v in basis], c) for t in range(4)] for c in coords]


def _invariant_kernel(m1: ZMat, m2: ZMat, h1: ZMat) -> List[List[GInt]]:
    """A basis of W*, the largest subspace of ker [M1, M2] that M1 and M2
    map into itself ((d) of the module docstring), for m_j = adj H(y0)
    H(y_j) = det H(y0) M_j: from W = ker [m1, m2], W <- {v in W : m1 v,
    m2 v in W} until W stops shrinking; with D1, D2 the defects of
    _restriction, v = B c is kept when D1 c = D2 c = 0.  ker [m1, m2] is
    that of T - T^t for T = H(y1) m2, with h1 = H(y1): H(y0) [m1, m2] =
    det H(y0) (H1 adj H0 H2 - H2 adj H0 H1), and each H is symmetric."""
    t = _product(h1, m2)
    basis = _kernel([list(map(_sub, row, col)) for row, col in zip(t, zip(*t))], 4)
    while basis:
        (_, d1), (_, d2) = (_restriction(m, basis) for m in (m1, m2))
        kept = _kernel(d1 + d2, len(basis))
        if len(kept) == len(basis):
            break
        basis = _span(basis, kept)
    return basis


def _berkowitz(a: ZMat) -> List[GInt]:
    """det(x I - a), low degree first, by Berkowitz's division-free
    algorithm: for a = [[a11, R], [C, A1]], the coefficients of det(x I -
    a), highest first, are those of det(x I - A1) times the lower
    triangular Toeplitz matrix on 1, -a11, -R C, -R A1 C, ..., -R A1**(n-2) C."""
    n, poly = len(a), [(1, 0)]
    for k in range(n - 1, -1, -1):
        a1, r = [row[k + 1:] for row in a[k + 1:]], a[k][k + 1:]
        col, toeplitz = [row[k] for row in a[k + 1:]], [(1, 0), (-a[k][k][0], -a[k][k][1])]
        for j in range(n - k - 1):
            if j:
                col = [_dot(row, col) for row in a1]
            u = _dot(r, col)
            toeplitz.append((-u[0], -u[1]))
        poly = [_dot(toeplitz[i::-1], poly) for i in range(len(poly) + 1)]
    return poly[::-1]


def _eigenpolynomial(r: ZMat, s: GInt) -> Poly:
    """det(x I - r / s), low degree first: coefficient k of Berkowitz's
    det(x I - r) over s**(d - k).  For r = R of _restriction and s =
    _scale(basis) det H(y0), r / s is the matrix of M_j on the span, so
    this is its characteristic polynomial, as small as M_j's."""
    coeffs, conj, norm = _berkowitz(r), (s[0], -s[1]), _gi_norm(s)
    out, w, den = [], (1, 0), 1
    for c in reversed(coeffs):
        out.append(GaussianRational(*_gi_mul(c, w), den))
        w, den = _gi_mul(w, conj), den * norm
    return out[::-1]


def _point(v: Sequence[GInt]) -> ProjPoint:
    """The point of a nonzero Z[i] vector, scaled to 1 at its first nonzero
    coordinate by the conjugate over the norm."""
    x = next(x for x in v if x != (0, 0))
    return ProjPoint([GaussianRational(*_gi_mul(y, (x[0], -x[1])), _gi_norm(x))
                      for y in v])


def _eigenlines(ms: Sequence[ZMat], det: GInt, basis: List[List[GInt]]
                ) -> Tuple[List[ProjPoint], bool]:
    """Split the span of basis, a _kernel that each of ms, m_j = det M_j
    with det = det H(y0), maps into itself and on which they commute,
    into the eigenspaces of M_1 for its eigenvalues in Q(i), and each of
    those into the eigenspaces of M_2: (the lines among those joint
    eigenspaces, whether every eigenvalue lay in Q(i) and every joint
    eigenspace is a line).  On a span, R / s is the matrix of M_j
    (_eigenpolynomial), and an eigenvalue (a + b i) / d enters as
    d R - s (a + b i) I."""
    spaces, split = [basis] if basis else [], True
    for m in ms:
        parts = []
        for space in spaces:
            if len(space) == 1:
                parts.append(space)
                continue
            r, s = _restriction(m, space)[0], _gi_mul(det, _scale(space))
            roots, full = gaussian_roots(_eigenpolynomial(r, s))
            split = split and full
            for lam in roots:
                u = _gi_mul(s, (lam.a, lam.b))
                shifted = [[(lam.d * x[0] - u[0] * (i == j), lam.d * x[1] - u[1] * (i == j))
                            for j, x in enumerate(row)] for i, row in enumerate(r)]
                parts.append(_span(space, _kernel(shifted, len(space))))
        spaces = parts
    return ([_point(s[0]) for s in spaces if len(s) == 1],
            split and all(len(s) == 1 for s in spaces))


def recognize_normal_form(f: HomPoly) -> GaloisReport:
    """The report of enumerate_outer_galois_points, whose normal_form names
    the paper's normal form of f from its number of outer Galois points."""
    return enumerate_outer_galois_points(f)


def enumerate_outer_galois_points(f: HomPoly) -> GaloisReport:
    """Every outer Galois point of a smooth quartic: the lines among the
    joint eigenspaces of the Hessian pencil ((d) of the module docstring),
    each kept with sigma_P as its verified generator, proved complete when
    every eigenvalue lies in Q(i) and every joint eigenspace is a line.
    require_smooth refuses a singular f first, and when it stops at f's
    blocks the pencil runs after it.  A proved-complete count outside
    {0, 1, 2, 4} raises ConsistencyError."""
    pairs, complete = require_smooth(f) or _pencil(f)
    if complete and len(pairs) not in (0, 1, 2, 4):
        raise ConsistencyError(
            f"certified search returned {len(pairs)} Galois points; "
            "only 0, 1, 2 or 4 are possible for a smooth quartic")
    return GaloisReport(f, pairs, None if complete else POINTS_NOT_RECOVERED)


def _pencil(f: HomPoly) -> Tuple[Pairs, bool]:
    """The verified points of f off the Hessian pencil, and whether they
    are proved complete: y0 is the first point of _PENCIL at which the
    Hessian is invertible, y1 and y2 the other two, else y0 walks the
    grid {1..9}**4 once the cone test of (d) in the module docstring has
    passed: a cone is refused by its dependent partials.  All of it runs
    on Z[i] integers, with adj H(y0) in place of H(y0)^-1.  No smoothness
    certificate runs here."""
    hs = [_hessian(f, y) for y in _PENCIL]
    grid = (_hessian(f, y) for y in product(range(1, 10), repeat=4))
    for k, h0 in enumerate(chain(hs, grid)):
        # before the grid: a cone, whose partials are dependent
        if k == len(hs) and len(_echelon([[g.num.get(m, (0, 0)) for m, _w in _CUBIC]
                                          for g in partials(f)], len(_CUBIC))[1]) < 4:
            raise SingularSurfaceError(_SINGULAR)
        adj, det = _adjugate(h0)
        if det != (0, 0):
            break
    h1, h2 = (hs[:k] + hs[k + 1:])[:2]
    m1, m2 = _product(adj, h1), _product(adj, h2)
    lines, complete = _eigenlines((m1, m2), det, _invariant_kernel(m1, m2, h1))
    return _verified_pairs(f, lines), complete
