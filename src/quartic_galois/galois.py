"""Outer Galois points of smooth quartic surfaces.

A point P off a smooth quartic S is an outer Galois point when the
projection away from P makes the function-field extension Galois; for
quartic surfaces the group is then cyclic of order 4 and its generator
is a linear homology of period 4 centered at P.

Algebraic criterion used throughout this module.  Complete P to a
basis and write f = c0*T**4 + c1*T**3 + c2*T**2 + c3*T + c4 with c_k a
form of degree k in the complementary variables and c0 = f(P) != 0.
The shear T -> T - c1/(4 c0) always kills the T**3 coefficient; it
kills the T**2 and T coefficients simultaneously exactly when

    8*c0*c2 == 3*c1**2   and   8*c0**2*c3 == 4*c0*c1*c2 - c1**3,

in which case f is equivalent, through a transformation fixing P, to
the split form T**4 + (quartic in the complementary variables), which
is a cyclic Kummer extension since i lies in the ground field.
Equivalently (and basis-freely): the two identities hold iff the first
polar of f at P is a nonzero perfect cube of a linear form, which is
what the enumerator searches for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (ConsistencyError, InnerPointError, SingularSurfaceError)
from .gaussian import ZERO, ONE, I, GaussianRational
from .geometry import is_smooth_surface
from .linalg import Matrix
from .poly import HomPoly, ProjPoint, substitute_linear, x_decompose
from .solver import cube_locus_quadrics, solve_projective

PROVED_COMPLETE = "proved-complete"
CANDIDATES_ONLY = "candidates-only"


@dataclass(frozen=True)
class LinearAuto:
    """An exact linear automorphism of a quartic: f(M x) == multiplier * f."""
    matrix: Matrix
    multiplier: GaussianRational

    def projective_order(self) -> int:
        m = self.matrix
        if m.is_scalar():
            return 1
        if (m * m).is_scalar():
            return 2
        return 4


def linear_auto(f: HomPoly, m: Matrix) -> LinearAuto:
    """Validate that m preserves the surface of f and package it.

    Requires m**4 == identity exactly (the normalization every homology
    in scope satisfies); computes and checks the multiplier.
    """
    from .errors import SurfaceNotPreservedError, UnnormalizedAutomorphismError
    if m.rows != 4 or m.cols != 4:
        raise ValueError("expected a 4x4 matrix")
    if f.is_zero():
        raise ValueError("zero form does not define a surface")
    if not (m ** 4).is_identity():
        raise UnnormalizedAutomorphismError(
            "matrix does not satisfy M**4 == I; rescale it inside Q(i)")
    lam = _multiplier(f, substitute_linear(f, m))
    if lam is None or lam.is_zero():
        raise SurfaceNotPreservedError(
            "matrix does not map the surface to itself")
    return LinearAuto(m, lam)


def _multiplier(f: HomPoly, g: HomPoly) -> Optional[GaussianRational]:
    """The lam with g == lam * f exactly, or None when there is none."""
    exp0, coeff0 = next(iter(f.sorted_terms()))
    lam = g.coeff(exp0) / coeff0
    return lam if g == f.scale(lam) else None


@dataclass
class GaloisReport:
    """Outcome of a Galois-point test or search.

    reason is None when the list of points is proved complete, and says
    why it is not otherwise: "hilbert-not-stable" or
    "points-not-recovered" (see the solver module).
    """
    surface: HomPoly
    points: List[Tuple[ProjPoint, LinearAuto]]
    normal_form: str
    reason: Optional[str] = None

    @property
    def completeness(self) -> str:
        return PROVED_COMPLETE if self.reason is None else CANDIDATES_ONLY

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


@lru_cache(maxsize=256)
def _smooth_cached(f: HomPoly) -> bool:
    return is_smooth_surface(f)


def _require_smooth(f: HomPoly) -> None:
    if not _smooth_cached(f):
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


def _chart_coefficients(f: HomPoly, p: ProjPoint,
                        basis: Optional[Matrix] = None) -> List[HomPoly]:
    b = basis if basis is not None else adapted_basis(p)
    fb = substitute_linear(f, b)
    return x_decompose(fb, 0).c


def _is_split_chart(c: List[HomPoly]) -> bool:
    """The two identities of the module docstring on chart coefficients."""
    c0 = c[0].coeff((0, 0, 0))
    eight_c0 = GaussianRational(8) * c0
    if c[2].scale(eight_c0) != (c[1] * c[1]).scale(3):
        return False
    lhs = c[3].scale(eight_c0 * c0)
    rhs = (c[1] * c[2]).scale(GaussianRational(4) * c0) - c[1] * c[1] * c[1]
    return lhs == rhs


def _check_off_surface(f: HomPoly, p: ProjPoint, check_smooth: bool) -> None:
    if check_smooth:
        _require_smooth(f)
    if f.eval(p.coords).is_zero():
        raise InnerPointError(
            "point lies on the surface: inner Galois points are out of scope")


def is_outer_galois_point(f: HomPoly, p: ProjPoint, *,
                          check_smooth: bool = True,
                          basis: Optional[Matrix] = None) -> bool:
    """Decide whether p (off the surface) is an outer Galois point of f.

    The verdict does not depend on the basis completion; a specific one
    may be supplied to exercise exactly that covariance.
    """
    _check_off_surface(f, p, check_smooth)
    return _is_split_chart(_chart_coefficients(f, p, basis))


def galois_generator(f: HomPoly, p: ProjPoint, *,
                     check_smooth: bool = True) -> LinearAuto:
    """The order-4 homology generating the Galois group at p.

    The generator is the homology x -> x + (i - 1) * ell(x) * p with
    center p, where ell is the linear form with ell(p) = 1 read off the
    chart's shear: ell is the coordinate T of the module docstring after
    the shear, in which the generator is diag(i, 1, 1, 1).  The exact
    relation f(M x) == multiplier * f is re-verified.
    """
    _check_off_surface(f, p, check_smooth)
    gen = _generator_or_none(f, p)
    if gen is None:
        raise ValueError(f"{p} is not an outer Galois point of this quartic")
    return gen


def _generator_or_none(f: HomPoly, p: ProjPoint) -> Optional[LinearAuto]:
    """The Galois generator at p (off the surface), or None when p is not
    an outer Galois point; the chart expansion is computed once."""
    c = _chart_coefficients(f, p)
    if not _is_split_chart(c):
        return None
    u = c[1].scale(ONE / (GaussianRational(4) * c[0].coeff((0, 0, 0))))
    pivot = p.pivot_index()
    rest = [j for j in range(4) if j != pivot]
    ell = [ZERO] * 4
    for k, j in enumerate(rest):
        ell[j] = u.coeff(tuple(1 if t == k else 0 for t in range(3)))
    ell[pivot] = ONE - sum((ell[j] * p[j] for j in rest), ZERO)
    shift = [(I - ONE) * x for x in p]
    m = Matrix(4, 4, [(ONE if a == b else ZERO) + shift[a] * ell[b]
                      for a in range(4) for b in range(4)])
    lam = _multiplier(f, substitute_linear(f, m))
    if lam is None:
        raise ConsistencyError(
            "constructed generator fails to preserve the surface")
    return LinearAuto(m, lam)


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------

def _split_variables(f: HomPoly) -> List[int]:
    """Variables v whose only occurrence in f is the pure power v**4."""
    out = []
    for v in range(f.nvars):
        pure = tuple(4 if t == v else 0 for t in range(f.nvars))
        if pure not in f.num:
            continue
        if all(e[v] == 0 for e in f.num if e != pure):
            out.append(v)
    return out


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


def recognize_normal_form(f: HomPoly) -> GaloisReport:
    """The report of enumerate_outer_galois_points, whose label names
    the split normal form (one, two or four pure fourth powers in the
    coordinates, up to permutation) or "unrecognized"."""
    return enumerate_outer_galois_points(f)


def _form_label(f: HomPoly) -> str:
    split = len(_split_variables(f))
    return {4: "form-3", 2: "form-2", 1: "form-1"}.get(split, "unrecognized")


def enumerate_outer_galois_points(
        f: HomPoly,
        extra_candidates: Sequence[ProjPoint] = ()) -> GaloisReport:
    """Search for every outer Galois point of a smooth quartic.

    The outer Galois points are among the common zeros of the
    cube-locus quadrics, a basis mod each certificate prime of the cube
    condition's minors, whose zeros contain those of all the minors.
    solver.solve_projective finds them mod p, lifts them to Q(i) and
    keeps each only as an exact zero.  Those, the four coordinate points
    and any user candidates are then tested exactly for the Galois
    property and given their verified generators, so every reported
    point is correct whatever the search proved.  The report is
    proved-complete only when the solver's Hilbert-function count
    certifies that no complex zero was missed; otherwise it is
    candidates-only with the solver's reason.  A proved-complete point
    count outside {0, 1, 2, 4} is impossible for smooth quartics and
    raises ConsistencyError.
    """
    if f.nvars != 4 or f.degree != 4:
        raise ValueError("expected a quartic form in 4 variables")
    _require_smooth(f)
    sols, reason = solve_projective(cube_locus_quadrics(f), 4)
    candidates = list(sols)
    candidates.extend(_coordinate_point(v) for v in range(4))
    candidates.extend(extra_candidates)
    pairs = _verified_pairs(f, candidates)
    if reason is None and len(pairs) not in (0, 1, 2, 4):
        raise ConsistencyError(
            f"certified search returned {len(pairs)} Galois points; "
            "only 0, 1, 2 or 4 are possible for a smooth quartic")
    return GaloisReport(f, pairs, _form_label(f), reason)
