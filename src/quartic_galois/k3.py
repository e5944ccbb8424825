"""K3-side analysis of quartic automorphisms.

A smooth quartic surface in P^3 is a K3 surface; a linear automorphism
M with f(M x) = multiplier * f acts on the nowhere-vanishing 2-form by

    u = det(M) / multiplier

(through the residue representation of the 2-form), so u decides the
character: u == 1 symplectic, u primitive 4th root purely
non-symplectic of order 4, u == -1 with projective order 4 non-purely
non-symplectic.  Every entry point takes the pair (f, M) and derives the
rest from it with one call of galois.linear_auto: the multiplier, and f
in the eigen-coordinates of M (geometry.EigenForm), M decomposed once and
f pulled back once to g = f(B y), where M = diag(i**k_j).  So
det(M) = i**(k_1 + ... + k_4), and the fixed loci of M and M**2 are
sections of g along coordinate subspaces, classified against the
embedded tables for order-4 automorphisms.  The invariant-lattice rank r
is never computed from cohomology: it is read off the table row selected
by the computable data, and reports label it as such.

The sections need no certificate beyond the surface's.  The fixed scheme
of a finite-order automorphism of a smooth variety is smooth (Cartan's
linearization; Fogarty, Fixed point schemes, Amer. J. Math. 95, 1973).
M preserves S = {f = 0}, so the fixed scheme S^M is, as a scheme, the
intersection of S with (P^3)^M, the reduced disjoint union of the
projectivized eigenspaces of M: S meets each of them in a smooth scheme,
and so for M**2.  So once S is certified, a fixed plane cuts S in a
smooth plane quartic, of genus 3 (S is irreducible and contains no
plane); a fixed line lies on S or meets it in a reduced scheme of degree
4, that is 4 distinct points; a fixed point is on S or off it.  Each
section is read from one zero test of g restricted to its coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (ConsistencyError, DegenerateInputError,
                     NoMatchingTypeError, SingularSurfaceError)
from .gaussian import I, MINUS_ONE, ONE, GaussianRational
from .galois import LinearAuto, linear_auto
from .geometry import (CurveSection, EigenForm, is_smooth_surface,
                       section_of_form)
from .linalg import Matrix, centralizer_dimension
from .poly import HomPoly, restrict

# classification rows for purely non-symplectic order 4 with a fixed
# curve of genus > 1: (k, a, g) -> r of the tuple (r, k, a, g)
PURELY_NS_ROWS: Dict[Tuple[int, int, int], int] = {
    (0, 0, 3): 1,
    (0, 0, 2): 4,
    (0, 1, 3): 2,
    (0, 1, 2): 5,
    (0, 2, 2): 6,
}

# non-purely non-symplectic order 4: n -> (r, l)
NPNS_ROWS: Dict[int, Tuple[int, int]] = {
    0: (6, 8),
    2: (7, 7),
    4: (8, 6),
    6: (9, 5),
    8: (10, 4),
}

# embedded constants for the maximal (four Galois points) case; these
# are classification facts about the surface, not computed from the
# equation
SINGULAR_K3_PICARD_NUMBER = 20
MAX_OUTER_GALOIS_COUNT = 4

CHAR_SYMPLECTIC = "symplectic"
CHAR_PURELY_NS = "purely-ns-4"
CHAR_NPNS = "npns"


def symplectic_character(f: HomPoly, m: Matrix) -> GaussianRational:
    """The eigenvalue of the automorphism m of f on the holomorphic 2-form:
    det(m), the product of m's eigenvalues, over the multiplier."""
    return _character(linear_auto(f, m))


def _character(auto: LinearAuto) -> GaussianRational:
    u = I ** sum(auto.eigen.powers) / auto.multiplier
    if u ** 4 != ONE:
        raise ConsistencyError("character is not a 4th root of unity")
    return u


@dataclass
class FixedLocusReport:
    """Exact decomposition of the fixed locus on the surface.

    sections lists (eigenvalue, CurveSection) in the canonical
    eigenvalue order 1, -1, i, -i; curves collects the curve components
    (with genus); isolated_points is the exact count n of isolated
    fixed points.  sigma_squared holds the same data for the square of
    the automorphism, None when the square is scalar.
    """
    sections: List[Tuple[GaussianRational, CurveSection]]
    curves: List[CurveSection]
    isolated_points: int
    sigma_squared: Optional["FixedLocusReport"]

    @property
    def a_count(self) -> Optional[int]:
        """The number of curve pairs fixed by the square that the
        automorphism swaps, None without a square: 0, since a fixed curve
        of M**2 spans a coordinate subspace of y, which the diagonal M
        preserves, and it is irreducible, so M swaps no pair."""
        return None if self.sigma_squared is None else 0

    def to_dict(self) -> Dict:
        data: Dict = {
            "curves": [{"genus": c.genus, "smooth": bool(c.smooth)}
                       for c in self.curves],
            "n": self.isolated_points,
            "a": self.a_count,
            "eigen_sections": [
                {"eigenvalue": str(mu), "kind": s.kind,
                 "genus": s.genus, "points": s.point_count}
                for mu, s in self.sections
            ],
        }
        if self.sigma_squared is not None:
            data["square"] = {
                "curves": [{"genus": c.genus, "smooth": bool(c.smooth)}
                           for c in self.sigma_squared.curves],
                "n": self.sigma_squared.isolated_points,
            }
        return data


def _fixed_data(eig: EigenForm, power: int) -> Tuple[List, List, int]:
    """The sections along the eigenspaces of M**power (g with the other
    variables set to 0, each read off its zero test: module docstring), the
    fixed curves among them and the isolated-point count."""
    taken = [(mu, section_of_form(tuple(eig.points[j] for j in coords),
                                  restrict(eig.form, coords), fixed=True))
             for mu, coords in eig.eigenspaces(power)]
    curves = [s for _, s in taken if s.kind in ("plane-quartic", "line-in-surface")]
    return taken, curves, sum(s.point_count or 0 for _, s in taken)


def fixed_locus(f: HomPoly, m: Matrix) -> FixedLocusReport:
    """Exact fixed locus of the automorphism m of f on the surface, and of
    its square, with the swapped-curve count.

    The fixed set in P^3 is the disjoint union of the projectivized
    eigenspaces, each a coordinate subspace of y in the eigen-coordinates
    of M, intersected with the surface.  Smoothness is certified on
    g = f(B y) when g has fewer terms than f, else on f: both are smooth
    together, and g often splits into blocks certified alone; it is the
    only certificate (module docstring).  Errors come in the order:
    linear_auto's error on M, singular surface, then scalar matrix.
    """
    return _fixed_locus(f, linear_auto(f, m))


def _fixed_locus(f: HomPoly, auto: LinearAuto) -> FixedLocusReport:
    eig = auto.eigen
    g = eig.form if len(eig.form.num) < len(f.num) else f
    if not is_smooth_surface(g):
        raise SingularSurfaceError("fixed loci require a smooth quartic")
    if auto.matrix.is_scalar():
        raise DegenerateInputError("matrix is scalar: the identity on P^3")
    sections, curves, isolated = _fixed_data(eig, 1)
    if len(eig.eigenspaces(2)) == 1:  # M**2 is scalar
        return FixedLocusReport(sections, curves, isolated, None)
    square = FixedLocusReport(*_fixed_data(eig, 2), None)
    return FixedLocusReport(sections, curves, isolated, square)


@dataclass(frozen=True)
class AutomorphismType:
    """Classification of an order-4 automorphism of a quartic K3."""
    character: str
    type_tuple: Optional[Tuple[int, ...]]
    table_source: Optional[str]


def isolated_point_formula(genera: Sequence[int]) -> int:
    """n = 2 * sum over fixed curves of (1 - genus) + 4."""
    return 2 * sum(1 - g for g in genera) + 4


def classify(f: HomPoly, m: Matrix) -> AutomorphismType:
    """Match the character and fixed-locus data of the automorphism m of f
    against the order-4 tables.

    Raises NoMatchingTypeError when the data fits no table row, which
    signals a degenerate surface or a violated hypothesis rather than a
    new type.
    """
    return _classification(f, m)[2]


def _classification(f: HomPoly, m: Matrix
                    ) -> Tuple[GaussianRational, FixedLocusReport, AutomorphismType]:
    """The character, the fixed locus and the type, m decomposed once."""
    auto = linear_auto(f, m)
    u, report = _character(auto), _fixed_locus(f, auto)
    if u == ONE:
        if report.curves:
            raise NoMatchingTypeError(
                "symplectic automorphism with a fixed curve: impossible "
                "for K3 surfaces")
        return u, report, AutomorphismType(CHAR_SYMPLECTIC, None, None)
    if u == MINUS_ONE:
        if len(auto.eigen.eigenspaces(2)) == 1:  # M**2 is scalar
            raise NoMatchingTypeError(
                "character -1 but projective order is not 4; the order-4 "
                "tables do not apply")
        if report.curves:
            raise NoMatchingTypeError(
                "non-purely non-symplectic automorphism with a fixed "
                "curve: impossible for K3 surfaces")
        n = report.isolated_points
        row = NPNS_ROWS.get(n)
        if row is None:
            raise NoMatchingTypeError(
                f"isolated point count n={n} matches no non-purely row")
        r, l = row
        return u, report, AutomorphismType(
            CHAR_NPNS, (r, l, n),
            "order-4 non-purely non-symplectic table (r table-derived)")
    # u is a primitive 4th root: purely non-symplectic of order 4
    genera = [c.genus for c in report.curves]
    k = sum(1 for g in genera if g == 0)
    high = [g for g in genera if g is not None and g > 1]
    if len(high) != 1:
        raise NoMatchingTypeError(
            "purely non-symplectic table applies only when the fixed "
            "locus contains exactly one curve of genus > 1")
    g = high[0]
    a = report.a_count if report.a_count is not None else 0
    r = PURELY_NS_ROWS.get((k, a, g))
    if r is None:
        raise NoMatchingTypeError(
            f"(k, a, g) = ({k}, {a}, {g}) matches no purely "
            "non-symplectic row")
    expected_n = isolated_point_formula([gg for gg in genera if gg is not None])
    if report.isolated_points != expected_n:
        raise NoMatchingTypeError(
            f"isolated point count {report.isolated_points} violates the "
            f"fixed-point formula value {expected_n}")
    return u, report, AutomorphismType(
        CHAR_PURELY_NS, (r, k, a, g),
        "order-4 purely non-symplectic table (r table-derived)")


def serialize_classification(f: HomPoly, m: Matrix) -> Dict:
    """Stable report document; field names are fixed for golden tests."""
    u, report, atype = _classification(f, m)
    return {
        "character": atype.character,
        "character_value": str(u),
        "curves": [{"genus": c.genus, "smooth": bool(c.smooth)}
                   for c in report.curves],
        "n": report.isolated_points,
        "a": report.a_count,
        "type_tuple": list(atype.type_tuple) if atype.type_tuple else None,
        "table_source": atype.table_source,
    }


# ---------------------------------------------------------------------------
# Hurwitz utility.
# ---------------------------------------------------------------------------

def solve_m(g_top: int, g_base: int) -> int:
    """Ramification count forced by the double-cover Hurwitz formula."""
    return (2 * g_top - 2) - 2 * (2 * g_base - 2)


# ---------------------------------------------------------------------------
# Binary even lattices.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramMatrix2:
    """The even positive-definite Gram matrix [[2a, b], [b, 2c]]."""
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.c <= 0 or self.b * self.b - 4 * self.a * self.c >= 0:
            raise ValueError("Gram matrix must be positive definite")

    @staticmethod
    def from_entries(d1: int, b: int, d2: int) -> "GramMatrix2":
        """Build from the matrix entries (d1, b / b, d2); d1, d2 even."""
        if d1 % 2 or d2 % 2:
            raise ValueError("diagonal entries of an even lattice must be even")
        return GramMatrix2(d1 // 2, b, d2 // 2)

    def entries(self) -> Tuple[int, int, int, int]:
        return (2 * self.a, self.b, self.b, 2 * self.c)

    def det(self) -> int:
        return 4 * self.a * self.c - self.b * self.b

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (-a < b <= a <= c):
            return False
        return b >= 0 or (abs(b) != a and a != c)

    def __str__(self) -> str:
        e = self.entries()
        return f"[[{e[0]}, {e[1]}], [{e[2]}, {e[3]}]]"


#: Transcendental-lattice Gram matrix of the unique quartic K3 with the
#: maximal number of outer Galois points (a classification constant).
MAX_OUTER_GALOIS_TRANSCENDENTAL_GRAM = GramMatrix2(4, 0, 4)

IntMat2 = Tuple[Tuple[int, int], Tuple[int, int]]


def _mat2_mul(u: IntMat2, v: IntMat2) -> IntMat2:
    return (
        (u[0][0] * v[0][0] + u[0][1] * v[1][0],
         u[0][0] * v[0][1] + u[0][1] * v[1][1]),
        (u[1][0] * v[0][0] + u[1][1] * v[1][0],
         u[1][0] * v[0][1] + u[1][1] * v[1][1]),
    )


def reduce_gram(g: GramMatrix2) -> Tuple[GramMatrix2, IntMat2]:
    """Gauss reduction to the canonical representative of the class.

    Returns (reduced, U) with U in SL2(Z) and U^T G U == reduced; the
    canonical form satisfies |b| <= a <= c in form coordinates with
    b >= 0 whenever |b| == a or a == c.  Two even positive-definite
    Gram matrices are equivalent iff their canonical forms coincide.
    """
    a, b, c = g.a, g.b, g.c
    u: IntMat2 = ((1, 0), (0, 1))
    swap: IntMat2 = ((0, -1), (1, 0))
    while True:
        if not (-a < b <= a):
            t = (a - b) // (2 * a)
            b2 = b + 2 * a * t
            c2 = a * t * t + b * t + c
            u = _mat2_mul(u, ((1, t), (0, 1)))
            b, c = b2, c2
        if a > c:
            a, b, c = c, -b, a
            u = _mat2_mul(u, swap)
            continue
        break
    if a == c and b < 0:
        a, b, c = c, -b, a
        u = _mat2_mul(u, swap)
    reduced = GramMatrix2(a, b, c)
    if not reduced.is_reduced():
        raise ConsistencyError("reduction postcondition failed")
    if _transform(g, u) != (a, b, c):
        raise ConsistencyError("transform does not realize the reduction")
    return reduced, u


def _transform(g: GramMatrix2, u: IntMat2) -> Tuple[int, int, int]:
    # coefficients of the form after the substitution v -> U v
    p, q = u[0]
    r, s = u[1]
    a2 = g.a * p * p + g.b * p * r + g.c * r * r
    b2 = 2 * g.a * p * q + g.b * (p * s + q * r) + 2 * g.c * r * s
    c2 = g.a * q * q + g.b * q * s + g.c * s * s
    return (a2, b2, c2)


def is_isomorphic_gram(g1: GramMatrix2, g2: GramMatrix2) -> bool:
    """SL2(Z)-equivalence, decided by equality of canonical forms."""
    return reduce_gram(g1)[0] == reduce_gram(g2)[0]


# ---------------------------------------------------------------------------
# Moduli counts.
# ---------------------------------------------------------------------------

def moduli_dimension(family_monomial_count: int,
                     automorphisms: Sequence[Matrix]) -> int:
    """Naive family dimension: parameters minus the linear symmetry
    dimension (the centralizer of the prescribed automorphisms)."""
    if family_monomial_count > 35:
        raise ValueError(f"{family_monomial_count} monomials exceed 35, the "
                         "number of quartic monomials in X, Y, Z, W")
    dim = family_monomial_count - centralizer_dimension(list(automorphisms))
    if dim < 0:
        raise ValueError(
            "negative dimension: the family is not generically free "
            "for the given symmetry group")
    return dim


def npns_moduli_dim(l: int) -> int:
    """Moduli dimension of K3 surfaces with a non-purely non-symplectic
    order-4 automorphism whose (-1)-eigenspace has rank l, a sublattice
    of H^2, which has rank 22."""
    if l < 2:
        raise ValueError(f"the (-1)-eigenspace rank l = {l} is below 2, "
                         "so the dimension l - 2 would be negative")
    if l > 22:
        raise ValueError(f"the (-1)-eigenspace rank l = {l} exceeds 22, "
                         "the rank of H^2 of a K3 surface")
    return l - 2
