"""Exact projective geometry predicates for quartics.

Smoothness is decided on the Jacobian ideal.  If the n partials of a
form of degree d in n variables have no common projective zero, they
form a regular sequence, and by Macaulay's bound the ideal they
generate contains every form of degree D = n(d-2)+1 (9 for surfaces, 7
for plane quartics).  Conversely a common zero supports a point
evaluation that kills that graded piece.  So the degree-D Macaulay
matrix has full rank exactly when the zero set is empty.  The partials
enter the solver's modular search (solver._searches) as their Z[i]
numerators (HomPoly.num, each divided by its content); the solver alone
walks the certificate primes, and this module keeps only the policy.
A variable that f lacks proves singular.  The others are grouped into
blocks that no monomial mixes, and f is smooth exactly when each
block's form F_i (f with the other variables set to 0) is: a common
zero of the partials is nonzero on some block, where it is a critical
point of F_i, and one of F_i padded with zeros is one of f.  A block of
one or two variables needs no matrix: c*x**4 is smooth, and a binary
form is exactly when its linear factors are distinct, the gcd test of
squarefree_profile that line sections use.  A block of 3 or more
variables is decided alone, in up to three steps:
  1. at each certificate prime p the search builds the matrix modulo a
     Gaussian prime above p, with its columns in degree-reverse-lex
     order and without the rows that the Koszul syzygies among the
     partials put in the span of the others, and takes its rank,
     eliminating only the rows whose leading column an earlier row
     already has; full rank proves smooth, and nothing more is built;
  2. if the image at the first prime is deficient, the search's exact
     zeros are asked for: the common zeros of the partials mod p, read
     off the same degree-D echelon and lifted to Q(i) one at a time
     (reconstructed at p, or Newton-lifted when the zero is reduced),
     and the first exact common zero of the partials proves singular
     (by Euler's identity it lies on the quartic); the zeros after it
     are never computed, so the degree-D matrix is built and eliminated
     once per verdict;
  3. otherwise the next prime, and at the end exact elimination.
No command calls these tests itself: galois.require_smooth chooses each
certificate ((f) of its docstring), is_smooth_surface for a surface
whose variables split or with no Galois point, and
jacobian_ideal_is_irrelevant for the form left on its points' polar planes.
`section` certifies what it reports: the smoothness of a plane section
and the distinct points of a line section (squarefree_profile).  A
section along a fixed eigenspace of an automorphism of a certified
surface is read off its zero test instead (section_of_form with fixed,
proved in the k3 module docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .errors import DegenerateInputError, UnnormalizedAutomorphismError
from .gaussian import FOURTH_ROOTS, GaussianRational
from .linalg import Matrix, SparseRow, prove_full_column_rank
from .poly import (HomPoly, ProjPoint, monomials, partials, restrict,
                   squarefree_profile, substitute_linear)
from .solver import _primitive, _searches

SubspaceBasis = Sequence[Union[ProjPoint, Sequence]]


def macaulay_rows(gens: Sequence[HomPoly], target_degree: int) -> Tuple[List[SparseRow], int]:
    """Rows of the degree-`target_degree` Macaulay matrix of the generators.

    Row (m, g) is the monomial multiple m*g written in the basis of all
    degree-`target_degree` monomials; the column count is returned with
    the rows.
    """
    nvars = gens[0].nvars
    cols = monomials(nvars, target_degree)
    col_index: Dict[Tuple[int, ...], int] = {e: k for k, e in enumerate(cols)}
    rows: List[SparseRow] = []
    for g in gens:
        shift = target_degree - g.degree
        if shift < 0:
            raise ValueError("generator degree exceeds target degree")
        for mult in monomials(nvars, shift):
            row: SparseRow = {}
            for exp, coeff in g.terms.items():
                e = tuple(a + b for a, b in zip(exp, mult))
                row[col_index[e]] = coeff
            rows.append(row)
    return rows, len(cols)


def variable_blocks(f: HomPoly) -> List[Set[int]]:
    """The classes of f's variables that no monomial of f mixes; a variable
    that f lacks is a class alone."""
    blocks = [{v} for v in range(f.nvars)]
    for exp in f.num:  # merge the blocks that the monomial meets
        hit = [b for b in blocks if any(exp[v] for v in b)]
        blocks = [b for b in blocks if b not in hit] + [set().union(*hit)]
    return blocks


def jacobian_ideal_is_irrelevant(f: HomPoly) -> bool:
    """True iff the partials of f have no common projective zero, by the
    steps of the module docstring."""
    gens = partials(f)
    if any(g.is_zero() for g in gens):
        return False
    if f.nvars <= 2:
        return f.nvars == 1 or max(squarefree_profile(f)) == 1
    blocks = variable_blocks(f)
    if len(blocks) > 1:
        return all(jacobian_ideal_is_irrelevant(restrict(f, sorted(b)))
                   for b in blocks)
    n, k = f.nvars, f.degree - 1
    target = n * (k - 1) + 1
    forms = [_primitive(g) for g in gens]
    for j, (h, search) in enumerate(_searches(forms, n, k, target - 1)):
        if h == 0:
            return True
        # a full-rank image returns, so the first prime is the first deficient one
        if j == 0 and next(search()[1], None) is not None:
            return False
    return prove_full_column_rank(*macaulay_rows(gens, target))


def is_smooth_surface(f: HomPoly) -> bool:
    """Exact smoothness test for a quartic surface in P^3."""
    if f.nvars != 4 or f.degree != 4:
        raise ValueError("expected a quartic form in 4 variables")
    if f.is_zero():
        raise ValueError("zero form does not define a surface")
    return jacobian_ideal_is_irrelevant(f)


def is_smooth_plane_quartic(f: HomPoly) -> bool:
    """Exact smoothness test for a plane quartic curve."""
    if f.nvars != 3 or f.degree != 4:
        raise ValueError("expected a quartic form in 3 variables")
    if f.is_zero():
        raise ValueError("zero form does not define a curve")
    return jacobian_ideal_is_irrelevant(f)


@dataclass(eq=False)
class EigenDecomposition:
    """Exact eigenstructure of a matrix with M**4 == identity.

    eigenvalues lists the 4th roots of unity with nonzero eigenspace in
    the canonical order 1, -1, i, -i; spaces[k] is an exact basis of
    the corresponding eigenspace.
    """
    eigenvalues: List[GaussianRational]
    spaces: List[List[Tuple[GaussianRational, ...]]]

    def space_of(self, mu: GaussianRational) -> Optional[List[Tuple[GaussianRational, ...]]]:
        return dict(zip(self.eigenvalues, self.spaces)).get(mu)


def eigen_decompose_order4(m: Matrix) -> EigenDecomposition:
    """Exact eigenspaces of a 4x4 matrix satisfying M**4 == I.

    Such a matrix is diagonalizable with eigenvalues among the 4th
    roots of unity, so kernel extraction per root is a complete
    decomposition.  Conversely, since x**4 - 1 is squarefree, eigenspaces
    for the 4th roots of unity of total dimension 4 give M**4 == I, so
    that sum is the whole check.  Anything else is rejected: rescale the
    matrix so that its fourth power is exactly the identity before
    calling.
    """
    if m.rows != 4 or m.cols != 4:
        raise ValueError("expected a 4x4 matrix")
    eigenvalues: List[GaussianRational] = []
    spaces: List[List[Tuple[GaussianRational, ...]]] = []
    for mu in FOURTH_ROOTS:  # the kernel of m - mu*I, mu subtracted in place
        basis = Matrix(4, 4, [e - mu if k % 5 == 0 else e
                              for k, e in enumerate(m.entries)]).kernel_basis()
        if basis:
            eigenvalues.append(mu)
            spaces.append(basis)
    if sum(map(len, spaces)) != 4:
        raise UnnormalizedAutomorphismError(
            "matrix does not satisfy M**4 == I; rescale the matrix "
            "(projective automorphisms must be normalized inside Q(i))")
    return EigenDecomposition(eigenvalues, spaces)


_ROOT_POWERS = (0, 2, 1, 3)  # i**_ROOT_POWERS[n] == FOURTH_ROOTS[n]


@dataclass(frozen=True)
class EigenForm:
    """A quartic f in the eigen-coordinates of a matrix m with m**4 == I, as
    eigen_form(f, m) builds it: B has the eigenvectors of
    eigen_decompose_order4(m) as its columns (`points`, each scaled as a
    ProjPoint), m B e_j = i**powers[j] B e_j, and form is g = f(B y).  Every
    eigenspace of a power of m is then a coordinate subspace of y, along
    which f is g with the others set to 0.
    """
    points: List[ProjPoint]
    powers: List[int]
    form: HomPoly

    def eigenspaces(self, power: int) -> List[Tuple[GaussianRational, Tuple[int, ...]]]:
        """(eigenvalue, coordinates in y) of each eigenspace of m**power, in
        the order 1, -1, i, -i of FOURTH_ROOTS."""
        out = []
        for k, mu in zip(_ROOT_POWERS, FOURTH_ROOTS):
            coords = tuple(j for j, kj in enumerate(self.powers) if kj * power % 4 == k)
            if coords:
                out.append((mu, coords))
        return out


def eigen_form(f: HomPoly, m: Matrix) -> EigenForm:
    """f in the eigen-coordinates of m: one decomposition of m, with its
    errors, and one pullback of f."""
    eig = eigen_decompose_order4(m)
    points = [ProjPoint(v) for space in eig.spaces for v in space]
    powers = [_ROOT_POWERS[FOURTH_ROOTS.index(mu)]
              for mu, space in zip(eig.eigenvalues, eig.spaces) for _ in space]
    b = Matrix.from_columns([list(p.coords) for p in points])
    return EigenForm(points, powers, substitute_linear(f, b))


@dataclass(eq=False)
class CurveSection:
    """The intersection of a surface with a linear subspace of P^3.

    kind is one of "plane-quartic", "line-in-surface", "finite-points"
    or "point".  A smooth plane quartic has genus 3; a line contained
    in the surface has genus 0; finite sections carry the exact count
    of distinct points.
    """
    ambient: Tuple[ProjPoint, ...]
    form: HomPoly
    kind: str
    smooth: Optional[bool]
    genus: Optional[int]
    point_count: Optional[int]

    def __repr__(self) -> str:
        return (f"CurveSection(kind={self.kind}, genus={self.genus}, "
                f"smooth={self.smooth}, points={self.point_count})")


def section(f: HomPoly, basis: SubspaceBasis) -> CurveSection:
    """Restrict f to the subspace spanned by the basis points.

    dim 3 -> plane quartic (with smoothness and genus); dim 2 -> either
    a line contained in the surface or the finite set of intersection
    points, counted without multiplicity; dim 1 -> point membership.
    """
    pts = [v if isinstance(v, ProjPoint) else ProjPoint(list(v)) for v in basis]
    k = len(pts)
    if f.nvars != 4 or f.degree != 4:
        raise ValueError("expected a quartic form in 4 variables")
    if k not in (1, 2, 3):
        raise ValueError("subspace basis must contain 1, 2 or 3 points")
    b = Matrix.from_columns([list(p.coords) for p in pts])
    if b.rank() != k:
        raise ValueError("subspace basis is linearly dependent")
    g = (HomPoly(1, 4, {(4,): f.eval(pts[0].coords)}) if k == 1
         else substitute_linear(f, b))
    return section_of_form(tuple(pts), g)


def section_of_form(ambient: Tuple[ProjPoint, ...], g: HomPoly,
                    fixed: bool = False) -> CurveSection:
    """The section along the span of 1, 2 or 3 independent points, from g,
    the quartic in the coordinates of ambient.  fixed is the caller's
    premise that the span is an eigenspace of a finite-order automorphism
    of a surface proved smooth: a plane section is then a smooth quartic
    and a line not in the surface meets it in 4 distinct points (the k3
    module docstring), so nothing beyond g's zero test is computed.
    """
    k = len(ambient)
    if k == 1:
        return CurveSection(ambient, HomPoly.zero(1, 4), "point",
                            None, None, 1 if g.is_zero() else 0)
    if k == 2:
        if g.is_zero():
            return CurveSection(ambient, g, "line-in-surface", True, 0, None)
        count = 4 if fixed else len(squarefree_profile(g))
        return CurveSection(ambient, g, "finite-points", None, None, count)
    if g.is_zero():
        raise DegenerateInputError(
            "plane lies inside the quartic; the surface is singular")
    smooth = fixed or is_smooth_plane_quartic(g)
    return CurveSection(ambient, g, "plane-quartic", smooth,
                        3 if smooth else None, None)
