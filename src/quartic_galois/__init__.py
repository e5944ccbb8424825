"""Exact toolkit for outer Galois points of smooth quartic surfaces.

The package decides and enumerates outer Galois points of quartic
surfaces in P^3, constructs the order-4 Galois generators, computes
symplectic characters and exact fixed loci of linear automorphisms,
classifies order-4 automorphisms of the associated K3 surfaces by
their discrete invariants, reduces even binary Gram matrices, and
counts naive moduli dimensions.  All arithmetic is exact over Q(i).
"""

from .errors import (ConsistencyError, DegenerateInputError, InnerPointError,
                     NoMatchingTypeError, ParseError, SingularSurfaceError,
                     SurfaceNotPreservedError, UnnormalizedAutomorphismError)
from .gaussian import (FOURTH_ROOTS, GaussianRational, I, MINUS_I, MINUS_ONE,
                       ONE, ZERO, parse_gaussian)
from .linalg import Matrix, centralizer_dimension, parse_matrix
from .poly import (HomPoly, ProjPoint, XDecomposition, monomials, parse_point,
                   parse_poly, partials, polar_forms, squarefree_profile,
                   substitute_linear, x_decompose)
from .geometry import (CurveSection, EigenDecomposition,
                       eigen_decompose_order4, is_smooth_plane_quartic,
                       is_smooth_surface, section)
from .galois import (GaloisReport, LinearAuto, adapted_basis,
                     enumerate_outer_galois_points, galois_generator,
                     is_outer_galois_point, linear_auto, recognize_normal_form)
from .k3 import (AutomorphismType, FixedLocusReport, GramMatrix2,
                 MAX_OUTER_GALOIS_COUNT, MAX_OUTER_GALOIS_TRANSCENDENTAL_GRAM,
                 NPNS_ROWS, PURELY_NS_ROWS, SINGULAR_K3_PICARD_NUMBER,
                 classify, fixed_locus, is_isomorphic_gram,
                 isolated_point_formula, moduli_dimension, npns_moduli_dim,
                 reduce_gram, serialize_classification, solve_m,
                 symplectic_character)

__version__ = "0.1.0"

__all__ = [
    "AutomorphismType", "ConsistencyError", "CurveSection",
    "DegenerateInputError", "EigenDecomposition", "FixedLocusReport",
    "FOURTH_ROOTS", "GaloisReport", "GaussianRational", "GramMatrix2",
    "HomPoly", "I", "InnerPointError", "LinearAuto", "Matrix",
    "MAX_OUTER_GALOIS_COUNT", "MAX_OUTER_GALOIS_TRANSCENDENTAL_GRAM",
    "MINUS_I", "MINUS_ONE", "NoMatchingTypeError", "NPNS_ROWS", "ONE",
    "ParseError", "ProjPoint", "PURELY_NS_ROWS", "SINGULAR_K3_PICARD_NUMBER",
    "SingularSurfaceError", "SurfaceNotPreservedError",
    "UnnormalizedAutomorphismError", "XDecomposition", "ZERO",
    "adapted_basis", "centralizer_dimension", "classify",
    "eigen_decompose_order4", "enumerate_outer_galois_points", "fixed_locus",
    "galois_generator", "is_isomorphic_gram", "is_outer_galois_point",
    "is_smooth_plane_quartic", "is_smooth_surface", "isolated_point_formula",
    "linear_auto",
    "moduli_dimension", "monomials", "npns_moduli_dim", "parse_gaussian",
    "parse_matrix", "parse_point", "parse_poly", "partials", "polar_forms",
    "recognize_normal_form", "reduce_gram", "section",
    "serialize_classification", "solve_m", "squarefree_profile",
    "substitute_linear", "symplectic_character", "x_decompose",
]
