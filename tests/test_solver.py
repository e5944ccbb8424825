import random

import numpy as np
import pytest

from quartic_galois.gaussian import GaussianRational as GR
from quartic_galois.gaussian import I, ONE, ZERO
from quartic_galois.linalg import Matrix, _pivots_mod_p
from quartic_galois.poly import monomials, parse_poly, partials, substitute_linear
from quartic_galois.solver import (_CERT_PRIMES, _CERT_ROOTS, _charpoly_mod_p,
                                   _generator_rows, _macaulay,
                                   cube_locus_quadrics, resultant, solve_projective)
from quartic_galois.univariate import _matmul_mod_p

from helpers import zeros_mod_p
from oracles import oracle_cube_locus_quadrics, oracle_rref_mod_p


def _partial_forms(text):
    """The numerator maps of the partials of a quartic surface."""
    return [g.num for g in partials(parse_poly(text, 4))]


def test_resultant_sylvester():
    # Res(x^2 + 1, x - 2) = (i - 2)(-i - 2) = 5, and a common root gives 0
    assert resultant([ONE, ZERO, ONE], [GR(-2), ONE]) == GR(5)
    assert resultant([ONE, ZERO, ONE], [-I, ONE]) == ZERO
    # Res(x - a, x - b) = a - b; constants give a power of the constant
    assert resultant([GR(-3), ONE], [GR(-1, 1), ONE]) == GR(3) - GR(1, -1)
    assert resultant([GR(2)], [GR(1), GR(1), ONE]) == GR(4)


def test_zeros_of_partials_non_reduced():
    # the cone's partials X^3, Y^3, Z^3 (and 0) vanish only at the vertex,
    # a zero of length 27; the partials of (X^2+Y^2)^2+Z^4+W^4 at the two
    # points (1 : +-i : 0 : 0), of length 9 each
    p = _CERT_PRIMES[0]
    s = _CERT_ROOTS[p]
    cone = _partial_forms("X^4+Y^4+Z^4")
    h, h1, zeros = zeros_mod_p(cone, 4, p, k=3, d=9)
    zeros = list(zeros)
    assert (h, h1, len(zeros)) == (27, 27, 1)
    assert zeros[0][:3] == [0, 0, 0] and zeros[0][3] != 0
    # 4X(X^2+Y^2), 4Y(X^2+Y^2), 4Z^3, 4W^3
    square = _partial_forms("X^4+2*X^2*Y^2+Y^4+Z^4+W^4")
    h, h1, zeros = zeros_mod_p(square, 4, p, k=3, d=9)
    assert (h, h1) == (18, 18)
    affine = sorted(z[1] * pow(z[0], -1, p) % p for z in zeros)
    assert affine == sorted([s, p - s]) and all(z[2:] == [0, 0] for z in zeros)


def test_modular_matrix_arithmetic_matches_python_integers():
    # the int64 kernels against Python-integer loops, with entries near p
    # so that an unsplit product would overflow
    p = _CERT_PRIMES[0]
    rng = random.Random(4)
    for h in (1, 4, 27):
        a = [[rng.randrange(p - 2**20, p) if rng.random() < 0.5 else rng.randrange(p)
              for _ in range(h)] for _ in range(h)]
        b = [[rng.randrange(p) for _ in range(h)] for _ in range(h)]
        ab = [[sum(a[i][l] * b[l][j] for l in range(h)) % p for j in range(h)]
              for i in range(h)]
        got = _matmul_mod_p(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
        assert got.tolist() == ab
        # Faddeev-LeVerrier on Python integers
        coeffs, m = [0] * h + [1], [[0] * h for _ in range(h)]
        for k in range(1, h + 1):
            m = [[(sum(a[i][l] * m[l][j] for l in range(h))
                   + (i == j) * coeffs[h - k + 1]) % p for j in range(h)]
                 for i in range(h)]
            trace = sum(a[i][l] * m[l][i] for i in range(h) for l in range(h))
            coeffs[h - k] = -trace * pow(k, -1, p) % p
        assert _charpoly_mod_p(np.array(a, dtype=np.int64), p) == coeffs


def _random_forms(rng, n, k, count):
    return [{key: (rng.randint(-3, 3), rng.randint(-3, 3))
             for key in monomials(n, k) if rng.random() < 0.6} for _ in range(count)]


def _generator_columns(n, k, p):
    """The monomial of each column of _generator_rows, read off its row
    for each single monomial."""
    order = {}
    for key in monomials(n, k):
        row = _generator_rows([{key: (1, 0)}], n, k, p)
        order[int(row[0].argmax())] = key
    return [order[c] for c in range(len(order))]


def _full_macaulay(basis, n, k, d, index, p):
    """Every row m*g of the degree-d Macaulay matrix, none left out, in
    the engine's column order: index (as _macaulay returns it) for degree
    d, and the columns of _generator_rows for the generators."""
    gens = _generator_columns(n, k, p)
    rows = []
    for m in monomials(n, d - k):
        for g in basis:
            row = [0] * len(index)
            for t, v in zip(gens, g.tolist()):
                row[index[tuple(x + y for x, y in zip(m, t))]] = v
            rows.append(row)
    return np.array(rows, dtype=np.int64)


_RANDOM_SYSTEMS = [(4, 3, 9, 4), (3, 3, 7, 3), (4, 2, 4, 6), (4, 2, 5, 6),
                   (4, 3, 8, 4), (4, 2, 4, 3)]


@pytest.mark.parametrize("n,k,d,count", _RANDOM_SYSTEMS)
def test_pruned_macaulay_keeps_the_row_space(n, k, d, count):
    # the rows left out by the Koszul criterion change nothing: the pruned
    # matrix has the reduced echelon form of the full one
    rng = random.Random(n * 100 + k * 10 + d + count)
    p = _CERT_PRIMES[0]
    for _ in range(3):
        basis = _generator_rows(_random_forms(rng, n, k, count), n, k, p)
        mac, index = _macaulay(basis, n, k, d)
        full = _full_macaulay(basis, n, k, d, index, p)
        assert mac.shape[1] == full.shape[1] == len(index)
        assert len(mac) < len(full)
        assert oracle_rref_mod_p(mac, p) == oracle_rref_mod_p(full, p)


def test_pruned_macaulay_of_singular_partials():
    # the Dwork pencil's singular member: the degree-9 rank stays deficient
    p = _CERT_PRIMES[1]
    basis = _generator_rows(_partial_forms("X^4+Y^4+Z^4+W^4-4*X*Y*Z*W"), 4, 3, p)
    mac, index = _macaulay(basis, 4, 3, 9)
    full = _full_macaulay(basis, 4, 3, 9, index, p)
    pivots, rows = oracle_rref_mod_p(mac, p)
    assert len(pivots) < len(index)
    assert (pivots, rows) == oracle_rref_mod_p(full, p)


def test_fermat_macaulay_is_square():
    # X^3, Y^3, Z^3, W^3 is a regular sequence of monomials: the Koszul
    # criterion leaves exactly one row per degree-9 monomial
    fermat = _partial_forms("X^4+Y^4+Z^4+W^4")
    p = _CERT_PRIMES[0]
    mac, index = _macaulay(_generator_rows(fermat, 4, 3, p), 4, 3, 9)
    assert mac.shape == (220, 220) and len(index) == 220


_SHEAR = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])


@pytest.mark.parametrize("forms, k, d", [
    (_partial_forms("X^4+Y^4+Z^4+W^4-4*X*Y*Z*W"), 3, 9),
    ([g.num for g in partials(substitute_linear(parse_poly("X^4+Y^4+Z^4", 4),
                                                _SHEAR))], 3, 9),
    (_partial_forms("X^4+2*X^2*Y^2+Y^4+Z^4+W^4"), 3, 9),
    (cube_locus_quadrics(substitute_linear(
        parse_poly("X^4+Y^4+Z^4+W^4+Y^2*Z*W", 4),
        Matrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 2, 0], [0, 0, 1, 1]]))),
     2, 5),
], ids=["dwork", "cone-shear", "square", "form1-conjugate-quadrics"])
def test_back_substituted_normal_forms_match_reduced_echelon(forms, k, d):
    # the normal forms the zero finder reads off the echelon are the
    # standard-column block of the full reduced echelon form
    p = _CERT_PRIMES[0]
    mac, index = _macaulay(_generator_rows(forms, 4, k, p), 4, k, d)
    pivots, rref = oracle_rref_mod_p(mac, p)
    std = [c for c in range(len(index)) if c not in pivots]
    echelon = _pivots_mod_p(mac, p)
    assert echelon.pivots == pivots and std
    assert echelon.reduced(std, p).tolist() == [[row[c] for c in std] for row in rref]


def _height_one(seed):
    """An invertible 4x4 matrix with entries a + b*i, a, b in {-1, 0, 1}."""
    rng = random.Random(seed)
    while True:
        a = Matrix(4, 4, [GR(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(16)])
        if not a.det().is_zero():
            return a


_CUBE_LOCUS_SURFACES = [
    substitute_linear(parse_poly("X^4+Y^4+Z^4+W^4", 4), _height_one(1)),
    substitute_linear(parse_poly("X^4+Y^4+Z^4+W^4+Y^2*Z*W", 4), _height_one(2)),
    substitute_linear(parse_poly("X^4+Y^4+Z^4+Z*W^3+W^4", 4), _height_one(3)),
    parse_poly("X^4+Y^4+Z^4+W^4+2130706433*X*Y*Z*W", 4),
    parse_poly("2*X^4+24*X^2*Y^2+8*Y^4+Z^4+W^4", 4),
]


@pytest.mark.parametrize("f", _CUBE_LOCUS_SURFACES,
                         ids=["fermat-h1", "form1-h1", "form2-h1", "p-xyzw", "sqrt2"])
def test_cube_locus_basis_against_every_minor(f):
    # the quadrics kept are minors, span all the minors mod each
    # certificate prime, and give the search the same points and reason
    minors = oracle_cube_locus_quadrics(f)
    kept = cube_locus_quadrics(f)
    assert kept and all(q in minors for q in kept)
    for p in _CERT_PRIMES:
        assert np.array_equal(_generator_rows(kept, 4, 2, p),
                              _generator_rows(minors, 4, 2, p))
    assert solve_projective(kept, 4) == solve_projective(minors, 4)


def test_cube_locus_keeps_at_most_ten_quadrics_per_prime():
    # a dense conjugate has all 210 minors distinct, but quadrics in 4
    # variables span at most 10 dimensions
    f = substitute_linear(parse_poly("X^4+Y^4+Z^4+W^4+Y^2*Z*W", 4), _height_one(4))
    assert len(oracle_cube_locus_quadrics(f)) == 210
    kept = cube_locus_quadrics(f)
    assert len(kept) <= 10 * len(_CERT_PRIMES)
    assert len({tuple(sorted(q.items())) for q in kept}) == len(kept)
