import itertools
import random

import numpy as np
import pytest

from quartic_galois.errors import ParseError
from quartic_galois.gaussian import GaussianRational as GR
from quartic_galois.gaussian import I, ONE, ZERO
from quartic_galois.linalg import (Matrix, _back_substitute, _echelon_mod_p,
                                   _pivots_mod_p, centralizer_dimension,
                                   parse_matrix, prove_full_column_rank,
                                   sparse_rank)
from quartic_galois.solver import _CERT_PRIMES

from helpers import SIGMA1, SIGMA2, SIGMA3, SIGMA4, rand_gr, rand_invertible
from oracles import (oracle_det, oracle_inverse, oracle_matmul, oracle_matpow,
                     oracle_rank, oracle_rref_mod_p)


def test_rank_identity_and_zero():
    assert Matrix.identity(4).rank() == 4
    assert Matrix(3, 5, [ZERO] * 15).rank() == 0


def test_rank_dependent_rows():
    # second row is i times the first
    m = Matrix.from_rows([[ONE, I], [I, GR(-1)]])
    assert m.rank() == 1
    assert oracle_rank(m) == 1


def test_kernel_identity_empty():
    assert Matrix.identity(3).kernel_basis() == []


def test_kernel_zero_matrix():
    basis = Matrix(2, 2, [ZERO] * 4).kernel_basis()
    assert len(basis) == 2


def test_kernel_eigenspace_extraction():
    m = Matrix.diagonal([I, 1, 1, 1]) - Matrix.identity(4).scale(I)
    basis = m.kernel_basis()
    assert basis == [(ONE, ZERO, ZERO, ZERO)]


def test_rank_plus_kernel_dim():
    rng = random.Random(31)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix(rows, cols, [rand_gr(rng, -2, 2) for _ in range(rows * cols)])
        assert m.rank() + len(m.kernel_basis()) == cols
        assert m.rank() == oracle_rank(m)


def test_rank_invariance():
    rng = random.Random(32)
    for _ in range(20):
        m = Matrix(4, 3, [rand_gr(rng, -2, 2) for _ in range(12)])
        r = m.rank()
        perm = list(range(4))
        rng.shuffle(perm)
        permuted = Matrix.from_rows([list(m.row(i)) for i in perm])
        assert permuted.rank() == r
        a = rand_invertible(rng)
        assert (a * m).rank() == r


def test_kernel_vectors_annihilate():
    rng = random.Random(33)
    for _ in range(25):
        m = Matrix(3, 5, [rand_gr(rng, -2, 2) for _ in range(15)])
        for v in m.kernel_basis():
            assert all(x.is_zero() for x in m.apply(v))


def test_det_and_inverse():
    rng = random.Random(34)
    for _ in range(20):
        a = rand_invertible(rng)
        b = rand_invertible(rng)
        assert (a * b).det() == a.det() * b.det()
        assert (a * a.inverse()).is_identity()
    assert Matrix.diagonal([I, 1, 1, 1]).det() == I


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        Matrix(2, 2, [ONE, ONE, ONE, ONE]).inverse()


def _assert_det_and_inverse_match_oracle(m):
    det = m.det()
    assert det == oracle_det(m)
    if det.is_zero():
        with pytest.raises(ValueError, match="matrix is singular"):
            m.inverse()
    else:
        assert m.inverse() == oracle_inverse(m)


def test_det_and_inverse_match_oracle_on_random_matrices():
    rng = random.Random(37)
    for size in range(1, 6):
        for _ in range(8):
            m = Matrix(size, size, [rand_gr(rng, -3, 3, denominators=range(1, 8))
                                    for _ in range(size * size)])
            _assert_det_and_inverse_match_oracle(m)


def test_det_and_inverse_match_oracle_on_every_pivot_order():
    # a permutation times an invertible diagonal: every order of the pivot
    # columns, with its sign, and divisors other than 1
    rng = random.Random(38)
    for perm in itertools.permutations(range(4)):
        d = [GR(rng.choice((1, -1, 2, 3)), rng.randint(-2, 2)) for _ in range(4)]
        m = Matrix(4, 4, [d[i] if perm[i] == j else ZERO
                          for i in range(4) for j in range(4)])
        _assert_det_and_inverse_match_oracle(m)


def test_det_and_inverse_of_a_rank_deficient_matrix():
    rng = random.Random(39)
    rows = [[rand_gr(rng, denominators=(1, 3)) for _ in range(4)] for _ in range(3)]
    rows.insert(2, [a - I * b for a, b in zip(rows[0], rows[1])])
    m = Matrix.from_rows(rows)
    assert m.rank() == oracle_rank(m) == 3
    assert m.det() == oracle_det(m) == ZERO
    with pytest.raises(ValueError, match="matrix is singular"):
        m.inverse()


def test_det_and_inverse_shapes():
    m = Matrix(2, 3, [ONE] * 6)
    with pytest.raises(ValueError, match="determinant of non-square matrix"):
        m.det()
    with pytest.raises(ValueError, match="inverse of non-square matrix"):
        m.inverse()
    empty = Matrix(0, 0, [])
    assert empty.det() == ONE
    assert empty.inverse() == empty


def test_matrix_power():
    s = Matrix.diagonal([I, 1, 1, 1])
    assert (s ** 4).is_identity()
    assert not (s ** 2).is_identity()


def test_matrix_power_matches_repeated_products():
    rng = random.Random(9)
    m = Matrix(3, 3, [rand_gr(rng, -2, 2) for _ in range(9)])
    expected = Matrix.identity(3)
    for n in range(10):
        assert m ** n == expected
        expected = expected * m
    with pytest.raises(ValueError):
        m ** -1


def _mixed_matrix(rng, rows, cols):
    """Q(i) entries whose denominators mix 1 to 7."""
    return Matrix(rows, cols, [rand_gr(rng, -5, 5, denominators=tuple(range(1, 8)))
                               for _ in range(rows * cols)])


@pytest.mark.parametrize("seed", range(5))
def test_product_and_power_match_fraction_oracle(seed):
    rng = random.Random(seed)
    a, b = _mixed_matrix(rng, 4, 4), _mixed_matrix(rng, 4, 4)
    assert a * b == oracle_matmul(a, b)
    for n in range(6):
        assert a ** n == oracle_matpow(a, n)


def test_rectangular_product_matches_fraction_oracle():
    rng = random.Random(11)
    a, b = _mixed_matrix(rng, 4, 3), _mixed_matrix(rng, 3, 2)
    product = a * b
    assert (product.rows, product.cols) == (4, 2)
    assert product == oracle_matmul(a, b)
    with pytest.raises(ValueError):
        b * a


def test_product_with_a_zero_factor():
    rng = random.Random(12)
    a, zero = _mixed_matrix(rng, 4, 4), Matrix(4, 4, [ZERO] * 16)
    assert a * zero == zero == zero * a
    assert zero ** 3 == zero == oracle_matpow(zero, 3)
    assert zero ** 0 == Matrix.identity(4)


def _modular_matrices(p, rng):
    """Matrices mod p with zero rows, repeated leading columns and rank
    deficiency, plus an all-zero matrix and single rows."""
    yield np.zeros((5, 7), dtype=np.int64)
    yield np.array([[0, 0, 3, 1, 0]], dtype=np.int64)
    yield np.zeros((1, 4), dtype=np.int64)
    for rows, cols, rank in ((6, 6, 6), (12, 9, 4), (9, 12, 7), (20, 15, 3),
                             (15, 20, 15), (30, 30, 22)):
        base = rng.integers(0, p, size=(rank, cols))
        # shared leading zeros make leading columns collide
        for r in range(rank):
            base[r, :rng.integers(0, cols // 2)] = 0
        coeffs = rng.integers(0, 2**10, size=(rows, rank))
        coeffs[rng.random(size=rows) < 0.2] = 0
        a = np.zeros((rows, cols), dtype=np.int64)
        for r in range(rank):
            a = (a + coeffs[:, r:r + 1] * base[r]) % p
        yield a


@pytest.mark.parametrize("p", _CERT_PRIMES)
def test_pivots_mod_p_matches_echelon(p):
    rng = np.random.default_rng(p)
    for a in _modular_matrices(p, rng):
        before = a.copy()
        assert _pivots_mod_p(a, p).pivots == _echelon_mod_p(a.copy(), p)
        assert (a == before).all()


def _reference_echelon_mod_p(a, p):
    """Forward elimination mod p on every column in turn, in Python ints:
    (pivot columns, the matrix left), for _echelon_mod_p to match."""
    a = a.tolist()
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        hit = [i for i in range(r, len(a)) if a[i][c]]
        if r == len(a) or not hit:
            continue
        a[r], a[hit[0]] = a[hit[0]], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(r + 1, len(a)):
            a[i] = [(x - a[i][c] * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return pivots, a


def _sparse_matrices_with_zero_columns(p, rng):
    """Random sparse matrices mod p, some columns zero in every row."""
    for rows, cols in ((1, 6), (5, 5), (8, 12), (12, 8), (20, 30), (40, 25)):
        for density in (0.05, 0.2, 0.5):
            a = rng.integers(1, p, size=(rows, cols))
            a[rng.random(size=(rows, cols)) > density] = 0
            a[:, rng.random(size=cols) < 0.3] = 0
            a[rng.random(size=rows) < 0.1] = a[0]
            yield a


@pytest.mark.parametrize("p", _CERT_PRIMES)
def test_live_columns_match_a_column_by_column_reference(p):
    # only the columns nonzero in some row are eliminated, and pivot rows
    # are applied only where a leftover row can be nonzero; the pivots, the
    # matrix left in place and the reduced form are those of elimination
    # on every column
    rng = np.random.default_rng(p % 1000)
    for a in _sparse_matrices_with_zero_columns(p, rng):
        pivots, left = _reference_echelon_mod_p(a, p)
        b = a.copy()
        assert _echelon_mod_p(b, p) == pivots
        assert b.tolist() == left
        echelon = _pivots_mod_p(a, p)
        assert echelon.pivots == pivots
        assert oracle_rref_mod_p(echelon.rows(), p) == oracle_rref_mod_p(a, p)


def _deficient_matrices(p, rng):
    """Matrices mod p of rank at most rank, with zero rows, a repeated
    row and entries within 2**20 of p."""
    for rows, cols, rank in ((1, 1, 1), (6, 6, 6), (8, 5, 3), (12, 9, 4),
                             (20, 15, 7), (40, 30, 22), (30, 40, 30)):
        base = rng.integers(p - 2**20, p, size=(rank, cols))
        for r in range(rank):
            base[r, :rng.integers(0, cols // 2 + 1)] = 0
        coeffs = rng.integers(0, p, size=(rows, rank))
        coeffs[0] = 0
        coeffs[0, 0] = 1  # the first row is a base row, near p
        a = np.zeros((rows, cols), dtype=np.int64)
        for r in range(rank):
            a = (a + coeffs[:, r:r + 1] * base[r] % p) % p
        a[rng.random(size=rows) < 0.2] = 0
        a[-1] = a[len(a) // 2]
        yield a


def test_back_substitution_matches_reduced_echelon():
    # the reduced form's standard columns, by back-substitution on the
    # rows of either forward elimination, against Gauss-Jordan
    p = _CERT_PRIMES[0]
    rng = np.random.default_rng(13)
    for a in _deficient_matrices(p, rng):
        pivots, rref = oracle_rref_mod_p(a, p)
        std = [c for c in range(a.shape[1]) if c not in pivots]
        want = np.array(rref, dtype=np.int64).reshape(len(pivots), -1)[:, std]
        echelon = _pivots_mod_p(a, p)
        rows = echelon.rows()
        assert echelon.pivots == pivots
        assert all(rows[r, c] and not rows[r, :c].any() for r, c in enumerate(pivots))
        assert oracle_rref_mod_p(rows, p) == (pivots, rref)
        assert echelon.reduced(std, p).tolist() == want.tolist()
        b = a.copy()
        assert _echelon_mod_p(b, p) == pivots
        back = _back_substitute(b[:len(pivots)], pivots, std, p)
        assert back.tolist() == want.tolist()


def test_centralizer_two_homologies_is_six():
    assert centralizer_dimension([SIGMA1, SIGMA2]) == 6


def test_centralizer_empty_is_gl4():
    assert centralizer_dimension([]) == 16


def test_centralizer_full_torus_is_four():
    assert centralizer_dimension([SIGMA1, SIGMA2, SIGMA3, SIGMA4]) == 4


def test_centralizer_single_homology_is_ten():
    assert centralizer_dimension([SIGMA1]) == 10


def test_centralizer_rejects_singular():
    with pytest.raises(ValueError):
        centralizer_dimension([Matrix(4, 4, [ZERO] * 16)])


def test_prove_full_column_rank_matches_exact():
    rng = random.Random(35)
    for _ in range(25):
        rows = rng.randint(2, 8)
        cols = rng.randint(1, 4)
        rowdicts = []
        for _r in range(rows):
            row = {c: rand_gr(rng, -2, 2) for c in range(cols)
                   if rng.random() < 0.7}
            rowdicts.append({c: v for c, v in row.items() if not v.is_zero()})
        expected = sparse_rank(rowdicts) == cols
        assert prove_full_column_rank([dict(r) for r in rowdicts], cols) == expected


def test_parse_matrix_round_trip():
    text = "i 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1"
    m = parse_matrix(text)
    assert m == Matrix.diagonal([I, 1, 1, 1])
    with pytest.raises(ParseError):
        parse_matrix("1 2 3")
    with pytest.raises(ParseError):
        parse_matrix(" ".join(["bogus"] * 16))


def test_apply_matches_multiplication():
    rng = random.Random(36)
    m = rand_invertible(rng)
    v = [rand_gr(rng) for _ in range(4)]
    col = Matrix.from_columns([v])
    assert list((m * col).column(0)) == list(m.apply(v))


def test_one_reduction_of_gaussian_rationals():
    # the package reduces Z[i] at each certificate prime by one map,
    # i -> _CERT_ROOTS[p] modulo pi = _CERT_PIS[p]; reconstruction modulo
    # that pi gives back the quotient u/w of the residues, modulo its
    # conjugate the conjugate
    from math import isqrt
    from quartic_galois.solver import _CERT_PIS, _CERT_ROOTS, _residue
    from quartic_galois.univariate import _rational_reconstructions
    values = [((3, 0), (1, 0)), ((-2, 5), (1, 0)), ((0, 1), (1, 0)),
              ((1, -1), (7, 0)), ((-12, 5), (3, 4))]
    for p in _CERT_PRIMES:
        pi, s = _CERT_PIS[p], _CERT_ROOTS[p]

        def reduce(u, w):
            return _residue(u, s, p) * pow(_residue(w, s, p), -1, p) % p

        for u, w in values:
            a, b = next(_rational_reconstructions(reduce(u, w), pi, isqrt(p >> 8)))
            assert GR(*a) / GR(*b) == GR(*u) / GR(*w)
        a, b = next(_rational_reconstructions(reduce((0, 1), (1, 0)), (pi[0], -pi[1]),
                                              isqrt(p >> 8)))
        assert GR(*a) / GR(*b) == -I
