import random
from fractions import Fraction

import pytest

from quartic_galois.errors import ParseError
from quartic_galois.gaussian import GaussianRational as GR
from quartic_galois.gaussian import I, ONE, ZERO, parse_gaussian
from quartic_galois.linalg import Matrix
from quartic_galois.poly import (HomPoly, ProjPoint, monomials, parse_point,
                                 parse_poly, partials, polar_forms, restrict,
                                 squarefree_profile, substitute_linear,
                                 x_decompose)

import sympy

from helpers import (euler_identity_holds, rand_gr, rand_invertible,
                     rand_sparse_quartic)
from oracles import (gr_to_sympy, hompoly_to_sympy, oracle_eval,
                     oracle_polar_forms, oracle_substitute_linear,
                     sympy_to_hompoly)

FERMAT = parse_poly("X^4+Y^4+Z^4+W^4", 4)
# contains the lines X = Y, Z = W and X = i*Y, Z = i*W
SPLIT_LINES = parse_poly("X^4-Y^4+Z^4-W^4", 4)


def _rand_quartic(rng, denominators=(1,)):
    """A dense quartic: every monomial, most coefficients nonzero."""
    return HomPoly(4, 4, {e: rand_gr(rng, denominators=denominators)
                          for e in monomials(4, 4)})


def _rand_matrix(rng, rows, cols, gaussian=True, denominators=(1,)):
    return Matrix(rows, cols, [rand_gr(rng, complex_part=gaussian,
                                       denominators=denominators)
                               for _ in range(rows * cols)])


def _assert_matches_oracle(f, m):
    g = substitute_linear(f, m)
    expected = oracle_substitute_linear(f, m)
    assert g == expected
    assert str(g) == str(expected)
    assert hash(g) == hash(expected)
    assert (g.nvars, g.degree) == (m.cols, f.degree)


# -- parsing ---------------------------------------------------------------

def test_parse_fermat():
    assert len(FERMAT.terms) == 4
    assert FERMAT.coeff((4, 0, 0, 0)) == ONE
    assert str(FERMAT) == "X^4+Y^4+Z^4+W^4"


def test_parse_rejects_inhomogeneous():
    # the offset is that of the first term whose degree is not the
    # expected one, also when that degree is the largest
    for text, offset in (("X^4 + Y^3", 6), ("X^4+Y^4+Z^4+W^4*X", 12),
                         ("X^4+Y^4+Z^4+W^4+X^2*Y^3", 16)):
        with pytest.raises(ParseError, match="inhomogeneous") as err:
            parse_poly(text, 4)
        assert err.value.position == offset
    with pytest.raises(ParseError, match="degree mismatch"):
        parse_poly("X^5+Y^5", 4)


def test_parse_complex_coefficient():
    g = parse_poly("X^4 + (1+i)*Y^2*Z^2 - W^4", 4)
    assert len(g.terms) == 3
    assert g.coeff((0, 2, 2, 0)) == ONE + I
    assert g.coeff((0, 0, 0, 4)) == GR(-1)


def test_parse_degree_mismatch():
    with pytest.raises(ParseError):
        parse_poly("X^3+Y^3+Z^3+W^3", 4)


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("X^4 + $", 4)
    assert err.value.position >= 0


@pytest.mark.parametrize("text", ["*X^4+Y^4+Z^4+W^4", "X^4*+Y^4+Z^4+W^4",
                                  "X^4+Y^4+Z^4+*W^4", "X^4+Y^4+Z^4+W^4*"])
def test_parse_rejects_star_without_two_factors(text):
    with pytest.raises(ParseError) as err:
        parse_poly(text, 4)
    assert err.value.position == text.index("*")


def test_parse_star_between_factors():
    assert (parse_poly("X^4 * Y^0+Y^4+Z^4+W^4", 4)
            == parse_poly("X^4+Y^4+Z^4+W^4", 4))


def test_parse_implicit_star_and_i():
    g = parse_poly("2X^2Y^2 + i*Z^4 - X^4", 4)
    assert g.coeff((2, 2, 0, 0)) == GR(2)
    assert g.coeff((0, 0, 4, 0)) == I


def test_print_parse_round_trip():
    rng = random.Random(41)
    for _ in range(200):
        f = rand_sparse_quartic(rng, rng.randint(1, 8))
        assert parse_poly(str(f), 4) == f


def test_print_canonical_order():
    f = parse_poly("W^4 + X^4", 4)
    assert str(f) == "X^4+W^4"
    g = parse_poly("-X^4 + 1/2*Y^4", 4)
    assert str(g) == "-X^4+1/2*Y^4"


def _shaped_coefficients(rng):
    """One coefficient of each printed shape: +-1, +-i, +-q, +-q*i, a+b*i."""
    q = Fraction(rng.choice([2, 3, 7]), rng.choice([1, 2, 5]))
    a = Fraction(rng.choice([-3, -1, 1, 4]), rng.choice([1, 3]))
    b = Fraction(rng.choice([-2, -1, 1, 5]), rng.choice([1, 4]))
    return [ONE, GR(-1), I, -I, GR(q), GR(-q), GR(0, q), GR(0, -q), GR(a, b)]


def test_print_golden_every_coefficient_shape():
    # the strings were printed by the implementation before the printer
    # was built on str(GaussianRational)
    golden = [
        "-3/5*i*X^3*Z+3/5*i*X^2*Y^2-i*X^2*Y*W-3/5*X^2*W^2+i*X*Y^2*Z"
        "+3/5*X*Y*Z*W+(4/3-i)*X*Z^2*W-Z^4+Z^2*W^2",
        "X^4+7/5*X^3*Y-i*X^3*W+i*X^2*Y^2-7/5*X^2*Y*W-7/5*i*X^2*Z^2"
        "+(-1+5*i)*X*W^3+7/5*i*Y*Z*W^2-Z*W^3",
        "i*X^4-i*X^2*Y*Z+i*X^2*Z*W-i*X*Y*Z^2+X*Y*Z*W+(1/3-i)*X*Z^2*W"
        "+X*Z*W^2-Y^4-Z^3*W",
    ]
    rng = random.Random(11)
    for expected in golden:
        cs = _shaped_coefficients(rng)
        f = HomPoly(4, 4, dict(zip(rng.sample(monomials(4, 4), len(cs)), cs)))
        assert str(f) == expected
        assert parse_poly(str(f), 4) == f
        for c in cs:
            assert parse_gaussian(str(c)) == c
    constants = [HomPoly.constant(4, c) for c in _shaped_coefficients(rng)]
    assert [str(f) for f in constants] == [
        "1", "-1", "i", "-i", "2/5", "-2/5", "2/5*i", "-2/5*i", "(1/3-1/4*i)"]
    for f in constants:
        assert parse_poly(str(f), 0) == f


def test_zero_polynomial():
    f = parse_poly("X^4 - X^4", 4)
    assert f.is_zero()
    assert str(f) == "0"


_MIXED = parse_poly("X^4+2*X^2*Y*Z-i*Y^3*W+1/3*Z^4-(1+i)*Z*W^3+W^4", 4)


@pytest.mark.parametrize("keep", [(2, 3), (1, 2, 3), (0, 1, 2, 3)],
                         ids=["binary", "plane", "surface"])
def test_equal_forms_print_equal_text(keep):
    # a form's text depends only on its value: equal forms reached by
    # restriction, pullback, differentiation, arithmetic and the chart
    # decomposition print the same, and the text parses back to the form
    f, n = _MIXED, len(keep)
    g = restrict(f, keep)
    columns = Matrix(4, n, [ONE if keep[c] == r else ZERO
                            for r in range(4) for c in range(n)])
    # f's terms in the kept variables, printed in f's own letters
    kept = HomPoly(4, 4, {e: c for e, c in f.terms.items()
                          if sum(e[v] for v in keep) == 4})
    pairs = [
        (g, substitute_linear(f, columns)),
        (g, restrict(parse_poly(str(kept), 4), keep)),
        (partials(g)[0], restrict(partials(f)[keep[0]], keep)),
        (g * g, restrict(f * f, keep)),
        (g + g, restrict(f.scale(2), keep)),
        (x_decompose(g, 0).c[4], restrict(f, keep[1:])),
    ]
    for a, b in pairs:
        assert a == b and str(a) == str(b)
        assert restrict(parse_poly(str(a), a.degree), range(a.nvars)) == a


# -- arithmetic -------------------------------------------------------------

def test_addition_degree_guard():
    cubic = HomPoly(4, 3, {(3, 0, 0, 0): ONE})
    with pytest.raises(ValueError):
        FERMAT + cubic


_DENOMINATORS = (2, 3, 5, 7)


def _rand_fractional_quartic(rng):
    """Ten terms, with coefficients over the denominators 2, 3, 5 and 7."""
    return HomPoly(4, 4, {e: rand_gr(rng, denominators=_DENOMINATORS)
                          for e in rng.sample(monomials(4, 4), 10)})


@pytest.mark.parametrize("seed", range(4))
def test_integer_arithmetic_matches_sympy(seed):
    # the one denominator and the Z[i] numerators give sympy's QQ_I results
    rng = random.Random(seed)
    f, g = _rand_fractional_quartic(rng), _rand_fractional_quartic(rng)
    c = rand_gr(rng, 1, 3, denominators=_DENOMINATORS)
    xs = sympy.symbols("x0:4")
    sf, sg = hompoly_to_sympy(f, xs), hompoly_to_sympy(g, xs)
    assert f + g == sympy_to_hompoly(sf + sg, xs, 4)
    assert f - g == sympy_to_hompoly(sf - sg, xs, 4)
    assert f * g == sympy_to_hompoly(sf * sg, xs, 8)
    assert f.scale(c) == sympy_to_hompoly(gr_to_sympy(c) * sf, xs, 4)
    assert partials(f) == [sympy_to_hompoly(sympy.diff(sf, x), xs, 3) for x in xs]
    point = [rand_gr(rng, denominators=_DENOMINATORS) for _ in range(4)]
    assert polar_forms(f, point) == oracle_polar_forms(f, point)
    for chart, x in enumerate(xs):
        by_x = sympy.Poly(sf, x)
        rest = xs[:chart] + xs[chart + 1:]
        xd = x_decompose(f, chart)
        assert xd.c == [sympy_to_hompoly(by_x.coeff_monomial(x ** (4 - k)), rest, k)
                        for k in range(5)]
        assert xd.reassemble() == f


@pytest.mark.parametrize("seed", range(4))
def test_equal_polynomials_store_equal_data(seed):
    # one polynomial reached two ways: equal, with equal hashes and the
    # same reduced denominator and numerators
    rng = random.Random(seed)
    f, g = _rand_fractional_quartic(rng), _rand_fractional_quartic(rng)
    c = rand_gr(rng, 1, 3, denominators=_DENOMINATORS)
    for same in (f.scale(c).scale(ONE / c), (f + g) - g, HomPoly(4, 4, f.terms),
                 x_decompose(f, 2).reassemble()):
        assert same == f and hash(same) == hash(f)
        assert (same.den, same.num) == (f.den, f.num)


def test_mul_degrees_add():
    q = parse_poly("X^2+Y^2", 2)
    assert (q * q).degree == 4
    assert (q * q).coeff((2, 2, 0, 0)) == GR(2)


def test_eval():
    assert FERMAT.eval([1, 0, 0, 0]) == ONE
    assert FERMAT.eval([1, I, 0, 0]) == GR(2)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
def test_eval_matches_oracle(seed, gaussian):
    rng = random.Random(100 + seed)
    f = _rand_quartic(rng, denominators=(1, 2, 3))
    for _ in range(3):
        point = [rand_gr(rng, complex_part=gaussian, denominators=(1, 5, 7))
                 for _ in range(4)]
        value = f.eval(point)
        expected = oracle_eval(f, point)
        assert value == expected
        assert str(value) == str(expected)


def test_eval_on_surface_is_exactly_zero():
    rng = random.Random(7)
    a = _rand_matrix(rng, 4, 4, denominators=(1, 3, 7))
    while a.det().is_zero():
        a = _rand_matrix(rng, 4, 4, denominators=(1, 3, 7))
    g = substitute_linear(SPLIT_LINES, a)
    a_inv = a.inverse()
    for p in ([1, 1, 0, 0], [1, I, 2, 2 * I], [0, 0, GR(1, 2), GR(-2, 1)]):
        scale = GR(Fraction(2, 7), Fraction(-3, 5))
        q = [scale * sum((a_inv[i, j] * p[j] for j in range(4)), ZERO)
             for i in range(4)]
        value = g.eval(q)
        assert value.is_zero() and str(value) == "0"
        assert oracle_eval(g, q).is_zero()


def test_eval_length_mismatch():
    with pytest.raises(ValueError, match="point length mismatch"):
        FERMAT.eval([1, 0, 0])
    with pytest.raises(ValueError, match="point length mismatch"):
        FERMAT.eval([1, 0, 0, 0, 0])


# -- substitution ------------------------------------------------------------

def test_substitute_diag_i_fixes_fermat():
    m = Matrix.diagonal([I, 1, 1, 1])
    assert substitute_linear(FERMAT, m) == FERMAT


def test_substitute_identity():
    f = parse_poly("X^4+Y^4+Z^4+W^4+Y^2*Z*W", 4)
    assert substitute_linear(f, Matrix.identity(4)) == f


def test_substitute_swap_symmetry():
    swap = Matrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0],
                             [0, 0, 1, 0], [0, 0, 0, 1]])
    assert substitute_linear(FERMAT, swap) == FERMAT


def test_substitute_composition():
    rng = random.Random(42)
    f = rand_sparse_quartic(rng, 5)
    for _ in range(20):
        a = rand_invertible(rng)
        b = rand_invertible(rng)
        lhs = substitute_linear(substitute_linear(f, a), b)
        rhs = substitute_linear(f, a * b)
        assert lhs == rhs


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
def test_substitute_matches_oracle(seed, gaussian):
    rng = random.Random(200 + seed)
    f = _rand_quartic(rng, denominators=(1, 2, 7))
    _assert_matches_oracle(
        f, _rand_matrix(rng, 4, 4, gaussian, denominators=(1, 2, 3, 5, 7)))


@pytest.mark.parametrize("cols", [3, 2])
def test_substitute_rectangular_matches_oracle(cols):
    rng = random.Random(300 + cols)
    f = _rand_quartic(rng, denominators=(1, 3))
    _assert_matches_oracle(f, _rand_matrix(rng, 4, cols, denominators=(1, 7)))


def test_substitute_line_inside_surface_is_zero():
    rng = random.Random(11)
    a = rand_invertible(rng)
    g = substitute_linear(SPLIT_LINES, a)
    # X = Y, Z = W, moved by a**-1 into the conjugate surface g
    line = a.inverse() * Matrix.from_rows([[1, 0], [1, 0], [0, 1], [0, 1]])
    h = substitute_linear(g, line)
    assert h.is_zero() and str(h) == "0"
    assert (h.nvars, h.degree) == (2, 4)
    _assert_matches_oracle(g, line)


def test_substitute_keeps_default_names():
    # the pullback prints in X, Y, Z, W, and that text parses back to it
    f = parse_poly("X^4+1/3*Y^3*Z-(2+i)*X*Y*Z*W+7/2*i*W^4", 4)
    rng = random.Random(13)
    m = _rand_matrix(rng, 4, 4, denominators=(1, 7))
    _assert_matches_oracle(f, m)
    g = substitute_linear(f, m)
    assert parse_poly(str(g), 4) == g


# -- partial derivatives ------------------------------------------------------

def test_partials_fermat():
    p = partials(FERMAT)
    assert [str(g) for g in p] == ["4*X^3", "4*Y^3", "4*Z^3", "4*W^3"]


def test_partials_single_power():
    f = parse_poly("X^4", 4)
    p = partials(f)
    assert str(p[0]) == "4*X^3"
    assert p[1].is_zero() and p[2].is_zero() and p[3].is_zero()


def test_euler_identity_random():
    rng = random.Random(43)
    for _ in range(50):
        f = rand_sparse_quartic(rng, rng.randint(1, 8))
        if not f.is_zero():
            assert euler_identity_holds(f)


# -- chart decomposition -------------------------------------------------------

def test_x_decompose_split_form():
    f = parse_poly("X^4+Y^4+Z^4+W^4+Y^2*Z*W", 4)
    xd = x_decompose(f, 0)
    assert xd.c[0].eval([0, 0, 0]) == ONE
    assert xd.c[1].is_zero() and xd.c[2].is_zero() and xd.c[3].is_zero()
    assert xd.c[4] == restrict(parse_poly("Y^4+Y^2*Z*W+Z^4+W^4", 4), (1, 2, 3))
    assert str(xd.c[4]) == "X^4+X^2*Y*Z+Y^4+Z^4"


def test_x_decompose_fermat():
    xd = x_decompose(FERMAT, 0)
    assert str(xd.c[4]) == "X^4+Y^4+Z^4"


def test_x_decompose_binomial():
    # (X + Y)**4, frozen from the binomial expansion
    f = restrict(parse_poly("X^4+4*X^3*Y+6*X^2*Y^2+4*X*Y^3+Y^4", 4), (0, 1))
    xd = x_decompose(f, 0)
    assert [str(c) for c in xd.c] == ["1", "4*X", "6*X^2", "4*X^3", "X^4"]


def test_x_decompose_round_trip_many():
    rng = random.Random(44)
    for _ in range(1000):
        f = rand_sparse_quartic(rng, rng.randint(1, 6))
        chart = rng.randrange(4)
        assert x_decompose(f, chart).reassemble() == f


# -- polar forms ----------------------------------------------------------------

def test_polar_forms_fermat_center():
    e = polar_forms(FERMAT, ProjPoint([1, 0, 0, 0]))
    assert e[0].eval([0, 0, 0, 0]) == ONE          # e0 = f(P)
    assert str(e[1]) == "4*X"                      # from expanding (s + tX)**4
    assert str(e[2]) == "6*X^2"
    assert str(e[3]) == "4*X^3"
    assert e[4] == FERMAT                          # e4 is f itself


def test_polar_e0_vanishes_iff_on_surface():
    f = parse_poly("X^3*Y+Y^4+Z^4+W^4", 4)
    on_s = polar_forms(f, ProjPoint([1, 0, 0, 0]))[0]
    off_s = polar_forms(f, ProjPoint([0, 1, 0, 0]))[0]
    assert on_s.is_zero()
    assert not off_s.is_zero()


def test_polar_expansion_consistency():
    rng = random.Random(45)
    for _ in range(50):
        f = rand_sparse_quartic(rng, 5)
        p = [rand_gr(rng) for _ in range(4)]
        if all(x.is_zero() for x in p):
            continue
        e = polar_forms(f, p)
        s, t = rand_gr(rng), rand_gr(rng)
        q = [rand_gr(rng) for _ in range(4)]
        line_point = [s * pi + t * qi for pi, qi in zip(p, q)]
        direct = f.eval(line_point)
        expanded = ZERO
        for k in range(5):
            expanded = expanded + (s ** (4 - k)) * (t ** k) * e[k].eval(q)
        assert expanded == direct


# -- binary forms ------------------------------------------------------------------

def test_squarefree_profile_examples():
    def binary(text):
        return restrict(parse_poly(text, 4), (2, 3))
    f = binary("Z^4+W^4")
    assert squarefree_profile(f) == [1, 1, 1, 1]
    g = binary("Z^2*W^2")
    assert squarefree_profile(g) == [2, 2]
    h = binary("Z^4-4*Z^3*W+6*Z^2*W^2-4*Z*W^3+W^4")
    assert squarefree_profile(h) == [4]


def test_squarefree_profile_sums():
    rng = random.Random(46)
    for _ in range(60):
        terms = {}
        for e in monomials(2, 4):
            c = rng.randint(-3, 3)
            if c:
                terms[e] = GR(c)
        f = HomPoly(2, 4, terms)
        if f.is_zero():
            continue
        assert sum(squarefree_profile(f)) == 4


def test_squarefree_profile_rejects_zero():
    with pytest.raises(ValueError):
        squarefree_profile(HomPoly(2, 4, {}))


# -- projective points -----------------------------------------------------------

def test_projpoint_canonical():
    p = ProjPoint([GR(2), GR(4), ZERO, ZERO])
    assert p == ProjPoint([1, 2, 0, 0])
    assert str(p) == "1:2:0:0"
    assert p.pivot_index() == 0


def test_projpoint_rejects_zero():
    with pytest.raises(ValueError):
        ProjPoint([0, 0, 0, 0])


def test_parse_point():
    p = parse_point("0:1:i:1/2")
    assert p.coords == (ZERO, ONE, I, GR(Fraction(1, 2)))
    with pytest.raises(ParseError):
        parse_point("1:2:3")
