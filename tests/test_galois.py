import itertools
import math
import random

import pytest
import sympy

from quartic_galois.errors import (ConsistencyError, InnerPointError,
                                   SingularSurfaceError,
                                   SurfaceNotPreservedError,
                                   UnnormalizedAutomorphismError)
from quartic_galois.gaussian import GaussianRational as GR
from quartic_galois.gaussian import I, ONE, ZERO
from quartic_galois.galois import (adapted_basis, enumerate_outer_galois_points,
                                   galois_generator, is_outer_galois_point,
                                   linear_auto, recognize_normal_form)
from quartic_galois import galois, geometry, poly, solver
from quartic_galois.geometry import eigen_decompose_order4, is_smooth_surface
from quartic_galois.linalg import Matrix
from quartic_galois.poly import (HomPoly, ProjPoint, parse_poly, partials,
                                 substitute_linear, x_decompose)
from quartic_galois.univariate import _gi_mul, eval_poly, gaussian_roots

from helpers import (SIGMA1, calls_of, gaussian_matrix, height1_gaussian,
                     lift_form1, lift_form2, pullbacks, rand_gr, rand_invertible,
                     rand_smooth_plane_quartic,
                     rand_squarefree_binary_quartic, zeros_mod_p)
from oracles import (oracle_apolar_dimension, oracle_is_outer_galois_point,
                     oracle_pencil_lines, oracle_preserves)

FERMAT = parse_poly("X^4+Y^4+Z^4+W^4", 4)
FORM1 = parse_poly("X^4+Y^4+Z^4+W^4+Y^2*Z*W", 4)
FORM2 = parse_poly("X^4+Y^4+Z^4+Z*W^3+W^4", 4)
E1 = ProjPoint([1, 0, 0, 0])
E2 = ProjPoint([0, 1, 0, 0])
E3 = ProjPoint([0, 0, 1, 0])
E4 = ProjPoint([0, 0, 0, 1])


# -- the tester -----------------------------------------------------------------

def test_fermat_coordinate_points_are_galois():
    for p in (E1, E2, E3, E4):
        assert is_outer_galois_point(FERMAT, p)


def test_fermat_diagonal_point_is_not_galois():
    p = ProjPoint([1, 1, 0, 0])
    assert not is_outer_galois_point(FERMAT, p)
    with pytest.raises(SurfaceNotPreservedError, match="not an outer Galois"):
        galois_generator(FERMAT, p)
    # the chart coefficients behind the refusal, forms in the three other
    # coordinates (printed X, Y, Z): c0=2, c1=4X, c2=6X^2, so
    # 8*c0*c2 = 96 X^2 while 3*c1^2 = 48 X^2
    fb = substitute_linear(FERMAT, adapted_basis(p))
    xd = x_decompose(fb, 0)
    assert xd.c[0].eval([0, 0, 0]) == GR(2)
    assert str(xd.c[1]) == "4*X"
    assert str(xd.c[2]) == "6*X^2"


def test_form2_both_points():
    assert is_outer_galois_point(FORM2, E1)
    assert is_outer_galois_point(FORM2, E2)
    assert not is_outer_galois_point(FORM2, E3)


def test_inner_point_rejected():
    g = parse_poly("X^3*Y+Y^4+Z^4+W^4", 4)
    with pytest.raises(InnerPointError):
        is_outer_galois_point(g, E1)


def test_singular_surface_refused():
    cone = parse_poly("X^4+Y^4+Z^4", 4)
    with pytest.raises(SingularSurfaceError):
        is_outer_galois_point(cone, E4)


def test_tester_basis_completion_invariance():
    rng = random.Random(61)
    surfaces_points = [
        (FERMAT, E1, True),
        (FERMAT, ProjPoint([1, 1, 0, 0]), False),
        (FORM1, E1, True),
        (FORM2, E2, True),
        (parse_poly("X^4+Y^4+Z^4+W^4+X*Y*Z*W", 4), E1, False),
    ]
    for f, p, expected in surfaces_points:
        for _ in range(20):
            # random completion of p to a basis
            while True:
                cols = [list(p.coords)] + [
                    [GR(rng.randint(-2, 2), rng.randint(-1, 1))
                     for _ in range(4)] for _ in range(3)]
                b = Matrix.from_columns(cols)
                if not b.det().is_zero():
                    break
            assert is_outer_galois_point(substitute_linear(f, b), E1) == expected


def test_non_galois_point_is_rejected_before_the_pullback(monkeypatch):
    # the first polar of a generic conjugate at (1:1:0:0) is no cube, so
    # sigma_P is never built; at a Galois point it is, and the first-polar
    # identity is its whole proof: no quartic is pulled back either way
    fa = substitute_linear(FORM1, rand_invertible(random.Random(3)))
    calls = pullbacks(monkeypatch)
    p = ProjPoint([1, 1, 0, 0])
    assert not fa.eval(p.coords).is_zero()
    assert galois._generator_or_none(fa, p) is None
    assert calls == []
    assert galois._generator_or_none(FORM1, E1) is not None
    assert len(calls) == 0


def test_tester_covariance_under_conjugation():
    rng = random.Random(62)
    for _ in range(10):
        a = rand_invertible(rng)
        fa = substitute_linear(FERMAT, a)
        for p, expected in ((E1, True), (ProjPoint([1, 1, 0, 0]), False)):
            moved = ProjPoint(a.inverse().apply(list(p.coords)))
            assert is_outer_galois_point(fa, moved) == expected


# -- the generator ----------------------------------------------------------------

def test_generator_fermat_is_diagonal_homology():
    g = galois_generator(FERMAT, E1)
    assert g.matrix == Matrix.diagonal([I, 1, 1, 1])
    assert g.multiplier == ONE


def test_generator_split_form():
    g = galois_generator(FORM1, E1)
    assert g.matrix == Matrix.diagonal([I, 1, 1, 1])
    assert g.multiplier == ONE


def test_generator_invariants():
    # order 4, eigenvalue i exactly on the center, 1 on a hyperplane,
    # and exact preservation of the surface
    for f, p in ((FERMAT, E2), (FORM2, E2), (FORM1, E1)):
        g = galois_generator(f, p)
        m = g.matrix
        assert (m ** 4).is_identity()
        assert not (m ** 2).is_identity()
        assert list(m.apply(list(p.coords))) == [I * x for x in p.coords]
        ed = eigen_decompose_order4(m)
        assert len(ed.space_of(I)) == 1
        assert len(ed.space_of(ONE)) == 3
        assert substitute_linear(f, m) == f.scale(g.multiplier)


def test_generator_conjugation_covariance():
    rng = random.Random(63)
    base = galois_generator(FERMAT, E1).matrix
    for _ in range(10):
        a = rand_invertible(rng)
        fa = substitute_linear(FERMAT, a)
        p = ProjPoint(a.inverse().apply([1, 0, 0, 0]))
        g = galois_generator(fa, p).matrix
        expected = a.inverse() * base * a
        # equal up to a scalar 4th root of unity
        ratios = {(x / y).sort_key()
                  for x, y in zip(g.entries, expected.entries)
                  if not y.is_zero()}
        assert len(ratios) == 1
        scalar = next(x / y for x, y in zip(g.entries, expected.entries)
                      if not y.is_zero())
        assert g == expected.scale(scalar)
        assert scalar ** 4 == ONE


def test_generator_permutes_projection_fibers():
    # the induced action on a line through the center preserves the
    # intersection divisor and has projective order 4
    rng = random.Random(64)
    g = galois_generator(FORM1, E1)
    for _ in range(10):
        while True:
            q = [GR(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(4)]
            line = Matrix.from_columns([[1, 0, 0, 0], q])
            if line.rank() == 2:
                break
        restricted = substitute_linear(FORM1, line)
        image = substitute_linear(FORM1, g.matrix * line)
        assert image == restricted.scale(g.multiplier)


def test_linear_auto_validation():
    with pytest.raises(UnnormalizedAutomorphismError):
        linear_auto(FERMAT, Matrix.diagonal([2, 1, 1, 1]))
    swap_xz = Matrix.from_rows([[0, 0, 1, 0], [0, 1, 0, 0],
                                [1, 0, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(SurfaceNotPreservedError):
        linear_auto(FORM2, swap_xz)
    auto = linear_auto(FERMAT, SIGMA1)
    assert auto.multiplier == ONE
    assert len(auto.eigen.eigenspaces(2)) > 1  # M**2 is not scalar: order 4


# -- recognition -------------------------------------------------------------------

def test_recognize_fermat():
    rep = enumerate_outer_galois_points(FERMAT)
    assert rep.normal_form == "form-3"
    assert rep.completeness == "proved-complete"
    assert set(rep.point_list()) == {E1, E2, E3, E4}
    assert recognize_normal_form(FERMAT) == rep


def test_recognize_form2():
    rep = enumerate_outer_galois_points(FORM2)
    assert rep.normal_form == "form-2"
    assert rep.completeness == "proved-complete"
    assert set(rep.point_list()) == {E1, E2}


def test_recognize_form1():
    rep = enumerate_outer_galois_points(FORM1)
    assert rep.normal_form == "form-1"
    assert rep.completeness == "proved-complete"
    assert rep.point_list() == [E1]


def test_recognize_permuted_split_form():
    # Z^4 + W^4 + (X^3 Y + Y^4), where X^3 Y + Y^4 = Y (X + Y)(X^2 - XY + Y^2)
    # has distinct factors: the two-point form in disguise, and both
    # points verify
    g = parse_poly("X^3*Y+Y^4+Z^4+W^4", 4)
    rep = enumerate_outer_galois_points(g)
    assert rep.normal_form == "form-2"
    assert set(rep.point_list()) == {E3, E4}
    assert rep.completeness == "proved-complete"


def test_recognize_unrecognized():
    # the search proves there is no Galois point
    h = parse_poly("X^4+Y^4+Z^4+W^4+X*Y*Z*W", 4)
    rep = enumerate_outer_galois_points(h)
    assert rep.normal_form == "unrecognized"
    assert rep.completeness == "proved-complete"
    assert rep.reason is None
    assert rep.point_list() == []


@pytest.mark.parametrize("surface, label, completeness", [
    # 2*Z^4+12*Z^2*W^2+2*W^4 = (Z+W)^4 + (Z-W)^4: two pure fourth powers in
    # the coordinates, but Fermat, with four points
    ("X^4+Y^4+2*Z^4+12*Z^2*W^2+2*W^4", "form-3", "proved-complete"),
    # 2*X^4+24*X^2*Y^2+8*Y^4 = (X+r*Y)^4 + (X-r*Y)^4 with r**2 = 2: Fermat
    # again, but two of its four points lie outside Q(i), so two verified
    # points, no proof of completeness and no known count
    ("2*X^4+24*X^2*Y^2+8*Y^4+Z^4+W^4", "unrecognized", "candidates-only"),
], ids=["fermat-in-disguise", "candidates-only"])
def test_recognize_reads_the_point_count(surface, label, completeness):
    rep = enumerate_outer_galois_points(parse_poly(surface, 4))
    assert rep.completeness == completeness
    assert rep.normal_form == label


SHEAR = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])


@pytest.mark.parametrize("f, label", [(FORM1, "form-1"), (FORM2, "form-2"),
                                      (FERMAT, "form-3")],
                         ids=["form-1", "form-2", "form-3"])
def test_recognize_conjugated_normal_forms(f, label):
    for a in (SHEAR, height1_gaussian(19)):
        rep = enumerate_outer_galois_points(substitute_linear(f, a))
        assert rep.completeness == "proved-complete"
        assert rep.normal_form == label


def test_recognize_random_families():
    rng = random.Random(65)
    for _ in range(5):
        f = lift_form1(rand_smooth_plane_quartic(rng))
        rep = enumerate_outer_galois_points(f)
        assert rep.normal_form in ("form-1", "form-2", "form-3")
        assert E1 in rep.point_list()
    for _ in range(5):
        f = lift_form2(rand_squarefree_binary_quartic(rng))
        rep = enumerate_outer_galois_points(f)
        assert {E1, E2} <= set(rep.point_list())


# -- enumeration --------------------------------------------------------------------

def test_enumerate_fermat_complete():
    rep = enumerate_outer_galois_points(FERMAT)
    assert rep.completeness == "proved-complete"
    assert set(rep.point_list()) == {E1, E2, E3, E4}
    expected = {
        E1: Matrix.diagonal([I, 1, 1, 1]),
        E2: Matrix.diagonal([1, I, 1, 1]),
        E3: Matrix.diagonal([1, 1, I, 1]),
        E4: Matrix.diagonal([1, 1, 1, I]),
    }
    for p, gen in rep.points:
        assert gen.matrix == expected[p]


def test_enumerate_form1_single_point():
    rep = enumerate_outer_galois_points(FORM1)
    assert rep.completeness == "proved-complete"
    assert rep.point_list() == [E1]
    assert rep.normal_form == "form-1"


def test_enumerate_form2_two_points():
    rep = enumerate_outer_galois_points(FORM2)
    assert rep.completeness == "proved-complete"
    assert set(rep.point_list()) == {E1, E2}


def test_enumerate_hidden_split_form():
    # the tester itself certifies both points of Z^4+W^4+(X^3 Y+Y^4)
    g = parse_poly("X^3*Y+Y^4+Z^4+W^4", 4)
    rep = enumerate_outer_galois_points(g)
    assert set(rep.point_list()) == {E3, E4}
    assert rep.completeness == "proved-complete"


def test_enumerate_no_galois_points():
    h = parse_poly("X^4+Y^4+Z^4+W^4+X*Y*Z*W", 4)
    rep = enumerate_outer_galois_points(h)
    assert rep.point_list() == []
    assert rep.completeness == "proved-complete"


def test_enumerate_conjugated_fermat():
    # conjugating moves the Galois points along; the search still finds them
    rng = random.Random(66)
    a = rand_invertible(rng)
    fa = substitute_linear(FERMAT, a)
    rep = enumerate_outer_galois_points(fa)
    moved = {ProjPoint(a.inverse().apply([1 if t == k else 0 for t in range(4)]))
             for k in range(4)}
    assert set(rep.point_list()) == moved


@pytest.mark.parametrize("height", [1, 3, 6], ids=["conj1", "conj3", "conj6"])
def test_enumerate_generic_coordinates(height):
    # Fermat pulled back by a matrix with entries a+bi, |a|, |b| <= height:
    # the moved points have large denominators, and the search must
    # still prove completeness
    rng = random.Random(7)
    while True:
        a = Matrix(4, 4, [GR(rng.randint(-height, height),
                             rng.randint(-height, height)) for _ in range(16)])
        if not a.det().is_zero():
            break
    rep = enumerate_outer_galois_points(substitute_linear(FERMAT, a))
    moved = {ProjPoint(a.inverse().apply([1 if t == k else 0 for t in range(4)]))
             for k in range(4)}
    assert rep.completeness == "proved-complete"
    assert rep.reason is None
    assert sorted(rep.point_list(), key=str) == sorted(moved, key=str)


def test_enumerate_retries_next_prime():
    # modulo the first certificate prime this is Fermat, whose four
    # points do not lift to zeros of the true system; the count closes
    # only at the next prime
    h = parse_poly("X^4+Y^4+Z^4+W^4+2130706433*X*Y*Z*W", 4)
    p = solver._CERT_PRIMES[0]
    assert p == 2130706433
    h4, h5, zeros = zeros_mod_p(solver.cube_locus_quadrics(h), 4, p)
    assert (h4, h5, len(list(zeros))) == (4, 4, 4)
    assert solver.solve_projective(solver.cube_locus_quadrics(h), 4) == ([], None)
    # the pencil needs no prime: the commutator of M1 and M2 has kernel 0
    rep = enumerate_outer_galois_points(h)
    assert rep.point_list() == []
    assert rep.completeness == "proved-complete"


def test_enumerate_irrational_points_not_recovered():
    # 2X^4+24X^2Y^2+8Y^4 = (X+sqrt2 Y)^4 + (X-sqrt2 Y)^4: Fermat in
    # coordinates over Q(i, sqrt 2), so two of its four points are not
    # Q(i)-rational and the count cannot close
    f = parse_poly("2*X^4+24*X^2*Y^2+8*Y^4+Z^4+W^4", 4)
    rep = enumerate_outer_galois_points(f)
    assert rep.completeness == "candidates-only"
    assert rep.reason == "points-not-recovered"
    assert rep.point_list() == [E4, E3]


def test_enumerate_rejects_singular():
    with pytest.raises(SingularSurfaceError):
        enumerate_outer_galois_points(parse_poly("X^4+Y^4+Z^4", 4))


def test_proved_complete_counts():
    for f in (FERMAT, FORM1, FORM2,
              parse_poly("X^3*Y+Y^4+Z^4+W^4", 4),
              parse_poly("X^4+Y^4+Z^4+W^4+X*Y*Z*W", 4)):
        rep = enumerate_outer_galois_points(f)
        if rep.completeness == "proved-complete":
            assert len(rep.points) in (0, 1, 2, 4)


def _conjugate_5():
    a = rand_invertible(random.Random(5))
    return substitute_linear(FERMAT, a)


def test_enumerate_downgrades_on_lost_point(monkeypatch):
    # an eigenvalue of the pencil whose root fails to lift, at every prime,
    # must downgrade completeness, never fake it: its eigenline is lost
    fa = _conjugate_5()
    full = enumerate_outer_galois_points(fa)
    assert full.completeness == "proved-complete"
    assert len(full.points) == 4
    candidates, lost = solver._root_candidates, []

    def drop_one(f, bound, primes=None):
        for root in candidates(f, bound, primes):
            exact = eval_poly([GR(*c) for c in f], root).is_zero()
            if exact and not lost:
                lost.append(root)
            if root not in lost:
                yield root

    monkeypatch.setattr(solver, "_root_candidates", drop_one)
    capped = enumerate_outer_galois_points(fa)
    assert capped.completeness == "candidates-only"
    assert capped.reason == "points-not-recovered"
    assert len(capped.points) == 3
    assert set(capped.point_list()) < set(full.point_list())


def test_lift_computes_gradients_until_it_has_chosen(monkeypatch):
    # with the reconstruction at p refused, every zero of the cube-locus
    # quadrics is Newton-lifted; the forms to lift on are chosen from
    # gradients mod p computed one form at a time, and here the first
    # n - 1 = 3 quadrics already have independent gradients: 3 gradients
    # mod p per lift, not one per quadric
    quadrics = solver.cube_locus_quadrics(_conjugate_5())
    full = solver.solve_projective(quadrics, 4)
    assert full[1] is None and len(full[0]) == 4
    reconstruct, gradient, lift = solver._reconstruct, solver._gradient, solver._lift
    at_p = []

    def counted(f, x, i_m, m, free):
        if m in solver._CERT_PRIMES:
            at_p.append(m)
        return gradient(f, x, i_m, m, free)

    per_lift = []

    def counting_lift(*args):
        start = len(at_p)
        point = lift(*args)
        per_lift.append(len(at_p) - start)
        return point

    monkeypatch.setattr(solver, "_reconstruct", lambda x, pik, m: None
                        if m in solver._CERT_PRIMES else reconstruct(x, pik, m))
    monkeypatch.setattr(solver, "_gradient", counted)
    monkeypatch.setattr(solver, "_lift", counting_lift)
    assert solver.solve_projective(quadrics, 4) == full
    assert per_lift == [3] * 4


@pytest.mark.parametrize("text, count", [
    ("X^4+Y^4+Z^4+W^4", 4), ("X^4+Y^4+Z^4+W^4+Y^2*Z*W", 1),
    ("X^4+Y^4+Z^4+Z*W^3+W^4", 2), ("X^4+Y^4+Z^4", None),
], ids=["fermat", "form-1", "form-2", "cone"])
def test_gaussian_content_changes_no_verdict(monkeypatch, text, count):
    # the product of the Gaussian primes above the three certificate
    # primes divides every coefficient of the scaled surface: were that
    # content left in the forms, every reduction would vanish and only the
    # exact Q(i) fallback could decide
    f = substitute_linear(parse_poly(text, 4), rand_invertible(random.Random(5)))
    pi1, pi2, pi3 = (GR(*pi) for pi in solver._CERT_PIS.values())

    def no_fallback(*args):
        raise AssertionError("exact Q(i) fallback")

    monkeypatch.setattr(geometry, "prove_full_column_rank", no_fallback)
    outcomes = []
    for g in (f, f.scale(pi1 * pi2 * pi3)):
        if is_smooth_surface(g):
            rep = enumerate_outer_galois_points(g)
            outcomes.append((rep.point_list(), rep.reason))
        else:
            with pytest.raises(SingularSurfaceError):
                enumerate_outer_galois_points(g)
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]
    if count is None:
        assert outcomes[0] is None
    else:
        points, reason = outcomes[0]
        assert (len(points), reason) == (count, None)


def test_enumerate_ignores_bogus_modular_zero(monkeypatch):
    # a wrong zero mod p is neither reported nor counted
    fa = _conjugate_5()
    zeros_mod_p = solver._zeros_mod_p

    def with_bogus(*args):
        h4, h5, zeros = zeros_mod_p(*args)
        return h4, h5, list(zeros) + [[1, 2, 3, 4]]

    monkeypatch.setattr(solver, "_zeros_mod_p", with_bogus)
    rep = enumerate_outer_galois_points(fa)
    assert rep.completeness == "proved-complete"
    assert len(rep.points) == 4
    assert all(is_outer_galois_point(fa, p) for p in rep.point_list())


def _sheared_basis(f, p):
    """The adapted basis of p followed by the chart's shear
    T -> T - c1/(4 c0), as columns."""
    b = adapted_basis(p)
    xd = x_decompose(substitute_linear(f, b), 0)
    ell = xd.c[1].scale(ONE / (GR(4) * xd.c[0].eval([0, 0, 0])))
    shear_row = [ONE] + [-ell.coeff(tuple(1 if t == k else 0 for t in range(3)))
                         for k in range(3)]
    shear = Matrix.from_rows([shear_row, [ZERO, ONE, ZERO, ZERO],
                              [ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, ONE]])
    return b * shear


def test_shear_produces_split_form():
    # behind every accepted point there is an explicit change of basis
    # (completion followed by the shear) in which the equation becomes
    # c0*T^4 + (quartic without T); check it on a conjugate where the
    # shear is nontrivial
    rng = random.Random(67)
    a = rand_invertible(rng)
    fa = substitute_linear(FERMAT, a)
    p = ProjPoint(a.inverse().apply([1, 0, 0, 0]))
    assert is_outer_galois_point(fa, p)
    xd = x_decompose(substitute_linear(fa, adapted_basis(p)), 0)
    c0 = xd.c[0].eval([0, 0, 0])
    assert not xd.c[1].is_zero()   # the shear genuinely acts here
    split = x_decompose(substitute_linear(fa, _sheared_basis(fa, p)), 0)
    assert split.c[0].eval([0, 0, 0]) == c0 and not c0.is_zero()
    assert split.c[1].is_zero()
    assert split.c[2].is_zero()
    assert split.c[3].is_zero()


def test_generator_is_the_conjugated_diagonal_homology():
    # the closed-form homology is diag(i, 1, 1, 1) conjugated by the
    # sheared basis, with the multiplier of that matrix, at every point
    # found on the split forms, aligned and in seeded generic coordinates
    rng = random.Random(68)
    for f in (FERMAT, FORM1, FORM2):
        for a in (Matrix.identity(4), rand_invertible(rng), rand_invertible(rng)):
            fa = substitute_linear(f, a)
            points = enumerate_outer_galois_points(fa).point_list()
            assert points
            for p in points:
                conj = _sheared_basis(fa, p)
                expected = conj * Matrix.diagonal([I, 1, 1, 1]) * conj.inverse()
                g = galois_generator(fa, p)
                assert g.matrix == expected
                exp0, coeff0 = next(iter(fa.sorted_terms()))
                lam = substitute_linear(fa, expected).coeff(exp0) / coeff0
                assert g.multiplier == lam
                assert substitute_linear(fa, expected) == fa.scale(lam)


def test_generator_needs_no_matrix_products(monkeypatch):
    from quartic_galois.galois import _generator_or_none
    rng = random.Random(69)
    a = rand_invertible(rng)
    fa = substitute_linear(FERMAT, a)
    p = ProjPoint(a.inverse().apply([1, 0, 0, 0]))
    calls = {"inverse": 0, "__mul__": 0}

    def counting(name):
        original = Matrix.__dict__[name]

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Matrix, name, counting(name))
    assert _generator_or_none(fa, p) is not None
    assert calls == {"inverse": 0, "__mul__": 0}


def test_tester_and_generator_agree_with_the_chart_criterion():
    # the homology test against the chart's shear identities, on random
    # form-1 and form-2 members with their coordinate Galois points and
    # off-surface points that are not Galois, aligned and conjugated; a
    # Galois point's generator is diag(i, 1, 1, 1) in the sheared basis
    rng = random.Random(70)
    cases = [(lift_form1(rand_smooth_plane_quartic(rng)), [E1])
             for _ in range(2)]
    cases += [(lift_form2(rand_squarefree_binary_quartic(rng)), [E1, E2])
              for _ in range(2)]
    verdicts = []
    for seed, (f, galois_points) in enumerate(cases, 70):
        others = []
        while len(others) < 2:
            q = ProjPoint([GR(rng.randint(-2, 2), rng.randint(-1, 1))
                           for _ in range(4)])
            if q not in galois_points and not f.eval(q.coords).is_zero():
                others.append(q)
        for a in (Matrix.identity(4), height1_gaussian(seed)):
            fa = substitute_linear(f, a)
            inv = a.inverse()
            for p in galois_points + others:
                moved = ProjPoint(inv.apply(list(p.coords)))
                verdict = is_outer_galois_point(fa, moved)
                assert verdict == oracle_is_outer_galois_point(fa, moved)
                verdicts.append(verdict)
                if verdict:
                    conj = _sheared_basis(fa, moved)
                    gen = galois_generator(fa, moved).matrix
                    assert gen == (
                        conj * Matrix.diagonal([I, 1, 1, 1]) * conj.inverse())
                    assert oracle_preserves(fa, gen)
    assert verdicts.count(True) == 12 and verdicts.count(False) == 16


def test_proved_complete_search_verifies_every_eigenline(monkeypatch):
    # each eigenline of the pencil is verified once, and a report is
    # proved complete on those verdicts alone: with the last one turned
    # to "not Galois", three points contradict N in {0, 1, 2, 4}
    fa = _conjugate_5()
    generator, tested = galois._generator_or_none, []

    def spy_generator(f, p):
        tested.append(p)
        return generator(f, p)

    monkeypatch.setattr(galois, "_generator_or_none", spy_generator)
    rep = enumerate_outer_galois_points(fa)
    assert rep.reason is None and len(rep.points) == 4
    assert sorted(tested, key=ProjPoint.sort_key) == rep.point_list()
    monkeypatch.setattr(galois, "_generator_or_none",
                        lambda f, p: None if p == tested[-1] else generator(f, p))
    with pytest.raises(ConsistencyError, match="returned 3 Galois points"):
        enumerate_outer_galois_points(fa)


# -- descent through the polar plane ---------------------------------------------

C = math.prod(solver._CERT_PRIMES)   # vanishes modulo every certificate prime
XYZW = parse_poly("X^4+Y^4+Z^4+W^4+X*Y*Z*W", 4)


def _no_search(monkeypatch):
    """The calls of the quadric search, which the pencil never makes."""
    return (calls_of(monkeypatch, solver.cube_locus_quadrics)
            + calls_of(monkeypatch, solver.solve_projective))


def test_pencil_proves_no_point_without_a_search(monkeypatch):
    # the quadric search gives up on this conjugate (0 points,
    # points-not-recovered: C vanishes modulo every certificate prime);
    # the pencil's W* is 0, so it has no Galois point
    fa = substitute_linear(parse_poly(f"X^4+Y^4+Z^4+W^4+{C}*X*Y*Z*W", 4),
                           gaussian_matrix(5, 1))
    assert solver.solve_projective(solver.cube_locus_quadrics(fa), 4)[0] == []
    searches, roots = _no_search(monkeypatch), calls_of(monkeypatch, gaussian_roots)
    rep = enumerate_outer_galois_points(fa)
    assert (rep.point_list(), rep.completeness) == ([], "proved-complete")
    assert (searches, roots) == ([], [])


def test_apolar_space_of_dimension_three_without_a_point(monkeypatch):
    # a sum of seven fourth powers of seeded linear forms: its apolar space
    # has dimension 3, as when there is one point, but there is no Galois
    # point, as the quadric search proves too; the pencil proves it with
    # no search and no root
    rng, f = random.Random(5), HomPoly.zero(4, 4)
    for _ in range(7):
        # X -> a linear form with seeded coefficients
        lin = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(4)],
                                list(E2), list(E3), list(E4)])
        f = f + substitute_linear(parse_poly("X^4", 4), lin)
    assert oracle_apolar_dimension(f) == 3
    assert solver.solve_projective(solver.cube_locus_quadrics(f), 4) == ([], None)
    searches, roots = _no_search(monkeypatch), calls_of(monkeypatch, gaussian_roots)
    rep = enumerate_outer_galois_points(f)
    assert (rep.points, rep.reason, searches, roots) == ([], None, [], [])


def test_four_verified_points_prove_completeness():
    # c*W^4 vanishes modulo every certificate prime, so the quadric
    # search's count never closes; the pencil needs no prime: four
    # eigenlines in Q(i), each verified
    rep = enumerate_outer_galois_points(parse_poly(f"X^4+Y^4+Z^4+{C}*W^4", 4))
    assert rep.completeness == "proved-complete" and rep.reason is None
    assert rep.point_list() == [E4, E3, E2, E1]
    assert rep.normal_form == "form-3"


def test_cw4_conjugate_is_proved_complete(monkeypatch):
    # the same surface in generic coordinates, where the quadric search
    # finds no point at all: the pencil finds and proves all four
    a = height1_gaussian(19)
    fa = substitute_linear(parse_poly(f"X^4+Y^4+Z^4+{C}*W^4", 4), a)
    searches = _no_search(monkeypatch)
    rep = enumerate_outer_galois_points(fa)
    assert (rep.completeness, rep.normal_form) == ("proved-complete", "form-3")
    inv = a.inverse()
    assert set(rep.point_list()) == {ProjPoint(inv.apply(list(e)))
                                     for e in (E1, E2, E3, E4)}
    assert searches == []


def _certificates(monkeypatch):
    """The forms of the plane, binary and surface smoothness certificates:
    the top-level calls of geometry.jacobian_ideal_is_irrelevant, by the
    variable count of the form.  A block of a form re-enters it, and is
    not counted."""
    certify, depth = geometry.jacobian_ideal_is_irrelevant, []
    forms = {n: [] for n in range(1, 5)}

    def spying(f):
        if not depth:
            forms[f.nvars].append(f)
        depth.append(f)
        try:
            return certify(f)
        finally:
            depth.pop()

    for module in (geometry, galois):
        monkeypatch.setattr(module, "jacobian_ideal_is_irrelevant", spying)
    return [forms[3], forms[2], forms[4]]


@pytest.mark.parametrize("f, a", [
    (FERMAT, height1_gaussian(19)),
    (parse_poly(f"X^4+Y^4+Z^4+{C}*W^4", 4), gaussian_matrix(5, 1)),
], ids=["fermat", "cw4"])
def test_four_points_certify_smoothness_with_no_matrix(monkeypatch, f, a):
    # the four homologies are diagonal in the basis of their points, so a
    # surface with four verified points whose polar planes hold the other
    # three is sum f(P_k) y_k^4, smooth: no certificate runs.  On the c*W^4
    # conjugate three of the four plane quartics are deficient at every
    # certificate prime, and the exact fallback takes about a second on each
    fa = substitute_linear(f, a)
    certificates = _certificates(monkeypatch)
    rep = enumerate_outer_galois_points(fa)
    assert (rep.completeness, len(rep.points)) == ("proved-complete", 4)
    assert set(rep.point_list()) == {ProjPoint(a.inverse().apply(list(e)))
                                     for e in (E1, E2, E3, E4)}
    assert certificates == [[], [], []]


def test_point_off_another_polar_plane_refuses_the_surface(monkeypatch):
    # on the cone X^4+Y^4+Z^4, e_X and (1:0:0:1) both have first polar 4X^3,
    # and (1:0:0:1) lies off X = 0, the polar plane of e_X: by (b) the
    # surface is singular, and no certificate runs
    f = parse_poly("X^4+Y^4+Z^4", 4)
    points = [E1, ProjPoint([1, 0, 0, 1])]
    pairs = [(p, galois._generator_or_none(f, p)) for p in points]
    assert all(gen is not None for _p, gen in pairs)
    certificates = _certificates(monkeypatch)
    for order in (pairs, pairs[::-1]):
        with pytest.raises(SingularSurfaceError):
            galois.require_smooth(f, order)
    assert certificates == [[], [], []]


def test_large_apolar_space_with_one_point():
    # X^4 + G(Y, Z, W) with G = Y^4+Z^4+W^4+3(Y+Z+W)^4, four fourth powers:
    # its apolar space has dimension 3 + 2, and the pencil proves N = 1
    lin = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 1]])
    f = FERMAT + substitute_linear(parse_poly("W^4", 4), lin).scale(3)
    assert oracle_apolar_dimension(f) == 5
    rep = enumerate_outer_galois_points(f)
    assert (rep.point_list(), rep.completeness) == ([E1], "proved-complete")


def test_singular_surface_is_refused_through_its_plane_quartic(monkeypatch):
    # (X^2+Y^2)^2+Z^4+W^4 under SHEAR keeps its two Galois points, the moved
    # E3 and E4; the binary quartic (X^2+Y^2)^2 on the line of their polar
    # planes refuses the surface, with no plane quartic certified
    f = substitute_linear(parse_poly("X^4+2*X^2*Y^2+Y^4+Z^4+W^4", 4), SHEAR)
    planes, binaries, surfaces = _certificates(monkeypatch)
    generator, verified = galois._generator_or_none, []

    def spy_generator(f, p):
        gen = generator(f, p)
        if gen is not None:
            verified.append(p)
        return gen

    monkeypatch.setattr(galois, "_generator_or_none", spy_generator)
    with pytest.raises(SingularSurfaceError):
        enumerate_outer_galois_points(f)
    inv = SHEAR.inverse()
    assert set(verified) == {ProjPoint(inv.apply(list(e))) for e in (E3, E4)}
    assert len(binaries) == 1 and planes == [] and surfaces == []


@pytest.mark.parametrize("f, dim_w, step", [
    (FORM1, 1, "plane"), (FORM2, 2, "binary"), (XYZW, 0, "surface"),
], ids=["form-1", "form-2", "xyzw"])
def test_descent_certifies_the_smallest_form(monkeypatch, f, dim_w, step):
    # in generic coordinates: dim W* = N, and only dim W* >= 2 asks for
    # roots; one verified point certifies its plane quartic in place of
    # the surface, two the binary quartic on the line of their polar
    # planes, and nothing searches the cube locus
    fa = substitute_linear(f, height1_gaussian(19))
    kernel, kernels = galois._invariant_kernel, []
    monkeypatch.setattr(galois, "_invariant_kernel",
                        lambda *ms: kernels.append(kernel(*ms)) or kernels[-1])
    searches, roots = _no_search(monkeypatch), calls_of(monkeypatch, gaussian_roots)
    planes, binaries, surfaces = _certificates(monkeypatch)
    rep = enumerate_outer_galois_points(fa)
    assert rep.reason is None and len(rep.points) == dim_w
    assert [len(k) for k in kernels] == [dim_w] and searches == []
    assert (len(roots), len(planes), len(binaries), len(surfaces)) == (
        int(dim_w > 1), int(step == "plane"), int(step == "binary"),
        int(step == "surface"))


@pytest.mark.parametrize("f, p, outcome, step", [
    (FORM2, E1, True, "plane"), (FORM2, E3, False, "binary"),
    (parse_poly("X^4+Y^4+Z^4", 4), E1, SingularSurfaceError, "plane"),
    (parse_poly("X^4+Y^4+Z^4", 4), E4, SingularSurfaceError, "cone"),
], ids=["galois", "not-galois", "singular-galois", "singular-inner"])
def test_tester_certifies_the_smallest_form(monkeypatch, f, p, outcome, step):
    # a point off the surface is verified first, and a Galois point
    # certifies its plane quartic; with none, the surface goes through the
    # pencil: form-2's two points certify its binary quartic, and the
    # cone's dependent partials refuse it with no certificate.  A point on
    # a singular surface is refused as singular, before it is refused as
    # inner
    a = height1_gaussian(19)
    fa, moved = substitute_linear(f, a), ProjPoint(a.inverse().apply(list(p)))
    planes, binaries, surfaces = _certificates(monkeypatch)
    if isinstance(outcome, bool):
        assert is_outer_galois_point(fa, moved) == outcome
    else:
        with pytest.raises(outcome):
            is_outer_galois_point(fa, moved)
    assert (len(planes), len(binaries), len(surfaces)) == (
        int(step == "plane"), int(step == "binary"), 0)


def _members(rng):
    """Seeded form-1, form-2 and Fermat members, each family three times
    smooth and once singular: a node at (0:1:0:0), a double root of the
    binary quartic at W = 0, or a zero coefficient (a cone)."""
    def drop_high_first_power(g):
        return HomPoly(g.nvars, 4, {e: c for e, c in g.terms.items() if e[0] < 3})

    out = []
    for k in range(4):
        singular = k == 3
        g = rand_smooth_plane_quartic(rng)
        h = rand_squarefree_binary_quartic(rng)
        if singular:
            g, h = drop_high_first_power(g), drop_high_first_power(h)
        coeffs = [rand_gr(rng, 1, 3) for _ in range(4)]
        if singular:
            coeffs[3] = ZERO
        out += [lift_form1(g), lift_form2(h),
                HomPoly(4, 4, {tuple(4 * (t == j) for t in range(4)): c
                               for j, c in enumerate(coeffs)})]
    return out


def test_descent_agrees_with_the_search():
    # the pencil's report against the quadric search, which finds every
    # Q(i) point of the cube locus, and the whole-surface certificate:
    # the same points and generators, the same completeness, the same
    # smoothness
    outcomes = []
    for seed, f in enumerate(_members(random.Random(72)), 72):
        fa = substitute_linear(f, height1_gaussian(seed))
        sols, reason = solver.solve_projective(solver.cube_locus_quadrics(fa), 4)
        old = ((galois._verified_pairs(fa, sols), reason)
               if is_smooth_surface(fa) else None)
        try:
            rep = enumerate_outer_galois_points(fa)
            new = (rep.points, rep.reason)
        except SingularSurfaceError:
            new = None
        assert new == old
        outcomes.append(None if new is None else len(new[0]))
    assert outcomes.count(None) == 3
    assert sorted(outcomes[:9]) == [1, 1, 1, 2, 2, 2, 4, 4, 4]


# -- the Hessian pencil --------------------------------------------------------------

def _pencil(f):
    """adj H(y0) H(y1), adj H(y0) H(y2), H(y1) and det H(y0) of the
    enumerator, Z[i] matrices, on a surface whose Hessian is invertible at
    the first point of the pencil."""
    h0, h1, h2 = (galois._hessian(f, y) for y in galois._PENCIL)
    adj, det = galois._adjugate(h0)
    return galois._product(adj, h1), galois._product(adj, h2), h1, det


def _qi(m):
    """A Z[i] matrix of the pencil as a Matrix over Q(i)."""
    return Matrix.from_rows([[GR(a, b, 1) for a, b in row] for row in m])


def test_hessian_is_the_matrix_of_second_partials():
    # against the second partials of the form, evaluated at each point of
    # the pencil and a grid point, and scaled by the common denominator
    f = substitute_linear(FORM2.scale(GR(1, 2) / 3), height1_gaussian(19))
    for y in galois._PENCIL + ((1, 1, 1, 9),):
        second = [[d2.eval(y) for d2 in partials(d1)] for d1 in partials(f)]
        assert _qi(galois._hessian(f, y)) == Matrix.from_rows(second).scale(f.den)


@pytest.mark.parametrize("f, dims", [
    (FORM1, (2, 1)), (FORM2, (2, 2)), (FERMAT, (4, 4)), (XYZW, (0, 0)),
], ids=["form-1", "form-2", "form-3", "xyzw"])
def test_invariance_iteration_cuts_the_commutator_kernel(f, dims):
    # H(y0) [M1, M2] = S - S^t with S = H(y1) H(y0)^-1 H(y2) is
    # antisymmetric, of even rank; so ker [M1, M2] has even dimension, and
    # with one Galois point it is a plane of which only the point's line
    # is mapped into itself by M1 and M2 (here det H(y0) M1 and M2)
    fa = substitute_linear(f, height1_gaussian(19))
    m1, m2, h1, det = _pencil(fa)
    q1, q2 = _qi(m1), _qi(m2)
    w0 = (q1 * q2 - q2 * q1).kernel_basis()
    w = galois._invariant_kernel(m1, m2, h1)
    assert (len(w0), len(w)) == dims
    lines, complete = galois._eigenlines((m1, m2), det, w)
    assert complete and len(lines) == dims[1]
    assert all(Matrix.from_columns([p.coords, m.apply(p.coords)]).rank() == 1
               for p in lines for m in (q1, q2))


def test_cone_in_generic_coordinates_is_refused(monkeypatch):
    # X^4+Y^4+Z^4 under SHEAR: a cone, whose Hessian determinant vanishes
    # identically, so no point of the pencil or of the grid serves as y0;
    # its four partials are linearly dependent, the derivative along the
    # vertex being 0, and that refuses it with no certificate
    f = substitute_linear(parse_poly("X^4+Y^4+Z^4", 4), SHEAR)
    assert all(_qi(galois._hessian(f, y)).det() == ZERO for y in galois._PENCIL)
    surfaces = calls_of(monkeypatch, geometry.is_smooth_surface)
    with pytest.raises(SingularSurfaceError):
        enumerate_outer_galois_points(f)
    assert surfaces == []


def test_grid_point_serves_when_the_pencil_points_fail(monkeypatch):
    # form-1 pulled back by A whose first row l vanishes at the three
    # points of the pencil: the Hessian is A^t diag(12 l(y)^2, H_G) A, of
    # determinant 0 at each of them, so y0 comes from the grid, the one
    # point is still found and proved, and its plane quartic certifies the
    # surface after the grid
    f, a = _grid_case()
    planes, binaries, surfaces = _certificates(monkeypatch)
    rep = enumerate_outer_galois_points(f)
    assert rep.point_list() == [ProjPoint(a.inverse().apply(list(E1)))]
    assert (rep.reason, len(planes), binaries, surfaces) == (None, 1, [], [])


def _grid_case():
    """form-1 pulled back by A, whose first row vanishes at the three
    points of the pencil, and A."""
    ell = Matrix.from_rows(galois._PENCIL).kernel_basis()[0]
    a = Matrix.from_rows([ell, list(E2), list(E3), list(E4)])
    f = substitute_linear(FORM1, a)
    assert all(_qi(galois._hessian(f, y)).det() == ZERO for y in galois._PENCIL)
    return f, a


def test_pencil_certifies_nothing(monkeypatch):
    # the pencil finds points and refuses a cone, and certifies no form:
    # on the grid case it walks the grid with no certificate, and the SHEAR
    # cone is refused by the pencil itself, by its dependent partials
    cone = substitute_linear(parse_poly("X^4+Y^4+Z^4", 4), SHEAR)
    calls = [calls_of(monkeypatch, step) for step in (
        galois._ladder, geometry.jacobian_ideal_is_irrelevant,
        geometry.is_smooth_surface)]
    pairs, complete = galois._pencil(_grid_case()[0])
    assert (len(pairs), complete) == (1, True)
    with pytest.raises(SingularSurfaceError):
        galois._pencil(cone)
    assert calls == [[], [], []]


def test_three_points_certify_by_the_form_left_on_their_polar_planes(monkeypatch):
    # three of Fermat's four Galois points in generic coordinates leave
    # c*T^4 on the line of their polar planes, with c = f at the fourth
    # point: nonzero, so the surface is certified with no binary profile
    # and no Macaulay search.  The cone X^4+Y^4+Z^4 keeps the three points
    # and vanishes at the fourth, its vertex, and is refused
    a = height1_gaussian(19)
    profiles = calls_of(monkeypatch, poly.squarefree_profile)
    searches = calls_of(monkeypatch, solver._searches)
    for f, refused in ((FERMAT, False),
                       (parse_poly("X^4+Y^4+Z^4", 4), True)):
        fa = substitute_linear(f, a)
        pairs = [(p, galois._generator_or_none(fa, p))
                 for p in (ProjPoint(a.inverse().apply(list(e)))
                           for e in (E1, E2, E3))]
        assert all(gen is not None for _p, gen in pairs)
        if refused:
            with pytest.raises(SingularSurfaceError):
                galois.require_smooth(fa, pairs)
        else:
            assert galois.require_smooth(fa, pairs) is None
    assert (profiles, searches) == ([], [])


def test_second_matrix_splits_a_repeated_eigenvalue():
    # Fermat in the forms X, l1, Y, W, with l1 chosen so that l1(y1) / l1(y0)
    # = y1_X / y0_X: the Galois points of X and l1 share their eigenvalue
    # of M1, whose eigenspace on W* is a plane, and M2 splits it
    fa, a = _repeated_eigenvalue_case()
    m1, m2, h1, det = _pencil(fa)
    w = galois._invariant_kernel(m1, m2, h1)
    r, s = galois._restriction(m1, w)[0], _gi_mul(det, galois._scale(w))
    roots, split = gaussian_roots(galois._eigenpolynomial(r, s))
    assert (len(w), len(roots), split) == (4, 3, True)
    rep = enumerate_outer_galois_points(fa)
    assert (rep.completeness, rep.normal_form) == ("proved-complete", "form-3")
    inv = a.inverse()
    assert set(rep.point_list()) == {ProjPoint(inv.apply(list(e)))
                                     for e in (E1, E2, E3, E4)}


def _repeated_eigenvalue_case():
    """Fermat in the forms X, l1, Y, W, with l1 chosen so that l1(y1) /
    l1(y0) = y1_X / y0_X, and the matrix of those forms."""
    y0, y1, _ = galois._PENCIL
    r = GR(y1[0]) / y0[0]
    v = [b - r * a for a, b in zip(y0, y1)]
    ell = Matrix.from_rows([v]).kernel_basis()[1]
    a = Matrix.from_rows([list(E1), ell, list(E2), list(E4)])
    return substitute_linear(FERMAT, a), a


# the families of the benchmark corpus, perfbench/corpus.py
CORPUS_FAMILIES = [FERMAT, FORM1, FORM2, parse_poly("X^3*Y+Y^4+Z^4+W^4", 4), XYZW]


def test_integer_pencil_agrees_with_the_rational_oracle(monkeypatch):
    # the Z[i] pencil (adj H(y0), Bareiss kernels, Berkowitz) against the
    # Q(i) one (H(y0)^-1, reduced kernels, Faddeev-LeVerrier, the roots of
    # the oracle): the same candidate lines in the same order and the same
    # completeness, on seeded height-1 conjugates of the corpus families,
    # the normal forms under SHEAR, a repeated eigenvalue of M1, the grid
    # case and the sqrt 2 example, which stays candidates-only
    sqrt2 = parse_poly("2*X^4+24*X^2*Y^2+8*Y^4+Z^4+W^4", 4)
    cases = ([substitute_linear(f, height1_gaussian(seed))
              for f in CORPUS_FAMILIES for seed in (101, 102)]
             + [substitute_linear(f, SHEAR) for f in (FORM1, FORM2, FERMAT)]
             + [_repeated_eigenvalue_case()[0], _grid_case()[0], sqrt2,
                substitute_linear(sqrt2, height1_gaussian(19))])
    candidates = calls_of(monkeypatch, galois._verified_pairs)
    completeness = []
    for f in cases:
        _pairs, complete = galois._pencil(f)
        assert (candidates[-1][1], complete) == oracle_pencil_lines(f, galois._PENCIL)
        completeness.append(complete)
    assert completeness == [True] * (len(cases) - 2) + [False, False]


def _zi_matrix(rng, rank):
    """A seeded 4x4 Z[i] matrix of the given rank, a product of random 4 x
    rank and rank x 4 factors with small entries, its columns shuffled."""
    def entry(*_):
        return rng.randint(-3, 3) + rng.randint(-3, 3) * sympy.I

    while True:
        left, right = sympy.Matrix(4, rank, entry), sympy.Matrix(rank, 4, entry)
        m = (left * right).expand() if rank else sympy.zeros(4, 4)
        if m.rank() == rank:
            cols = rng.sample(range(4), 4)
            return m.extract(list(range(4)), cols)


def test_berkowitz_and_bareiss_kernel_against_sympy():
    # Berkowitz's det(x I - a) against sympy's charpoly, and the Bareiss
    # kernel against sympy's nullspace, whose vectors are 1 at a free
    # column and 0 at the others: each of ours is those times one scale,
    # the last pivot, which is a minor of a at the pivot columns
    rng, x = random.Random(38), sympy.Symbol("x")
    for rank in (4, 3, 2, 1, 0) * 4:
        m = _zi_matrix(rng, rank)
        a = [[(int(sympy.re(e)), int(sympy.im(e))) for e in m.row(r)] for r in range(4)]
        coeffs = [c[0] + c[1] * sympy.I for c in galois._berkowitz(a)]
        assert [sympy.expand(c) for c in m.charpoly(x).all_coeffs()[::-1]] == coeffs
        rows, pivots = galois._echelon(a, 4)
        if rows:
            last = rows[-1][pivots[-1]][0] + rows[-1][pivots[-1]][1] * sympy.I
            assert any(sympy.expand(m.extract(list(sub), pivots).det() - sign * last) == 0
                       for sub in itertools.combinations(range(4), rank) for sign in (1, -1))
        kernel, null = galois._kernel(a, 4), m.nullspace()
        assert len(kernel) == len(null) == 4 - rank
        for v, w in zip(kernel, null):
            scale = galois._scale(kernel)
            got = sympy.Matrix([c[0] + c[1] * sympy.I for c in v])
            diff = got - (scale[0] + scale[1] * sympy.I) * w
            assert diff.expand(complex=True) == sympy.zeros(4, 1)
