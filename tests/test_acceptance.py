"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Tolerances and budgets are fixed here and nowhere
else; every assertion is exact unless a runtime budget is stated.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
import time

from quartic_galois.gaussian import GaussianRational as GR
from quartic_galois.gaussian import I, MINUS_ONE, ONE
from quartic_galois.galois import (enumerate_outer_galois_points,
                                   is_outer_galois_point)
from quartic_galois.geometry import is_smooth_surface
from quartic_galois.k3 import (GramMatrix2, classify, fixed_locus,
                               isolated_point_formula, moduli_dimension,
                               npns_moduli_dim, reduce_gram, solve_m,
                               symplectic_character)
from quartic_galois.linalg import Matrix, centralizer_dimension
from quartic_galois.poly import (ProjPoint, parse_poly, squarefree_profile,
                                 substitute_linear, x_decompose)

from helpers import (SIGMA1, SIGMA2, SMOOTHNESS_CORPUS, diag,
                     euler_identity_holds, lift_form1, lift_form2,
                     rand_invertible, rand_sl2, rand_smooth_plane_quartic,
                     rand_sparse_quartic,
                     rand_squarefree_binary_quartic)
from oracles import oracle_is_smooth, oracle_transform_gram

FERMAT = parse_poly("X^4+Y^4+Z^4+W^4", 4)
E1 = ProjPoint([1, 0, 0, 0])
COORDS = [ProjPoint([1 if t == k else 0 for t in range(4)]) for k in range(4)]


def _report(num: int, elapsed: float, budget: float, detail: str) -> None:
    print(f"[acceptance] criterion {num}: PASS in {elapsed:.2f}s "
          f"(budget {budget:.0f}s) - {detail}")


def test_criterion_1_fermat_find():
    t0 = time.time()
    rep = enumerate_outer_galois_points(FERMAT)
    assert rep.completeness == "proved-complete"
    assert set(rep.point_list()) == set(COORDS)
    for p, gen in rep.points:
        expected = Matrix.diagonal(
            [I if k == p.pivot_index() else ONE for k in range(4)])
        assert gen.matrix == expected
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(1, elapsed, 30,
            "4 coordinate points, proved-complete, diagonal generators")


def test_criterion_2_form1_family():
    rng = random.Random(2024)
    worst = 0.0
    for k in range(20):
        f4 = rand_smooth_plane_quartic(rng)
        f = lift_form1(f4)
        t0 = time.time()
        assert is_outer_galois_point(f, E1)
        rep = fixed_locus(f, SIGMA1)
        assert [(c.genus, c.smooth) for c in rep.curves] == [(3, True)]
        assert rep.isolated_points == 0
        at = classify(f, SIGMA1)
        assert at.character == "purely-ns-4"
        assert at.type_tuple == (1, 0, 0, 3)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert elapsed < 10.0
    _report(2, worst, 10, "20 random members, worst single-surface time")


def test_criterion_3_form2_family():
    rng = random.Random(2025)
    worst = 0.0
    s12 = diag(I, I, 1, 1)
    for k in range(20):
        f4 = rand_squarefree_binary_quartic(rng)
        assert squarefree_profile(f4) == [1, 1, 1, 1]
        f = lift_form2(f4)
        t0 = time.time()
        assert is_outer_galois_point(f, E1)
        assert is_outer_galois_point(f, ProjPoint([0, 1, 0, 0]))
        rep = fixed_locus(f, s12)
        assert rep.curves == []
        assert rep.isolated_points == 8
        at = classify(f, s12)
        assert at.character == "npns"
        assert at.type_tuple == (10, 4, 8)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert elapsed < 10.0
    _report(3, worst, 10, "20 random members, worst single-surface time")


def test_criterion_4_characters_exact():
    t0 = time.time()
    form1 = parse_poly("X^4+Y^4+Z^4+W^4+Y^2*Z*W", 4)
    form2 = parse_poly("X^4+Y^4+Z^4+Z*W^3+W^4", 4)
    cases = [
        (form1, SIGMA1, I),
        (form2, diag(I, I, 1, 1), MINUS_ONE),
        (FERMAT, diag(I, -I, 1, 1), ONE),
    ]
    for f, m, expected in cases:
        u = symplectic_character(f, m)
        assert u == expected
        rep = fixed_locus(f, m)
        if u in (ONE, MINUS_ONE):
            assert rep.curves == []   # fixed locus is isolated points only
    _report(4, time.time() - t0, 5, "characters i, -1, 1, exact; "
            "isolated-only consistency for u = 1 and u = -1")


def test_criterion_5_isolated_point_formula():
    rng = random.Random(2026)
    t0 = time.time()
    checked = 0
    for _ in range(10):
        f = lift_form1(rand_smooth_plane_quartic(rng))
        u = symplectic_character(f, SIGMA1)
        assert u == I
        rep = fixed_locus(f, SIGMA1)
        genera = [c.genus for c in rep.curves]
        assert rep.isolated_points == isolated_point_formula(genera)
        checked += 1
    assert isolated_point_formula([3]) == 0
    assert isolated_point_formula([2]) == 2
    _report(5, time.time() - t0, 30,
            f"n = 2*sum(1-g)+4 exact on {checked} purely-ns cases")


def test_criterion_6_moduli_counts():
    t0 = time.time()
    assert centralizer_dimension([SIGMA1, SIGMA2]) == 6
    assert moduli_dimension(7, [SIGMA1, SIGMA2]) == 1
    assert npns_moduli_dim(4) == 2
    _report(6, time.time() - t0, 5, "7 - 6 = 1, centralizer 6, l - 2 = 2")


def test_criterion_7_lattice_reduction():
    t0 = time.time()
    base = GramMatrix2.from_entries(8, 0, 8)
    reduced, _ = reduce_gram(base)
    assert reduced == base
    rng = random.Random(2027)
    for _ in range(100):
        u = rand_sl2(rng, bound=10)
        moved = oracle_transform_gram(base, u)
        r, tr = reduce_gram(moved)
        assert r == base
        assert r.det() == moved.det() == 64
        again, _ = reduce_gram(r)
        assert again == r
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(7, elapsed, 1,
            "100 unimodular conjugates of diag(8,8) reduce to diag(8,8)")




def test_criterion_8_smoothness_oracle_equivalence():
    t0 = time.time()
    smooth_count = 0
    for text in SMOOTHNESS_CORPUS:
        f = parse_poly(text, 4)
        mine = is_smooth_surface(f)
        oracle = oracle_is_smooth(f)
        assert mine == oracle, f"disagreement on {text}"
        smooth_count += mine
    elapsed = time.time() - t0
    assert elapsed < 60.0
    assert len(SMOOTHNESS_CORPUS) == 30
    assert 0 < smooth_count < 30   # genuinely mixed corpus
    _report(8, elapsed, 60,
            f"30 surfaces, {smooth_count} smooth, verdicts agree with the "
            "elimination oracle")


def test_criterion_9_property_suites():
    t0 = time.time()
    rng = random.Random(2028)

    # tester invariance under 20 random basis completions, 5 surfaces
    surfaces_points = [
        (FERMAT, E1, True),
        (FERMAT, ProjPoint([1, 1, 0, 0]), False),
        (parse_poly("X^4+Y^4+Z^4+W^4+Y^2*Z*W", 4), E1, True),
        (parse_poly("X^4+Y^4+Z^4+Z*W^3+W^4", 4), ProjPoint([0, 1, 0, 0]), True),
        (parse_poly("X^4+Y^4+Z^4+W^4+X*Y*Z*W", 4), E1, False),
    ]
    for f, p, expected in surfaces_points:
        for _ in range(20):
            while True:
                cols = [list(p.coords)] + [
                    [GR(rng.randint(-2, 2), rng.randint(-1, 1))
                     for _ in range(4)] for _ in range(3)]
                b = Matrix.from_columns(cols)
                if not b.det().is_zero():
                    break
            assert is_outer_galois_point(substitute_linear(f, b), E1) == expected

    # covariance of Galois points under random substitutions
    for _ in range(10):
        a = rand_invertible(rng)
        fa = substitute_linear(FERMAT, a)
        for p, expected in ((E1, True), (ProjPoint([1, 1, 0, 0]), False)):
            moved = ProjPoint(a.inverse().apply(list(p.coords)))
            assert is_outer_galois_point(fa, moved) == expected

    # Euler identity
    for _ in range(100):
        f = rand_sparse_quartic(rng, rng.randint(1, 8))
        if not f.is_zero():
            assert euler_identity_holds(f)

    # chart decomposition round trip
    for _ in range(1000):
        f = rand_sparse_quartic(rng, rng.randint(1, 6))
        chart = rng.randrange(4)
        assert x_decompose(f, chart).reassemble() == f

    # squarefree profiles sum to the degree
    for _ in range(100):
        f4 = rand_squarefree_binary_quartic(rng)
        assert sum(squarefree_profile(f4)) == 4

    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(9, elapsed, 120, "tester invariance, covariance, Euler, "
            "decomposition round trip, profile sums")


def test_criterion_10_hurwitz_values():
    t0 = time.time()
    assert solve_m(1, 1) == 0
    assert solve_m(1, 0) == 4
    _report(10, time.time() - t0, 5, "m(1,1) = 0 and m(1,0) = 4, exact")
