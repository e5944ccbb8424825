import random

import pytest

import quartic_galois.geometry as geometry
import quartic_galois.linalg as linalg
import quartic_galois.solver as solver
from quartic_galois.errors import (DegenerateInputError,
                                   UnnormalizedAutomorphismError)
from quartic_galois.gaussian import GaussianRational as GR
from quartic_galois.gaussian import I, MINUS_I, MINUS_ONE, ONE
from quartic_galois.geometry import (eigen_decompose_order4,
                                     is_smooth_plane_quartic,
                                     is_smooth_surface, macaulay_rows, section)
from quartic_galois.linalg import Matrix
from quartic_galois.poly import (HomPoly, ProjPoint, monomials, parse_poly, partials,
                                 restrict, substitute_linear)

from helpers import (SMOOTH_SURFACES, SMOOTHNESS_CORPUS, engine_sizes,
                     gaussian_matrix, rand_invertible, zeros_mod_p)
from oracles import oracle_is_smooth

FERMAT = parse_poly("X^4+Y^4+Z^4+W^4", 4)


def plane(text):
    """The plane quartic in Y, Z, W of the given text."""
    return restrict(parse_poly(text, 4), (1, 2, 3))


# -- smoothness ---------------------------------------------------------------

def test_fermat_is_smooth():
    assert is_smooth_surface(FERMAT)


def test_cone_is_singular():
    assert not is_smooth_surface(parse_poly("X^4+Y^4+Z^4", 4))


def test_double_quadric_is_singular():
    # X^4 + 2X^2Y^2 + Y^4 + Z^4 + W^4 = (X^2 + Y^2)^2 + Z^4 + W^4,
    # singular at [1 : +-i : 0 : 0]; cross-checked against the oracle
    f = parse_poly("X^4+Y^4+Z^4+W^4+2*X^2*Y^2", 4)
    mine = is_smooth_surface(f)
    assert mine == oracle_is_smooth(f)
    assert mine is False


def test_macaulay_dimensions():
    from quartic_galois.poly import partials
    rows, ncols = macaulay_rows(partials(FERMAT), 9)
    assert ncols == 220 and len(rows) == 336
    rows3, ncols3 = macaulay_rows(
        partials(plane("Y^4+Z^4+W^4")), 7)
    assert ncols3 == 36 and len(rows3) == 45


def test_plane_quartic_examples():
    smooth = plane("Y^4+Z^4+W^4")
    assert is_smooth_plane_quartic(smooth)
    cusp = plane("Y^4+Z^4")
    assert not is_smooth_plane_quartic(cusp)
    klein = plane("Y^3*Z+Z^3*W+W^3*Y")
    assert is_smooth_plane_quartic(klein)
    assert oracle_is_smooth(klein)


def _hilbert_above_certificate_degree(f):
    # H_p(D+1) of the Jacobian ideal, D = n(d-2)+1, from the solver's
    # zero finder at the first certificate prime
    n = f.nvars
    p = solver._CERT_PRIMES[0]
    _, h1, _ = zeros_mod_p([g.num for g in partials(f)], n, p, k=3, d=2 * n + 1)
    return h1


def test_margin_stability():
    # the rank verdict must not depend on testing one degree higher
    for text in SMOOTHNESS_CORPUS:
        f = parse_poly(text, 4)
        assert is_smooth_surface(f) == (_hilbert_above_certificate_degree(f) == 0)
    g = plane("Y^3*Z+Z^3*W+W^3*Y")
    assert is_smooth_plane_quartic(g) == (_hilbert_above_certificate_degree(g) == 0)


def test_macaulay_certificate_matches_exact_elimination():
    # the modular certificate and pure exact elimination are two routes
    # to the same verdict; compare them on real Jacobian systems
    from quartic_galois.linalg import sparse_rank
    for text in ("X^4+Y^4+Z^4+W^4", "X^3*Y+Y^4+Z^4+W^4", "X^4+Y^4+Z^4",
                 "X^2*Y^2+Z^2*W^2"):
        f = parse_poly(text, 4)
        rows, ncols = macaulay_rows(partials(f), 9)
        assert is_smooth_surface(f) == (sparse_rank(rows) == ncols)


SHEAR = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
ZERO_ONE = Matrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1], [1, 0, 0, 1]])
CONE = parse_poly("X^4+Y^4+Z^4", 4)
SQUARE = parse_poly("X^4+2*X^2*Y^2+Y^4+Z^4+W^4", 4)   # (X^2+Y^2)^2+Z^4+W^4
DWORK = parse_poly("X^4+Y^4+Z^4+W^4-4*X*Y*Z*W", 4)


def _forbid_exact_rank(monkeypatch):
    def no_exact_rank(rows):
        raise AssertionError("exact elimination was reached")

    monkeypatch.setattr(linalg, "sparse_rank", no_exact_rank)


def _exact_rank_counter(monkeypatch):
    calls = []
    rank = linalg.sparse_rank

    def counting(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(linalg, "sparse_rank", counting)
    return calls


def _spy_searches(monkeypatch):
    """Record, through geometry's solver._searches, each search it runs
    (one list per call of a prime's search) and the exact zeros it takes."""
    searches = []
    engine = solver._searches

    def spying(*args):
        for h, search in engine(*args):
            def recording(_search=search):
                taken = []
                searches.append(taken)
                h_d, points = _search()

                def take():
                    for point in points:
                        taken.append(point)
                        yield point
                return h_d, take()
            yield h, recording

    monkeypatch.setattr(geometry, "_searches", spying)
    return searches


@pytest.mark.parametrize("f, a", [
    (CONE, SHEAR), (CONE, ZERO_ONE), (SQUARE, SHEAR), (DWORK, gaussian_matrix(7, 1)),
    (DWORK, gaussian_matrix(7, 3)),
], ids=["cone-shear", "cone-zero-one", "square-shear", "dwork-gaussian",
        "dwork-gaussian-height3"])
def test_singular_point_witness(monkeypatch, f, a):
    # the vertex of the cone (length 27) and the nodes of the square
    # (length 9 each) are reconstructed at p; Dwork's 16 nodes are
    # reduced zeros, and at height 3 they need Newton lifting past p.
    # One search runs, it takes one exact zero, and the verdict needs no
    # exact elimination
    _forbid_exact_rank(monkeypatch)
    searches = _spy_searches(monkeypatch)
    g = substitute_linear(f, a)
    assert is_smooth_surface(g) is False
    assert len(searches) == 1 and len(searches[0]) == 1
    assert all(d.eval(searches[0][0].coords).is_zero() for d in partials(g))


@pytest.mark.parametrize("f", [DWORK, substitute_linear(CONE, SHEAR)],
                         ids=["dwork", "cone-shear"])
def test_one_degree9_elimination_per_singular_verdict(monkeypatch, f):
    # the rank test's degree-9 echelon is handed to the zero finder, so
    # the matrix is built once and eliminated once
    builds, eliminations = [], []
    for module in (solver, geometry):
        for name, log, degree9 in (
                ("_macaulay", builds, lambda basis, n, k, d: d == 9),
                ("_pivots_mod_p", eliminations, lambda a, p, **kw: a.shape[1] == 220),
                ("_echelon_mod_p", eliminations, lambda a, p, **kw: a.shape[1] == 220)):
            if hasattr(module, name):
                def counted(*args, _f=getattr(module, name), _log=log, _hit=degree9,
                            **kwargs):
                    if _hit(*args, **kwargs):
                        _log.append(1)
                    return _f(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    _forbid_exact_rank(monkeypatch)
    assert is_smooth_surface(f) is False
    assert (len(builds), len(eliminations)) == (1, 1)


def test_singular_plane_quartic_witness(monkeypatch):
    # the same search at D = 7 on curves: (Y^2+Z^2)^2+W^4 in sheared
    # coordinates, singular at two points of length 9
    _forbid_exact_rank(monkeypatch)
    shear = Matrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    g = substitute_linear(plane("Y^4+2*Y^2*Z^2+Z^4+W^4"), shear)
    assert is_smooth_plane_quartic(g) is False


@pytest.mark.parametrize("text", ["X^4-4*X^2*Y^2+4*Y^4+Z^4+W^4", "X^2*Y^2+Z^2*W^2"],
                         ids=["irrational-nodes", "singular-lines"])
def test_singular_without_witness_falls_back(monkeypatch, text):
    # nodes at (+-sqrt2 : 1 : 0 : 0), and a surface singular along lines:
    # no Q(i) singular point is recovered, exact elimination decides
    calls = _exact_rank_counter(monkeypatch)
    assert is_smooth_surface(substitute_linear(parse_poly(text, 4), SHEAR)) is False
    assert calls


def test_bogus_modular_zero_is_not_a_witness(monkeypatch):
    # a wrong zero mod p proves nothing: the verdict comes from exact
    # elimination, and on a smooth surface the search finds no point
    fermat = [g.num for g in partials(FERMAT)]

    def first_search():
        h, search = next(solver._searches(fermat, 4, 3, 8))
        assert h == 0
        return list(search()[1])

    assert first_search() == []
    calls = _exact_rank_counter(monkeypatch)
    monkeypatch.setattr(solver, "_zeros_mod_p",
                        lambda *args, **kwargs: (1, 1, [[1, 2, 3, 4]]))
    assert is_smooth_surface(substitute_linear(CONE, SHEAR)) is False
    assert calls
    assert first_search() == []


@pytest.mark.parametrize("f", [substitute_linear(FERMAT, gaussian_matrix(1, 1)),
                               plane("Y^3*Z+Z^3*W+W^3*Y")],
                         ids=["fermat-gaussian", "klein"])
def test_smooth_verdict_builds_only_the_degree_D_echelon(monkeypatch, f):
    # a full-rank image at the first prime proves smooth: one Macaulay
    # matrix is built, at D = n(d-2)+1, and no zero is looked for
    builds = []
    macaulay = solver._macaulay

    def counted(basis, n, k, d):
        builds.append(d)
        return macaulay(basis, n, k, d)

    def no_zeros(*args):
        raise AssertionError("the zero finder ran on a smooth verdict")

    monkeypatch.setattr(solver, "_macaulay", counted)
    monkeypatch.setattr(solver, "_zeros_mod_p", no_zeros)
    _forbid_exact_rank(monkeypatch)
    assert geometry.jacobian_ideal_is_irrelevant(f) is True
    assert builds == [2 * f.nvars + 1]


def test_singular_witness_stops_at_the_first_exact_zero(monkeypatch):
    # Dwork's member with 16 nodes, all Q(i)-rational: the search stops
    # at the first zero that lifts, so one root of the characteristic
    # polynomial is found and one eigenspace computed, not 16, and the
    # rank test never runs exactly
    p = solver._CERT_PRIMES[0]
    forms = [g.num for g in partials(DWORK)]
    h, _, zeros = zeros_mod_p(forms, 4, p, k=3, d=8)
    assert h == len(list(zeros)) == 16
    roots = []
    fp_roots = solver._fp_roots

    def counted(*args, **kwargs):
        for lam in fp_roots(*args, **kwargs):
            roots.append(lam)
            yield lam

    monkeypatch.setattr(solver, "_fp_roots", counted)
    _forbid_exact_rank(monkeypatch)
    assert is_smooth_surface(DWORK) is False
    assert len(roots) == 1


@pytest.mark.parametrize("f", [parse_poly(t, 4) for t in SMOOTH_SURFACES]
                         + [substitute_linear(FERMAT, gaussian_matrix(s, 1))
                            for s in (1, 2, 3)]
                         + [plane("Y^3*Z+Z^3*W+W^3*Y")],
                         ids=[f"corpus-{k}" for k in range(len(SMOOTH_SURFACES))]
                         + [f"fermat-gaussian-{s}" for s in (1, 2, 3)] + ["klein"])
def test_smooth_verdict_needs_no_exact_elimination(monkeypatch, f):
    # a smooth quartic is proved smooth by the modular certificate alone
    _forbid_exact_rank(monkeypatch)
    assert geometry.jacobian_ideal_is_irrelevant(f) is True


def test_smoothness_projective_invariance():
    rng = random.Random(51)
    for _ in range(50):
        a = rand_invertible(rng)
        assert is_smooth_surface(substitute_linear(FERMAT, a))


# -- blocks of variables -------------------------------------------------------

@pytest.mark.parametrize("text, smooth, sizes", [
    ("X^4+Y^4+Z^4", False, []),                          # W is absent
    ("X^4+2*X^2*Y^2+Y^4+Z^4+W^4", False, []),            # (X^2+Y^2)^2+Z^4+W^4
    ("X^2*Y^2+Z^2*W^2", False, []),                      # singular along lines
    ("X^4-4*X^2*Y^2+4*Y^4+Z^4+W^4", False, []),          # (X^2-2Y^2)^2: sqrt2 nodes
    ("X^4+Y^4+Z^4+W^4+Y^2*Z*W", True, [3]),              # form-1
    ("2*X^4-Y^4+i*Z^4+W^4+3*Y^2*Z*W", True, [3]),
    ("X^4+Y^4+Z^4+Z*W^3+W^4", True, []),                 # form-2
    ("-X^4+2*Y^4+Z^4+i*Z*W^3+W^4", True, []),
    ("X^3*Y+Y^4+Z^4+W^4", True, []),
    ("X^4+Y^4+Z^4+W^4", True, []),
], ids=["cone", "square", "curve", "irrational-nodes", "form-1", "form-1-member",
        "form-2", "form-2-member", "x3y", "fermat"])
def test_block_verdicts(monkeypatch, text, smooth, sizes):
    # a form whose monomials split the variables into blocks is decided
    # block by block, each in its own variables; a missing variable is
    # singular before any engine runs, a one-variable block c*x^4 is
    # smooth without one, and a binary block is decided by its squarefree
    # profile, also when its nodes are irrational; the first singular
    # block ends the verdict.  Only a block of 3 or more variables reaches
    # the engine
    f = parse_poly(text, 4)
    seen = engine_sizes(monkeypatch)
    assert is_smooth_surface(f) is smooth
    assert seen == sizes
    assert is_smooth_surface(substitute_linear(f, SHEAR)) is smooth


def _unipotent_mix(rng):
    """L*R with L lower and R upper unitriangular, their entries nonzero
    integers: an invertible integer matrix that mixes all four variables."""
    def entry():
        return rng.choice((-2, -1, 1, 2))
    low = Matrix.from_rows([[1 if i == j else entry() if j < i else 0
                             for j in range(4)] for i in range(4)])
    up = Matrix.from_rows([[1 if i == j else entry() if j > i else 0
                            for j in range(4)] for i in range(4)])
    return low * up


def _block_form(rng, size, singular):
    """A random Z[i] quartic in `size` variables.  A singular one has
    isolated Q(i)-rational singular points only: the zero form in one
    variable (singular at that coordinate point), y^2*q(x, y) in two,
    and in three a form with no x^4, x^3*y, x^3*z terms (a node at
    (1:0:0))."""
    def coeff():
        return GR(rng.randint(-3, 3), rng.randint(-3, 3))
    if size == 1:
        return {} if singular else {(4,): coeff() or ONE}
    exps = [e for e in monomials(size, 4)
            if not singular or (size == 2 and e[1] >= 2) or (size == 3 and e[0] <= 2)]
    terms = {e: coeff() for e in exps}
    return terms if any(not c.is_zero() for c in terms.values()) else {exps[-1]: ONE}


def _partition(rng):
    """A random partition of the four variables into two or more blocks."""
    while True:
        labels = [rng.randrange(4) for _ in range(4)]
        blocks = [[v for v in range(4) if labels[v] == b] for b in range(4)]
        blocks = [b for b in blocks if b]
        if len(blocks) > 1:
            return blocks


def test_block_verdict_matches_the_mixed_image(monkeypatch):
    # a form in disjoint blocks of variables, at most one of them singular
    # (so that the singular points are isolated and Q(i)-rational), has the
    # verdict of its image under a unipotent integer matrix that mixes all
    # the variables: one block, decided by the four-variable engine, whose
    # witness proves each singular image singular without exact elimination
    rng = random.Random(18)
    _forbid_exact_rank(monkeypatch)
    sizes = engine_sizes(monkeypatch)
    verdicts = []
    for _ in range(24):
        blocks = _partition(rng)
        bad = rng.choice([None] + list(range(len(blocks))))
        terms = {}
        for j, b in enumerate(blocks):
            for e, c in _block_form(rng, len(b), j == bad).items():
                exp = [0] * 4
                for v, a in zip(b, e):
                    exp[v] = a
                terms[tuple(exp)] = c
        f = HomPoly(4, 4, terms)
        sizes.clear()
        verdict = is_smooth_surface(f)
        assert 4 not in sizes
        sizes.clear()
        assert is_smooth_surface(substitute_linear(f, _unipotent_mix(rng))) is verdict
        assert sizes and set(sizes) == {4}
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_rejects_wrong_shape():
    with pytest.raises(ValueError):
        is_smooth_surface(plane("Y^4+Z^4+W^4"))
    with pytest.raises(ValueError):
        is_smooth_plane_quartic(FERMAT)


# -- eigen decomposition ---------------------------------------------------------

def test_eigen_homology():
    ed = eigen_decompose_order4(Matrix.diagonal([I, 1, 1, 1]))
    assert ed.eigenvalues == [ONE, I]
    assert len(ed.space_of(I)) == 1
    assert ed.space_of(I)[0] == (ONE, GR(0), GR(0), GR(0))
    assert len(ed.space_of(ONE)) == 3


def test_eigen_identity():
    ed = eigen_decompose_order4(Matrix.identity(4))
    assert ed.eigenvalues == [ONE]
    assert len(ed.spaces[0]) == 4


def test_eigen_two_planes():
    ed = eigen_decompose_order4(Matrix.diagonal([I, I, 1, 1]))
    assert ed.eigenvalues == [ONE, I]
    assert len(ed.space_of(I)) == 2
    assert len(ed.space_of(ONE)) == 2


def test_eigen_four_cycle_permutation():
    perm = Matrix.from_rows([[0, 0, 0, 1], [1, 0, 0, 0],
                             [0, 1, 0, 0], [0, 0, 1, 0]])
    ed = eigen_decompose_order4(perm)
    assert ed.eigenvalues == [ONE, MINUS_ONE, I, MINUS_I]
    for mu, space in zip(ed.eigenvalues, ed.spaces):
        assert len(space) == 1
        v = space[0]
        assert list(perm.apply(v)) == [mu * x for x in v]


def test_eigen_rejects_unnormalized():
    # diag(2, 1, 1, 1) has an eigenvalue off the 4th roots of unity; the
    # Jordan block has eigenvalues i and 1 but is not diagonalizable: for
    # neither do the eigenspaces of the 4th roots of unity fill C^4
    jordan = Matrix.from_rows([[I, 1, 0, 0], [0, I, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    for m in (Matrix.diagonal([2, 1, 1, 1]), jordan):
        assert not (m ** 4).is_identity()
        with pytest.raises(UnnormalizedAutomorphismError, match="rescale"):
            eigen_decompose_order4(m)


def test_eigen_exactness_property():
    rng = random.Random(52)
    for _ in range(10):
        a = rand_invertible(rng)
        m = a * Matrix.diagonal([I, -I, 1, -1]) * a.inverse()
        ed = eigen_decompose_order4(m)
        total = 0
        for mu, space in zip(ed.eigenvalues, ed.spaces):
            total += len(space)
            for v in space:
                assert list(m.apply(v)) == [mu * x for x in v]
        assert total == 4


# -- sections ------------------------------------------------------------------

def test_plane_section_genus_three():
    f = parse_poly("X^4+Y^4+Z^4+W^4+Y^2*Z*W", 4)
    s = section(f, [ProjPoint([0, 1, 0, 0]), ProjPoint([0, 0, 1, 0]),
                    ProjPoint([0, 0, 0, 1])])
    assert s.kind == "plane-quartic"
    assert s.smooth and s.genus == 3
    assert str(s.form) == "X^4+X^2*Y*Z+Y^4+Z^4"


def test_line_section_four_points():
    f = parse_poly("X^4+Y^4+Z^4+Z*W^3+W^4", 4)
    s = section(f, [ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0])])
    assert s.kind == "finite-points"
    assert s.point_count == 4


def test_line_section_tangency_counts_once():
    # restriction X^2 Y^2 has two double roots
    f = parse_poly("X^2*Y^2+Z^4+W^4", 4)
    s = section(f, [ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0])])
    assert s.kind == "finite-points"
    assert s.point_count == 2


def test_point_section():
    s_off = section(FERMAT, [ProjPoint([1, 0, 0, 0])])
    assert s_off.kind == "point" and s_off.point_count == 0
    g = parse_poly("X^3*Y+Y^4+Z^4+W^4", 4)
    s_on = section(g, [ProjPoint([1, 0, 0, 0])])
    assert s_on.point_count == 1


def test_line_in_surface():
    f = parse_poly("X^4-Y^4+Z^4-W^4", 4)
    assert is_smooth_surface(f)
    s = section(f, [ProjPoint([1, 1, 0, 0]), ProjPoint([0, 0, 1, 1])])
    assert s.kind == "line-in-surface"
    assert s.genus == 0 and s.smooth


def test_plane_inside_surface_degenerate():
    f = parse_poly("X^4+X*Y^3+X*Z^3+X*W^3", 4)  # X * (cubic)
    with pytest.raises(DegenerateInputError):
        section(f, [ProjPoint([0, 1, 0, 0]), ProjPoint([0, 0, 1, 0]),
                    ProjPoint([0, 0, 0, 1])])


def test_section_rejects_dependent_basis():
    with pytest.raises(ValueError):
        section(FERMAT, [ProjPoint([1, 0, 0, 0]), ProjPoint([2, 0, 0, 0])])
