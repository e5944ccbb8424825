import random
from collections import Counter

import pytest

from quartic_galois import geometry, k3, poly

from quartic_galois.errors import (DegenerateInputError, NoMatchingTypeError,
                                   SingularSurfaceError, SurfaceNotPreservedError,
                                   UnnormalizedAutomorphismError)
from quartic_galois.gaussian import GaussianRational as GR
from quartic_galois.gaussian import FOURTH_ROOTS, I, MINUS_ONE, ONE
from quartic_galois.cli import main
from quartic_galois.galois import galois_generator
from quartic_galois.geometry import eigen_decompose_order4, section
from quartic_galois.k3 import (FixedLocusReport, GramMatrix2, MAX_OUTER_GALOIS_COUNT,
                               MAX_OUTER_GALOIS_TRANSCENDENTAL_GRAM,
                               NPNS_ROWS, PURELY_NS_ROWS,
                               SINGULAR_K3_PICARD_NUMBER, classify,
                               fixed_locus, is_isomorphic_gram,
                               isolated_point_formula, moduli_dimension,
                               npns_moduli_dim, reduce_gram,
                               serialize_classification, solve_m,
                               symplectic_character)
from quartic_galois.linalg import Matrix
from quartic_galois.poly import (HomPoly, ProjPoint, monomials, parse_poly,
                                 substitute_linear)

from helpers import (SIGMA1, SIGMA2, SIGMA3, SIGMA4, calls_of, diag, engine_sizes,
                     gaussian_matrix, height1_gaussian, lift_form1, lift_form2, pullbacks, rand_sl2,
                     rand_smooth_plane_quartic, rand_squarefree_binary_quartic)
from oracles import oracle_transform_gram

FERMAT = parse_poly("X^4+Y^4+Z^4+W^4", 4)
FORM1 = parse_poly("X^4+Y^4+Z^4+W^4+Y^2*Z*W", 4)
FORM2 = parse_poly("X^4+Y^4+Z^4+Z*W^3+W^4", 4)


# -- characters -----------------------------------------------------------------

def test_character_purely_ns_on_form1():
    assert symplectic_character(FORM1, SIGMA1) == I


def test_character_npns_on_form2():
    assert symplectic_character(FORM2, diag(I, I, 1, 1)) == MINUS_ONE


def test_character_symplectic_on_fermat():
    assert symplectic_character(FERMAT, diag(I, -I, 1, 1)) == ONE


def test_character_multiplicative():
    assert (symplectic_character(FERMAT, SIGMA1 * SIGMA2)
            == symplectic_character(FERMAT, SIGMA1)
            * symplectic_character(FERMAT, SIGMA2))


# -- fixed loci --------------------------------------------------------------------

def test_fixed_locus_form1_genus3_curve():
    rep = fixed_locus(FORM1, SIGMA1)
    assert [(c.genus, c.smooth) for c in rep.curves] == [(3, True)]
    assert rep.isolated_points == 0
    assert rep.a_count == 0
    assert [(c.genus, c.smooth) for c in rep.sigma_squared.curves] == [(3, True)]
    assert rep.sigma_squared.isolated_points == 0


def test_fixed_locus_form2_eight_points():
    rep = fixed_locus(FORM2, diag(I, I, 1, 1))
    assert rep.curves == []
    assert rep.isolated_points == 8
    assert rep.sigma_squared.isolated_points == 8


def test_fixed_locus_symplectic_fermat():
    rep = fixed_locus(FERMAT, diag(I, -I, 1, 1))
    assert rep.curves == []
    assert rep.isolated_points == 4


def test_fixed_locus_contained_in_square():
    # every component fixed by the automorphism is fixed by its square
    for f, m in ((FORM1, SIGMA1), (FORM2, diag(I, I, 1, 1)),
                 (FERMAT, diag(I, -I, 1, 1))):
        rep = fixed_locus(f, m)
        sq = rep.sigma_squared
        assert sq is not None
        assert len(rep.curves) <= len(sq.curves)
        assert rep.isolated_points <= sq.isolated_points + 2 * sum(
            1 for c in sq.curves)
        for c in rep.curves:
            assert any(c.ambient == d.ambient and c.form == d.form
                       for d in sq.curves)


# the order-4 automorphisms diag(...) of the normal forms in the
# benchmark corpus (perfbench/corpus.py, AUTOS)
AUTO_FAMILIES = {
    "fermat": FERMAT,
    "form-1": FORM1,
    "form-2": FORM2,
    "x3y": parse_poly("X^3*Y+Y^4+Z^4+W^4", 4),
    "xyzw": parse_poly("X^4+Y^4+Z^4+W^4+X*Y*Z*W", 4),
}
AUTOS = [
    ("fermat", (I, 1, 1, 1)),
    ("fermat", (I, I, 1, 1)),
    ("fermat", (I, -I, 1, 1)),
    ("form-1", (I, 1, 1, 1)),
    ("form-1", (1, 1, I, -I)),
    ("form-2", (I, I, 1, 1)),
    ("form-2", (I, 1, 1, 1)),
    ("x3y", (1, 1, I, 1)),
    ("xyzw", (I, -I, 1, 1)),
]


def _reference_fixed_locus(f, m):
    """The fixed locus with a separate eigendecomposition of m*m and a
    section on every eigenspace of m and of m*m."""
    def data(mat):
        eig = eigen_decompose_order4(mat)
        sections = [(mu, section(f, [ProjPoint(list(v)) for v in space]))
                    for mu, space in zip(eig.eigenvalues, eig.spaces)]
        curves = [s for _, s in sections
                  if s.kind in ("plane-quartic", "line-in-surface")]
        isolated = sum(s.point_count or 0 for _, s in sections
                       if s.kind in ("finite-points", "point"))
        return sections, curves, isolated
    m2 = m * m
    square = None if m2.is_scalar() else FixedLocusReport(*data(m2), None)
    return FixedLocusReport(*data(m), square)


def _assert_same_section(f, s, ref, span_only):
    assert ((s.kind, s.genus, s.smooth, s.point_count)
            == (ref.kind, ref.genus, ref.smooth, ref.point_count))
    if span_only and s.ambient != ref.ambient:
        # an eigenspace of the square that is the sum of two of the
        # automorphism: the same span, in the basis of the two summands,
        # and f restricted in that basis
        cols = [list(p.coords) for p in s.ambient]
        ref_cols = [list(p.coords) for p in ref.ambient]
        assert len(cols) == len(ref_cols) == Matrix.from_columns(cols + ref_cols).rank()
        assert s.form == substitute_linear(f, Matrix.from_columns(cols))
    else:
        assert s.ambient == ref.ambient and s.form == ref.form


def _assert_same_report(f, rep, ref, square=False):
    assert [mu for mu, _ in rep.sections] == [mu for mu, _ in ref.sections]
    for (_, s), (_, r) in zip(rep.sections, ref.sections):
        _assert_same_section(f, s, r, square)
    assert len(rep.curves) == len(ref.curves)
    for c, r in zip(rep.curves, ref.curves):
        _assert_same_section(f, c, r, square)
    assert (rep.isolated_points, rep.a_count) == (ref.isolated_points, ref.a_count)
    if ref.sigma_squared is None:
        assert rep.sigma_squared is None
    else:
        _assert_same_report(f, rep.sigma_squared, ref.sigma_squared, True)


def _random_member(family, seed):
    """A seeded smooth member of a family with a diagonal automorphism M, and
    M: X^4 + G and X^4 + Y^4 + G(Z, W) with M of order 4; X^4 + X^2 Q + G
    under the involution diag(-1, 1, 1, 1), whose fixed plane is no block
    of the surface; and the invariants of diag(1, 1, i, -i)."""
    rng = random.Random(f"{family}:{seed}")
    if family == "x4+g":
        return lift_form1(rand_smooth_plane_quartic(rng)), diag(I, 1, 1, 1)
    if family == "x4+y4+g":
        return lift_form2(rand_squarefree_binary_quartic(rng)), diag(I, I, 1, 1)
    powers, m = (((2, 0, 0, 0), diag(-1, 1, 1, 1)) if family == "involution"
                 else ((0, 0, 1, 3), diag(1, 1, I, -I)))
    mons = [e for e in monomials(4, 4)
            if sum(k * a for k, a in zip(powers, e)) % 4 == 0]
    while True:
        f = HomPoly(4, 4, {e: GR(c) for e in mons if (c := rng.randint(-2, 2))})
        if len(f.num) > 4 and geometry.is_smooth_surface(f):
            return f, m


# (family, seed) of seeded random members, next to the (family, values) of AUTOS
RANDOM_MEMBERS = [(family, seed) for family in ("x4+g", "x4+y4+g", "involution",
                                                "zw-invariant")
                  for seed in range(3)]
CASES = AUTOS + RANDOM_MEMBERS
CASE_IDS = ([f"{fam}-{k}" for k, (fam, _) in enumerate(AUTOS)]
            + [f"{fam}-seed{seed}" for fam, seed in RANDOM_MEMBERS])


def _case(family, values, conjugated):
    """The surface and automorphism of a case, conjugated by a fixed
    height-1 Gaussian matrix or not."""
    f, m = (_random_member(family, values) if isinstance(values, int)
            else (AUTO_FAMILIES[family], diag(*values)))
    if conjugated:
        a = height1_gaussian(19)
        f, m = substitute_linear(f, a), a.inverse() * m * a
    return f, m


@pytest.mark.parametrize("conjugated", [False, True], ids=["aligned", "conj"])
@pytest.mark.parametrize("family, values", CASES, ids=CASE_IDS)
def test_fixed_locus_matches_separate_square_decomposition(family, values,
                                                           conjugated):
    # the sections read off their zero tests agree with geometry.section's
    # certificates: plane smoothness and distinct points on lines
    f, m = _case(family, values, conjugated)
    rep = fixed_locus(f, m)
    _assert_same_report(f, rep, _reference_fixed_locus(f, m))


@pytest.mark.parametrize("conjugated", [False, True], ids=["aligned", "conj"])
@pytest.mark.parametrize("family, values", CASES, ids=CASE_IDS)
def test_fixed_locus_certifies_only_the_surface(monkeypatch, family, values,
                                                conjugated):
    # no section is certified: the one certified form's binary blocks
    # take at most one squarefree profile each, and nothing else takes one
    f, m = _case(family, values, conjugated)
    profiles = calls_of(monkeypatch, poly.squarefree_profile)
    planes = calls_of(monkeypatch, geometry.is_smooth_plane_quartic)
    forms = _certified(monkeypatch)
    fixed_locus(f, m)
    assert planes == [] and len(forms) == 1
    binary = [b for b in geometry.variable_blocks(forms[0]) if len(b) == 2]
    assert len(profiles) <= len(binary)


@pytest.mark.parametrize("f, values", [
    (FORM1, (I, 1, 1, 1)),
    (FORM2, (I, I, 1, 1)),
    (FERMAT, (I, -I, 1, 1)),
])
@pytest.mark.parametrize("conjugated", [False, True], ids=["aligned", "conj"])
def test_fixed_locus_decomposes_once(monkeypatch, f, values, conjugated):
    """linear_auto decomposes the matrix (four kernels at most) and pulls
    f back once; fixed_locus reads every section of the automorphism and
    of its square from that pullback, with no further kernel, pullback
    or call of geometry.section."""
    m = diag(*values)
    if conjugated:
        a = height1_gaussian(19)
        f, m = substitute_linear(f, a), a.inverse() * m * a
    counts = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Matrix, "kernel_basis",
                        counting("kernel", Matrix.kernel_basis))
    monkeypatch.setattr(geometry, "section", counting("section", geometry.section))
    calls = pullbacks(monkeypatch)
    fixed_locus(f, m)
    assert len(calls) == 1
    assert counts["kernel"] <= 4
    assert counts["section"] == 0


def test_fixed_locus_rejects_scalar():
    with pytest.raises(DegenerateInputError):
        fixed_locus(FERMAT, Matrix.identity(4))


# the surface W^4 + (X^2+Y^2)^2 + Z^4, singular at (1 : i : 0 : 0), and its
# automorphism diag(1, 1, 1, i)
SINGULAR_WITH_AUTO = (parse_poly("X^4+2*X^2*Y^2+Y^4+Z^4+W^4", 4), diag(1, 1, 1, I))


def _certified(monkeypatch):
    """The forms whose smoothness fixed_locus certifies."""
    forms = []
    smooth = k3.is_smooth_surface

    def spying(f):
        forms.append(f)
        return smooth(f)

    monkeypatch.setattr(k3, "is_smooth_surface", spying)
    return forms


@pytest.mark.parametrize("conjugated", [False, True], ids=["aligned", "conjugated"])
def test_fixed_locus_rejects_a_singular_surface(monkeypatch, conjugated):
    f, m = SINGULAR_WITH_AUTO
    if conjugated:
        a = height1_gaussian(19)
        f, m = substitute_linear(f, a), a.inverse() * m * a
    forms = _certified(monkeypatch)
    with pytest.raises(SingularSurfaceError):
        fixed_locus(f, m)
    # in generic coordinates the eigen-coordinates give a sparser form
    assert len(forms) == 1 and (forms[0] == f) is not conjugated
    assert len(forms[0].num) <= len(f.num)


def test_fixed_locus_certifies_the_sparser_form(monkeypatch):
    # form-2 conjugated: in the eigen-coordinates of its automorphism it
    # splits into two binary blocks, and no four-variable engine runs
    a = height1_gaussian(19)
    f, m = substitute_linear(FORM2, a), a.inverse() * diag(I, I, 1, 1) * a
    forms, sizes = _certified(monkeypatch), engine_sizes(monkeypatch)
    fixed_locus(f, m)
    assert len(forms) == 1 and len(forms[0].num) < len(f.num)
    assert 4 not in sizes


def test_fixed_locus_keeps_f_when_the_eigen_form_is_denser(monkeypatch):
    # a cyclic permutation of Fermat's coordinates has eigenvectors
    # (1, mu, mu^2, mu^3): Fermat in them has more terms, so f is certified
    cycle = Matrix.from_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    forms = _certified(monkeypatch)
    fixed_locus(FERMAT, cycle)
    assert forms == [FERMAT] and forms[0] is FERMAT


@pytest.mark.parametrize("f, m, error", [
    (FERMAT, diag(I, I, I, I), DegenerateInputError),
    (FERMAT, diag(2, 2, 2, 2), UnnormalizedAutomorphismError),
    (FERMAT, diag(2, 1, 1, 1), UnnormalizedAutomorphismError),
    (SINGULAR_WITH_AUTO[0], diag(2, 2, 2, 2), UnnormalizedAutomorphismError),
    (SINGULAR_WITH_AUTO[0], diag(2, 1, 1, 1), UnnormalizedAutomorphismError),
    (SINGULAR_WITH_AUTO[0], diag(I, I, I, I), SingularSurfaceError),
], ids=["scalar-i", "scalar-2", "unnormalized", "singular-scalar",
        "singular-unnormalized", "singular-scalar-i"])
def test_fixed_locus_error_order(capsys, f, m, error):
    # linear_auto's error on the matrix is reported first, then a singular
    # surface, then a scalar matrix; auto fixed-locus reports the same
    with pytest.raises(error) as caught:
        fixed_locus(f, m)
    entries = " ".join(str(x) for x in m.entries)
    code = main(["auto", "fixed-locus", str(f), "--matrix", entries])
    assert (code, *capsys.readouterr()) == (1, "", f"error: {caught.value}\n")


def test_hand_built_generator_has_the_fixed_locus_of_linear_auto():
    # galois_generator's sigma_P is built by hand, with no eigen-coordinates;
    # it reaches k3 as its matrix, with the answers of form-1's homology
    a = height1_gaussian(19)
    fa = substitute_linear(FORM1, a)
    sigma = galois_generator(fa, ProjPoint(a.inverse().apply([1, 0, 0, 0])))
    assert sigma.eigen is None
    _assert_same_report(fa, fixed_locus(fa, sigma.matrix),
                        _reference_fixed_locus(fa, sigma.matrix))
    assert symplectic_character(fa, sigma.matrix) == I
    assert classify(fa, sigma.matrix) == classify(FORM1, SIGMA1)


K3_ENTRY_POINTS = [symplectic_character, fixed_locus, classify,
                   serialize_classification]


@pytest.mark.parametrize("entry", K3_ENTRY_POINTS,
                         ids=[e.__name__ for e in K3_ENTRY_POINTS])
@pytest.mark.parametrize("f, m", [
    (FORM1, diag(1, I, 1, 1)),   # does not preserve form-1
], ids=["not-preserved"])
def test_hand_built_automorphism_is_validated(entry, f, m):
    with pytest.raises(SurfaceNotPreservedError):
        entry(f, m)


# the automorphisms of AUTOS, aligned and conjugated, and (values None) the
# generator sigma_P of a conjugated form-1
DET_CASES = ([(family, values, conjugated) for conjugated in (False, True)
              for family, values in AUTOS] + [("form-1", None, True)])
DET_IDS = ([f"{family}-{k}-{kind}" for kind in ("aligned", "conj")
            for k, (family, _) in enumerate(AUTOS)] + ["form-1-sigma-P-conj"])


@pytest.mark.parametrize("family, values, conjugated", DET_CASES, ids=DET_IDS)
def test_character_is_det_over_the_multiplier(family, values, conjugated):
    # lambda is found apart from linear_auto: the 4th root of unity mu with
    # f(M x) == mu * f(x), read off one pullback
    a = gaussian_matrix(5, 1)
    f = AUTO_FAMILIES[family]
    if conjugated:
        f = substitute_linear(f, a)
    if values is None:
        m = galois_generator(f, ProjPoint(a.inverse().apply([1, 0, 0, 0]))).matrix
    else:
        m = a.inverse() * diag(*values) * a if conjugated else diag(*values)
    g = substitute_linear(f, m)
    [lam] = [mu for mu in FOURTH_ROOTS if g == f.scale(mu)]
    assert symplectic_character(f, m) == m.det() / lam


@pytest.mark.parametrize("entry", K3_ENTRY_POINTS,
                         ids=[e.__name__ for e in K3_ENTRY_POINTS])
def test_hand_built_generator_is_decomposed_once(monkeypatch, entry):
    a = height1_gaussian(19)
    fa = substitute_linear(FORM1, a)
    sigma = galois_generator(fa, ProjPoint(a.inverse().apply([1, 0, 0, 0])))
    forms = calls_of(monkeypatch, geometry.eigen_form)
    calls = calls_of(monkeypatch, geometry.eigen_decompose_order4)
    entry(fa, sigma.matrix)
    assert len(forms) == len(calls) == 1


def _certificates(monkeypatch):
    """The forms handed to geometry.jacobian_ideal_is_irrelevant, blocks
    of a surface included, in order."""
    forms = []
    certify = geometry.jacobian_ideal_is_irrelevant

    def spying(f):
        forms.append(f)
        return certify(f)

    monkeypatch.setattr(geometry, "jacobian_ideal_is_irrelevant", spying)
    return forms


def test_block_plane_section_is_not_certified_again(monkeypatch):
    # form-1 conjugated, with its homology: in eigen-coordinates the fixed
    # plane is the three-variable block of the certified surface, which is
    # smooth by the block rule; only the surface's certificate reaches it
    a = height1_gaussian(19)
    f, m = substitute_linear(FORM1, a), a.inverse() * diag(I, 1, 1, 1) * a
    forms = _certificates(monkeypatch)
    rep = fixed_locus(f, m)
    planes = [g for g in forms if g.nvars == 3]
    assert [c.genus for c in rep.curves] == [3]
    assert planes == [rep.curves[0].form] and forms[0].nvars == 4


def test_plane_section_that_is_not_a_block_is_not_certified(monkeypatch):
    # X^2*W^2 joins the fixed plane W = 0 of diag(1, 1, 1, -1) to W, so the
    # plane's section X^4+Y^4+Z^4 is no block of the surface, whose blocks
    # are {X, W}, {Y}, {Z}; a fixed plane of a smooth surface cuts a smooth
    # quartic all the same, so no plane certificate is made
    f = parse_poly("X^4+Y^4+Z^4+W^4+X^2*W^2", 4)
    forms = _certificates(monkeypatch)
    rep = fixed_locus(f, diag(1, 1, 1, -1))
    assert [(c.genus, c.smooth) for c in rep.curves] == [(3, True)]
    assert [g for g in forms if g.nvars == 3] == []
    assert section(f, rep.curves[0].ambient).smooth is True


def test_character_fixed_locus_consistency():
    # character 1 or -1 forces an isolated fixed locus
    for f, m in ((FERMAT, diag(I, -I, 1, 1)), (FORM2, diag(I, I, 1, 1)),
                 (FERMAT, diag(1, 1, -1, -1))):
        u = symplectic_character(f, m)
        rep = fixed_locus(f, m)
        if u in (ONE, MINUS_ONE):
            assert rep.curves == []


# -- classification ------------------------------------------------------------------

def test_classify_form1():
    at = classify(FORM1, SIGMA1)
    assert at.character == "purely-ns-4"
    assert at.type_tuple == (1, 0, 0, 3)


def test_classify_form2():
    at = classify(FORM2, diag(I, I, 1, 1))
    assert at.character == "npns"
    assert at.type_tuple == (10, 4, 8)


def test_classify_symplectic():
    at = classify(FERMAT, diag(I, -I, 1, 1))
    assert at.character == "symplectic"
    assert at.type_tuple is None


def test_classify_order2_rejected():
    # an anti-symplectic involution is outside the order-4 tables
    m = diag(1, 1, 1, -1)
    assert symplectic_character(FERMAT, m) == MINUS_ONE
    with pytest.raises(NoMatchingTypeError):
        classify(FERMAT, m)


def test_classify_random_form1_members():
    rng = random.Random(71)
    for _ in range(5):
        f = lift_form1(rand_smooth_plane_quartic(rng))
        at = classify(f, SIGMA1)
        assert at.type_tuple == (1, 0, 0, 3)


def test_classify_random_form2_members():
    rng = random.Random(72)
    for _ in range(5):
        f = lift_form2(rand_squarefree_binary_quartic(rng))
        at = classify(f, diag(I, I, 1, 1))
        assert at.type_tuple == (10, 4, 8)


def test_tables_match_embedded_rows():
    assert PURELY_NS_ROWS == {(0, 0, 3): 1, (0, 0, 2): 4, (0, 1, 3): 2,
                              (0, 1, 2): 5, (0, 2, 2): 6}
    assert NPNS_ROWS == {0: (6, 8), 2: (7, 7), 4: (8, 6), 6: (9, 5),
                         8: (10, 4)}


def test_isolated_point_formula():
    assert isolated_point_formula([3]) == 0
    assert isolated_point_formula([2]) == 2          # the (4, 0, 0, 2) row
    assert PURELY_NS_ROWS[(0, 0, 2)] == 4
    assert isolated_point_formula([0, 2]) == 4


def test_serialize_classification_golden():
    doc = serialize_classification(FORM2, diag(I, I, 1, 1))
    assert doc == {
        "character": "npns",
        "character_value": "-1",
        "curves": [],
        "n": 8,
        "a": 0,
        "type_tuple": [10, 4, 8],
        "table_source": "order-4 non-purely non-symplectic table "
                        "(r table-derived)",
    }
    doc1 = serialize_classification(FORM1, SIGMA1)
    assert doc1["character"] == "purely-ns-4"
    assert doc1["curves"] == [{"genus": 3, "smooth": True}]
    assert doc1["n"] == 0 and doc1["a"] == 0
    assert doc1["type_tuple"] == [1, 0, 0, 3]


# -- Hurwitz -----------------------------------------------------------------------

def test_hurwitz_double_cover_cases():
    assert solve_m(1, 1) == 0
    assert solve_m(1, 0) == 4
    assert solve_m(3, 0) == 8
    # the double-cover formula 2 g - 2 = 2 (2 h - 2) + m holds for each
    for g, h in ((1, 1), (1, 0), (3, 0), (5, 2)):
        assert 2 * g - 2 == 2 * (2 * h - 2) + solve_m(g, h)


# -- lattices -----------------------------------------------------------------------

def test_reduce_diag8_fixed_point():
    g = GramMatrix2.from_entries(8, 0, 8)
    reduced, u = reduce_gram(g)
    assert reduced == g
    assert u == ((1, 0), (0, 1))


def test_reduce_sheared():
    g = GramMatrix2.from_entries(8, 8, 16)
    reduced, u = reduce_gram(g)
    assert reduced == GramMatrix2.from_entries(8, 0, 8)
    assert oracle_transform_gram(g, u) == reduced


def test_not_isomorphic_same_determinant():
    a = GramMatrix2.from_entries(2, 0, 32)
    b = GramMatrix2.from_entries(8, 0, 8)
    assert a.det() == b.det() == 64
    assert not is_isomorphic_gram(a, b)


def test_reduce_idempotent_and_det_preserving():
    rng = random.Random(73)
    count = 0
    while count < 40:
        a, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9)
        if b * b - 4 * a * c >= 0:
            continue
        count += 1
        g = GramMatrix2(a, b, c)
        reduced, u = reduce_gram(g)
        again, _ = reduce_gram(reduced)
        assert again == reduced
        assert reduced.det() == g.det()
        assert reduced.is_reduced()
        assert u[0][0] * u[1][1] - u[0][1] * u[1][0] == 1


def test_reduce_class_invariance():
    rng = random.Random(74)
    base = GramMatrix2.from_entries(8, 0, 8)
    for _ in range(100):
        t = rand_sl2(rng)
        moved = oracle_transform_gram(base, t)
        assert reduce_gram(moved)[0] == base


def test_gram_validation():
    with pytest.raises(ValueError):
        GramMatrix2.from_entries(7, 0, 8)      # odd diagonal
    with pytest.raises(ValueError):
        GramMatrix2.from_entries(8, 12, 8)     # indefinite
    with pytest.raises(ValueError):
        GramMatrix2.from_entries(-8, 0, 8)     # negative


def test_embedded_constants():
    assert SINGULAR_K3_PICARD_NUMBER == 20
    assert MAX_OUTER_GALOIS_COUNT == 4
    assert MAX_OUTER_GALOIS_TRANSCENDENTAL_GRAM.entries() == (8, 0, 0, 8)


# -- moduli -------------------------------------------------------------------------

def test_moduli_two_point_family():
    assert moduli_dimension(7, [SIGMA1, SIGMA2]) == 1


def test_moduli_one_point_family():
    assert moduli_dimension(16, [SIGMA1]) == 6


def test_moduli_diagonal_family():
    assert moduli_dimension(4, [SIGMA1, SIGMA2, SIGMA3, SIGMA4]) == 0


def test_moduli_negative_rejected():
    with pytest.raises(ValueError):
        moduli_dimension(3, [SIGMA1, SIGMA2])


def test_npns_moduli_dim_rejects_small_rank():
    assert npns_moduli_dim(2) == 0
    for l in (1, 0, -3):
        with pytest.raises(ValueError):
            npns_moduli_dim(l)


def test_npns_moduli_dim_rejects_rank_above_22():
    assert npns_moduli_dim(22) == 20
    for l in (23, 99):
        with pytest.raises(ValueError, match="exceeds 22"):
            npns_moduli_dim(l)


def test_npns_moduli_dim():
    assert npns_moduli_dim(4) == 2
    assert npns_moduli_dim(8) == 6
    assert npns_moduli_dim(2) == 0
