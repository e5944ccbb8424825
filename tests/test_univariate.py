import math
import random
from fractions import Fraction as F

import pytest

from quartic_galois import solver
from quartic_galois import univariate as uv
from quartic_galois.gaussian import GaussianRational as GR
from quartic_galois.gaussian import I, ONE, ZERO

from helpers import calls_of, poly_mul, rand_gr
from oracles import oracle_gaussian_roots


def poly(*coeffs):
    return uv.trim([GR.coerce(c) for c in coeffs])


def from_roots(*roots):
    p = [ONE]
    for r in roots:
        p = poly_mul(p, [-GR.coerce(r), ONE])
    return p


def test_divmod_exact():
    rng = random.Random(4)
    for _ in range(50):
        a = [rand_gr(rng) for _ in range(rng.randint(1, 6))]
        b = [rand_gr(rng) for _ in range(rng.randint(1, 4))]
        a, b = uv.trim(a), uv.trim(b)
        if uv.is_zero(b):
            continue
        q, r = uv.divmod_poly(a, b)
        assert uv.add(poly_mul(q, b), r) == a
        assert uv.degree(r) < uv.degree(b)


def test_gcd_of_common_factor():
    rng = random.Random(5)
    for _ in range(30):
        c = uv.trim([rand_gr(rng) for _ in range(3)])
        if uv.degree(c) < 1:
            continue
        a = poly_mul(c, poly(1, 1))
        b = poly_mul(c, poly(-1, 0, 1))
        g = uv.gcd(a, b)
        # gcd is divisible by the monic form of c
        _, rem = uv.divmod_poly(g, c)
        assert uv.is_zero(rem)


def test_multiplicity_profile_known():
    # (t - 1)**2 * (t + 2)
    p = poly_mul(poly_mul(from_roots(1), from_roots(1)), from_roots(-2))
    assert uv.multiplicity_profile(p) == [1, 2]
    assert uv.multiplicity_profile(from_roots(1, 2, 3)) == [1, 1, 1]
    assert uv.multiplicity_profile(poly(5)) == []


def test_profile_sums_to_degree():
    rng = random.Random(6)
    for _ in range(40):
        roots = [GR(rng.randint(-2, 2), rng.randint(-1, 1))
                 for _ in range(rng.randint(1, 5))]
        p = from_roots(*roots)
        prof = uv.multiplicity_profile(p)
        assert sum(prof) == uv.degree(p)


def test_gaussian_roots_linear_and_quadratic():
    roots, split = uv.gaussian_roots(from_roots(GR(3, 1)))
    assert roots == [GR(3, 1)] and split
    roots, split = uv.gaussian_roots(poly(1, 0, 1))  # u**2 + 1
    assert set(roots) == {I, -I} and split
    roots, split = uv.gaussian_roots(poly(-2, 0, 1))  # u**2 - 2: irrational
    assert roots == [] and not split


def test_gaussian_roots_cubic_mixed():
    # (u - 2)(u**2 - 2): one rational root, two irrational
    p = poly_mul(from_roots(2), poly(-2, 0, 1))
    roots, split = uv.gaussian_roots(p)
    assert roots == [GR(2)] and not split


def test_gaussian_roots_quintic_full_split():
    target = [GR(1), GR(2), I, -I, GR.coerce(1) / GR(2)]
    p = from_roots(*target)
    roots, split = uv.gaussian_roots(p)
    assert split
    assert sorted(r.sort_key() for r in roots) == sorted(
        t.sort_key() for t in target)


def test_gaussian_roots_gaussian_integer_roots():
    # roots 1+i, 3, -i plus an irreducible quadratic factor u**2 + u + 1
    p = poly_mul(from_roots(GR(1, 1), GR(3), GR(0, -1)), poly(1, 1, 1))
    roots, split = uv.gaussian_roots(p)
    assert not split
    assert set(roots) == {GR(1, 1), GR(3), GR(0, -1)}


def test_gaussian_roots_with_multiplicity_and_zero():
    # u**2 * (u - 1)**3
    p = poly_mul([ZERO, ZERO, ONE], poly_mul(poly_mul(from_roots(1), from_roots(1)),
                                         from_roots(1)))
    roots, split = uv.gaussian_roots(p)
    assert set(roots) == {ZERO, ONE} and split


def test_gaussian_roots_rejects_zero():
    with pytest.raises(ValueError):
        uv.gaussian_roots([])


# A degree-4 eliminant from the search on a GL4(Z[i]) conjugate of the
# Fermat quartic: its roots have denominators far too large for a
# rational-root divisor search.
CONJ_ROOTS = [GR(F(210, 391), F(95, 391)), GR(F(1924, 4981), F(-532, 4981)),
              GR(F(1987, 2813), F(615, 2813)), GR(F(7679, 12802), F(-3117, 12802))]

# The leading coefficient of the cleared polynomial is 10009*10037*10061,
# so the degree drops at the first three split primes above 10^4; the
# roots 5 and 5 + 10069 collide at the fourth.
BAD_PRIME_ROOTS = [GR(F(1, 10009)), GR(F(2, 10037), F(1, 10037)),
                   GR(F(3, 10061)), GR(5), GR(5 + 10069)]


@pytest.mark.parametrize("roots, cofactor", [
    (CONJ_ROOTS, None),
    (CONJ_ROOTS, poly(-2, 0, 1)),
    (BAD_PRIME_ROOTS, None),
    (BAD_PRIME_ROOTS, poly(1, 1, 1)),
], ids=["conj-eliminant", "conj-eliminant-times-x2-2", "bad-primes",
        "bad-primes-times-quadratic"])
def test_gaussian_roots_modular_extraction(roots, cofactor):
    p = from_roots(*roots)
    if cofactor is not None:
        p = poly_mul(p, cofactor)
    got, split = uv.gaussian_roots(p)
    assert set(got) == set(roots) and len(got) == len(roots)
    assert split == (cofactor is None)
    assert all(uv.eval_poly(p, r).is_zero() for r in got)
    assert uv.gaussian_roots(p) == (got, split)


def test_gaussian_roots_stops_lifting_at_the_root_bound(monkeypatch):
    # 2 is a square mod the certificate primes, so x^2 - 2 has two simple
    # roots mod each, but none in Q(i): a root u/v of a primitive Z[i]
    # polynomial has u | a_0 and v | a_d, so both norms are at most
    # max(N(a_0), N(a_d)) = 4, which the reconstruction bound sqrt(p)/16
    # passes at p itself: no Newton step, where the cap p^128 is seven
    steps = calls_of(monkeypatch, solver._newton_step)
    assert uv.gaussian_roots(poly(-2, 0, 1)) == ([], False)
    assert steps == []
    # x^2 - c, c = 2*10^40, bound c^2: each of the two roots mod p takes a
    # step to p^(2^k) exactly while the bound at p^(2^(k-1)) is below c^2
    c = 2 * 10 ** 40
    assert uv.gaussian_roots(poly(-c, 0, 1)) == ([], False)
    bound = c * c
    for p in solver._CERT_PRIMES:
        need = next(k for k in range(1, 8) if math.isqrt(p ** 2 ** k >> 8) >= bound)
        taken = sorted(m for _, _, m in steps if m % p == 0)
        assert taken == sorted([p ** 2 ** k for k in range(1, need + 1)] * 2)
        assert need < 7


def test_gaussian_roots_stops_at_d_verified_roots(monkeypatch):
    # the four roots of the eliminant all lift at the first certificate
    # prime, so no second prime is walked; x^2 - 2, with no root in Q(i),
    # walks them all
    walked, primes = [], solver._primes

    def spying():
        for p in primes():
            walked.append(p)
            yield p

    monkeypatch.setattr(solver, "_primes", spying)
    roots, split = uv.gaussian_roots(from_roots(*CONJ_ROOTS))
    assert split and set(roots) == set(CONJ_ROOTS)
    assert walked == list(solver._CERT_PRIMES[:1])
    walked.clear()
    assert uv.gaussian_roots(poly(-2, 0, 1)) == ([], False)
    assert walked == list(solver._CERT_PRIMES)


def test_yun_runs_only_off_a_squarefree_residue(monkeypatch):
    # a polynomial squarefree modulo the first prime is its own squarefree
    # factor, with no call of Yun's decomposition; (x - 1)^2 (x + i) is
    # not squarefree at any prime, and Yun splits it once
    yun = calls_of(monkeypatch, uv.squarefree_decomposition)
    roots, split = uv.gaussian_roots(from_roots(*CONJ_ROOTS))
    assert split and set(roots) == set(CONJ_ROOTS) and yun == []
    roots, split = uv.gaussian_roots(from_roots(ONE, ONE, -I))
    assert split and roots == sorted([ONE, -I], key=GR.sort_key)
    assert len(yun) == 1


def test_gaussian_roots_runs_no_macaulay_step(monkeypatch):
    # one variable needs no matrix: no Macaulay echelon, no zero search by
    # multiplication maps, no multivariate lift
    spies = [calls_of(monkeypatch, step) for step in (
        solver._generator_rows, solver._macaulay_echelon, solver._zeros_mod_p,
        solver._lift)]
    p = poly_mul(from_roots(*CONJ_ROOTS, *BAD_PRIME_ROOTS), poly(-2, 0, 1))
    got, split = uv.gaussian_roots(poly_mul(p, poly(0, 0, 1)))
    assert set(got) == set(CONJ_ROOTS + BAD_PRIME_ROOTS + [ZERO]) and not split
    assert spies == [[], [], [], []]


def _root_of_height(rng, h):
    """u/v for Gaussian integers u, v != 0 of norms at most h."""
    s = math.isqrt(h // 2)
    u = GR(rng.randint(-s, s), rng.randint(-s, s))
    v = ZERO
    while v.is_zero():
        v = GR(rng.randint(-s, s), rng.randint(-s, s))
    return u / v


def _oracle_case(rng):
    """A seeded polynomial: a few roots of height up to 10^6, each with a
    multiplicity, a power of x, an optional random quadratic or cubic
    cofactor, and some of the roots of BAD_PRIME_ROOTS, or a root whose
    denominator is the Gaussian prime of the first certificate prime (the
    leading coefficient vanishes there), or two roots equal modulo it."""
    p0 = solver._CERT_PRIMES[0]
    roots = [_root_of_height(rng, rng.choice([2, 100, 10 ** 3, 10 ** 6]))
             for _ in range(rng.randint(0, 3))]
    extra = rng.choice([[], [], rng.sample(BAD_PRIME_ROOTS, rng.randint(1, 3)),
                        [ONE / GR(*solver._CERT_PIS[p0])], [GR(5), GR(5 + p0)]])
    p = [rand_gr(rng, 1, 9)]
    for r in roots + extra:
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            p = poly_mul(p, [-r, ONE])
    p = [ZERO] * rng.choice([0, 0, 0, 1, 2]) + p
    cofactor = rng.choice([None, None, 2, 3])
    if cofactor:
        p = poly_mul(p, [rand_gr(rng, -5, 5) for _ in range(cofactor)] + [ONE])
    return p if uv.degree(p) > 0 else poly_mul(p, [GR(-2), ZERO, ONE])


def test_gaussian_roots_against_the_oracle():
    # roots and fully_split as sympy's factorisation of the norm gives them
    rng = random.Random(32)
    for _ in range(100):
        p = _oracle_case(rng)
        assert uv.gaussian_roots(p) == oracle_gaussian_roots(p), p


def test_fp_roots_repeated_factor():
    # each distinct root once, also for the repeated roots that the zero
    # finder's characteristic polynomials have at non-reduced zeros
    p = 10009
    f = [1]
    for r in (3, 3, 3, 7, 0, 0):  # f *= x - r
        f = uv._fp_add([0] + f, [-r * c for c in f], p)
    assert sorted(uv._fp_roots(f, p)) == [0, 3, 7]


def _fp_from_roots(roots, p):
    f = [1]
    for r in roots:  # f *= x - r
        f = uv._fp_add([0] + f, [-r * c for c in f], p)
    return f


def _fp_eval(f, x, p):
    return sum(c * pow(x, k, p) for k, c in enumerate(f)) % p


@pytest.mark.parametrize("p", [7, 13, 101])
def test_fp_roots_against_every_residue(p):
    # random polynomials, products with repeated roots, full splits and
    # products of a quadratic non-residue factor, whose roots are none
    rng = random.Random(p)
    nonresidue = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    cases = [[rng.randrange(p) for _ in range(rng.randint(2, 9))] + [rng.randrange(1, p)]
             for _ in range(20)]
    cases += [_fp_from_roots([rng.randrange(p) for _ in range(rng.randint(1, 12))], p)
              for _ in range(20)]
    cases.append(_fp_from_roots(range(p), p))  # x^p - x
    irreducible = [-nonresidue % p, 0, 1]       # x^2 - n
    cases.append(irreducible)
    cases.append(uv._fp_add([0, 0] + irreducible, [], p))  # x^2 (x^2 - n)
    for f in cases:
        got = list(uv._fp_roots(f, p))
        assert len(got) == len(set(got))
        assert set(got) == {x for x in range(p) if _fp_eval(f, x, p) == 0}


def test_fp_roots_at_the_certificate_prime():
    # at the prime of the singular-point search: the roots of a product
    # built from known roots, with repeated roots and a factor x^2 - n,
    # n a non-residue, that has none
    from quartic_galois.solver import _CERT_PRIMES
    p = _CERT_PRIMES[0]
    rng = random.Random(11)
    roots = [rng.randrange(p) for _ in range(20)]
    f = _fp_from_roots(roots + roots[:5] + [0, 0], p)
    nonresidue = next(a for a in range(2, 100) if pow(a, (p - 1) // 2, p) == p - 1)
    f = uv._fp_add([0, 0] + f, [-nonresidue * c for c in f], p)  # * (x^2 - n)
    first = next(uv._fp_roots(f, p))
    assert first in roots + [0]
    got = list(uv._fp_roots(f, p))
    assert len(got) == len(set(got)) and set(got) == set(roots + [0])
