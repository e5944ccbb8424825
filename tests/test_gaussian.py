import math
import random
import sys
from fractions import Fraction

import pytest
import sympy

from quartic_galois.gaussian import (FOURTH_ROOTS, GaussianRational, I,
                                     MINUS_ONE, ONE, ZERO, parse_gaussian)

from helpers import rand_gr
from oracles import gr_to_sympy


def test_norm_of_one_plus_i():
    assert (ONE + I) * (ONE - I) == GaussianRational(2)


def test_primitive_fourth_root():
    assert I ** 4 == ONE
    assert I * I == MINUS_ONE
    assert I ** 2 != ONE


def test_division_identity():
    a = GaussianRational(Fraction(1, 2)) + I
    assert a / a == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_field_axioms_random():
    rng = random.Random(20240)
    for _ in range(200):
        a = rand_gr(rng, denominators=(1, 2, 3))
        b = rand_gr(rng, denominators=(1, 2, 3))
        c = rand_gr(rng, denominators=(1, 2, 3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a


def test_conjugate_and_norm():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_gr(rng, denominators=(1, 2))
        assert a * a.conjugate() == GaussianRational(a.norm())
        assert a.norm() >= 0
        assert a.conjugate().conjugate() == a


def test_inverse_random():
    rng = random.Random(8)
    for _ in range(50):
        a = rand_gr(rng)
        if a.is_zero():
            continue
        assert a * a.inverse() == ONE
        assert a ** -1 == a.inverse()


def test_text_round_trip_canonical():
    for text in ["3", "-1/2*i", "1+i", "0", "i", "-i", "5/3-2/7*i",
                 "-4", "2/3", "1-i", "-1/2+3*i"]:
        assert str(parse_gaussian(text)) == text


def test_text_round_trip_random():
    rng = random.Random(99)
    for _ in range(200):
        a = rand_gr(rng, -9, 9, denominators=(1, 2, 3, 7))
        assert parse_gaussian(str(a)) == a


def test_parse_tolerates_spacing_and_star():
    assert parse_gaussian(" 1 + 2*i ") == GaussianRational(1, 2)
    assert parse_gaussian("2i") == GaussianRational(0, 2)
    assert parse_gaussian("2*i") == parse_gaussian("i*2") == GaussianRational(0, 2)
    assert parse_gaussian("-3/4 - i") == GaussianRational(Fraction(-3, 4), -1)


def test_parse_rejects_garbage():
    for bad in ["", "x", "1+", "1//2", "2..3", "i i j"]:
        with pytest.raises(ValueError):
            parse_gaussian(bad)


def test_fourth_roots_constant():
    assert [str(r) for r in FOURTH_ROOTS] == ["1", "-1", "i", "-i"]
    for r in FOURTH_ROOTS:
        assert r ** 4 == ONE


def test_sort_key_total_order():
    rng = random.Random(12)
    values = [rand_gr(rng) for _ in range(50)]
    ordered = sorted(values, key=lambda v: v.sort_key())
    for x, y in zip(ordered, ordered[1:]):
        assert x.sort_key() <= y.sort_key()


def _assert_reduced(z):
    assert type(z.a) is int and type(z.b) is int and type(z.d) is int
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1


def test_stored_triple_is_reduced_after_every_operation():
    rng = random.Random(15)
    values = [rand_gr(rng, -6, 6, denominators=(1, 2, 4, 6)) for _ in range(60)]
    values += [GaussianRational(2, 4, -6), GaussianRational(0, 0, 7),
               GaussianRational(Fraction(3, 4), Fraction(5, 6))]
    for x, y in zip(values, values[1:] + values[:1]):
        results = [x, x + y, x - y, x * y, -x, x.conjugate(), x ** 3,
                   x + 1, 2 - x, x * Fraction(2, 3), Fraction(1, 2) + x]
        if y:
            results += [x / y, 3 / y, y ** -2]
        for z in results:
            _assert_reduced(z)
    for z, triple in ((GaussianRational(2, 4, -6), (-1, -2, 3)),
                      (GaussianRational(0, 0, 7), (0, 0, 1)),
                      (GaussianRational(Fraction(3, 4), Fraction(5, 6)), (9, 10, 12))):
        assert (z.a, z.b, z.d) == triple


def test_rational_values_equal_and_hash_as_python_numbers():
    assert GaussianRational(3) == 3 and hash(GaussianRational(3)) == hash(3)
    half = Fraction(1, 2)
    assert GaussianRational(half) == half
    assert hash(GaussianRational(half)) == hash(half)
    assert GaussianRational(half) != Fraction(1, 3) and GaussianRational(3) != 4
    assert GaussianRational(3, 1) != 3
    rng = random.Random(16)
    for _ in range(200):
        re = Fraction(rng.randint(-10 ** 20, 10 ** 20), rng.randint(1, 10 ** 20))
        im = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        z = GaussianRational(re, im)
        assert (z.re, z.im) == (re, im)
        assert hash(z) == (hash((re, im)) if im else hash(re))
        assert z.sort_key() == (re.numerator, re.denominator,
                                im.numerator, im.denominator)


M61 = sys.hash_info.modulus  # 2**61 - 1 on 64-bit CPython


@pytest.mark.parametrize("re, im", [
    (Fraction(1, M61), 0), (Fraction(-1, M61), 0), (Fraction(5, 3 * M61), Fraction(2, M61)),
    (Fraction(1, M61), Fraction(-7, 2)), (Fraction(M61, 3), Fraction(-M61, 5)),
    (Fraction(2, M61 * M61), 0), (-1, 0), (-1, 1), (1, -1), (-(M61 + 1), 0),
    (Fraction(-(M61 + 1), 5 * (M61 + 1)), 0), (Fraction(-1, M61 - 1), -1),
    (Fraction(-10 ** 40, 7), Fraction(-3, 10 ** 30)), (0, -1), (0, Fraction(-1, M61)),
])
def test_hash_edge_cases_match_fractions(re, im):
    # denominators divisible by the hash modulus (hash_info.inf), negative
    # parts, and values whose hash would be -1 (CPython sends it to -2)
    z = GaussianRational(Fraction(re), Fraction(im))
    assert hash(z) == (hash((Fraction(re), Fraction(im))) if im else hash(Fraction(re)))


def test_hash_minus_one_becomes_minus_two():
    for value in (-1, Fraction(-(M61 + 1)), Fraction(-(2 * M61 + 3), 3)):
        assert hash(Fraction(value)) == -2 and hash(GaussianRational(value)) == -2
    assert hash(GaussianRational(-1, 1)) == hash((-2, 1))
    assert hash(GaussianRational(Fraction(1, M61))) == sys.hash_info.inf
    assert hash(GaussianRational(Fraction(-1, M61))) == -sys.hash_info.inf


def _big_gr(rng, digits=30):
    def part():
        return Fraction(rng.randint(-10 ** digits, 10 ** digits),
                        rng.randint(1, 10 ** digits))
    return GaussianRational(part(), part())


def test_arithmetic_matches_sympy_on_30_digit_values():
    rng = random.Random(17)
    for _ in range(100):
        x, y = _big_gr(rng), _big_gr(rng)
        sx, sy = gr_to_sympy(x), gr_to_sympy(y)
        assert gr_to_sympy(x + y) == sx + sy
        assert gr_to_sympy(x - y) == sx - sy
        assert gr_to_sympy(x * y) == sympy.expand(sx * sy)
        assert gr_to_sympy(x / y) == sympy.expand_complex(sx / sy)


def test_division_by_zero_in_every_form():
    z = GaussianRational(Fraction(1, 3), 2)
    for zero in (ZERO, 0, Fraction(0), GaussianRational(0, 0, 5)):
        with pytest.raises(ZeroDivisionError):
            z / zero
    with pytest.raises(ZeroDivisionError):
        1 / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 1, 0)


def test_text_round_trip_large_values():
    rng = random.Random(18)
    for _ in range(100):
        z = _big_gr(rng)
        for w in (z, GaussianRational(z.re), GaussianRational(0, z.im)):
            assert parse_gaussian(str(w)) == w
