import random
from fractions import Fraction

import pytest

from quartic_galois.gaussian import (FOURTH_ROOTS, GaussianRational, I,
                                     MINUS_ONE, ONE, ZERO, gaussian_sqrt,
                                     parse_gaussian)

from helpers import rand_gr


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


def test_gaussian_sqrt_exact():
    assert gaussian_sqrt(ZERO) == ZERO
    assert gaussian_sqrt(GaussianRational(4)) == GaussianRational(2)
    assert gaussian_sqrt(MINUS_ONE) in (I, -I)
    s = gaussian_sqrt(GaussianRational(0, 2))
    assert s is not None and s * s == GaussianRational(0, 2)
    assert gaussian_sqrt(GaussianRational(2)) is None
    assert gaussian_sqrt(GaussianRational(0, 3)) is None


def test_gaussian_sqrt_random_squares():
    rng = random.Random(11)
    for _ in range(100):
        a = rand_gr(rng, denominators=(1, 2, 3))
        s = gaussian_sqrt(a * a)
        assert s is not None and s * s == a * a


def test_sort_key_total_order():
    rng = random.Random(12)
    values = [rand_gr(rng) for _ in range(50)]
    ordered = sorted(values, key=lambda v: v.sort_key())
    for x, y in zip(ordered, ordered[1:]):
        assert x.sort_key() <= y.sort_key()
