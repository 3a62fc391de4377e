import time
from fractions import Fraction

import pytest

from quiverhh.fields import GF, QQ, FieldSpec, _is_prime


def test_rationals_arithmetic():
    assert QQ.char == 0
    assert QQ.add(1, 2) == Fraction(3)
    assert QQ.mul(1, QQ.inv(3)) == Fraction(1, 3)
    assert QQ.neg(QQ.one) == Fraction(-1)
    assert not QQ.divides_char(5)
    assert str(QQ) == "Q"


def test_prime_field_arithmetic():
    f = GF(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(2) == 3
    assert f.neg(1) == 4 and f.add(f.neg(3), 4) == 1
    assert f.divides_char(10) and not f.divides_char(9)
    assert str(f) == "F5"


def test_zero_and_one_are_shared_constants():
    for f in (QQ, GF(2), GF(5)):
        assert f.zero is f.zero and f.one is f.one
        assert (f.zero, f.one) == (0, 1)
        assert type(f.zero) is int and type(f.one) is int
    # they are not fields: equality, hashing and repr still see only char
    assert FieldSpec(0) == QQ and hash(FieldSpec(0)) == hash(QQ)
    assert repr(GF(5)) == "FieldSpec(char=5)"


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GF(3).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_characteristic_must_be_prime():
    for bad in (1, 4, 6, 9, -2):
        with pytest.raises(ValueError):
            FieldSpec(bad)
    GF(2), GF(97)  # fine


def _trial_division_is_prime(p: int) -> bool:
    """Reference: the trial division the field check used before Miller-Rabin."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def test_miller_rabin_matches_trial_division():
    # includes strong pseudoprimes to small bases: 2047, 1373653, 25326001
    for n in list(range(-3, 20000)) + [2047, 1373653, 25326001, 3215031751]:
        assert _is_prime(n) == _trial_division_is_prime(n), n


def test_large_characteristics():
    start = time.perf_counter()
    assert GF(1000000000000000003).char == 1000000000000000003
    assert GF(2**64 - 59).char == 2**64 - 59  # the largest prime below 2^64
    assert time.perf_counter() - start < 1.0
    for bad in (10**18 + 1, 2**64 - 1, 2**64 + 13):
        with pytest.raises(ValueError):
            FieldSpec(bad)
