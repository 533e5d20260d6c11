from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from admpoisson.scalars import (Scalar, ScalarModeError, check_characteristic,
                                zero, one, of, half, third, parse_scalar,
                                _is_prime)


rationals = st.builds(Scalar,
                      st.integers(min_value=-50, max_value=50),
                      st.integers(min_value=1, max_value=20))
gf5 = st.builds(lambda n: Scalar(n, 1, 5),
                st.integers(min_value=0, max_value=4))


def as_fraction(s):
    return Fraction(s.num, s.den)


@given(rationals, rationals)
def test_rational_ops_match_fraction(a, b):
    assert as_fraction(a + b) == as_fraction(a) + as_fraction(b)
    assert as_fraction(a - b) == as_fraction(a) - as_fraction(b)
    assert as_fraction(a * b) == as_fraction(a) * as_fraction(b)
    if not b.is_zero():
        assert as_fraction(a / b) == as_fraction(a) / as_fraction(b)


@given(rationals)
def test_rational_canonical_form(a):
    from math import gcd
    assert a.den > 0
    assert gcd(abs(a.num), a.den) == 1 or a.num == 0


@given(gf5, gf5)
def test_gf5_field_axioms(a, b):
    assert 0 <= (a + b).num < 5
    assert (a + b).num == (a.num + b.num) % 5
    assert (a * b).num == (a.num * b.num) % 5
    if not b.is_zero():
        assert ((a / b) * b) == a


def test_gf5_inverses():
    for n in range(1, 5):
        x = Scalar(n, 1, 5)
        assert (one(5) / x) * x == one(5)


def test_denominator_reduction_mod_p():
    # 1/2 = 3 mod 5, 1/3 = 2 mod 5
    assert half(5) == Scalar(3, 1, 5)
    assert third(5) == Scalar(2, 1, 5)
    assert half(7) == Scalar(4, 1, 7)


def test_mode_mixing_rejected():
    with pytest.raises(ScalarModeError):
        of(1) + of(1, p=5)
    with pytest.raises(ScalarModeError):
        of(1, p=5) * of(1, p=7)
    with pytest.raises(ScalarModeError):
        of(1) + 1  # plain ints never coerce silently


def test_characteristic_validation():
    check_characteristic(0)
    check_characteristic(5)
    check_characteristic(11)
    for bad in (2, 3, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            check_characteristic(bad)


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        of(1) / zero()
    with pytest.raises(ZeroDivisionError):
        Scalar(1, 0)
    with pytest.raises(ZeroDivisionError):
        Scalar(1, 5, 5)  # denominator 0 mod p


@given(rationals)
def test_parse_str_roundtrip_rational(a):
    assert parse_scalar(str(a)) == a


@given(gf5)
def test_parse_str_roundtrip_gf5(a):
    assert parse_scalar(str(a), 5) == a


def test_parse_fraction_mod_p():
    assert parse_scalar("-1/2", 5) == Scalar(2, 1, 5)


def test_large_prime_is_validated_once():
    for _ in range(2):          # the second round hits the primality cache
        with pytest.raises(ValueError):
            Scalar(3, 1, 4)
        with pytest.raises(ValueError):
            Scalar(1, 1, 9)
    p = 2 ** 31 - 1
    _is_prime.cache_clear()
    a, b = Scalar(p - 2, 1, p), Scalar(123456789, 1, p)
    prod = a
    for _ in range(100):
        prod = prod * b
    assert prod == Scalar((p - 2) * pow(123456789, 100, p), 1, p)
    assert prod.num == (p - 2) * pow(123456789, 100, p) % p
    assert _is_prime.cache_info().misses == 1


def test_arithmetic_does_not_validate_p_again(monkeypatch):
    import admpoisson.scalars as scalars
    p = 2 ** 31 - 1
    a, b = Scalar(p - 2, 1, p), Scalar(123456789, 1, p)
    x, y = of(-3, 4), of(5, 6)
    constants = zero(p), one(p), zero(), one()
    calls = []
    monkeypatch.setattr(scalars, "check_characteristic", calls.append)
    for u, v in ((a, b), (x, y)):
        u + v, u - v, u * v, u / v, -u
    assert (zero(p), one(p), zero(), one()) == constants
    assert calls == []
    assert Scalar(1, 2, 7) == Scalar(4, 1, 7) and calls == [7, 7]


def test_cached_zero_and_one_are_shared_and_immutable():
    for p in (0, 5, 10007):
        z, o = zero(p), one(p)
        assert z is zero(p) and o is one(p)
        assert z == Scalar(0, 1, p) and o == Scalar(1, 1, p)
        for attr in ("num", "den", "p"):
            with pytest.raises(AttributeError):
                setattr(z, attr, 7)
            with pytest.raises(AttributeError):
                setattr(o, attr, 7)
        assert (z + o, o + o, z - o) == (o, of(2, 1, p), of(-1, 1, p))
        assert (z.num, z.den, o.num, o.den) == (0, 1, 1, 1)
    with pytest.raises(ValueError):
        zero(4)


def test_immutability_and_hash():
    a = of(1, 2)
    with pytest.raises(AttributeError):
        a.num = 7
    assert hash(of(2, 4)) == hash(of(1, 2))
    assert of(2, 4) == of(1, 2)
