"""Exact scalars: reduced rationals or residues mod a prime p (p != 2, 3).

A Scalar carries its own mode: p == 0 means rational, p >= 5 means GF(p).
Mixing modes (or moduli) raises ScalarModeError.  All arithmetic is exact;
there are no floats anywhere in this package.
"""

from functools import lru_cache
from math import gcd


class ScalarModeError(TypeError):
    pass


@lru_cache(maxsize=64)
def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_characteristic(p):
    """Validate a field characteristic: 0 (rationals) or a prime >= 5."""
    if p == 0:
        return
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p in (2, 3):
        # The defining axiom divides by 3 and polarization divides by 2.
        raise ValueError(f"characteristic {p} not supported (need 1/2 and 1/3)")


def _canonical(num, den, p):
    """(num, den) of num/den in lowest terms with den > 0 over Q, or as a
    residue in [0, p) with den 1 over GF(p)."""
    if p:
        if den % p == 0:
            raise ZeroDivisionError(f"denominator {den} is 0 mod {p}")
        if den != 1:
            num = num * pow(den, p - 2, p)
        return num % p, 1
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return num, den


class Scalar:
    """An exact rational (p=0) or an element of GF(p), always canonical.

    The public constructor validates p; results of arithmetic and of the
    package's own conversions reuse the p of their operands unvalidated."""

    __slots__ = ("num", "den", "p")

    def __init__(self, num, den=1, p=0):
        check_characteristic(p)
        num, den = _canonical(num, den, p)
        _set_num(self, num)
        _set_den(self, den)
        _set_p(self, p)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _need_same_mode(self, other):
        if not isinstance(other, Scalar):
            raise ScalarModeError(f"expected Scalar, got {type(other).__name__}")
        if self.p != other.p:
            raise ScalarModeError(f"scalar mode mismatch: p={self.p} vs p={other.p}")

    def __add__(self, other):
        self._need_same_mode(other)
        p = self.p
        if p:
            return _make((self.num + other.num) % p, 1, p)
        return _exact(self.num * other.den + other.num * self.den,
                      self.den * other.den, 0)

    def __sub__(self, other):
        self._need_same_mode(other)
        p = self.p
        if p:
            return _make((self.num - other.num) % p, 1, p)
        return _exact(self.num * other.den - other.num * self.den,
                      self.den * other.den, 0)

    def __mul__(self, other):
        self._need_same_mode(other)
        p = self.p
        if p:
            return _make(self.num * other.num % p, 1, p)
        return _exact(self.num * other.num, self.den * other.den, 0)

    def __truediv__(self, other):
        self._need_same_mode(other)
        if other.num == 0:
            raise ZeroDivisionError("scalar division by zero")
        p = self.p
        if p:
            return _make(self.num * pow(other.num, p - 2, p) % p, 1, p)
        return _exact(self.num * other.den, self.den * other.num, 0)

    def __neg__(self):
        return _make(-self.num % self.p if self.p else -self.num, self.den, self.p)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.p, self.num, self.den) == (other.p, other.num, other.den)

    def __hash__(self):
        return hash((self.p, self.num, self.den))

    def __bool__(self):
        return self.num != 0

    def is_zero(self):
        return self.num == 0

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self):
        if self.p:
            return f"Scalar({self.num}, p={self.p})"
        return f"Scalar({self.num}, {self.den})"


# the slots' own setters, which Scalar.__setattr__ does not intercept
_set_num, _set_den, _set_p = Scalar.num.__set__, Scalar.den.__set__, Scalar.p.__set__
_new = object.__new__


def _make(num, den, p):
    """The Scalar with canonical parts num, den over a p that was validated
    where its field entered the program."""
    s = _new(Scalar)
    _set_num(s, num)
    _set_den(s, den)
    _set_p(s, p)
    return s


def _exact(num, den, p):
    """num/den over an already validated p, brought to canonical form."""
    return _make(*_canonical(num, den, p), p)


@lru_cache(maxsize=64)
def _constant(value, p):
    return Scalar(value, 1, p)


def zero(p=0):
    """The zero of Q (p = 0) or GF(p): one shared immutable instance per p."""
    return _constant(0, p)


def one(p=0):
    """The one of Q (p = 0) or GF(p): one shared immutable instance per p."""
    return _constant(1, p)


def of(num, den=1, p=0):
    return Scalar(num, den, p)


def half(p=0):
    return Scalar(1, 2, p)


def third(p=0):
    return Scalar(1, 3, p)
