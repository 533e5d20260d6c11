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


class Scalar:
    """An exact rational (p=0) or an element of GF(p), always canonical."""

    __slots__ = ("num", "den", "p")

    def __init__(self, num, den=1, p=0):
        check_characteristic(p)
        if p:
            if den % p == 0:
                raise ZeroDivisionError(f"denominator {den} is 0 mod {p}")
            if den != 1:
                num = num * pow(den, p - 2, p)
            object.__setattr__(self, "num", num % p)
            object.__setattr__(self, "den", 1)
        else:
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            if den < 0:
                num, den = -num, -den
            g = gcd(abs(num), den)
            if g > 1:
                num //= g
                den //= g
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", den)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _need_same_mode(self, other):
        if not isinstance(other, Scalar):
            raise ScalarModeError(f"expected Scalar, got {type(other).__name__}")
        if self.p != other.p:
            raise ScalarModeError(f"scalar mode mismatch: p={self.p} vs p={other.p}")

    def __add__(self, other):
        self._need_same_mode(other)
        if self.p:
            return Scalar(self.num + other.num, 1, self.p)
        return Scalar(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    def __sub__(self, other):
        self._need_same_mode(other)
        if self.p:
            return Scalar(self.num - other.num, 1, self.p)
        return Scalar(self.num * other.den - other.num * self.den,
                      self.den * other.den)

    def __mul__(self, other):
        self._need_same_mode(other)
        if self.p:
            return Scalar(self.num * other.num, 1, self.p)
        return Scalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        self._need_same_mode(other)
        if other.num == 0:
            raise ZeroDivisionError("scalar division by zero")
        if self.p:
            return Scalar(self.num * pow(other.num, self.p - 2, self.p), 1, self.p)
        return Scalar(self.num * other.den, self.den * other.num)

    def __neg__(self):
        return Scalar(-self.num, self.den, self.p)

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


def zero(p=0):
    return Scalar(0, 1, p)


def one(p=0):
    return Scalar(1, 1, p)


def of(num, den=1, p=0):
    return Scalar(num, den, p)


def half(p=0):
    return Scalar(1, 2, p)


def third(p=0):
    return Scalar(1, 3, p)


def parse_scalar(text, p=0):
    """Parse '7', '-3/4' (rationals) or the same read mod p (GF mode)."""
    text = text.strip()
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        return Scalar(int(num_s), int(den_s), p)
    return Scalar(int(text), 1, p)
