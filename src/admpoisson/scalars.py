"""Field validation: p == 0 means the rationals, p >= 5 a prime field GF(p).

Every number of the package lives in an exact integer array (tensors.Exact);
this module only checks the field those arrays are over.  There are no
floats anywhere in this package.
"""

from functools import lru_cache


class ScalarModeError(TypeError):
    pass


# Miller-Rabin with the first 13 primes as bases decides every n below
# _PRIME_BOUND (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017); a larger modulus is refused.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


@lru_cache(maxsize=64)
def _is_prime(n):
    """Whether n is prime, for n < _PRIME_BOUND (ValueError above)."""
    if n >= _PRIME_BOUND:
        raise ValueError(f"modulus {n} is too large: primality is decided only "
                         f"below {_PRIME_BOUND}")
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
