"""Field validation: p == 0 means the rationals, p >= 5 a prime field GF(p).

Every number of the package lives in an exact integer array (tensors.Exact);
this module only checks the field those arrays are over.  There are no
floats anywhere in this package.
"""

from functools import lru_cache


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
