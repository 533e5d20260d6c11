"""Representations (l, r, V) of admissible-Poisson algebras.

The three operator identities checked on basis pairs (x, y) are

  (c2)  l(x*y) = l(x)l(y) - 1/3( -l(x)r(y) + r(x*y) + l(y)l(x) - l(y)r(x) )
  (c3)  r(y)l(x) = l(x)r(y) - 1/3( -l(x)l(y) + l(y)l(x) + r(x*y) - r(y*x) )
  (c4)  r(y)r(x) = r(x*y) - 1/3( -r(y*x) + l(y)r(x) + l(x)r(y) - l(x)l(y) )

(the consequence l(x*y) + r(x)r(y) = l(x)l(y) + r(y*x) is checked in the
test suite).
"""

import numpy as np

from .tensors import Exact, MulTensor, Identity, Record, as_exact, check_identities, common
from .algebras import AdmPoissonAlgebra, PoissonAlgebra, depolarize, polarize


def _vdim(family):
    """The module dimension of a family of matrices (an Exact)."""
    return family.num.shape[1] if family.num.ndim > 1 else 0


class Representation(Record):
    """Per-basis matrices l(e_i), r(e_i) acting on an m-dimensional module.

    The families are stored as Exacts; check_representation raises
    ShapeError when their sizes disagree with the algebra or each other."""

    __slots__ = ("alg", "l", "r")
    what = "a representation"
    vdim = property(lambda self: _vdim(self.l))

    def __init__(self, alg, l, r, check=True):
        super().__init__(alg, as_exact(l, alg.p), as_exact(r, alg.p), check=check)

    def verify(self):
        return check_representation(self)


# c2-c4 at (x, y) = (e_i, e_j) with l = l(e_.), r = r(e_.) and product c,
# compared as matrices [a][b]; one group, so c2 wins ties at a pair.
_LL, _LL_REV = "l:iat l:jtb", "l:jat l:itb"            # l(x)l(y), l(y)l(x)
_LR, _LR_REV = "l:iat r:jtb", "l:jat r:itb"            # l(x)r(y), l(y)r(x)
_L_XY, _R_XY, _R_YX = "c:ijs l:sab", "c:ijs r:sab", "c:jis r:sab"
REPRESENTATION = ((
    Identity("c2", "ij", "ab", _L_XY,
             f"{_LL} - 1/3 {_R_XY} - 1/3 {_LL_REV} + 1/3 {_LR} + 1/3 {_LR_REV}"),
    Identity("c3", "ij", "ab", "r:jat l:itb",
             f"{_LR} - 1/3 {_LL_REV} - 1/3 {_R_XY} + 1/3 {_LL} + 1/3 {_R_YX}"),
    Identity("c4", "ij", "ab", "r:jat r:itb",
             f"{_R_XY} - 1/3 {_LR_REV} - 1/3 {_LR} + 1/3 {_R_YX} + 1/3 {_LL}"),
),)


def check_representation(rep):
    """Verify the three operator identities on every basis pair."""
    star = rep.alg.star
    return check_identities(REPRESENTATION, {"c": star.exact, "l": rep.l, "r": rep.r},
                            star.p)


def adjoint_families(star):
    """(L, R) with L(e_i)[k][j] = c[i][j][k] (y -> e_i * y) and
    R(e_i)[k][j] = c[j][i][k] (y -> y * e_i)."""
    return star.exact.transpose(0, 2, 1), star.exact.transpose(1, 2, 0)


def adjoint_rep(a):
    """(L, R, P): the algebra acting on itself by left/right multiplication."""
    return Representation.raw(a, *adjoint_families(a.star))


def dual_rep(rep):
    """(r^T, l^T) on the dual module (the minus of the pairing-dual
    endomorphism cancels the minus in front of it)."""
    return Representation.raw(rep.alg, rep.r.transpose(0, 2, 1), rep.l.transpose(0, 2, 1))


def semidirect(star, l, r):
    """Structure constants of (x+u)*(y+v) = x*y + l(x)v + r(y)u on P + V:
    e_i * v_b = sum_a l(e_i)[a][b] v_a and v_b * e_i = sum_a r(e_i)[a][b] v_a."""
    (c, l, r), den = common(star.exact, as_exact(l, star.p), as_exact(r, star.p))
    n, m = star.n, l.shape[1]
    big = np.zeros((n + m,) * 3, dtype=np.result_type(c, l, r))
    big[:n, :n, :n] = c
    big[:n, n:, n:] = l.transpose(0, 2, 1)
    big[n:, :n, n:] = r.transpose(2, 0, 1)
    return MulTensor(n + m, star.p, Exact(big, den, star.p))


class PoissonRepresentation(Record):
    """A (S_bracket, S_circ) pair over a Poisson algebra, stored as Exacts.

    Validity is defined through the correspondence: the image under
    poisson_rep_to_rep must pass check_representation.
    """

    __slots__ = ("palg", "s_bracket", "s_circ")
    what = "a Poisson representation"
    vdim = property(lambda self: _vdim(self.s_bracket))

    def __init__(self, palg, s_bracket, s_circ, check=True):
        super().__init__(palg, as_exact(s_bracket, palg.p), as_exact(s_circ, palg.p),
                         check=check)

    def verify(self):
        return check_representation(poisson_rep_to_rep(self))


def rep_to_poisson_rep(rep):
    """(S_bracket, S_circ) = (1/2(l - r), 1/2(l + r)) over the polarized algebra."""
    palg = PoissonAlgebra.raw(*polarize(rep.alg.star))
    return PoissonRepresentation.raw(palg, (rep.l - rep.r) / 2, (rep.l + rep.r) / 2)


def poisson_rep_to_rep(prep):
    """(l, r) = (S_circ + S_bracket, S_circ - S_bracket) over the depolarized algebra."""
    c, b = prep.s_circ, prep.s_bracket
    alg = AdmPoissonAlgebra.raw(depolarize(prep.palg.bracket, prep.palg.circ))
    return Representation.raw(alg, c + b, c - b)
