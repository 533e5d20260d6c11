"""Representations (l, r, V) of admissible-Poisson algebras.

The three operator identities checked on basis pairs (x, y) are

  (c2)  l(x*y) = l(x)l(y) - 1/3( -l(x)r(y) + r(x*y) + l(y)l(x) - l(y)r(x) )
  (c3)  r(y)l(x) = l(x)r(y) - 1/3( -l(x)l(y) + l(y)l(x) + r(x*y) - r(y*x) )
  (c4)  r(y)r(x) = r(x*y) - 1/3( -r(y*x) + l(y)r(x) + l(x)r(y) - l(x)l(y) )

(the consequence l(x*y) + r(x)r(y) = l(x)l(y) + r(y*x) is checked in the
test suite).
"""

from .scalars import half
from .tensors import (MulTensor, Identity, check_identities, mat_add, mat_sub,
                      mat_scale, mat_eq, left_mult_basis, right_mult_basis,
                      dual_endo_family, vec_zero)
from .algebras import (AdmPoissonAlgebra, PoissonAlgebra, polarize,
                       depolarize_raw, polarize_raw)


class Representation:
    """Per-basis matrices l(e_i), r(e_i) acting on an m-dimensional module.

    check_representation raises ShapeError when the family sizes disagree
    with the algebra or with each other."""

    __slots__ = ("alg", "vdim", "l", "r")

    def __init__(self, alg, l, r, check=True):
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "vdim", len(l[0]) if l else 0)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "r", r)
        if check:
            report = check_representation(self)
            if not report.holds:
                raise ValueError(f"not a representation: {report!r}")

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    @classmethod
    def raw(cls, alg, l, r):
        return cls(alg, l, r, check=False)

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (self.alg == other.alg and
                all(mat_eq(a, b) for a, b in zip(self.l, other.l)) and
                all(mat_eq(a, b) for a, b in zip(self.r, other.r)))


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
    return check_identities(REPRESENTATION, {"c": star.c, "l": rep.l, "r": rep.r},
                            star.p)


def adjoint_rep(a):
    """(L, R, P): the algebra acting on itself by left/right multiplication."""
    star = a.star
    l = [left_mult_basis(star, i) for i in range(star.n)]
    r = [right_mult_basis(star, i) for i in range(star.n)]
    return Representation(a, l, r)


def dual_rep(rep, check=True):
    """(r^T, l^T) on the dual module (the minus of the pairing-dual
    endomorphism cancels the minus in front of it)."""
    l2 = dual_endo_family(rep.r)
    r2 = dual_endo_family(rep.l)
    return Representation(rep.alg, l2, r2, check=check)


def semidirect_raw(star, l, r):
    """Structure constants of (x+u)*(y+v) = x*y + l(x)v + r(y)u on P + V."""
    n, p = star.n, star.p
    m = len(l[0])
    big = [[vec_zero(n + m, p) for _ in range(n + m)] for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                big[i][j][k] = star.c[i][j][k]
    for i in range(n):
        for b in range(m):
            for a in range(m):
                # e_i * v_b has v_a-coefficient l(e_i)[a][b]
                big[i][n + b][n + a] = l[i][a][b]
                # v_b * e_i has v_a-coefficient r(e_i)[a][b]
                big[n + b][i][n + a] = r[i][a][b]
    return MulTensor(n + m, p, big)


def semidirect(a, rep):
    """Semidirect product algebra on P + V (module part squares to zero)."""
    assert rep.alg == a
    return AdmPoissonAlgebra(semidirect_raw(a.star, rep.l, rep.r))


class PoissonRepresentation:
    """A (S_bracket, S_circ) pair over a Poisson algebra.

    Validity is defined through the correspondence: the image under
    poisson_rep_to_rep must pass check_representation.
    """

    __slots__ = ("palg", "vdim", "s_bracket", "s_circ")

    def __init__(self, palg, s_bracket, s_circ, check=True):
        object.__setattr__(self, "palg", palg)
        object.__setattr__(self, "vdim", len(s_bracket[0]))
        object.__setattr__(self, "s_bracket", s_bracket)
        object.__setattr__(self, "s_circ", s_circ)
        if check:
            rep = poisson_rep_to_rep(self, check=False)
            report = check_representation(rep)
            if not report.holds:
                raise ValueError(f"not a Poisson representation: {report!r}")

    def __setattr__(self, name, value):
        raise AttributeError("PoissonRepresentation is immutable")

    @classmethod
    def raw(cls, palg, s_bracket, s_circ):
        return cls(palg, s_bracket, s_circ, check=False)


def rep_to_poisson_rep(rep, check=True):
    """(S_bracket, S_circ) = (1/2(l - r), 1/2(l + r)) over the polarized algebra."""
    h = half(rep.alg.p)
    s_bracket = [mat_scale(h, mat_sub(a, b)) for a, b in zip(rep.l, rep.r)]
    s_circ = [mat_scale(h, mat_add(a, b)) for a, b in zip(rep.l, rep.r)]
    palg = polarize(rep.alg) if check else \
        PoissonAlgebra.raw(*polarize_raw(rep.alg.star))
    return PoissonRepresentation(palg, s_bracket, s_circ, check=False)


def poisson_rep_to_rep(prep, check=True):
    """(l, r) = (S_circ + S_bracket, S_circ - S_bracket) over the depolarized algebra."""
    l = [mat_add(c, b) for c, b in zip(prep.s_circ, prep.s_bracket)]
    r = [mat_sub(c, b) for c, b in zip(prep.s_circ, prep.s_bracket)]
    star = depolarize_raw(prep.palg.bracket, prep.palg.circ)
    alg = AdmPoissonAlgebra(star) if check else AdmPoissonAlgebra.raw(star)
    return Representation(alg, l, r, check=check)
