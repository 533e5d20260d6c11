"""Comultiplications and bialgebra predicates.

A comultiplication is stored output-index first:
    alpha(e_i) = sum_{j,k} a[i][j][k] e_j (x) e_k,
so a[i] is an n x n matrix A_i with rows = first tensor slot.  Under that
convention (M (x) id) alpha(x) = M A_x, (id (x) M) alpha(x) = A_x M^T and
tau(alpha(x)) = A_x^T, which the pair-condition residuals below exploit.
"""

from .scalars import half
from .tensors import (MulTensor, Identity, check_identities, mat_add, mat_sub,
                      mat_scale, transpose, vec_zero)
from .algebras import AxiomReport


class Comultiplication:
    """Coefficients a[i][j][k] of alpha(e_i) = sum a[i][j][k] e_j (x) e_k."""

    __slots__ = ("n", "p", "a")

    def __init__(self, n, p=0, a=None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        if a is None:
            a = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError("Comultiplication is immutable")

    @classmethod
    def from_entries(cls, n, entries, p=0):
        from .scalars import Scalar
        a = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
        for (i, j, k), val in entries.items():
            if not isinstance(val, Scalar):
                val = Scalar(val, 1, p)
            a[i][j][k] = val
        return cls(n, p, a)

    def is_zero(self):
        return all(x.is_zero() for pl in self.a for row in pl for x in row)

    def __eq__(self, other):
        if not isinstance(other, Comultiplication):
            return NotImplemented
        return self.n == other.n and self.p == other.p and self.a == other.a

    def tau(self):
        """Flip the two tensor slots: a'[i][j][k] = a[i][k][j]."""
        return Comultiplication(self.n, self.p,
                                [transpose(ai) for ai in self.a])

    def add(self, other):
        return Comultiplication(self.n, self.p,
                                [mat_add(x, y) for x, y in zip(self.a, other.a)])

    def sub(self, other):
        return Comultiplication(self.n, self.p,
                                [mat_sub(x, y) for x, y in zip(self.a, other.a)])

    def scale(self, s):
        return Comultiplication(self.n, self.p,
                                [mat_scale(s, ai) for ai in self.a])


def dual_structure(c):
    """The multiplication on the dual space: c'[j][k][i] = a[i][j][k]."""
    n, p = c.n, c.p
    out = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[j][k][i] = c.a[i][j][k]
    return MulTensor(n, p, out)


def comult_of_mul(m):
    """Inverse relabeling: a[i][j][k] = c[j][k][i]."""
    n, p = m.n, m.p
    a = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a[i][j][k] = m.c[j][k][i]
    return Comultiplication(n, p, a)


# The coassociativity-type condition at x = e_i, coordinate (p, q, s) of
# the triple tensor, with U[p][q][s] = sum_m a[i][p][m] a[m][q][s] (alpha
# applied to the second leg) and V[p][q][s] = sum_m a[i][m][s] a[m][p][q]
# (to the first leg):
#   U - V + 1/3( U[p][s][q] - U[q][p][s] - U[s][p][q] + U[q][s][p] ) = 0.
COALGEBRA = Identity("coalgebra", "ipq", "s",
                     "a:ipm a:mqs - a:ims a:mpq + 1/3 a:ipm a:msq"
                     " - 1/3 a:iqm a:mps - 1/3 a:ism a:mpq + 1/3 a:iqm a:msp")


def check_coalgebra(c):
    """Direct residual check of the coassociativity-type condition."""
    return check_identities(((COALGEBRA,),), {"a": c.a}, c.p).first_entry()


def _T(terms):
    """The transposed matrix of each term: the value letters u, v swapped."""
    return terms.translate(str.maketrans("uv", "vu"))


# Products of the matrices L(e_.), R(e_.) of the operation m with A_. = a[.]
# and a_xy = alpha(e_i * e_j), a_yx = alpha(e_j * e_i), as [u][v] at (e_i, e_j).
_RjAi, _RiAj = "m:tju a:itv", "m:tiu a:jtv"          # R_j A_i, R_i A_j
_LiAj, _LjAi = "m:itu a:jtv", "m:jtu a:itv"          # L_i A_j, L_j A_i
_AjLi, _AiLj = "a:jut m:itv", "a:iut m:jtv"          # A_j L_i^T, A_i L_j^T
_AiRj, _AjRi = "a:iut m:tjv", "a:jut m:tiv"          # A_i R_j^T, A_j R_i^T
_A_XY, _A_YX = "m:ijs a:suv", "m:jis a:suv"
_BASE = f"{_RjAi} - {_A_XY} + {_AjLi}"
# The three pair-condition residuals E, F, G; one group, so defbi1 wins
# ties at a pair.
DEFBI = (
    Identity("defbi1", "ij", "uv",
             f"{_BASE} + 1/3 {_LjAi} + 1/3 {_LiAj} - 1/3 {_AiLj} - 1/3 {_RiAj}"
             f" + 1/3 {_T(_LiAj)} + 1/3 {_T(_LjAi)} - 1/3 {_T(_A_XY)}"),
    Identity("defbi2", "ij", "uv",
             f"{_BASE} + 1/3 {_LiAj} + 1/3 {_LjAi} - 1/3 {_A_YX} + 1/3 {_T(_LiAj)}"
             f" + 1/3 {_T(_LjAi)} - 1/3 {_T(_RjAi)} - 1/3 {_T(_AjLi)}"),
    Identity("defbi3", "ij", "uv",
             f"{_LjAi} - {_AiRj} + {_T(_LiAj)} - {_T(_AjRi)} + 1/3 {_RjAi}"
             f" + 1/3 {_AjLi} - 1/3 {_AiLj} - 1/3 {_RiAj} + 1/3 {_T(_A_YX)}"
             f" - 1/3 {_T(_A_XY)}"),
)


def check_adm_bialgebra(a, c):
    """Coalgebra condition plus the three mixed compatibility identities."""
    report = check_coalgebra(c)
    if report.holds:
        report = check_identities((DEFBI,), {"m": a.star.c, "a": c.a}, a.p)
    return report


class PoissonComultiplicationPair:
    """(delta, Delta) with delta anti-cocommutative and Delta cocommutative."""

    __slots__ = ("delta", "Delta")

    def __init__(self, delta, Delta):
        assert delta.n == Delta.n and delta.p == Delta.p
        if delta != delta.tau().scale(-_one(delta.p)):
            raise ValueError("delta must be anti-cocommutative")
        if Delta != Delta.tau():
            raise ValueError("Delta must be cocommutative")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "Delta", Delta)

    def __setattr__(self, name, value):
        raise AttributeError("PoissonComultiplicationPair is immutable")


def _one(p):
    from .scalars import one
    return one(p)


def split_comultiplication(c):
    """delta = (alpha - tau alpha)/2, Delta = (alpha + tau alpha)/2."""
    h = half(c.p)
    tau = c.tau()
    return PoissonComultiplicationPair(c.sub(tau).scale(h),
                                       c.add(tau).scale(h))


def merge_comultiplication(pair):
    return pair.delta.add(pair.Delta)


# (ii)-(iv) at (x, y) = (e_i, e_j) as matrices [u][v], over the bracket b
# (ad = L_b), circ o (L_o), delta d and Delta D; one group, in this order.
POISSON_BIALGEBRA = (
    # delta([x,y]) = (ad(x) (x) id + id (x) ad(x)) delta(y) - (x <-> y)
    Identity("lie-cocycle", "ij", "uv", "b:ijs d:suv",
             "b:itu d:jtv + d:jut b:itv - b:jtu d:itv - d:iut b:jtv"),
    # Delta(x o y) = (id (x) L_o(x)) Delta(y) + (L_o(y) (x) id) Delta(x)
    Identity("infinitesimal", "ij", "uv", "o:ijs D:suv", "D:jut o:itv + o:jtu D:itv"),
    Identity("mixed1", "ij", "uv", "o:ijs d:suv",
             "o:itu d:jtv + o:jtu d:itv + D:jut b:itv + D:iut b:jtv"),
    Identity("mixed2", "ij", "uv", "b:ijs D:suv",
             "b:itu D:jtv + D:jut b:itv + o:jtu d:itv - d:iut o:jtv"),
)
# (v) (id (x) Delta) delta(x) = (delta (x) id) Delta(x)
#     + (tau (x) id)(id (x) delta) Delta(x), at x = e_i, coordinate (p, q, s)
CO_LEIBNIZ = Identity("co-leibniz", "ipq", "s", "d:ipm D:mqs", "D:ims d:mpq + D:iqm d:mps")


def check_poisson_bialgebra(palg, pair):
    """The displayed Poisson-bialgebra conditions, checked coordinatewise.

    (i) the duals of delta/Delta are a Lie / commutative associative algebra,
    (ii) delta is a 1-cocycle of the bracket, (iii) Delta satisfies the
    infinitesimal-bialgebra identity over circ, (iv) the two mixed
    compatibilities, (v) the co-Leibniz identity.
    """
    from .algebras import check_poisson
    delta, Delta = pair.delta, pair.Delta
    # (i) dual structures: bundle delta/Delta duals into one Poisson check
    dual = check_poisson(dual_structure(delta), dual_structure(Delta))
    if not dual.holds:
        name, idx, lhs, rhs = dual.witness
        return AxiomReport.fail(f"dual-{name}", idx, lhs, rhs)
    ops = {"b": palg.bracket.c, "o": palg.circ.c, "d": delta.a, "D": Delta.a}
    report = check_identities((POISSON_BIALGEBRA,), ops, palg.p)
    if report.holds:
        report = check_identities(((CO_LEIBNIZ,),), {"d": delta.a, "D": Delta.a},
                                  palg.p).first_entry()
    return report
