"""Comultiplications and bialgebra predicates.

A comultiplication (Comultiplication, which lives in tensors beside the
other structures) is stored output-index first:
    alpha(e_i) = sum_{j,k} a[i][j][k] e_j (x) e_k,
so a[i] is an n x n matrix A_i with rows = first tensor slot.  Under that
convention (M (x) id) alpha(x) = M A_x, (id (x) M) alpha(x) = A_x M^T and
tau(alpha(x)) = A_x^T, which the pair-condition residuals below exploit.
"""

from .tensors import (Comultiplication, MulTensor, Identity, Record, check_identities,
                      rewritten)
from .algebras import ADM_POISSON, AxiomReport, check_poisson


def dual_structure(c):
    """The multiplication on the dual space: c'[j][k][i] = a[i][j][k]."""
    return MulTensor(c.n, c.p, c.exact.transpose(1, 2, 0))


def comult_of_mul(m):
    """Inverse relabeling: a[i][j][k] = c[j][k][i]."""
    return Comultiplication(m.n, m.p, m.exact.transpose(2, 0, 1))


# The coassociativity-type condition at x = e_l, coordinate (i, j, k) of the
# triple tensor, with U = (id (x) alpha) alpha(x), V = (alpha (x) id) alpha(x):
#   U - V + 1/3( U[i][k][j] - U[j][i][k] - U[k][i][j] + U[j][k][i] ) = 0,
# the adm-Poisson identity of the dual product c[x][y][z] = a[z][x][y]
# (dual_structure) with all its terms on the left.
COALGEBRA = Identity("coalgebra", "lij", "k",
                     rewritten(ADM_POISSON.text[1], {"c": "a:201"}, minus=ADM_POISSON.text[0]))


def check_coalgebra(c):
    """Direct residual check of the coassociativity-type condition."""
    return check_identities(((COALGEBRA,),), {"a": c.exact}, c.p).first_entry()


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
        report = check_identities((DEFBI,), {"m": a.star.exact, "a": c.exact}, a.p)
    return report


class PoissonComultiplicationPair(Record):
    """(delta, Delta) with delta anti-cocommutative and Delta cocommutative."""

    __slots__ = ("delta", "Delta")

    def __init__(self, delta, Delta):
        d, D = delta.exact, Delta.exact
        if not (d + d.transpose(0, 2, 1)).is_zero():
            raise ValueError("delta must be anti-cocommutative")
        if D != D.transpose(0, 2, 1):
            raise ValueError("Delta must be cocommutative")
        super().__init__(delta, Delta)


def split_comultiplication(c):
    """delta = (alpha - tau alpha)/2, Delta = (alpha + tau alpha)/2."""
    a = c.exact
    tau = a.transpose(0, 2, 1)
    return PoissonComultiplicationPair(Comultiplication(c.n, c.p, (a - tau) / 2),
                                       Comultiplication(c.n, c.p, (a + tau) / 2))


def merge_comultiplication(pair):
    return Comultiplication(pair.delta.n, pair.delta.p, pair.delta.exact + pair.Delta.exact)


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


def check_poisson_bialgebra(palg, pair):
    """The displayed Poisson-bialgebra conditions, checked coordinatewise.

    (i) the duals of delta/Delta are a Lie / commutative associative algebra
    with the Leibniz rule, (ii) delta is a 1-cocycle of the bracket, (iii)
    Delta satisfies the infinitesimal-bialgebra identity over circ, (iv) the
    two mixed compatibilities.  The co-Leibniz identity of the definition is
    the dual of the Leibniz rule, so (i) decides it.
    """
    delta, Delta = pair.delta, pair.Delta
    # (i) dual structures: bundle delta/Delta duals into one Poisson check
    dual = check_poisson(dual_structure(delta), dual_structure(Delta))
    if not dual.holds:
        name, idx, lhs, rhs = dual.witness
        return AxiomReport.fail(f"dual-{name}", idx, lhs, rhs)
    ops = {"b": palg.bracket.exact, "o": palg.circ.exact, "d": delta.exact, "D": Delta.exact}
    return check_identities((POISSON_BIALGEBRA,), ops, palg.p)
