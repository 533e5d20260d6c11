"""O-operators, Rota-Baxter operators, pre-structures and derived solutions.

theta : V -> P is stored column-per-module-basis-vector:
theta(v_j) = sum_i theta[i][j] e_i.
"""

import numpy as np

from .tensors import (Exact, MulTensor, Identity, Record, Terms, as_exact,
                      check_identities, evaluate, identity, solve)
from .algebras import AdmPoissonAlgebra
from .representations import (Representation, adjoint_families, adjoint_rep, dual_rep,
                              semidirect)
from .yangbaxter import RTensor, CYCLIC_FORM


class OOperatorCandidate(Record):
    """A linear map theta : V -> P over a representation (shape-checked)."""

    __slots__ = ("alg", "rep", "theta")

    def __init__(self, alg, rep, theta):
        if rep.alg != alg:
            raise ValueError("representation must be over the algebra")
        super().__init__(alg, rep, theta)


# theta(u) * theta(v) = theta( l(theta u) v + r(theta v) u ) at the module
# basis pair (u, v) = (v_i, v_j), coordinate z, over the operation c.
_O_OPERATOR = ("t:xi t:yj c:xyz", "t:xi l:xaj t:za + t:yj r:yai t:za")
O_OPERATOR = Identity("o-operator", "ij", "z", *_O_OPERATOR)
# R(x) * R(y) = R( R(x)*y + x*R(y) ): the same identity with theta = R over
# the adjoint action (l, r) = (L, R).
ROTA_BAXTER = Identity("rota-baxter", "ij", "z", *_O_OPERATOR)


def check_o_operator(c):
    """theta(u) * theta(v) = theta( l(theta u) v + r(theta v) u ) on basis pairs."""
    star = c.alg.star
    return check_identities(((O_OPERATOR,),), {"t": c.theta, "c": star.exact,
                                               "l": c.rep.l, "r": c.rep.r}, star.p)


def check_rota_baxter(a, R):
    """R(x) * R(y) = R( R(x)*y + x*R(y) ), i.e. weight-zero Rota-Baxter."""
    star = a.star
    L, Rm = adjoint_families(star)
    return check_identities(((ROTA_BAXTER,),), {"t": R, "c": star.exact, "l": L, "r": Rm},
                            star.p)


def solution_from_o_operator(c):
    """(semidirect product by the dual representation, skew tensor from theta).

    The tensor places theta in the P (x) V* corner and -theta^T in V* (x) P;
    it solves the Yang-Baxter equation exactly when theta is an O-operator.
    """
    a, rep, theta = c.alg, c.rep, c.theta
    n, m, p = a.n, rep.vdim, a.p
    drep = dual_rep(rep)
    big = AdmPoissonAlgebra.raw(semidirect(a.star, drep.l, drep.r))
    t = as_exact(theta, p)
    coeff = np.zeros((n + m, n + m), dtype=t.num.dtype)
    coeff[:n, n:], coeff[n:, :n] = t.num, -t.num.T
    return big, RTensor(Exact(coeff, t.den, p), p)


class PreAdmPoisson(Record):
    """Two operations (succ, prec) splitting an admissible-Poisson product."""

    __slots__ = ("succ", "prec")
    what = "a pre-structure"

    def verify(self):
        return check_pre_adm_poisson(self)


# Products of the basis triple (x, y, z) = (e_i, e_j, e_k), coordinate l,
# with x>y = succ (s) and x<y = prec (q).
_X_Y_Z, _X_ZY = "s:jks s:isl", "q:kjs s:isl"            # x>(y>z), x>(z<y)
_Y_XZ, _Y_ZX = "s:iks s:jsl", "q:kis s:jsl"             # y>(x>z), y>(z<x)
_Z_XY = "s:ijs q:ksl + q:ijs q:ksl"                     # z<(x>y) + z<(x<y)
_Z_YX = "s:jis q:ksl + q:jis q:ksl"                     # z<(y>x) + z<(y<x)


def _third(terms, sign):
    """' sign 1/3 t' for each term t of 'a + b + ...'."""
    return "".join(f" {sign} 1/3 {t}" for t in terms.split(" + "))


# The three defining residuals, one group: pre1 wins ties at a triple.
PRE_ADM_POISSON = ((
    Identity("pre1", "ijk", "l",
             f"- s:ijs s:skl - q:ijs s:skl + {_X_Y_Z}" + _third(_X_ZY, "+")
             + _third(_Z_XY, "-") + _third(_Y_XZ, "-") + _third(_Y_ZX, "+")),
    Identity("pre2", "ijk", "l",
             f"- {_X_ZY} + s:iks q:sjl" + _third(_X_Y_Z, "-")
             + _third(_Y_XZ, "+") + _third(_Z_XY, "+") + _third(_Z_YX, "-")),
    Identity("pre3", "ijk", "l",
             "- s:ijs q:ksl - q:ijs q:ksl + q:kis q:sjl" + _third(_Z_YX, "-")
             + _third(_Y_ZX, "+") + _third(_X_ZY, "+") + _third(_X_Y_Z, "-")),
),)


def check_pre_adm_poisson(pre):
    return check_identities(PRE_ADM_POISSON, {"s": pre.succ.exact, "q": pre.prec.exact},
                            pre.p)


def subadjacent(succ, prec):
    """The sum operation x*y = x>y + x<y."""
    return MulTensor(succ.n, succ.p, succ.exact + prec.exact)


def pre_rep(pre):
    """The module structure (L_succ, R_prec) of a pre-structure on its own
    space, over its subadjacent algebra."""
    alg = AdmPoissonAlgebra.raw(subadjacent(pre.succ, pre.prec))
    return Representation.raw(alg, adjoint_families(pre.succ)[0], adjoint_families(pre.prec)[1])


class PrePoisson(Record):
    """A (dot, ast) pair: dot is Zinbiel, ast is pre-Lie, plus compatibility."""

    __slots__ = ("dot", "ast")
    what = "a pre-Poisson structure"

    def verify(self):
        return check_pre_poisson(self)


# Zinbiel (d), pre-Lie (a) and the two compatibilities at (e_i, e_j, e_k).
PRE_POISSON = ((
    # x.(y.z) = (y.x).z + (x.y).z
    Identity("zinbiel", "ijk", "l", "d:jks d:isl", "d:jis d:skl + d:ijs d:skl"),
    # x*(y*z) - (x*y)*z = y*(x*z) - (y*x)*z
    Identity("pre-lie", "ijk", "l", "a:jks a:isl - a:ijs a:skl",
             "a:iks a:jsl - a:jis a:skl"),
    # (x*y - y*x).z = x*(y.z) - y.(x*z)
    Identity("compat1", "ijk", "l", "a:ijs d:skl - a:jis d:skl",
             "d:jks a:isl - a:iks d:jsl"),
    # (x.y + y.x)*z = x.(y*z) + y.(x*z)
    Identity("compat2", "ijk", "l", "d:ijs a:skl + d:jis a:skl",
             "a:jks d:isl + a:iks d:jsl"),
),)


def check_pre_poisson(q):
    """Zinbiel + pre-Lie + the two mixed compatibility identities."""
    return check_identities(PRE_POISSON, {"d": q.dot.exact, "a": q.ast.exact}, q.dot.p)


def pre_to_prepoisson(succ, prec):
    """dot = (x>y + y<x)/2, ast = (x>y - y<x)/2."""
    s, flip = succ.exact, prec.exact.transpose(1, 0, 2)      # (i,j) -> e_j < e_i
    return (MulTensor(succ.n, succ.p, (s + flip) / 2),
            MulTensor(succ.n, succ.p, (s - flip) / 2))


def prepoisson_to_pre(dot, ast):
    """succ = dot + ast, prec(i,j) = e_j.e_i - e_j*e_i."""
    d, a = dot.exact, ast.exact
    return (MulTensor(dot.n, dot.p, d + a),
            MulTensor(dot.n, dot.p, (d - a).transpose(1, 0, 2)))


def prepoisson_sum_pair(q):
    """The derived (bracket, circ) pair: [x,y] = x*y - y*x, x o y = x.y + y.x."""
    d, a = q.dot.exact, q.ast.exact
    return (MulTensor(q.n, q.dot.p, a - a.transpose(1, 0, 2)),
            MulTensor(q.n, q.dot.p, d + d.transpose(1, 0, 2)))


# The pre-structures that O-operators induce, over theta (t), the action
# (l, r) and the inverse u of an invertible theta; the symplectic ones over
# the operation m, the form w and the inverse u of its transpose.
INDUCED_PRE = (Terms("t:ai l:akj", "ijk"),          # v_i > v_j = l(theta v_i) v_j
               Terms("t:ai r:akj", "jik"))          # v_j < v_i = r(theta v_i) v_j
TRANSPORTED_PRE = (Terms("t:ka l:iab u:bj", "ijk"),  # theta(l(x) theta^-1 y)
                   Terms("t:ka r:jab u:bi", "ijk"))  # theta(r(y) theta^-1 x)
SYMPLECTIC_PRE = (Terms("u:lk m:kit w:jt", "ijl"),   # w(x>y, z) = w(y, z*x)
                  Terms("u:lk m:jkt w:it", "ijl"))   # w(x<y, z) = w(x, y*z)


def _pre_of(tables, operands, n, p):
    """The pre-structure (succ, prec) of a pair of tables over `operands`."""
    return PreAdmPoisson.raw(*(MulTensor(n, p, evaluate(t, operands, p)) for t in tables))


def induced_pre_from_o_operator(c):
    """u > v = l(theta u) v, u < v = r(theta v) u on the module: a
    pre-structure when theta is an O-operator, and theta is then a
    homomorphism onto the image."""
    return _pre_of(INDUCED_PRE, {"t": c.theta, "l": c.rep.l, "r": c.rep.r},
                   c.rep.vdim, c.alg.p)


def canonical_solution(pre):
    """The tautological skew solution on (sum algebra) semidirect (dual module):
    r = sum_i e_i (x) e_i* - e_i* (x) e_i."""
    rep = pre_rep(pre)
    theta = identity(pre.n, pre.p)
    return solution_from_o_operator(OOperatorCandidate(rep.alg, rep, theta))


def compatible_pre_from_invertible_o(c):
    """For invertible theta on V with dim V = dim P, the transported
    pair on P: x > y = theta(l(x) theta^{-1} y), x < y = theta(r(y) theta^{-1} x),
    a pre-structure when theta is an O-operator."""
    a, rep, theta = c.alg, c.rep, c.theta
    n, p = a.n, a.p
    if rep.vdim != n:
        raise ValueError("theta must be square")
    theta_inv = solve(theta, identity(n, p), p)
    if theta_inv is None:
        raise ValueError("theta is not invertible")
    return _pre_of(TRANSPORTED_PRE, {"t": theta, "l": rep.l, "r": rep.r, "u": theta_inv},
                   n, p)


def pre_from_symplectic(a, omega):
    """The pre-structure induced by a skew nondegenerate cyclic form:
    omega(x>y, z) = omega(y, z*x),  omega(x<y, z) = omega(x, y*z)."""
    star = a.star
    n, p = star.n, star.p
    g = as_exact(omega.gram, p)
    if not (g + g.transpose()).is_zero():
        raise ValueError("omega must be skew-symmetric")
    ginv_t = solve(g.transpose(), identity(n, p), p)
    if ginv_t is None:
        raise ValueError("omega must be nondegenerate")
    # the defining relations only produce a pre-structure when the form is
    # cyclic on products: omega(x*y,z) + omega(y*z,x) + omega(z*x,y) = 0
    if not check_identities(((CYCLIC_FORM,),), {"m": star.exact, "w": g}, p).holds:
        raise ValueError("omega is not cyclic on products")
    return _pre_of(SYMPLECTIC_PRE, {"u": ginv_t, "m": star.exact, "w": g}, n, p)


def rota_baxter_as_o_operator(a, R):
    """A Rota-Baxter operator is exactly an O-operator for the adjoint action."""
    return OOperatorCandidate(a, adjoint_rep(a), R)
