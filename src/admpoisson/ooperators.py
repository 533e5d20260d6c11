"""O-operators, Rota-Baxter operators, pre-structures and derived solutions.

theta : V -> P is stored column-per-module-basis-vector:
theta(v_j) = sum_i theta[i][j] e_i.
"""

from .scalars import half, one, zero
from .tensors import (MulTensor, Identity, check_identities, mat_vec, mat_zero,
                      mat_inverse, column, left_mult_basis, right_mult_basis,
                      mult_of_vec, sum_scalars, transpose, mat_add, mat_is_zero)
from .algebras import AdmPoissonAlgebra
from .representations import (Representation, adjoint_rep, dual_rep,
                              semidirect_raw, check_representation)
from .yangbaxter import RTensor, CYCLIC_FORM


class OOperatorCandidate:
    """A linear map theta : V -> P over a representation (shape-checked)."""

    __slots__ = ("alg", "rep", "theta")

    def __init__(self, alg, rep, theta):
        assert rep.alg == alg, "representation must be over the algebra"
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "theta", theta)

    def __setattr__(self, name, value):
        raise AttributeError("OOperatorCandidate is immutable")


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
    return check_identities(((O_OPERATOR,),), {"t": c.theta, "c": star.c,
                                               "l": c.rep.l, "r": c.rep.r}, star.p)


def check_rota_baxter(a, R):
    """R(x) * R(y) = R( R(x)*y + x*R(y) ), i.e. weight-zero Rota-Baxter."""
    star = a.star
    L = [left_mult_basis(star, i) for i in range(star.n)]
    Rm = [right_mult_basis(star, i) for i in range(star.n)]
    return check_identities(((ROTA_BAXTER,),), {"t": R, "c": star.c, "l": L, "r": Rm},
                            star.p)


def solution_from_o_operator(c, check=False):
    """(semidirect product by the dual representation, skew tensor from theta).

    The tensor places theta in the P (x) V* corner and -theta^T in V* (x) P;
    it solves the Yang-Baxter equation exactly when theta is an O-operator.
    """
    a, rep, theta = c.alg, c.rep, c.theta
    n, m, p = a.n, rep.vdim, a.p
    drep = dual_rep(rep, check=check)
    big_star = semidirect_raw(a.star, drep.l, drep.r)
    big = AdmPoissonAlgebra(big_star) if check else AdmPoissonAlgebra.raw(big_star)
    coeff = mat_zero(n + m, n + m, p)
    for i in range(n):
        for j in range(m):
            coeff[i][n + j] = theta[i][j]
            coeff[n + j][i] = -theta[i][j]
    return big, RTensor(coeff, p)


class PreAdmPoisson:
    """Two operations (succ, prec) splitting an admissible-Poisson product."""

    __slots__ = ("succ", "prec")

    def __init__(self, succ, prec, check=True):
        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "prec", prec)
        if check:
            report = check_pre_adm_poisson(self)
            if not report.holds:
                raise ValueError(f"not a pre-structure: {report!r}")

    def __setattr__(self, name, value):
        raise AttributeError("PreAdmPoisson is immutable")

    @classmethod
    def raw(cls, succ, prec):
        return cls(succ, prec, check=False)

    @property
    def n(self):
        return self.succ.n

    @property
    def p(self):
        return self.succ.p

    def __eq__(self, other):
        if not isinstance(other, PreAdmPoisson):
            return NotImplemented
        return self.succ == other.succ and self.prec == other.prec


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
    return check_identities(PRE_ADM_POISSON, {"s": pre.succ.c, "q": pre.prec.c},
                            pre.p)


def subadjacent_raw(succ, prec):
    return succ.add(prec)


def subadjacent(pre):
    return AdmPoissonAlgebra(subadjacent_raw(pre.succ, pre.prec))


def pre_rep_raw(pre):
    """(L_succ, R_prec) families over the (possibly invalid) sum algebra."""
    succ, prec = pre.succ, pre.prec
    star = subadjacent_raw(succ, prec)
    l = [left_mult_basis(succ, i) for i in range(succ.n)]
    r = [right_mult_basis(prec, i) for i in range(prec.n)]
    return Representation.raw(AdmPoissonAlgebra.raw(star), l, r)


def pre_rep(pre):
    """The module structure of a pre-structure on its own space."""
    rep = pre_rep_raw(pre)
    report = check_representation(rep)
    if not report.holds:
        raise ValueError(f"invalid pre-structure: {report!r}")
    return Representation(AdmPoissonAlgebra(rep.alg.star), rep.l, rep.r)


class PrePoisson:
    """A (dot, ast) pair: dot is Zinbiel, ast is pre-Lie, plus compatibility."""

    __slots__ = ("dot", "ast")

    def __init__(self, dot, ast, check=True):
        object.__setattr__(self, "dot", dot)
        object.__setattr__(self, "ast", ast)
        if check:
            report = check_pre_poisson(self)
            if not report.holds:
                raise ValueError(f"not a pre-Poisson structure: {report!r}")

    def __setattr__(self, name, value):
        raise AttributeError("PrePoisson is immutable")

    @classmethod
    def raw(cls, dot, ast):
        return cls(dot, ast, check=False)

    @property
    def n(self):
        return self.dot.n


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
    return check_identities(PRE_POISSON, {"d": q.dot.c, "a": q.ast.c}, q.dot.p)


def pre_to_prepoisson_raw(succ, prec):
    """dot = (x>y + y<x)/2, ast = (x>y - y<x)/2."""
    h = half(succ.p)
    prec_flip = prec.op()       # (i,j) -> e_j < e_i
    dot = succ.add(prec_flip).scale(h)
    ast = succ.sub(prec_flip).scale(h)
    return dot, ast


def prepoisson_to_pre_raw(dot, ast):
    """succ = dot + ast, prec(i,j) = e_j.e_i - e_j*e_i."""
    succ = dot.add(ast)
    prec = dot.op().sub(ast.op())
    return succ, prec


def pre_to_prepoisson(pre):
    dot, ast = pre_to_prepoisson_raw(pre.succ, pre.prec)
    return PrePoisson(dot, ast)


def prepoisson_to_pre(q):
    succ, prec = prepoisson_to_pre_raw(q.dot, q.ast)
    return PreAdmPoisson(succ, prec)


def prepoisson_sum_pair(q):
    """The derived (bracket, circ) pair: [x,y] = x*y - y*x, x o y = x.y + y.x."""
    bracket = q.ast.sub(q.ast.op())
    circ = q.dot.add(q.dot.op())
    return bracket, circ


def induced_pre_from_o_operator(c):
    """u > v = l(theta u) v, u < v = r(theta v) u on the module of a valid
    O-operator; theta is then a homomorphism onto the image."""
    report = check_o_operator(c)
    if not report.holds:
        raise ValueError(f"not an O-operator: {report!r}")
    rep, theta = c.rep, c.theta
    m, p = rep.vdim, c.alg.p
    succ = [[None] * m for _ in range(m)]
    prec = [[None] * m for _ in range(m)]
    for i in range(m):
        ti = column(theta, i)
        lmat = mult_of_vec(rep.l, ti)
        rmat = mult_of_vec(rep.r, ti)
        for j in range(m):
            succ_prod = column(lmat, j)       # l(theta v_i) v_j
            prec_prod = column(rmat, j)       # r(theta v_i) v_j = v_j < v_i
            succ[i][j] = succ_prod
            prec[j][i] = prec_prod
    return PreAdmPoisson(MulTensor(m, p, succ), MulTensor(m, p, prec))


def canonical_solution(pre):
    """The tautological skew solution on (sum algebra) semidirect (dual module):
    r = sum_i e_i (x) e_i* - e_i* (x) e_i."""
    rep = pre_rep(pre)
    n, p = pre.n, pre.p
    theta = [[one(p) if i == j else zero(p) for j in range(n)]
             for i in range(n)]
    return solution_from_o_operator(OOperatorCandidate(rep.alg, rep, theta))


def compatible_pre_from_invertible_o(c):
    """For invertible theta on V with dim V = dim P, the transported
    pre-structure on P: x > y = theta(l(x) theta^{-1} y),
    x < y = theta(r(y) theta^{-1} x)."""
    report = check_o_operator(c)
    if not report.holds:
        raise ValueError(f"not an O-operator: {report!r}")
    a, rep, theta = c.alg, c.rep, c.theta
    n, p = a.n, a.p
    assert rep.vdim == n, "theta must be square"
    theta_inv = mat_inverse(theta, p)
    if theta_inv is None:
        raise ValueError("theta is not invertible")
    succ = [[None] * n for _ in range(n)]
    prec = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            w = mat_vec(rep.l[i], column(theta_inv, j))
            succ[i][j] = mat_vec(theta, w)
            w = mat_vec(rep.r[j], column(theta_inv, i))
            prec[i][j] = mat_vec(theta, w)
    return PreAdmPoisson(MulTensor(n, p, succ), MulTensor(n, p, prec))


def pre_from_symplectic(a, omega):
    """The pre-structure induced by a skew nondegenerate cyclic form:
    omega(x>y, z) = omega(y, z*x),  omega(x<y, z) = omega(x, y*z)."""
    star = a.star
    n, p = star.n, star.p
    g = omega.gram
    if not mat_is_zero(mat_add(g, transpose(g))):
        raise ValueError("omega must be skew-symmetric")
    ginv_t = mat_inverse(transpose(g), p)
    if ginv_t is None:
        raise ValueError("omega must be nondegenerate")
    # the defining relations only produce a pre-structure when the form is
    # cyclic on products: omega(x*y,z) + omega(y*z,x) + omega(z*x,y) = 0
    if not check_identities(((CYCLIC_FORM,),), {"m": star.c, "w": g}, p).holds:
        raise ValueError("omega is not cyclic on products")
    succ = [[None] * n for _ in range(n)]
    prec = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = [sum_scalars(star.c[k][i][m] * g[j][m] for m in range(n))
                   for k in range(n)]
            succ[i][j] = mat_vec(ginv_t, rhs)
            rhs = [sum_scalars(star.c[j][k][m] * g[i][m] for m in range(n))
                   for k in range(n)]
            prec[i][j] = mat_vec(ginv_t, rhs)
    return PreAdmPoisson(MulTensor(n, p, succ), MulTensor(n, p, prec))


def rota_baxter_as_o_operator(a, R):
    """A Rota-Baxter operator is exactly an O-operator for the adjoint action."""
    return OOperatorCandidate(a, adjoint_rep(a), R)
