"""Comultiplications and bialgebra predicates.

A comultiplication is stored output-index first:
    alpha(e_i) = sum_{j,k} a[i][j][k] e_j (x) e_k,
so a[i] is an n x n matrix A_i with rows = first tensor slot.  Under that
convention (M (x) id) alpha(x) = M A_x, (id (x) M) alpha(x) = A_x M^T and
tau(alpha(x)) = A_x^T, which the pair-condition residuals below exploit.
"""

from .scalars import third, half
from .tensors import (MulTensor, mat_add, mat_sub, mat_scale, mat_mul,
                      mat_zero, mat_is_zero, mat_eq, transpose,
                      left_mult_basis, right_mult_basis, vec_zero,
                      sum_scalars)
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

    def of_vec(self, coefs):
        """Coefficient matrix of alpha(x) for x = sum coefs_i e_i."""
        out = mat_zero(self.n, self.n, self.p)
        for i, ci in enumerate(coefs):
            if ci.is_zero():
                continue
            out = mat_add(out, mat_scale(ci, self.a[i]))
        return out

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


def _coalgebra_residual(c, i):
    """Direct coassociativity-type residual of alpha at e_i.

    With U[p][q][s] = sum_m a[i][p][m] a[m][q][s] ("apply alpha to the second
    leg") and V[p][q][s] = sum_m a[i][m][s] a[m][p][q] ("to the first leg"),
    the condition reads, for every (p,q,s),

        U - V + 1/3( U[p][s][q] - U[q][p][s] - U[s][p][q] + U[q][s][p] ) = 0.
    """
    n, p = c.n, c.p
    t = third(p)
    a = c.a
    U = [[[sum_scalars(a[i][pp][m] * a[m][q][s] for m in range(n))
           for s in range(n)] for q in range(n)] for pp in range(n)]
    V = [[[sum_scalars(a[i][m][s] * a[m][pp][q] for m in range(n))
           for s in range(n)] for q in range(n)] for pp in range(n)]
    for pp in range(n):
        for q in range(n):
            for s in range(n):
                res = U[pp][q][s] - V[pp][q][s] + t * (
                    U[pp][s][q] - U[q][pp][s] - U[s][pp][q] + U[q][s][pp])
                if not res.is_zero():
                    return (pp, q, s), res
    return None


def check_coalgebra(c):
    """Direct residual check of the coassociativity-type condition."""
    for i in range(c.n):
        hit = _coalgebra_residual(c, i)
        if hit is not None:
            (pp, q, s), res = hit
            return AxiomReport.fail("coalgebra", (i, pp, q), [res], [res - res])
    return AxiomReport.ok()


def _bialgebra_residuals(star, c, i, j):
    """The three pair-condition residual matrices E, F, G at (e_i, e_j)."""
    n, p = star.n, star.p
    t = third(p)
    L = [left_mult_basis(star, k) for k in range(n)]
    R = [right_mult_basis(star, k) for k in range(n)]
    Ai, Aj = c.a[i], c.a[j]
    a_xy = c.of_vec(star.prod(i, j))
    a_yx = c.of_vec(star.prod(j, i))
    RjAi = mat_mul(R[j], Ai)
    AjLiT = mat_mul(Aj, transpose(L[i]))
    LiAj = mat_mul(L[i], Aj)
    LjAi = mat_mul(L[j], Ai)
    RiAj = mat_mul(R[i], Aj)
    AiLjT = mat_mul(Ai, transpose(L[j]))
    base = mat_add(mat_sub(RjAi, a_xy), AjLiT)
    # E: first compatibility
    corr = mat_sub(mat_add(LjAi, LiAj), mat_add(AiLjT, RiAj))
    corr = mat_add(corr, transpose(mat_sub(mat_add(LiAj, LjAi), a_xy)))
    E = mat_add(base, mat_scale(t, corr))
    # F: second compatibility
    corr = mat_sub(mat_add(LiAj, LjAi), a_yx)
    corr = mat_add(corr, transpose(mat_sub(mat_add(LiAj, LjAi),
                                           mat_add(RjAi, AjLiT))))
    F = mat_add(base, mat_scale(t, corr))
    # G: third compatibility
    G = mat_add(mat_sub(LjAi, mat_mul(Ai, transpose(R[j]))),
                transpose(mat_sub(LiAj, mat_mul(Aj, transpose(R[i])))))
    corr = mat_sub(mat_add(RjAi, AjLiT), mat_add(AiLjT, RiAj))
    corr = mat_add(corr, transpose(mat_sub(a_yx, a_xy)))
    G = mat_add(G, mat_scale(t, corr))
    return E, F, G


def check_adm_bialgebra(a, c):
    """Coalgebra condition plus the three mixed compatibility identities."""
    star = a.star
    co = check_coalgebra(c)
    if not co.holds:
        return co
    for i in range(star.n):
        for j in range(star.n):
            E, F, G = _bialgebra_residuals(star, c, i, j)
            for name, res in (("defbi1", E), ("defbi2", F), ("defbi3", G)):
                if not mat_is_zero(res):
                    return AxiomReport.fail(name, (i, j), res[0],
                                            [x - x for x in res[0]])
    return AxiomReport.ok()


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


def check_poisson_bialgebra(palg, pair):
    """The displayed Poisson-bialgebra conditions, checked coordinatewise.

    (i) the duals of delta/Delta are a Lie / commutative associative algebra,
    (ii) delta is a 1-cocycle of the bracket, (iii) Delta satisfies the
    infinitesimal-bialgebra identity over circ, (iv) the two mixed
    compatibilities, (v) the co-Leibniz identity.
    """
    from .algebras import check_poisson
    bracket, circ = palg.bracket, palg.circ
    n, p = bracket.n, bracket.p
    delta, Delta = pair.delta, pair.Delta
    # (i) dual structures: bundle delta/Delta duals into one Poisson check
    dual = check_poisson(dual_structure(delta), dual_structure(Delta))
    if not dual.holds:
        name, idx, lhs, rhs = dual.witness
        return AxiomReport.fail(f"dual-{name}", idx, lhs, rhs)
    ad = [left_mult_basis(bracket, i) for i in range(n)]
    Lc = [left_mult_basis(circ, i) for i in range(n)]
    D = [delta.a[i] for i in range(n)]
    D2 = [Delta.a[i] for i in range(n)]
    for i in range(n):
        for j in range(n):
            # (ii) delta([x,y]) = (ad(x) (x) id + id (x) ad(x)) delta(y)
            #                   - (ad(y) (x) id + id (x) ad(y)) delta(x)
            lhs = delta.of_vec(bracket.prod(i, j))
            rhs = mat_sub(mat_add(mat_mul(ad[i], D[j]),
                                  mat_mul(D[j], transpose(ad[i]))),
                          mat_add(mat_mul(ad[j], D[i]),
                                  mat_mul(D[i], transpose(ad[j]))))
            if not mat_eq(lhs, rhs):
                return AxiomReport.fail("lie-cocycle", (i, j), lhs[0], rhs[0])
            # (iii) Delta(x o y) = (id (x) Lc(x)) Delta(y) + (Rc(y) (x) id) Delta(x)
            lhs = Delta.of_vec(circ.prod(i, j))
            rhs = mat_add(mat_mul(D2[j], transpose(Lc[i])),
                          mat_mul(Lc[j], D2[i]))
            if not mat_eq(lhs, rhs):
                return AxiomReport.fail("infinitesimal", (i, j), lhs[0], rhs[0])
            # (iv) first mixed compatibility
            lhs = delta.of_vec(circ.prod(i, j))
            rhs = mat_add(mat_add(mat_mul(Lc[i], D[j]), mat_mul(Lc[j], D[i])),
                          mat_add(mat_mul(D2[j], transpose(ad[i])),
                                  mat_mul(D2[i], transpose(ad[j]))))
            if not mat_eq(lhs, rhs):
                return AxiomReport.fail("mixed1", (i, j), lhs[0], rhs[0])
            # (iv) second mixed compatibility
            lhs = Delta.of_vec(bracket.prod(i, j))
            rhs = mat_add(mat_add(mat_mul(ad[i], D2[j]),
                                  mat_mul(D2[j], transpose(ad[i]))),
                          mat_sub(mat_mul(Lc[j], D[i]),
                                  mat_mul(D[i], transpose(Lc[j]))))
            if not mat_eq(lhs, rhs):
                return AxiomReport.fail("mixed2", (i, j), lhs[0], rhs[0])
    # (v) co-Leibniz: (id (x) Delta) delta(x) = (delta (x) id) Delta(x)
    #                 + (tau (x) id)(id (x) delta) Delta(x)
    for i in range(n):
        for pp in range(n):
            for q in range(n):
                for s in range(n):
                    lhs = sum_scalars(delta.a[i][pp][m] * Delta.a[m][q][s]
                                      for m in range(n))
                    rhs = sum_scalars(Delta.a[i][m][s] * delta.a[m][pp][q]
                                      for m in range(n))
                    rhs = rhs + sum_scalars(Delta.a[i][q][m] * delta.a[m][pp][s]
                                            for m in range(n))
                    if lhs != rhs:
                        return AxiomReport.fail("co-leibniz", (i, pp, q),
                                                [lhs], [rhs])
    return AxiomReport.ok()
