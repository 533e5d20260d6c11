"""Matched pairs of admissible-Poisson algebras, bowtie sums, invariant
bilinear forms and the standard double on P + P*.

A matched pair is two algebras acting on each other by representations,
subject to six mixed compatibility identities (eq1-eq3 below plus the same
three with the roles of the two algebras swapped).  The bowtie sum

    (x+a) * (y+b) = x *1 y + r2(b)x + l2(a)y + l1(x)b + r1(y)a + a *2 b

is admissible-Poisson exactly when the pair is matched.
"""

from .tensors import (MulTensor, AxiomReport, Identity, check_identities,
                      vec_zero, mat_inverse, mat_eq, transpose)
from .algebras import AdmPoissonAlgebra
from .representations import Representation, check_representation, \
    dual_endo_family, left_mult_basis, right_mult_basis


class MatchedPairData:
    """Two algebras plus the four action families (unchecked: check_matched_pair
    rejects families whose sizes disagree)."""

    __slots__ = ("p1", "p2", "l1", "r1", "l2", "r2")

    def __init__(self, p1, p2, l1, r1, l2, r2):
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "l1", l1)
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "l2", l2)
        object.__setattr__(self, "r2", r2)

    def __setattr__(self, name, value):
        raise AttributeError("MatchedPairData is immutable")

    def swapped(self):
        return MatchedPairData(self.p2, self.p1, self.l2, self.r2,
                               self.l1, self.r1)


# eq1-eq3 at x = e_i, y = e_j in P1 and a = f_a in P2, compared as P1
# vectors [u]: c is the P1 product, l1/r1 act on P2 and l2/r2 act on P1.
# With the roles of P1 and P2 swapped the same table gives match4-match6.
_MATCH_TERMS = (
    # r2(a)(x*y)
    ("c:ijs r2:aus",
     "l1:jta r2:tui + r2:asj c:isu + 1/3 r1:jta r2:tui + 1/3 l2:asj c:isu"
     " - 1/3 c:ijs l2:aus - 1/3 r2:asi c:jsu - 1/3 l1:ita r2:tuj"
     " + 1/3 l2:asi c:jsu + 1/3 r1:ita r2:tuj"),
    # l2(a)(x*y)
    ("c:ijs l2:aus",
     "l2:asi c:sju + r1:ita l2:tuj + 1/3 l2:asi c:jsu - 1/3 c:jis l2:aus"
     " + 1/3 r1:ita r2:tuj + 1/3 l2:asj c:isu + 1/3 r1:jta r2:tui"
     " - 1/3 r2:asj c:isu - 1/3 l1:jta r2:tui"),
    # (r2(a)x)*y
    ("r2:asi c:sju",
     "l2:asj c:isu - l1:ita l2:tuj + r1:jta r2:tui + 1/3 r2:asj c:isu"
     " + 1/3 l1:jta r2:tui - 1/3 r2:asi c:jsu - 1/3 l1:ita r2:tuj"
     " - 1/3 c:ijs l2:aus + 1/3 c:jis l2:aus"),
)


def _match_identities(first):
    return tuple((Identity(f"match{first + t}", "ija", "u", lhs, rhs),)
                 for t, (lhs, rhs) in enumerate(_MATCH_TERMS))


MATCH_1_3, MATCH_4_6 = _match_identities(1), _match_identities(4)


def check_matched_pair(mp):
    """All six compatibility identities; sub-representation failures are
    reported distinctly (witness names rep1/rep2)."""
    report = check_representation(
        Representation.raw(mp.p1, mp.l1, mp.r1)).tagged("rep1")
    if report.holds:
        report = check_representation(
            Representation.raw(mp.p2, mp.l2, mp.r2)).tagged("rep2")
    if report.holds:
        report = check_identities(MATCH_1_3, {"c": mp.p1.star.c, "l1": mp.l1,
                                              "r1": mp.r1, "l2": mp.l2,
                                              "r2": mp.r2}, mp.p1.p)
    if report.holds:
        report = check_identities(MATCH_4_6, {"c": mp.p2.star.c, "l1": mp.l2,
                                              "r1": mp.r2, "l2": mp.l1,
                                              "r2": mp.r1}, mp.p1.p)
    return report


def bowtie_raw(mp):
    """Structure constants of the bowtie sum on P1 + P2."""
    n1, n2, p = mp.p1.n, mp.p2.n, mp.p1.p
    n = n1 + n2
    c = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
    s1, s2 = mp.p1.star, mp.p2.star
    for i in range(n1):
        for j in range(n1):
            # x *1 y  plus  l1(x)b / r1(y)a cross actions
            for k in range(n1):
                c[i][j][k] = s1.c[i][j][k]
    for a in range(n2):
        for b in range(n2):
            for k in range(n2):
                c[n1 + a][n1 + b][n1 + k] = s2.c[a][b][k]
    for i in range(n1):
        for b in range(n2):
            for a in range(n2):
                # e_i * f_b: P2 part l1(e_i) f_b
                c[i][n1 + b][n1 + a] = mp.l1[i][a][b]
                # f_b * e_i: P2 part r1(e_i) f_b
                c[n1 + b][i][n1 + a] = mp.r1[i][a][b]
    for a in range(n2):
        for j in range(n1):
            for k in range(n1):
                # f_a * e_j: P1 part l2(f_a) e_j
                c[n1 + a][j][k] = mp.l2[a][k][j]
                # e_j * f_a: P1 part r2(f_a) e_j
                c[j][n1 + a][k] = mp.r2[a][k][j]
    return MulTensor(n, p, c)


def bowtie(mp):
    return AdmPoissonAlgebra(bowtie_raw(mp))


class BilinearForm:
    """gram[i][j] = B(e_i, e_j)."""

    __slots__ = ("n", "p", "gram")

    def __init__(self, gram, p=0):
        object.__setattr__(self, "n", len(gram))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, name, value):
        raise AttributeError("BilinearForm is immutable")

    def is_symmetric(self):
        return mat_eq(self.gram, transpose(self.gram))

    def is_nondegenerate(self):
        return mat_inverse(self.gram, self.p) is not None


# B(x*y, z) = B(x, y*z) at (x, y, z) = (e_i, e_j, e_k), over the gram matrix g.
INVARIANCE = Identity("invariance", "ijk", "", "m:ijs g:sk", "m:jks g:is")


def check_invariant_form(a, form, require_symmetric=False,
                         require_nondegenerate=False):
    """B(x*y, z) = B(x, y*z) on basis triples, plus requested flags."""
    g = form.gram
    if require_symmetric and not form.is_symmetric():
        return AxiomReport.fail("form-symmetric", (0, 0),
                                g[0], transpose(g)[0])
    if require_nondegenerate and not form.is_nondegenerate():
        return AxiomReport.fail("form-nondegenerate", (0,), g[0], g[0][:])
    return check_identities(((INVARIANCE,),), {"m": a.star.c, "g": g}, a.p)


def standard_form(n, p=0):
    """The canonical pairing on P + P*: gram = [[0, I], [I, 0]]."""
    from .scalars import one, zero
    gram = [[zero(p) for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        gram[i][n + i] = one(p)
        gram[n + i][i] = one(p)
    return BilinearForm(gram, p)


def manin_pair_data(alg, algstar):
    """The candidate matched pair: each algebra acts on the other's dual
    by the transposed right/left multiplication families (the dual of the
    adjoint representation)."""
    s, sd = alg.star, algstar.star
    l1 = dual_endo_family([right_mult_basis(s, i) for i in range(s.n)])
    r1 = dual_endo_family([left_mult_basis(s, i) for i in range(s.n)])
    l2 = dual_endo_family([right_mult_basis(sd, a) for a in range(sd.n)])
    r2 = dual_endo_family([left_mult_basis(sd, a) for a in range(sd.n)])
    return MatchedPairData(alg, algstar, l1, r1, l2, r2)


def manin_double(alg, algstar):
    """(bowtie algebra on P + P*, matched-pair report).

    When the report holds, the double contains both factors as subalgebras
    and the canonical pairing standard_form(n) is invariant.
    """
    mp = manin_pair_data(alg, algstar)
    report = check_matched_pair(mp)
    double = AdmPoissonAlgebra.raw(bowtie_raw(mp))
    return double, report
