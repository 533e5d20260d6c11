"""Matched pairs of admissible-Poisson algebras, bowtie sums, invariant
bilinear forms and the standard double on P + P*.

A matched pair is two algebras acting on each other by representations,
subject to six mixed compatibility identities (eq1-eq3 below plus the same
three with the roles of the two algebras swapped).  The bowtie sum

    (x+a) * (y+b) = x *1 y + r2(b)x + l2(a)y + l1(x)b + r1(y)a + a *2 b

is admissible-Poisson exactly when the pair is matched.
"""

import numpy as np

from .tensors import (Exact, MulTensor, Identity, Record, as_exact, check_identities,
                      common, identity, solve)
from .algebras import AdmPoissonAlgebra
from .representations import (Representation, adjoint_rep, check_representation,
                              dual_rep, semidirect)


class MatchedPairData(Record):
    """Two algebras plus the four action families (unchecked: check_matched_pair
    rejects families whose sizes disagree)."""

    __slots__ = ("p1", "p2", "l1", "r1", "l2", "r2")

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
        report = check_identities(MATCH_1_3, {"c": mp.p1.star.exact, "l1": mp.l1,
                                              "r1": mp.r1, "l2": mp.l2,
                                              "r2": mp.r2}, mp.p1.p)
    if report.holds:
        report = check_identities(MATCH_4_6, {"c": mp.p2.star.exact, "l1": mp.l2,
                                              "r1": mp.r2, "l2": mp.l1,
                                              "r2": mp.r1}, mp.p1.p)
    return report


def bowtie(mp):
    """Structure constants of the bowtie sum on P1 + P2: the semidirect
    product of P1 by (l1, r1), plus P2's product and P2's action on P1,
    f_a * e_j = l2(f_a) e_j and e_j * f_a = r2(f_a) e_j."""
    n1, p = mp.p1.n, mp.p1.p
    (c, s2, l2, r2), den = common(semidirect(mp.p1.star, mp.l1, mp.r1).exact,
                                  mp.p2.star.exact, as_exact(mp.l2, p), as_exact(mp.r2, p))
    c = c.astype(np.result_type(c, s2, l2, r2))
    c[n1:, n1:, n1:] = s2
    c[n1:, :n1, :n1] = l2.transpose(0, 2, 1)
    c[:n1, n1:, :n1] = r2.transpose(2, 0, 1)
    return MulTensor(len(c), p, Exact(c, den, p))


class BilinearForm(Record):
    """gram[i][j] = B(e_i, e_j)."""

    __slots__ = ("gram", "p")
    n = property(lambda self: len(self.gram))

    def is_symmetric(self):
        g = as_exact(self.gram, self.p)
        return g == g.transpose()

    def is_nondegenerate(self):
        return solve(self.gram, identity(self.n, self.p), self.p) is not None


# B(x*y, z) = B(x, y*z) at (x, y, z) = (e_i, e_j, e_k), over the gram matrix g.
INVARIANCE = Identity("invariance", "ijk", "", "m:ijs g:sk", "m:jks g:is")


def check_invariant_form(a, form):
    """B(x*y, z) = B(x, y*z) on basis triples."""
    return check_identities(((INVARIANCE,),), {"m": a.star.exact, "g": form.gram}, a.p)


def standard_form(n, p=0):
    """The canonical pairing on P + P*: gram = [[0, I], [I, 0]]."""
    z, i = np.zeros((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)
    return BilinearForm(Exact(np.block([[z, i], [i, z]]), 1, p), p)


def manin_pair_data(alg, algstar):
    """The candidate matched pair: each algebra acts on the other's dual
    by the transposed right/left multiplication families (the dual of the
    adjoint representation)."""
    d1, d2 = dual_rep(adjoint_rep(alg)), dual_rep(adjoint_rep(algstar))
    return MatchedPairData(alg, algstar, d1.l, d1.r, d2.l, d2.r)


def manin_double(alg, algstar):
    """(bowtie algebra on P + P*, matched-pair report).

    When the report holds, the double contains both factors as subalgebras
    and the canonical pairing standard_form(n) is invariant.
    """
    mp = manin_pair_data(alg, algstar)
    report = check_matched_pair(mp)
    return AdmPoissonAlgebra.raw(bowtie(mp)), report
