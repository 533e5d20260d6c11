"""The identity tables give the same verdicts and witnesses as the loops.

Every checker that evaluates an identity table is compared with the
hand-written scalar loop it replaced (kept in oracles.py): the verdict and
the whole witness (name, index, lhs, rhs) must be equal, and so must every
Tensor3 built from the slot-product tables.  The loops of the matrix-valued
identities in ROW0 reported row 0 of the lhs and rhs, the tables report
the whole matrices.  Inputs are valid structures (from constructions that
are valid by theorem, then a random change of basis) and the same
structures with one entry perturbed, at dims 1-4 over Q (with non-unit
denominators), GF(5), GF(10007) and GF(2^31 - 1).  One structure is
evaluated in int64 when its overflow bound allows, so the same comparisons
run on structures whose bound sits just below and just above 2^63.
test_every_table_has_an_oracle keeps the list of compared tables complete.
The constructions, numpy index operations and Terms contractions, give
structures equal to the construction loops they replaced (also kept in
oracles.py), on valid and random operands at the same dims and fields.
"""

import ast
import importlib

import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import Scalar, nested, nested_witness
from admpoisson.tensors import (Exact, Identity, MulTensor, Terms, Tensor3, _overflow_bound,
                                check_identities, evaluate, exact_operands)
from admpoisson.algebras import (ADM_POISSON, POISSON, AdmPoissonAlgebra, PoissonAlgebra,
                                 check_adm_poisson, check_poisson, depolarize,
                                 polarize)
from admpoisson.representations import (Representation, adjoint_families, adjoint_rep,
                                        check_representation, dual_rep,
                                        poisson_rep_to_rep, rep_to_poisson_rep,
                                        semidirect)
from admpoisson.matched import (BilinearForm, MatchedPairData, bowtie,
                                check_invariant_form, check_matched_pair,
                                manin_pair_data, standard_form)
from admpoisson.bialgebras import (Comultiplication, check_adm_bialgebra, check_coalgebra,
                                   check_poisson_bialgebra, comult_of_mul, dual_structure,
                                   merge_comultiplication, split_comultiplication)
from admpoisson.ooperators import (PRE_ADM_POISSON, TRANSPORTED_PRE, OOperatorCandidate,
                                   PreAdmPoisson, PrePoisson, canonical_solution,
                                   check_o_operator, check_pre_adm_poisson, check_pre_poisson,
                                   check_rota_baxter, compatible_pre_from_invertible_o,
                                   induced_pre_from_o_operator, pre_from_symplectic,
                                   pre_rep, pre_to_prepoisson,
                                   prepoisson_sum_pair, prepoisson_to_pre,
                                   solution_from_o_operator, subadjacent)
from admpoisson.yangbaxter import (CYCLIC_FORM, SLOT_PATTERNS, YBE_OPERATORS, RTensor,
                                   check_coboundary_conditions, check_ybe, coboundary_alpha,
                                   coboundary_correspondence, correspondence_system,
                                   cyclic_form_check, operator_form_check, sym_defect,
                                   ybe_operator)
from admpoisson import search
from admpoisson.search import adm_catalog_indices, base_p_digits, table_hits

FIELDS = [0, 5, 10007, 2 ** 31 - 1]
DIMS = [1, 2, 3, 4]
# down-closed monomial sets x^a y^b without the unit: the other monomials
# span an ideal, so truncated products stay associative and Poisson
MONOMIALS = {1: [(1, 0)], 2: [(1, 0), (0, 1)], 3: [(1, 0), (0, 1), (1, 1)],
             4: [(1, 0), (0, 1), (2, 0), (1, 1)]}


def scalar(rng, p, nonzero=False):
    while True:
        if p:
            s = Scalar(rng.randrange(p), 1, p)
        else:
            s = Scalar(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7]))
        if not (nonzero and s.is_zero()):
            return s


def matrix(rng, rows, cols, p):
    return [[scalar(rng, p) for _ in range(cols)] for _ in range(rows)]


def invertible(rng, n, p):
    while True:
        m = matrix(rng, n, n, p)
        inv = oracles.mat_inverse(m, p)
        if inv is not None:
            return m, inv


def rebase(ops, rng, p, basis=None):
    """The same structures on the basis given by the columns of a random
    invertible matrix P (or of basis = (P, its inverse)):
    c'[i][j][k] = sum inv[k][w] c[u][v][w] P[u][i] P[v][j]."""
    n = ops[0].n
    P, inv = basis or invertible(rng, n, p)
    out = []
    for m in ops:
        mc = nested(m)
        c = [[[sum((inv[k][w] * mc[u][v][w] * P[u][i] * P[v][j]
                    for u in range(n) for v in range(n) for w in range(n)),
                   Scalar(0, 1, p)) for k in range(n)]
              for j in range(n)] for i in range(n)]
        out.append(MulTensor(n, p, c))
    return out


def perturb(m, rng):
    """m with one random entry changed."""
    c = [[list(row) for row in pl] for pl in nested(m)]
    i, j, k = (rng.randrange(m.n) for _ in range(3))
    c[i][j][k] = c[i][j][k] + scalar(rng, m.p, nonzero=True)
    return MulTensor(m.n, m.p, c)


def perturb_family(fam, rng, p):
    fam = [[list(row) for row in nested(mat)] for mat in nested(fam)]
    mat = fam[rng.randrange(len(fam))]
    row = mat[rng.randrange(len(mat))]
    col = rng.randrange(len(row))
    row[col] = row[col] + scalar(rng, p, nonzero=True)
    return fam


def poisson_star(n, p, rng):
    """mu*circ + lam*bracket from a truncated monomial algebra with its
    log-canonical bracket {x^a, x^b} = (a1 b2 - a2 b1) x^(a+b)."""
    mons = MONOMIALS[n]
    mu, lam = scalar(rng, p), scalar(rng, p)
    entries = {}
    for i, a in enumerate(mons):
        for j, b in enumerate(mons):
            s = (a[0] + b[0], a[1] + b[1])
            if s in mons:
                k = mons.index(s)
                entries[(i, j, k)] = mu + lam * Scalar(a[0] * b[1] - a[1] * b[0], 1, p)
    return MulTensor.from_entries(n, entries, p)


def valid_algebra(n, p, rng):
    return rebase([poisson_star(n, p, rng)], rng, p)[0]


def algebras(p, rng, per_dim=2):
    """(star, expected verdict or None) pairs: valid and perturbed."""
    out = []
    for n in DIMS:
        for _ in range(per_dim):
            m = valid_algebra(n, p, rng)
            out.append((m, True))
            out.append((perturb(m, rng), None))
    return out


# identities whose loops reported row 0 of their lhs and rhs matrices
ROW0 = {"defbi1", "defbi2", "defbi3", "lie-cocycle", "infinitesimal", "mixed1",
        "mixed2", "con1", "eqv1", "eqv2", "eqv3"}


def same(new, old):
    assert new.holds == old.holds
    if new.witness and new.witness[0] in ROW0:
        name, idx, lhs, rhs = new.witness
        assert (name, idx, nested(lhs)[0], nested(rhs)[0]) == nested_witness(old)
        assert lhs != rhs
    else:
        assert nested_witness(new) == nested_witness(old)
    return new


# "module.TABLE" -> the test below that compares the table with its loop
COMPARED = {}


def compares(*tables):
    def mark(test):
        COMPARED.update(dict.fromkeys(tables, test.__name__))
        return test
    return mark


@pytest.mark.parametrize("p", FIELDS)
@compares("algebras.ADM_POISSON", "algebras.POISSON")
def test_adm_poisson_and_poisson(p):
    rng = random.Random(1000 + p % 997)
    seen = Counter()
    for m, expect in algebras(p, rng):
        r = same(check_adm_poisson(m), oracles.check_adm_poisson(m))
        if expect:
            assert r.holds
        br, circ = polarize(m)
        r = same(check_poisson(br, circ), oracles.check_poisson(br, circ))
        seen[r.witness[0] if r.witness else "ok"] += 1
        # unpolarized pairs exercise antisymmetry and symmetry too
        r = same(check_poisson(m, circ), oracles.check_poisson(m, circ))
        seen[r.witness[0] if r.witness else "ok"] += 1
        r = same(check_poisson(br, m), oracles.check_poisson(br, m))
        seen[r.witness[0] if r.witness else "ok"] += 1
    assert seen["ok"] and seen["antisymmetry"] and seen["symmetry"]


def test_catalog_algebras(catalog_muls):
    for m in catalog_muls[::7]:
        same(check_adm_poisson(m), oracles.check_adm_poisson(m))
        same(check_poisson(*polarize(m)),
             oracles.check_poisson(*polarize(m)))
        rep = adjoint_rep(AdmPoissonAlgebra.raw(m))
        same(check_representation(rep), oracles.check_representation(rep))


def test_catalog_mask_gives_the_same_769_indices(catalog_gf5):
    old = [int(i) for i in np.nonzero(oracles.adm_mask_dim2_gf5())[0]]
    assert catalog_gf5 == old == [idx for idx, _ in adm_catalog_indices(2, 5)]
    assert len(old) == 769


@pytest.mark.parametrize("p", [5, 7, 11])
def test_exhaustive_sweep_masks_match_the_loops(p):
    # candidate idx holds its first operation in the low base-p digits
    pairs = [(oracles.decode_mul(i % p, 1, p), oracles.decode_mul(i // p, 1, p))
             for i in range(p * p)]
    arrays = search.operations("bo", 1)(base_p_digits(np.arange(p * p), 2, p)).values()
    for idx in (0, 1, p, p * p - 1):
        assert [int(a[..., idx].flat[0]) for a in arrays] == \
            [m.c[0][0][0] for m in pairs[idx]]
    assert [idx for idx, _ in table_hits(POISSON, "bo", 1, p)] == \
        [i for i, (b, o) in enumerate(pairs) if oracles.check_poisson(b, o).holds]
    assert [idx for idx, _ in table_hits(PRE_ADM_POISSON, "sq", 1, p)] == \
        [i for i, (s, q) in enumerate(pairs)
         if oracles.check_pre_adm_poisson(PreAdmPoisson.raw(s, q)).holds]
    assert [idx for idx, _ in adm_catalog_indices(1, p)] == \
        [i for i in range(p) if oracles.check_adm_poisson(oracles.decode_mul(i, 1, p)).holds]


@pytest.mark.parametrize("p", FIELDS)
@compares("representations.REPRESENTATION")
def test_representation(p):
    rng = random.Random(2000 + p % 997)
    names = Counter()
    for m, expect in algebras(p, rng, per_dim=1):
        if not expect:
            continue
        alg = AdmPoissonAlgebra.raw(m)
        adj = adjoint_rep(alg)
        for rep in (adj, dual_rep(adj)):
            assert same(check_representation(rep),
                        oracles.check_representation(rep)).holds
            for _ in range(3):
                l, r = rep.l, rep.r
                if rng.random() < 0.5:
                    l = perturb_family(l, rng, p)
                else:
                    r = perturb_family(r, rng, p)
                bad = Representation.raw(alg, l, r)
                w = same(check_representation(bad),
                         oracles.check_representation(bad)).witness
                names[w[0] if w else "ok"] += 1
    assert names["c2"] and names["c3"] + names["c4"]


@pytest.mark.parametrize("p", FIELDS)
@compares("matched.MATCH_1_3", "matched.MATCH_4_6")
def test_matched_pair(p):
    rng = random.Random(3000 + p % 997)
    names = Counter()
    for n in DIMS:
        a = AdmPoissonAlgebra.raw(valid_algebra(n, p, rng))
        b = AdmPoissonAlgebra.raw(valid_algebra(n, p, rng))
        zero = AdmPoissonAlgebra.raw(MulTensor(n, p))
        adj = adjoint_rep(a)
        none = [[[Scalar(0, 1, p)] * n for _ in range(n)] for _ in range(n)]
        # a acting on a zero algebra: the bowtie is the semidirect product
        mp = MatchedPairData(a, zero, adj.l, adj.r, none, none)
        assert same(check_matched_pair(mp), oracles.check_matched_pair(mp)).holds
        for cand in (manin_pair_data(a, b),
                     MatchedPairData(a, zero, adj.l, adj.r,
                                     perturb_family(none, rng, p), none),
                     MatchedPairData(a, zero, adj.l, adj.r, none,
                                     perturb_family(none, rng, p)),
                     MatchedPairData(a, b, adj.l, adj.r,
                                     perturb_family(adj.l, rng, p), adj.r)):
            w = same(check_matched_pair(cand), oracles.check_matched_pair(cand)).witness
            names[w[0] if w else "ok"] += 1
    assert sum(v for k, v in names.items() if k.startswith("match")) >= 2


def test_matched_pair_catalog(catalog_muls):
    holds = 0
    for a in catalog_muls[1::13]:
        for b in catalog_muls[1::29]:
            mp = manin_pair_data(AdmPoissonAlgebra.raw(a), AdmPoissonAlgebra.raw(b))
            holds += same(check_matched_pair(mp), oracles.check_matched_pair(mp)).holds
    assert holds >= 1


def prepoisson_pairs(n, p, rng):
    """(Zinbiel, 0) and (0, pre-Lie) on t, t^2, ..., t^n (truncated):
    t^a . t^b = b/(a+b) t^(a+b) and t^a * t^b = b t^(a+b-1)."""
    zin = MulTensor.from_entries(n, {(a - 1, b - 1, a + b - 1): Scalar(b, a + b, p)
                                     for a in range(1, n + 1)
                                     for b in range(1, n + 1) if a + b <= n}, p)
    prelie = MulTensor.from_entries(n, {(a - 1, b - 1, a + b - 2): Scalar(b, 1, p)
                                        for a in range(1, n + 1)
                                        for b in range(1, n + 1) if a + b - 1 <= n}, p)
    zero = MulTensor(n, p)
    return [rebase([zin, zero], rng, p), rebase([zero, prelie], rng, p)]


@pytest.mark.parametrize("p", FIELDS)
@compares("ooperators.PRE_ADM_POISSON", "ooperators.PRE_POISSON")
def test_pre_structures(p):
    rng = random.Random(4000 + p % 997)
    names = Counter()
    for n in DIMS:
        for dot, ast in prepoisson_pairs(n, p, rng):
            q = PrePoisson.raw(dot, ast)
            assert same(check_pre_poisson(q), oracles.check_pre_poisson(q)).holds
            pre = PreAdmPoisson.raw(*prepoisson_to_pre(dot, ast))
            assert same(check_pre_adm_poisson(pre),
                        oracles.check_pre_adm_poisson(pre)).holds
            for _ in range(3):
                bad = PrePoisson.raw(perturb(dot, rng), ast) if rng.random() < 0.5 \
                    else PrePoisson.raw(dot, perturb(ast, rng))
                w = same(check_pre_poisson(bad), oracles.check_pre_poisson(bad)).witness
                names[w[0] if w else "ok"] += 1
                bad = PreAdmPoisson.raw(perturb(pre.succ, rng), pre.prec) \
                    if rng.random() < 0.5 else PreAdmPoisson.raw(pre.succ, perturb(pre.prec, rng))
                w = same(check_pre_adm_poisson(bad),
                         oracles.check_pre_adm_poisson(bad)).witness
                names[w[0] if w else "ok"] += 1
    assert names["pre1"] and names["zinbiel"] + names["pre-lie"]


@pytest.mark.parametrize("p", FIELDS)
@compares("yangbaxter.YBE_OPERATORS", "yangbaxter.YBE")
def test_slot_products_and_ybe_operators(p):
    rng = random.Random(5000 + p % 997)
    for n in DIMS:
        m = valid_algebra(n, p, rng)
        ra, rb = matrix(rng, n, n, p), matrix(rng, n, n, p)
        for slots, text in SLOT_PATTERNS.items():
            assert Tensor3(n, p, evaluate(Terms(text, "xyz"),
                                          {"a": ra, "b": rb, "m": m.c}, p)) == \
                oracles.tensor3_product(ra, rb, m, slots)
        r = RTensor(ra, p)
        for which in "PQAC":
            assert ybe_operator(m, r, which) == oracles.ybe_operator(m, r, which)
        br, circ = polarize(m)
        for alg, kinds in ((AdmPoissonAlgebra.raw(m), ["adm_pybe"]),
                           (PoissonAlgebra.raw(br, circ), ["cybe", "aybe", "pybe"])):
            for kind in kinds:
                for rr in (r, r.skew_part(), RTensor([[Scalar(0, 1, p)] * n] * n, p)):
                    same(check_ybe(alg, rr, kind), oracles.check_ybe(alg, rr, kind))


def sparse_mul(rng, n, p, density, ann0=False):
    """Random structure constants, each nonzero with probability `density`;
    with ann0, e_0 annihilates everything, so no condition fails at x = e_0."""
    return MulTensor(n, p, [[[scalar(rng, p) if rng.random() < density and
                              not (ann0 and 0 in (i, j)) else Scalar(0, 1, p)
                              for _ in range(n)] for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("p", FIELDS)
@compares("yangbaxter.COBOUNDARY_ALPHA", "yangbaxter.SYM_DEFECT",
          "yangbaxter._R_TIMES_M", "yangbaxter.COSP", "yangbaxter.CON1", "yangbaxter.EQV")
def test_coboundary_coalgebra_conditions(p):
    rng = random.Random(6000 + p % 997)
    seen = Counter()
    for n in DIMS:
        # r on the annihilator monomials (the last ones) makes every term vanish
        m = poisson_star(n, p, rng)
        ann = [k for k in range(n) if not any(m.c[k][j][w] or m.c[j][k][w]
                                              for j in range(n) for w in range(n))]
        cases = [(m, [[scalar(rng, p) if u in ann and v in ann else Scalar(0, 1, p)
                       for v in range(n)] for u in range(n)], True)]
        # sparse inputs hold, or fail at scattered indices
        for density in (0.1, 0.2, 0.4):
            for ann0 in (False, True):
                cases.append((sparse_mul(rng, n, p, density, ann0),
                              [[scalar(rng, p) if rng.random() < 0.4 else Scalar(0, 1, p)
                                for _ in range(n)] for _ in range(n)], None))
        for star, coeff, expect in cases:
            a, r = AdmPoissonAlgebra.raw(star), RTensor(coeff, p)
            assert nested(sym_defect(star, r)) == oracles._sym_defect(star, r)[3]
            assert coboundary_alpha(a, r) == oracles.coboundary_alpha(a, r)
            for which in ("con1", "eqv1", "eqv2", "eqv3", "cosp", "cosp2"):
                oracle = (oracles.check_cosp if which.startswith("cosp")
                          else oracles.check_coboundary_conditions)
                w = same(check_coboundary_conditions(a, r, which),
                         oracle(a, r, which))
                if expect:
                    assert w.holds
                seen[w.witness[1][0] > 0 if w.witness else "ok"] += 1
    assert seen["ok"] and seen[True] and seen[False]


def canonical_doubles(p, rng):
    """(algebra, skew r) from the canonical solutions of the pre-structures
    of prepoisson_pairs at dims 1 and 2: dims 2 and 4, and r solves the
    adm-PYBE, so its coboundary is a bialgebra and its forms pass."""
    out = []
    for n in (1, 2):
        for dot, ast in prepoisson_pairs(n, p, rng):
            pre = PreAdmPoisson.raw(*prepoisson_to_pre(dot, ast))
            out.append(canonical_solution(pre))
    return out


def perturb_comul(c, rng):
    """alpha with one random entry changed (through its dual multiplication)."""
    return comult_of_mul(perturb(dual_structure(c), rng))


@compares("bialgebras.COALGEBRA", "bialgebras.DEFBI", "bialgebras.POISSON_BIALGEBRA")
@pytest.mark.parametrize("p", FIELDS)
def test_bialgebras(p):
    rng = random.Random(8000 + p % 997)
    cases = [(big.star, coboundary_alpha(big, r)) for big, r in canonical_doubles(p, rng)]
    for n in DIMS:
        cases.append((valid_algebra(n, p, rng), Comultiplication(n, p)))
        cases.append((MulTensor(n, p), comult_of_mul(valid_algebra(n, p, rng))))
    names = Counter()
    for star, alpha in cases:
        for k, (m, c) in enumerate([(star, alpha)] +
                                   [(perturb(star, rng), alpha) for _ in range(3)] +
                                   [(star, perturb_comul(alpha, rng)) for _ in range(3)]):
            a = AdmPoissonAlgebra.raw(m)
            same(check_coalgebra(c), oracles.check_coalgebra(c))
            w = same(check_adm_bialgebra(a, c), oracles.check_adm_bialgebra(a, c))
            assert w.holds or k
            palg, pair = PoissonAlgebra.raw(*polarize(m)), split_comultiplication(c)
            v = same(check_poisson_bialgebra(palg, pair),
                     oracles.check_poisson_bialgebra(palg, pair))
            assert w.holds == v.holds
            names.update(r.witness[0] if r.witness else "ok" for r in (w, v))
    assert names["coalgebra"] and names["defbi1"] + names["defbi2"] + names["defbi3"]
    assert names["lie-cocycle"] + names["infinitesimal"] + names["mixed1"] + names["mixed2"]


# (v) of the Poisson bialgebra: (id (x) Delta) delta(x) = (delta (x) id) Delta(x)
#     + (tau (x) id)(id (x) delta) Delta(x), at x = e_i, coordinate (p, q, s)
CO_LEIBNIZ = Identity("co-leibniz", "ipq", "s", "d:ipm D:mqs", "D:ims d:mpq + D:iqm d:mps")
LEIBNIZ = POISSON[4][0]


@pytest.mark.parametrize("p", FIELDS)
def test_co_leibniz_iff_dual_leibniz(p):
    """The co-Leibniz identity, as a table and as the loop that checked it,
    holds exactly when the duals of (delta, Delta) satisfy the Leibniz rule,
    which the dual check (i) of check_poisson_bialgebra tests; so the
    package leaves it to (i).  The pairs split alpha = comult_of_mul(star),
    whose duals are the polarization of star."""
    rng = random.Random(8500 + p % 997)
    seen = Counter()
    for n in DIMS:
        star = valid_algebra(n, p, rng)
        for m in [star, perturb(star, rng), sparse_mul(rng, n, p, 0.3)]:
            pair = split_comultiplication(comult_of_mul(m))
            co = same(check_identities(((CO_LEIBNIZ,),), {"d": pair.delta.a,
                                                          "D": pair.Delta.a}, p).first_entry(),
                      oracles.check_co_leibniz(pair.delta, pair.Delta))
            b, o = polarize(m)
            assert (b, o) == (dual_structure(pair.delta), dual_structure(pair.Delta))
            assert co.holds == check_identities(((LEIBNIZ,),), {"b": b.c, "o": o.c}, p).holds
            seen[co.holds] += 1
    assert seen[True] and seen[False]


def random_skew(rng, n, p):
    coeff = [[Scalar(0, 1, p)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coeff[i][j] = scalar(rng, p)
            coeff[j][i] = -coeff[i][j]
    return RTensor(coeff, p)


@compares("yangbaxter.OPERATOR_FORM", "yangbaxter.CYCLIC_FORM")
@pytest.mark.parametrize("p", FIELDS)
def test_operator_and_cyclic_forms(p):
    rng = random.Random(9000 + p % 997)
    cases = canonical_doubles(p, rng)
    cases += [(AdmPoissonAlgebra.raw(valid_algebra(n, p, rng)), random_skew(rng, n, p))
              for n in DIMS for _ in range(2)]
    seen = Counter()
    for a, r in list(cases):
        cases.append((AdmPoissonAlgebra.raw(perturb(a.star, rng)), r))
    for a, r in cases:
        w = same(operator_form_check(a, r), oracles.operator_form_check(a, r))
        seen[w.holds] += 1
        omega = oracles.mat_inverse(nested(r), p)
        if omega is None:
            continue
        w = same(cyclic_form_check(a, r), oracles.cyclic_form_check(a, r))
        seen[w.holds] += 1
        # the cyclic test of pre_from_symplectic, on the form and on its inverse
        for g in (omega, nested(r)):
            assert check_identities(((CYCLIC_FORM,),), {"m": a.star.c, "w": g}, p).holds \
                == oracles.cyclic_on_products(a, g)
    assert seen[True] and seen[False]


@compares("ooperators.O_OPERATOR", "ooperators.ROTA_BAXTER")
@pytest.mark.parametrize("p", FIELDS)
def test_o_operators_and_rota_baxter(p):
    rng = random.Random(10000 + p % 997)
    cands = []
    for n in (1, 2, 3):
        for dot, ast in prepoisson_pairs(n, p, rng):
            rep = pre_rep(PreAdmPoisson.raw(*prepoisson_to_pre(dot, ast)))
            ident = [[Scalar(int(i == j), 1, p) for j in range(n)] for i in range(n)]
            cands.append(OOperatorCandidate(rep.alg, rep, ident))      # valid
    for n in DIMS:
        alg = AdmPoissonAlgebra.raw(valid_algebra(n, p, rng))
        adj = adjoint_rep(alg)
        cands.append(OOperatorCandidate(alg, adj, matrix(rng, n, n, p)))
        m = rng.choice(DIMS)         # a module of any size, and no representation
        fam = [matrix(rng, m, m, p) for _ in range(n)]
        rep = Representation.raw(alg, fam, perturb_family(fam, rng, p))
        cands.append(OOperatorCandidate(alg, rep, matrix(rng, n, m, p)))
    names = Counter()
    for c in cands:
        for theta in (c.theta, perturb_family([c.theta], rng, p)[0]):
            cand = OOperatorCandidate(c.alg, c.rep, theta)
            names[same(check_o_operator(cand), oracles.check_o_operator(cand)).holds] += 1
        star = c.alg.star
        R = matrix(rng, star.n, star.n, p)
        zero_map = [[Scalar(0, 1, p)] * star.n] * star.n
        for m, R in ((star, R), (star, zero_map), (MulTensor(star.n, p), R),
                     (star, perturb_family([zero_map], rng, p)[0])):
            a = AdmPoissonAlgebra.raw(m)
            names[same(check_rota_baxter(a, R), oracles.check_rota_baxter(a, R)).holds] += 1
    assert names[True] and names[False]


@compares("matched.INVARIANCE")
@pytest.mark.parametrize("p", FIELDS)
def test_invariant_forms(p):
    """The standard pairing on the semidirect product by the dual of the
    adjoint representation is invariant; perturbed algebras and forms."""
    rng = random.Random(11000 + p % 997)
    names = Counter()
    for n in DIMS:
        a = AdmPoissonAlgebra.raw(valid_algebra(n, p, rng))
        d = dual_rep(adjoint_rep(a))
        big = semidirect(a.star, d.l, d.r)
        gram = standard_form(n, p).gram
        cases = [(big, gram, True), (perturb(big, rng), gram, None),
                 (big, perturb_family([gram], rng, p)[0], None),
                 (big, matrix(rng, 2 * n, 2 * n, p), None)]
        for m, g, expect in cases:
            a2, form = AdmPoissonAlgebra.raw(m), BilinearForm(g, p)
            w = same(check_invariant_form(a2, form), oracles.check_invariant_form(a2, form))
            assert w.holds or not expect
            names[w.witness[1] if w.witness else "ok"] += 1
    assert names["ok"] and len(names) > 4


# ---------------------------------------------------------------------------
# constructions: numpy index operations and Terms contractions against the
# loops they replaced


def family(rng, count, m, p):
    return [matrix(rng, m, m, p) for _ in range(count)]


def operations(p, rng):
    """Valid, perturbed and dense random operations at every dim."""
    return [m for n in DIMS for m in (valid_algebra(n, p, rng),
                                      perturb(valid_algebra(n, p, rng), rng),
                                      MulTensor(n, p, [matrix(rng, n, n, p) for _ in range(n)]))]


@pytest.mark.parametrize("p", FIELDS)
def test_index_constructions(p):
    rng = random.Random(12000 + p % 997)
    ops = operations(p, rng)
    for m in ops:
        n = m.n
        a = AdmPoissonAlgebra.raw(m)
        br, circ = polarize(m)
        assert (br, circ) == oracles.polarize(m)
        assert depolarize(br, circ) == oracles.depolarize(br, circ) == m
        assert tuple(map(nested, adjoint_families(m))) == oracles.adjoint_families(m)
        vdim = rng.choice(DIMS)
        l, r = family(rng, n, vdim, p), family(rng, n, vdim, p)
        rep = Representation.raw(a, l, r)
        d = dual_rep(rep)
        assert (nested(d.l), nested(d.r)) == oracles.dual_families(l, r)
        assert semidirect(m, l, r) == oracles.semidirect(m, l, r)
        prep = rep_to_poisson_rep(rep)
        want = oracles.rep_to_poisson_rep(rep)
        assert (prep.s_bracket, prep.s_circ) == (want.s_bracket, want.s_circ)
        back = poisson_rep_to_rep(prep)
        want = oracles.poisson_rep_to_rep(prep)
        assert (back.l, back.r) == (want.l, want.r)
        assert (nested(back.l), nested(back.r)) == (l, r)
        # a pair of operations of any sizes with random actions
        m2 = rng.choice(ops[3 * vdim - 3:3 * vdim])
        mp = MatchedPairData(a, AdmPoissonAlgebra.raw(m2), l, r,
                             family(rng, vdim, n, p), family(rng, vdim, n, p))
        assert bowtie(mp) == oracles.bowtie(mp)
        mp = manin_pair_data(a, AdmPoissonAlgebra.raw(m2))
        assert tuple(map(nested, (mp.l1, mp.r1, mp.l2, mp.r2))) == oracles.manin_families(m, m2)
        assert nested(standard_form(n, p).gram) == oracles.standard_form(n, p)
        # comultiplications
        c = comult_of_mul(m)
        assert c == oracles.comult_of_mul(m)
        assert dual_structure(c) == oracles.dual_structure(c) == m
        pair = split_comultiplication(c)
        want = oracles.split_comultiplication(c)
        assert (pair.delta, pair.Delta) == (want.delta, want.Delta)
        assert merge_comultiplication(pair) == oracles.merge_comultiplication(pair) == c
        # O-operators and pre-structures
        theta = matrix(rng, n, vdim, p)
        big, sol = solution_from_o_operator(OOperatorCandidate(a, rep, theta))
        assert big.star == oracles.semidirect(m, *oracles.dual_families(l, r))
        assert sol == oracles.solution_tensor(theta, n, vdim, p)
        q = m if rng.random() < 0.5 else perturb(m, rng)
        assert subadjacent(m, q) == oracles.subadjacent(m, q)
        pre_rep_fams = pre_rep(PreAdmPoisson.raw(m, q))
        assert (nested(pre_rep_fams.l), nested(pre_rep_fams.r)) == \
            oracles.pre_rep_families(m, q)
        assert pre_to_prepoisson(m, q) == oracles.pre_to_prepoisson(m, q)
        assert prepoisson_to_pre(m, q) == oracles.prepoisson_to_pre(m, q)
        pq = PrePoisson.raw(m, q)
        assert prepoisson_sum_pair(pq) == oracles.prepoisson_sum_pair(pq)


@pytest.mark.parametrize("p", FIELDS[1:])
def test_search_decoding(p):
    """The digit columns of maps read base-p digits as the loops did, also
    above int64 (GF(2^31-1) at dim 3)."""
    rng = random.Random(13000 + p % 997)
    for n in DIMS[:3]:
        for idx in [0, p ** (n ** 3) - 1] + [rng.randrange(p ** (n ** 3)) for _ in range(5)]:
            rows, cols = n, rng.choice(DIMS)
            idx %= p ** (rows * cols)
            assert base_p_digits([idx], rows * cols, p).reshape(rows, cols).tolist() == \
                [[s.num for s in row] for row in oracles.decode_map(idx, rows, cols, p)]


def valid_candidates(p, rng):
    """O-operators: the identity over the module of a pre-structure, at dims 1-3."""
    cands = []
    for n in (1, 2, 3):
        for dot, ast in prepoisson_pairs(n, p, rng):
            rep = pre_rep(PreAdmPoisson.raw(*prepoisson_to_pre(dot, ast)))
            ident = [[Scalar(int(i == j), 1, p) for j in range(n)] for i in range(n)]
            cands.append(OOperatorCandidate(rep.alg, rep, ident))
    return cands


def table_pre(tables, operands, n, p):
    return PreAdmPoisson.raw(*(MulTensor(n, p, evaluate(t, operands, p))
                               for t in tables))


@compares("ooperators.INDUCED_PRE", "ooperators.TRANSPORTED_PRE")
@pytest.mark.parametrize("p", FIELDS)
def test_induced_pre_structures(p):
    rng = random.Random(14000 + p % 997)
    for c in valid_candidates(p, rng):
        pre = induced_pre_from_o_operator(c)
        assert pre == oracles.induced_pre_from_o_operator(c)
        assert compatible_pre_from_invertible_o(c) == \
            oracles.compatible_pre_from_invertible_o(c)
    for n in DIMS:
        # random operands of any module size, and a random invertible theta
        alg = AdmPoissonAlgebra.raw(valid_algebra(n, p, rng))
        m = rng.choice(DIMS)
        rep = Representation.raw(alg, family(rng, n, m, p), family(rng, n, m, p))
        c = OOperatorCandidate(alg, rep, matrix(rng, n, m, p))
        assert induced_pre_from_o_operator(c) == \
            oracles.induced_pre_from_o_operator(c)
        theta, inv = invertible(rng, n, p)
        rep = Representation.raw(alg, family(rng, n, n, p), family(rng, n, n, p))
        ops = {"t": theta, "l": rep.l, "r": rep.r, "u": inv}
        assert table_pre(TRANSPORTED_PRE, ops, n, p) == \
            oracles.compatible_pre_from_invertible_o(OOperatorCandidate(alg, rep, theta))
    # the canonical solutions' inverses are symplectic forms on their doubles,
    # also on a random basis (gram P^T omega P), where the pre-structures of
    # theta = omega^-1 and of theta = omega differ
    for a, r in canonical_doubles(p, rng):
        omega = oracles.mat_inverse(nested(r), p)
        P, inv = invertible(rng, a.n, p)
        (star,) = rebase([a.star], rng, p, (P, inv))
        for alg, g in ((a, omega), (AdmPoissonAlgebra.raw(star),
                                    oracles.mat_mul(oracles.transpose(P),
                                                    oracles.mat_mul(omega, P)))):
            assert pre_from_symplectic(alg, BilinearForm(g, p)) == \
                oracles.pre_from_symplectic(alg, g)


@compares("yangbaxter.DEFECT")
@pytest.mark.parametrize("p", FIELDS)
def test_coboundary_correspondence(p):
    rng = random.Random(15000 + p % 997)
    seen = Counter()
    for n in DIMS:
        for star in (valid_algebra(n, p, rng), sparse_mul(rng, n, p, 0.3),
                     sparse_mul(rng, n, p, 0.6), MulTensor(n, p)):
            a = AdmPoissonAlgebra.raw(star)
            for r in (RTensor(matrix(rng, n, n, p), p), random_skew(rng, n, p)):
                rows, rhs = oracles.correspondence_system(a, r)
                assert nested(correspondence_system(a, r)) == \
                    [row + [b] for row, b in zip(rows, rhs)]
                got = coboundary_correspondence(a, r)
                assert got == oracles.coboundary_correspondence(a, r)
                seen[got[0]] += 1
    assert seen[True] and seen[False]


def _tables(value):
    """Whether a module-level value is, or holds, an Identity or Terms."""
    if isinstance(value, (Identity, Terms)):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (tuple, list)) and any(_tables(v) for v in value)


def test_every_table_has_an_oracle():
    """Every Identity/Terms table defined at module level in the package
    is compared with a loop above."""
    import admpoisson
    found = set()
    for path in sorted((Path(admpoisson.__file__).parent).glob("*.py")):
        mod = importlib.import_module(f"admpoisson.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for t in targets:
                for name in ([e.id for e in t.elts] if isinstance(t, ast.Tuple) else [t.id]
                             if isinstance(t, ast.Name) else []):
                    if _tables(getattr(mod, name)):
                        found.add(f"{path.stem}.{name}")
    assert "algebras.ADM_POISSON" in found and "bialgebras.DEFBI" in found
    assert found - set(COMPARED) == set()
    assert set(COMPARED) - found == set()


# ---------------------------------------------------------------------------
# one structure on both sides of the int64 overflow bound

INT64_MAX = int(np.iinfo(np.int64).max)
# down-closed monomial sets whose truncated products are not all zero
BOUND_MONOMIALS = {2: [(1, 0), (2, 0)], 3: [(1, 0), (0, 1), (1, 1)]}


def largest_int64_maxabs(sides, n, p):
    """The largest |entry| at which `sides` are evaluated in int64 at dim n."""
    lo, hi = 0, INT64_MAX
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if max(_overflow_bound(side, mid, n, p) for side in sides) <= INT64_MAX:
            lo = mid
        else:
            hi = mid
    return lo


def unit_pair(n):
    """(bracket, circ) entries of a truncated monomial Poisson algebra with
    its log-canonical bracket: every entry is -1, 0 or 1."""
    mons = BOUND_MONOMIALS[n]
    bracket, circ = {}, {}
    for i, a in enumerate(mons):
        for j, b in enumerate(mons):
            s = (a[0] + b[0], a[1] + b[1])
            if s in mons:
                circ[(i, j, mons.index(s))] = 1
                if a[0] * b[1] - a[1] * b[0]:
                    bracket[(i, j, mons.index(s))] = a[0] * b[1] - a[1] * b[0]
    return bracket, circ


def scaled(n, entries, lam, den, p):
    return MulTensor.from_entries(
        n, {key: Scalar(v * lam, den, p) for key, v in entries.items()}, p)


def coprime_scale(limit, den, upward):
    """The largest lam <= limit (or the smallest lam > limit) prime to den."""
    lam = limit + 1 if upward else limit
    while np.gcd(lam, den) != 1:
        lam += 1 if upward else -1
    return lam


def dtype_of(operands, p, sides):
    arrays, _ = exact_operands(operands, p, sides)
    return next(iter(arrays.values())).dtype


@pytest.mark.parametrize("p,den", [(0, 7), (0, 1), (2 ** 31 - 1, 1)])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("upward", [False, True])
def test_one_structure_on_both_sides_of_the_int64_bound(p, den, n, upward):
    """Just below the bound the checks run in int64, just above on Python
    ints; both give the loops' verdicts and whole witnesses.  Every |entry|
    after the common denominator den is cleared is at most lam, and equal
    to lam somewhere, so lam is the bound's maxabs."""
    rng = random.Random(7000 + 10 * n + upward + p % 97)
    want = np.int64 if not upward else object
    bracket, circ = unit_pair(n)
    if p:                       # residues of -1 entries would exceed lam
        bracket = {}
    verdicts = []

    # the adm-Poisson identity: circ + bracket, a perturbation, random
    # entries, and all entries at the maximum, where the partial sums peak,
    # with and without one entry zeroed
    star = {key: circ.get(key, 0) + bracket.get(key, 0) for key in {**circ, **bracket}}
    top = max(map(abs, star.values()))
    noise = {key: rng.randint(0, top) for key in np.ndindex(n, n, n)}
    noise[(0, 0, 0)] = top
    full = dict.fromkeys(np.ndindex(n, n, n), top)
    lam = coprime_scale(largest_int64_maxabs([ADM_POISSON.residual], n, p) // top,
                        den, upward)
    for entries in (star, {**star, (n - 1, 0, 0): top}, noise, full,
                    {**full, (0, n - 1, 0): 0}):
        m = scaled(n, entries, lam, den, p)
        assert dtype_of({"c": m.exact}, p, [ADM_POISSON.residual]) == want
        verdicts.append(same(check_adm_poisson(m), oracles.check_adm_poisson(m)).holds)
    assert verdicts[0] and not verdicts[1] and not verdicts[4]

    # the Poisson axioms on (bracket, circ), with circ perturbed, and on a
    # zero bracket beside circ with all entries at the maximum but one
    sides = [ident.residual for group in POISSON for ident in group]
    lam = coprime_scale(largest_int64_maxabs(sides, n, p), den, upward)
    ones = dict.fromkeys(full, 1)
    for b, o in ((bracket, circ), (bracket, {**circ, (0, n - 1, 0): 1}),
                 ({}, ones), ({}, {**ones, (0, n - 1, 0): 0})):
        b, o = scaled(n, b, lam, den, p), scaled(n, o, lam, den, p)
        assert dtype_of({"b": b.exact, "o": o.exact}, p, sides) == want
        verdicts.append(same(check_poisson(b, o), oracles.check_poisson(b, o)).holds)
    assert verdicts[5] and not verdicts[6] and verdicts[7] and not verdicts[8]

    # a Yang-Baxter operator, of degree 3, on a random r
    lam = coprime_scale(largest_int64_maxabs([YBE_OPERATORS["P"]], n, p), den, upward)
    m = scaled(n, circ, lam, den, p)
    r = RTensor([[Scalar(lam * rng.choice([0, 1]), den, p) for _ in range(n)]
                 for _ in range(n)], p)
    assert dtype_of({"a": r.exact, "b": r.exact, "m": m.exact}, p,
                    [YBE_OPERATORS["P"]]) == want
    assert ybe_operator(m, r, "P") == oracles.ybe_operator(m, r, "P")


@pytest.mark.parametrize("text,out", [
    ("a:ijk b:jkl", "il"),                        # degree 2, two summed letters
    ("a:ijk b:jkl + 2 a:jik b:kjl", "il"),        # weight 3
    ("a:ijk b:klm a:lmj", "i"),                   # degree 3, four summed letters
])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("den", [1, 7])
def test_partial_sums_reach_the_int64_bound(text, out, n, den):
    """With every entry at the largest int64-safe maxabs lam, every output
    entry is weight * lam**degree * n**summed, the bound itself, so the sums
    come within a factor of 2 of 2^63; one step up they run on Python ints.
    Both results are exact."""
    terms = Terms(text, out)
    (degree,) = terms.degrees
    limit = largest_int64_maxabs([terms], n, 0)
    for lam, want in ((coprime_scale(limit, den, False), np.int64),
                      (coprime_scale(limit, den, True), object)):
        ops = {name: Exact(np.full((n,) * rank, lam, dtype=object), den)
               for name, rank in terms.ranks.items()}
        peak = terms.weight * lam ** degree * n ** terms.summed
        assert INT64_MAX // 2 < peak
        assert dtype_of(ops, 0, [terms]) == want
        got = np.array(nested(evaluate(terms, ops, 0)), dtype=object)
        assert got.shape == (n,) * len(out)
        assert all(s == Scalar(peak, den ** degree) for s in got.ravel())


@pytest.mark.parametrize("n", [2, 3])
def test_ten_digit_rationals_stay_exact(n):
    """Q with 10-digit numerators and non-unit denominators is far above the
    bound; the checks run on Python ints and agree with the loops."""
    rng = random.Random(7100 + n)

    def big():
        num, den = rng.randrange(10 ** 9, 10 ** 10), rng.choice([1, 3, 7, 11])
        while np.gcd(num, den) != 1:
            num += 1
        return Scalar(rng.choice([-1, 1]) * num, den)

    bracket, circ = unit_pair(n)
    star = MulTensor.from_entries(n, {key: big() * Scalar(v) for key, v in
                                      {**circ, **bracket}.items()})
    assert dtype_of({"c": star.exact}, 0, [ADM_POISSON.residual]) == object
    same(check_adm_poisson(star), oracles.check_adm_poisson(star))
    dense = MulTensor(n, 0, [[[big() for _ in range(n)] for _ in range(n)]
                             for _ in range(n)])
    assert not same(check_adm_poisson(dense), oracles.check_adm_poisson(dense)).holds
    br, circ_t = polarize(dense)
    assert not same(check_poisson(br, circ_t), oracles.check_poisson(br, circ_t)).holds
