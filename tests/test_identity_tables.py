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
"""

import ast
import importlib

import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from admpoisson.scalars import Scalar
from admpoisson.tensors import (Identity, MulTensor, SLOT_PATTERNS, Terms,
                                _overflow_bound, check_identities, evaluate_scalars,
                                exact_operands, mat_inverse, tensor3_product)
from admpoisson.algebras import (ADM_POISSON, POISSON, AdmPoissonAlgebra, PoissonAlgebra,
                                 check_adm_poisson, check_poisson, polarize_raw)
from admpoisson.representations import (Representation, adjoint_rep,
                                        check_representation, dual_rep, semidirect_raw)
from admpoisson.matched import (BilinearForm, MatchedPairData, check_invariant_form,
                                check_matched_pair, manin_pair_data, standard_form)
from admpoisson.bialgebras import (Comultiplication, check_adm_bialgebra,
                                   check_coalgebra, check_poisson_bialgebra,
                                   comult_of_mul, dual_structure, split_comultiplication)
from admpoisson.ooperators import (PRE_ADM_POISSON, OOperatorCandidate, PreAdmPoisson,
                                   PrePoisson, canonical_solution, check_o_operator,
                                   check_pre_adm_poisson, check_pre_poisson,
                                   check_rota_baxter, pre_rep, prepoisson_to_pre_raw)
from admpoisson.yangbaxter import (CYCLIC_FORM, YBE_OPERATORS, RTensor,
                                   check_coboundary_conditions, check_ybe,
                                   coboundary_alpha, cyclic_form_check,
                                   operator_form_check, sym_defect, ybe_operator)
from admpoisson.search import (adm_catalog_indices, decode_mul, digit_arrays,
                               table_hits)

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
        inv = mat_inverse(m, p)
        if inv is not None:
            return m, inv


def rebase(ops, rng, p):
    """The same structures on the basis given by the columns of a random
    invertible matrix: c'[i][j][k] = sum inv[k][w] c[u][v][w] P[u][i] P[v][j]."""
    n = ops[0].n
    P, inv = invertible(rng, n, p)
    out = []
    for m in ops:
        c = [[[sum((inv[k][w] * m.c[u][v][w] * P[u][i] * P[v][j]
                    for u in range(n) for v in range(n) for w in range(n)),
                   Scalar(0, 1, p)) for k in range(n)]
              for j in range(n)] for i in range(n)]
        out.append(MulTensor(n, p, c))
    return out


def perturb(m, rng):
    """m with one random entry changed."""
    c = [[list(row) for row in pl] for pl in m.c]
    i, j, k = (rng.randrange(m.n) for _ in range(3))
    c[i][j][k] = c[i][j][k] + scalar(rng, m.p, nonzero=True)
    return MulTensor(m.n, m.p, c)


def perturb_family(fam, rng, p):
    fam = [[list(row) for row in mat] for mat in fam]
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
        assert (name, idx, lhs[0], rhs[0]) == old.witness
        assert lhs != rhs
    else:
        assert new.witness == old.witness
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
        br, circ = polarize_raw(m)
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
        same(check_poisson(*polarize_raw(m)),
             oracles.check_poisson(*polarize_raw(m)))
        rep = adjoint_rep(AdmPoissonAlgebra.raw(m))
        same(check_representation(rep), oracles.check_representation(rep))


def test_catalog_mask_gives_the_same_769_indices(catalog_gf5):
    old = [int(i) for i in np.nonzero(oracles.adm_mask_dim2_gf5())[0]]
    assert catalog_gf5 == old == list(adm_catalog_indices(2, 5))
    assert len(old) == 769


@pytest.mark.parametrize("p", [5, 7, 11])
def test_exhaustive_sweep_masks_match_the_loops(p):
    # candidate idx holds its first operation in the low base-p digits
    pairs = [(decode_mul(i % p, 1, p), decode_mul(i // p, 1, p)) for i in range(p * p)]
    arrays = digit_arrays(np.arange(p * p), 1, p, 2)
    for idx in (0, 1, p, p * p - 1):
        assert [int(a[..., idx].flat[0]) for a in arrays] == \
            [m.c[0][0][0].num for m in pairs[idx]]
    assert list(table_hits(POISSON, "bo", 1, p)) == \
        [i for i, (b, o) in enumerate(pairs) if oracles.check_poisson(b, o).holds]
    assert list(table_hits(PRE_ADM_POISSON, "sq", 1, p)) == \
        [i for i, (s, q) in enumerate(pairs)
         if oracles.check_pre_adm_poisson(PreAdmPoisson.raw(s, q)).holds]
    assert list(adm_catalog_indices(1, p)) == \
        [i for i in range(p) if oracles.check_adm_poisson(decode_mul(i, 1, p)).holds]


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
        for rep in (adj, dual_rep(adj, check=False)):
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
            pre = PreAdmPoisson.raw(*prepoisson_to_pre_raw(dot, ast))
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
@compares("tensors._SLOT_TERMS", "yangbaxter.YBE_OPERATORS",
          "yangbaxter.YBE")
def test_slot_products_and_ybe_operators(p):
    rng = random.Random(5000 + p % 997)
    for n in DIMS:
        m = valid_algebra(n, p, rng)
        ra, rb = matrix(rng, n, n, p), matrix(rng, n, n, p)
        for slots in SLOT_PATTERNS:
            assert tensor3_product(ra, rb, m, slots) == \
                oracles.tensor3_product(ra, rb, m, slots)
        r = RTensor(ra, p)
        for which in "PQAC":
            assert ybe_operator(m, r, which) == oracles.ybe_operator(m, r, which)
        br, circ = polarize_raw(m)
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
        ann = [k for k in range(n) if not any(m.c[k][j][w].num or m.c[j][k][w].num
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
            assert sym_defect(star, r) == oracles._sym_defect(star, r)[3]
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
            pre = PreAdmPoisson.raw(*prepoisson_to_pre_raw(dot, ast))
            out.append(canonical_solution(pre))
    return out


def perturb_comul(c, rng):
    """alpha with one random entry changed (through its dual multiplication)."""
    return comult_of_mul(perturb(dual_structure(c), rng))


@compares("bialgebras.COALGEBRA", "bialgebras.DEFBI", "bialgebras.POISSON_BIALGEBRA",
          "bialgebras.CO_LEIBNIZ")
@pytest.mark.parametrize("p", FIELDS)
def test_bialgebras(p, monkeypatch):
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
            palg, pair = PoissonAlgebra.raw(*polarize_raw(m)), split_comultiplication(c)
            v = same(check_poisson_bialgebra(palg, pair),
                     oracles.check_poisson_bialgebra(palg, pair))
            assert w.holds == v.holds
            names.update(r.witness[0] if r.witness else "ok" for r in (w, v))
    assert names["coalgebra"] and names["defbi1"] + names["defbi2"] + names["defbi3"]
    assert names["lie-cocycle"] + names["infinitesimal"] + names["mixed1"] + names["mixed2"]
    # co-Leibniz is the dual of the Leibniz rule, which the dual Poisson
    # check already tests; with that check passed over, it decides on a
    # zero algebra whose dual is a Poisson pair with the bracket perturbed
    for mod in (importlib.import_module("admpoisson.algebras"), oracles):
        monkeypatch.setattr(mod, "check_poisson", lambda b, o: oracles.AxiomReport.ok())
    for n in (3, 4, 3, 4):
        br, circ = polarize_raw(valid_algebra(n, p, rng))
        for b in (br, perturb(br, rng), perturb(br, rng)):
            pair = split_comultiplication(comult_of_mul(b).add(comult_of_mul(circ)))
            palg = PoissonAlgebra.raw(MulTensor(n, p), MulTensor(n, p))
            w = same(check_poisson_bialgebra(palg, pair),
                     oracles.check_poisson_bialgebra(palg, pair))
            names[w.witness[0] if w.witness else "ok"] += 1
    assert names["co-leibniz"]


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
        omega = mat_inverse(r.coeff, p)
        if omega is None:
            continue
        w = same(cyclic_form_check(a, r), oracles.cyclic_form_check(a, r))
        seen[w.holds] += 1
        # the cyclic test of pre_from_symplectic, on the form and on its inverse
        for g in (omega, r.coeff):
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
            rep = pre_rep(PreAdmPoisson.raw(*prepoisson_to_pre_raw(dot, ast)))
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
        d = dual_rep(adjoint_rep(a), check=False)
        big = semidirect_raw(a.star, d.l, d.r)
        gram = standard_form(n, p).gram
        cases = [(big, gram, True), (perturb(big, rng), gram, None),
                 (big, perturb_family([gram], rng, p)[0], None),
                 (big, matrix(rng, 2 * n, 2 * n, p), None)]
        for m, g, expect in cases:
            a2, form = AdmPoissonAlgebra.raw(m), BilinearForm(g, p)
            w = same(check_invariant_form(a2, form), oracles.check_invariant_form(a2, form))
            assert w.holds or not expect
            names[w.witness[1] if w.witness else "ok"] += 1
            for flags in ((True, False), (False, True)):
                same(check_invariant_form(a2, form, *flags),
                     oracles.check_invariant_form(a2, form, *flags))
    assert names["ok"] and len(names) > 4


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
        assert dtype_of({"c": m.c}, p, [ADM_POISSON.residual]) == want
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
        assert dtype_of({"b": b.c, "o": o.c}, p, sides) == want
        verdicts.append(same(check_poisson(b, o), oracles.check_poisson(b, o)).holds)
    assert verdicts[5] and not verdicts[6] and verdicts[7] and not verdicts[8]

    # a Yang-Baxter operator, of degree 3, on a random r
    lam = coprime_scale(largest_int64_maxabs([YBE_OPERATORS["P"]], n, p), den, upward)
    m = scaled(n, circ, lam, den, p)
    r = RTensor([[Scalar(lam * rng.choice([0, 1]), den, p) for _ in range(n)]
                 for _ in range(n)], p)
    assert dtype_of({"a": r.coeff, "b": r.coeff, "m": m.c}, p,
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
        ops = {name: np.full((n,) * rank, Scalar(lam, den), dtype=object).tolist()
               for name, rank in terms.ranks.items()}
        peak = terms.weight * lam ** degree * n ** terms.summed
        assert INT64_MAX // 2 < peak
        assert dtype_of(ops, 0, [terms]) == want
        got = np.array(evaluate_scalars(terms, ops, 0), dtype=object)
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
    assert dtype_of({"c": star.c}, 0, [ADM_POISSON.residual]) == object
    same(check_adm_poisson(star), oracles.check_adm_poisson(star))
    dense = MulTensor(n, 0, [[[big() for _ in range(n)] for _ in range(n)]
                             for _ in range(n)])
    assert not same(check_adm_poisson(dense), oracles.check_adm_poisson(dense)).holds
    br, circ_t = polarize_raw(dense)
    assert not same(check_poisson(br, circ_t), oracles.check_poisson(br, circ_t)).holds
