"""Acceptance suite: one test per contract item, one visible verdict line each.

Every test prints 'PASS <label>' (or the assertion fails first).  The labels
summarize what was swept; all arithmetic is exact and all randomness is
seeded, so the suite is fully deterministic.
"""

import random
import re
from pathlib import Path

from admpoisson.tensors import MulTensor, identity, solve
from admpoisson.algebras import (ADM_POISSON, AdmPoissonAlgebra,
                                 PoissonAlgebra, check_adm_poisson, check_poisson,
                                 polarize, depolarize)
from admpoisson.representations import (Representation, check_representation,
                                        adjoint_rep, dual_rep, semidirect)
from admpoisson.matched import (MatchedPairData, check_matched_pair,
                                bowtie, manin_pair_data, standard_form,
                                check_invariant_form)
from admpoisson.bialgebras import (Comultiplication, comult_of_mul,
                                   dual_structure, check_adm_bialgebra,
                                   split_comultiplication,
                                   merge_comultiplication)
from admpoisson.yangbaxter import (RTensor, ybe_operator, check_ybe,
                                   coboundary_alpha,
                                   check_coboundary_conditions,
                                   operator_form_check, cyclic_form_check)
from admpoisson.ooperators import (OOperatorCandidate, check_o_operator,
                                   solution_from_o_operator, PreAdmPoisson,
                                   check_pre_adm_poisson, canonical_solution,
                                   pre_rep, subadjacent)
from admpoisson.search import SearchSpec, search
from admpoisson.cli import run_command
from admpoisson.fileformat import parse_file, print_file

from oracles import (Scalar, encode_mul, decode_mul, t3_add, t3_sub, rand_mul, rand_mat,
                     rand_vec, dim2_gf5_tensor_array, poisson_mask_dim2_gf5,
                     _bialgebra_residuals, iter_r_tensors, iter_maps)

P = 5
CORPUS = Path(__file__).parent / "corpus"


def report(capsys, line):
    with capsys.disabled():
        print(line)


def dim1_algebras():
    return [MulTensor.from_entries(1, {(0, 0, 0): c}, P) for c in range(P)]


# 1 -----------------------------------------------------------------------

def test_polarization_equivalence(capsys, catalog_gf5):
    # dim 1 exhaustive, exact both routes
    for m in dim1_algebras():
        assert check_adm_poisson(m).holds == \
            check_poisson(*polarize(m)).holds
    # dim 2 exhaustive via the two independent vectorized routes
    import numpy as np
    adm = np.zeros(5 ** 8, dtype=bool)
    adm[catalog_gf5] = True             # the screened catalog
    poi = poisson_mask_dim2_gf5(dim2_gf5_tensor_array())
    assert (adm == poi).all(), "vectorized routes disagree"
    n_pass = int(adm.sum())
    # exact spot-check of both masks against the scalar checkers
    rng = random.Random(1001)
    sample = ([0, 1, 5 ** 8 - 1] + [int(i) for i in np.nonzero(adm)[0][:40]]
              + [rng.randrange(5 ** 8) for _ in range(80)])
    for idx in sample:
        m = decode_mul(idx, 2, 5)
        assert bool(adm[idx]) == check_adm_poisson(m).holds
        assert bool(poi[idx]) == check_poisson(*polarize(m)).holds
    # random rational dim-3 tensors, both exact routes
    rng = random.Random(1002)
    for _ in range(1000):
        m = rand_mul(rng, 3, 0)
        assert check_adm_poisson(m).holds == \
            check_poisson(*polarize(m)).holds
    report(capsys, f"PASS polarization-equivalence "
                   f"(dim1+dim2 exhaustive GF(5), {n_pass} algebras agree on "
                   f"both routes; 1000 random rational dim-3)")


# 2 -----------------------------------------------------------------------

def test_semidirect_equivalence(capsys):
    total = agree_pos = 0
    for star in dim1_algebras():
        alg = AdmPoissonAlgebra.raw(star)
        for lv in range(P):
            for rv in range(P):
                l = [[[Scalar(lv, 1, P)]]]
                r = [[[Scalar(rv, 1, P)]]]
                rep_ok = check_representation(
                    Representation.raw(alg, l, r)).holds
                big_ok = check_adm_poisson(
                    semidirect(star, l, r)).holds
                assert rep_ok == big_ok
                total += 1
                agree_pos += rep_ok
    assert agree_pos >= 1
    report(capsys, f"PASS semidirect-equivalence ((1,1) exhaustive GF(5), "
                   f"{total} cases, {agree_pos} valid)")


# 3 -----------------------------------------------------------------------

def test_dual_of_adjoint_on_catalog(capsys, catalog_muls):
    for star in catalog_muls:
        alg = AdmPoissonAlgebra.raw(star)
        rep = adjoint_rep(alg)
        assert check_representation(rep).holds
        d = dual_rep(rep)
        assert check_representation(d).holds
        assert dual_rep(d) == rep  # involution, exact
    report(capsys, f"PASS dual-representation "
                   f"({len(catalog_muls)} catalog algebras, adjoint and dual of "
                   f"adjoint valid, double dual exact)")


# 4 -----------------------------------------------------------------------

def test_matched_pair_iff_bowtie(capsys, catalog_gf5):
    catalog_set = set(catalog_gf5)
    algs = [AdmPoissonAlgebra.raw(m) for m in dim1_algebras()]
    scalars = [[[Scalar(v, 1, P)]] for v in range(P)]
    # rep validity per (algebra index, l value, r value), precomputed once
    valid = {}
    for ai, alg in enumerate(algs):
        for lv in range(P):
            for rv in range(P):
                valid[(ai, lv, rv)] = check_representation(
                    Representation.raw(alg, [scalars[lv]],
                                       [scalars[rv]])).holds
    rng = random.Random(1004)
    total = matched_count = full_checked = 0
    for a1 in range(P):
        for a2 in range(P):
            for l1 in range(P):
                for r1 in range(P):
                    rep1_ok = valid[(a1, l1, r1)]
                    for l2 in range(P):
                        for r2 in range(P):
                            total += 1
                            mp = MatchedPairData(
                                algs[a1], algs[a2],
                                [scalars[l1]], [scalars[r1]],
                                [scalars[l2]], [scalars[r2]])
                            big_ok = encode_mul(bowtie(mp)) in catalog_set
                            if rep1_ok and valid[(a2, l2, r2)]:
                                matched = check_matched_pair(mp).holds
                                full_checked += 1
                            elif rng.random() < 0.01:
                                # spot-confirm the full check also fails here
                                matched = check_matched_pair(mp).holds
                                assert not matched
                            else:
                                matched = False
                            assert matched == big_ok
                            matched_count += matched
    assert matched_count >= 1
    report(capsys, f"PASS matched-iff-bowtie ((1,1) exhaustive GF(5), "
                   f"{total} cases, {matched_count} matched, "
                   f"{full_checked} full identity sweeps)")


# helpers for 5/6 ----------------------------------------------------------

def _bialgebra_samples(catalog_gf5, count=200):
    """(algebra, dual-algebra) pairs; alpha = relabeled dual so its dual
    structure is an algebra by construction.  Includes pairs with the zero
    dual, which are always bialgebras, so both verdicts occur."""
    rng = random.Random(1005)
    pairs = []
    for k in range(count):
        ia = rng.choice(catalog_gf5)
        ib = 0 if k % 8 == 0 else rng.choice(catalog_gf5)
        pairs.append((decode_mul(ia, 2, 5), decode_mul(ib, 2, 5)))
    return pairs


# 5 -----------------------------------------------------------------------

def test_three_way_bialgebra_equivalence(capsys, catalog_gf5):
    pairs = _bialgebra_samples(catalog_gf5)
    B = standard_form(2, P)
    pos = 0
    for a_raw, d_raw in pairs:
        a = AdmPoissonAlgebra.raw(a_raw)
        d = AdmPoissonAlgebra.raw(d_raw)
        alpha = comult_of_mul(d_raw)
        assert dual_structure(alpha) == d_raw
        v1 = check_adm_bialgebra(a, alpha).holds
        mp = manin_pair_data(a, d)
        v2 = check_matched_pair(mp).holds
        double = bowtie(mp)
        v3 = (check_adm_poisson(double).holds and
              check_invariant_form(AdmPoissonAlgebra.raw(double), B).holds)
        assert v1 == v2 == v3
        pos += v1
    assert pos >= 1 and pos < len(pairs)
    report(capsys, f"PASS three-way-bialgebra ({len(pairs)} sampled pairs, "
                   f"{pos} bialgebras, all three verdicts identical)")


# 6 -----------------------------------------------------------------------

def test_adm_iff_poisson_bialgebra(capsys, catalog_gf5):
    from admpoisson.bialgebras import check_poisson_bialgebra
    pairs = _bialgebra_samples(catalog_gf5)
    pos = 0
    for a_raw, d_raw in pairs:
        a = AdmPoissonAlgebra.raw(a_raw)
        alpha = comult_of_mul(d_raw)
        lhs = check_adm_bialgebra(a, alpha).holds
        br, circ = polarize(a_raw)
        rhs = check_poisson_bialgebra(PoissonAlgebra.raw(br, circ),
                                      split_comultiplication(alpha)).holds
        assert lhs == rhs
        pos += lhs
    assert pos >= 1
    report(capsys, f"PASS adm-iff-poisson-bialgebra ({len(pairs)} sampled "
                   f"pairs, {pos} positive, zero disagreements)")


# 7 -----------------------------------------------------------------------

def test_coboundary_condition_equivalences(capsys, catalog_gf5):
    rng = random.Random(1007)
    n_samples = 500
    pos = 0
    for _ in range(n_samples):
        star = decode_mul(rng.choice(catalog_gf5), 2, 5)
        a = AdmPoissonAlgebra.raw(star)
        r = RTensor(rand_mat(rng, 2, 2, P), P)
        if rng.random() < 0.3:
            r = r.skew_part()       # enrich with known-good candidates
        alpha = coboundary_alpha(a, r)
        # per-identity: the three pair-condition residuals against eqv1..3
        defbi = [True, True, True]
        for i in range(2):
            for j in range(2):
                E, F, G = _bialgebra_residuals(star, alpha, i, j)
                for t, res in enumerate((E, F, G)):
                    if any(not c.is_zero() for row in res for c in row):
                        defbi[t] = False
        for t, w in enumerate(("eqv1", "eqv2", "eqv3")):
            assert defbi[t] == check_coboundary_conditions(a, r, w).holds
        # whole-verdict: bialgebra iff eqv1..3 and the coalgebra condition
        bial = check_adm_bialgebra(a, alpha).holds
        eqv_all = (all(defbi) and
                   check_coboundary_conditions(a, r, "cosp").holds)
        assert bial == eqv_all
        pos += bial
    assert pos >= 1
    report(capsys, f"PASS coboundary-equivalences ({n_samples} sampled "
                   f"(algebra, r), {pos} bialgebras, per-identity and "
                   f"whole verdicts agree)")


# 8 -----------------------------------------------------------------------

def test_p_iff_q_and_adm_pybe_iff_pybe(capsys, catalog_muls):
    skew_rs = list(iter_r_tensors(2, P, skew=True))
    total = sols = 0
    for star in catalog_muls:
        a = AdmPoissonAlgebra.raw(star)
        br, circ = polarize(star)
        pa = PoissonAlgebra.raw(br, circ)
        for r in skew_rs:
            # skew r kills the symmetric part, so con1 holds throughout
            assert check_coboundary_conditions(a, r, "con1").holds
            p_zero = ybe_operator(star, r, "P").is_zero()
            q_zero = ybe_operator(star, r, "Q").is_zero()
            assert p_zero == q_zero
            pybe = check_ybe(pa, r, "pybe").holds
            assert p_zero == pybe
            total += 1
            sols += p_zero
    report(capsys, f"PASS p-iff-q-and-pybe ({total} (algebra, skew r) cases "
                   f"exhaustive, {sols} solutions, zero disagreements)")


# 9 -----------------------------------------------------------------------

def test_operator_and_cyclic_forms(capsys, catalog_muls):
    skew_rs = list(iter_r_tensors(2, P, skew=True))
    total = inv_total = 0
    for star in catalog_muls:
        a = AdmPoissonAlgebra.raw(star)
        for r in skew_rs:
            pybe = check_ybe(a, r, "adm_pybe").holds
            assert operator_form_check(a, r).holds == pybe
            total += 1
            if solve(r.coeff, identity(r.n, P), P) is not None:
                assert cyclic_form_check(a, r).holds == pybe
                inv_total += 1
    assert inv_total >= 1
    report(capsys, f"PASS operator-and-cyclic-forms ({total} skew cases, "
                   f"{inv_total} invertible, verdicts match adm-pybe)")


# 10 ----------------------------------------------------------------------

def test_o_operator_iff_ybe_solution(capsys, catalog_gf5):
    # (1,1) exhaustive
    total = pos = 0
    for star in dim1_algebras():
        alg = AdmPoissonAlgebra.raw(star)
        for lv in range(P):
            for rv in range(P):
                l = [[[Scalar(lv, 1, P)]]]
                r = [[[Scalar(rv, 1, P)]]]
                rep = Representation.raw(alg, l, r)
                if not check_representation(rep).holds:
                    continue
                for theta in iter_maps(1, 1, P):
                    cand = OOperatorCandidate(alg, rep, theta)
                    oo = check_o_operator(cand).holds
                    big, rt = solution_from_o_operator(cand)
                    assert oo == ybe_operator(big.star, rt, "P").is_zero()
                    total += 1
                    pos += oo
    # sampled at (2,1)
    rng = random.Random(1010)
    sampled = 0
    while sampled < 200:
        star = decode_mul(rng.choice(catalog_gf5), 2, 5)
        alg = AdmPoissonAlgebra.raw(star)
        l = [rand_mat(rng, 1, 1, P) for _ in range(2)]
        r = [rand_mat(rng, 1, 1, P) for _ in range(2)]
        rep = Representation.raw(alg, l, r)
        if not check_representation(rep).holds:
            continue
        theta = rand_mat(rng, 2, 1, P)
        cand = OOperatorCandidate(alg, rep, theta)
        oo = check_o_operator(cand).holds
        big, rt = solution_from_o_operator(cand)
        assert oo == ybe_operator(big.star, rt, "P").is_zero()
        sampled += 1
        pos += oo
    assert pos >= 1
    report(capsys, f"PASS o-operator-iff-ybe ({total} exhaustive (1,1) + "
                   f"{sampled} sampled (2,1), {pos} positives, "
                   f"zero disagreements)")


# 11 ----------------------------------------------------------------------

def test_pre_structure_pipeline(capsys):
    pres = []
    for af in search(SearchSpec("pre_adm_poisson", 1, p=P)):
        pres.append(PreAdmPoisson.raw(af.ops["succ"], af.ops["prec"]))
    for af in search(SearchSpec("pre_adm_poisson", 2, p=P, count=50,
                                nonzero_only=True)):
        pres.append(PreAdmPoisson.raw(af.ops["succ"], af.ops["prec"]))
    assert len(pres) >= 50
    for pre in pres:
        assert check_pre_adm_poisson(pre).holds
        assert check_representation(pre_rep(pre)).holds
        AdmPoissonAlgebra(subadjacent(pre.succ, pre.prec))     # a checked build
        big, r = canonical_solution(pre)
        assert check_ybe(big, r, "adm_pybe").holds
        alpha = coboundary_alpha(big, r)
        assert check_adm_bialgebra(big, alpha).holds
    report(capsys, f"PASS pre-structure-pipeline ({len(pres)} instances, "
                   f"module structure and subadjacent algebra valid, canonical "
                   f"solution solves adm-pybe and its coboundary is a bialgebra, "
                   f"100%)")


# 12 ----------------------------------------------------------------------

def test_rational_linear_identities(capsys):
    rng = random.Random(1012)
    for _ in range(1000):
        star = rand_mul(rng, 2, 0)
        r = RTensor(rand_mat(rng, 2, 2, 0), 0)
        br, circ = polarize(star)
        A = ybe_operator(circ, r, "A")
        C = ybe_operator(br, r, "C")
        assert ybe_operator(star, r, "P") == t3_add(A, C)
        assert ybe_operator(star, r, "Q") == t3_sub(A, C)
    for _ in range(1000):
        m = rand_mul(rng, 3, 0)
        br, circ = polarize(m)
        assert depolarize(br, circ) == m
        c = Comultiplication(3, 0, [[rand_vec(rng, 3, 0) for _ in range(3)]
                                    for _ in range(3)])
        assert merge_comultiplication(split_comultiplication(c)) == c
    for _ in range(1000):
        star = rand_mul(rng, 2, 0)
        alg = AdmPoissonAlgebra.raw(star)
        l = [rand_mat(rng, 2, 2, 0) for _ in range(2)]
        r = [rand_mat(rng, 2, 2, 0) for _ in range(2)]
        rep = Representation.raw(alg, l, r)
        assert dual_rep(dual_rep(rep)) == rep
    report(capsys, "PASS rational-linear-identities (1000 instances each: "
                   "P=A+C and Q=A-C, split/merge, polarize/depolarize, "
                   "double dual)")


# 13 ----------------------------------------------------------------------

def test_cli_contract_on_corpus(capsys):
    files = sorted(CORPUS.glob("*.alg"))
    assert len(files) == 13
    # parse/print roundtrip on all syntactically valid corpus files
    for f in files:
        if f.name == "badformat.alg":
            continue
        af = parse_file(f.read_text())
        assert parse_file(print_file(af)) == af
        assert print_file(parse_file(print_file(af))) == print_file(af)
    # exit codes: holds -> 0, fails -> 1, unreadable -> 2
    cases = [(["check", "adm-poisson", str(CORPUS / "good_adm.alg")], 0),
             (["check", "adm-poisson", str(CORPUS / "bad_adm.alg")], 1),
             (["check", "adm-poisson", str(CORPUS / "badformat.alg")], 2),
             (["check", "pre-adm", str(CORPUS / "pre.alg")], 0),
             (["check", "adm-pybe", str(CORPUS / "ybe.alg")], 0),
             (["check", "matched-pair", str(CORPUS / "matched.alg")], 0)]
    for argv, want in cases:
        assert run_command(argv) == want
        capsys.readouterr()
    # witness format on the failing file
    assert run_command(["check", "adm-poisson",
                        str(CORPUS / "bad_adm.alg")]) == 1
    out = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(
        r"FAIL [\w-]+ at \(\d+(,\d+)*\): lhs=\[.*\] rhs=\[.*\]", out), out
    report(capsys, "PASS cli-contract (13-file corpus: roundtrips, "
                   "exit codes 0/1/2, witness format)")
