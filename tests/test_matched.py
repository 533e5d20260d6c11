import random

import pytest

from admpoisson.tensors import MulTensor
from admpoisson.algebras import AdmPoissonAlgebra, check_adm_poisson
from admpoisson.matched import (MatchedPairData, check_matched_pair,
                                bowtie, BilinearForm,
                                check_invariant_form, standard_form,
                                manin_pair_data, manin_double)
from admpoisson.bialgebras import (comult_of_mul, dual_structure,
                                   check_adm_bialgebra)

from oracles import (decode_mul, left_mult_basis, mat_eq, mat_zero, nested, one, product, rand_mat,
                     right_mult_basis, transpose, zero)
from test_algebras import idempotent_dim1, solvable_lie_dim2, comm_assoc_dim2


def _zero_actions_pair(s1, s2):
    p1 = AdmPoissonAlgebra(s1)
    p2 = AdmPoissonAlgebra(s2)
    z12 = [mat_zero(s2.n, s2.n, s1.p) for _ in range(s1.n)]
    z21 = [mat_zero(s1.n, s1.n, s1.p) for _ in range(s2.n)]
    return MatchedPairData(p1, p2, z12, z12, z21, z21)


def test_zero_actions_give_direct_sum():
    mp = _zero_actions_pair(idempotent_dim1(), solvable_lie_dim2())
    assert check_matched_pair(mp).holds
    big = AdmPoissonAlgebra(bowtie(mp))
    assert big.n == 3
    # blocks multiply independently
    assert product(big.star, 0, 0) == [one(), zero(), zero()]
    assert all(c.is_zero() for c in product(big.star, 0, 1))


def test_matched_iff_bowtie_random_dim11():
    rng = random.Random(30)
    p = 5
    algs = [MulTensor.from_entries(1, {(0, 0, 0): d}, p) for d in range(p)]
    seen_good = seen_bad = 0
    for _ in range(120):
        s1 = rng.choice(algs)
        s2 = rng.choice(algs)
        l1 = [rand_mat(rng, 1, 1, p)]
        r1 = [rand_mat(rng, 1, 1, p)]
        l2 = [rand_mat(rng, 1, 1, p)]
        r2 = [rand_mat(rng, 1, 1, p)]
        mp = MatchedPairData(AdmPoissonAlgebra.raw(s1),
                             AdmPoissonAlgebra.raw(s2), l1, r1, l2, r2)
        matched = check_matched_pair(mp).holds
        big_ok = check_adm_poisson(bowtie(mp)).holds
        assert matched == big_ok
        seen_good += matched
        seen_bad += not matched
    assert seen_good >= 1 and seen_bad >= 1


def test_swapped_pair_still_matched():
    mp = _zero_actions_pair(comm_assoc_dim2(5), idempotent_dim1(5))
    assert check_matched_pair(mp.swapped()).holds


def test_invariant_form_known_example():
    # the trace-like form on e1 (unit direction) is invariant for
    # the commutative associative example
    a = AdmPoissonAlgebra(comm_assoc_dim2())
    gram = [[one(), zero()], [zero(), zero()]]
    # B(x*y, z) = B(x, y*z) fails here: B(e2*e2, e1)=0 but pick a real one
    form = BilinearForm(gram, 0)
    report = check_invariant_form(a, form)
    # e1 e2 = e2: B(e1*e2, e1) = B(e2, e1) = 0 = B(e1, e2*e1) -> invariant
    assert report.holds


def test_invariant_form_failure_witness():
    a = AdmPoissonAlgebra(idempotent_dim1())
    # scale-breaking on a two-dim extension
    big = AdmPoissonAlgebra(comm_assoc_dim2())
    gram = [[zero(), one()], [one(), one()]]
    report = check_invariant_form(big, BilinearForm(gram, 0))
    if not report.holds:
        assert report.witness[0] == "invariance"


def test_standard_form_properties():
    B = standard_form(2, 5)
    assert B.is_symmetric()
    assert B.is_nondegenerate()
    gram = B.gram.tolist()
    assert gram[0][2] == 1 and gram[2][0] == 1 and gram[0][1] == 0


def test_manin_double_zero_dual():
    # the zero comultiplication dualizes to the zero algebra; the double is
    # the semidirect-type structure and the canonical pairing is invariant
    a = AdmPoissonAlgebra(solvable_lie_dim2())
    zero_dual = AdmPoissonAlgebra(MulTensor(2))
    double, report = manin_double(a, zero_dual)
    assert report.holds
    assert check_adm_poisson(double.star).holds
    assert check_invariant_form(double, standard_form(2)).holds
    # both factors sit inside as subalgebras
    for i in range(2):
        for j in range(2):
            assert product(double.star, i, j)[:2] == product(a.star, i, j)
            assert all(c.is_zero() for c in product(double.star, i, j)[2:])


def test_manin_double_matches_bialgebra_verdict(catalog_gf5):
    # cross-route check on a handful of (algebra, dual-algebra) pairs
    rng = random.Random(31)
    idxs = rng.sample(catalog_gf5, 12)
    pairs = [(idxs[i], idxs[-1 - i]) for i in range(6)]
    for ia, ib in pairs:
        a = AdmPoissonAlgebra.raw(decode_mul(ia, 2, 5))
        d = decode_mul(ib, 2, 5)
        alpha = comult_of_mul(d)
        assert dual_structure(alpha) == d
        bial = check_adm_bialgebra(a, alpha).holds
        double, report = manin_double(a, AdmPoissonAlgebra.raw(d))
        manin = (report.holds and
                 check_adm_poisson(double.star).holds and
                 check_invariant_form(double, standard_form(2, 5)).holds)
        assert bial == manin


def test_manin_pair_data_uses_transposed_adjoint():
    a = AdmPoissonAlgebra(solvable_lie_dim2())
    mp = manin_pair_data(a, AdmPoissonAlgebra(MulTensor(2)))
    assert mat_eq(nested(mp.l1)[0], transpose(right_mult_basis(a.star, 0)))
    assert mat_eq(nested(mp.r1)[1], transpose(left_mult_basis(a.star, 1)))
