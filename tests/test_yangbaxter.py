import random

import pytest

from admpoisson.tensors import MulTensor
from admpoisson.algebras import (AdmPoissonAlgebra, PoissonAlgebra,
                                 polarize)
from admpoisson.yangbaxter import (RTensor, ybe_operator, check_ybe,
                                   coboundary_alpha,
                                   check_coboundary_conditions,
                                   operator_form_check, cyclic_form_check,
                                   coboundary_correspondence)
from admpoisson.bialgebras import check_adm_bialgebra

from oracles import (column, comul_add, decode_mul, left_mult_basis, mat_add,
                     mat_inverse, mat_is_zero, mat_mul, mat_sub, r_add,
                     rand_mat, rand_mul, right_mult_basis, slot_product_oracle, t3_add,
                     t3_sub, transpose, iter_r_tensors, nested)
from test_algebras import solvable_lie_dim2, comm_assoc_dim2


def rand_r(rng, n, p=0, skew=False):
    m = rand_mat(rng, n, n, p)
    r = RTensor(m, p)
    return r.skew_part() if skew else r


def test_sharp_convention():
    # r#(f_i) = sum_j r[i][j] e_j: column i of the sharp matrix, the
    # coefficients of tau(r), is row i of r
    r = RTensor.from_entries(2, {(0, 1): 3, (1, 0): -2})
    sharp = r.tau().coeff
    assert column(sharp, 0) == [0, 3]
    assert column(sharp, 1) == [-2, 0]
    assert sharp == transpose(r.coeff)


def test_rtensor_parts_and_tau():
    rng = random.Random(50)
    r = rand_r(rng, 3)
    assert r_add(r.sym_part(), r.skew_part()) == r
    assert r.skew_part().is_skew()
    assert r.sym_part().is_symmetric()
    assert r.tau().tau() == r
    assert r.tau() == RTensor(transpose(nested(r)), 0)


def test_ybe_operator_matches_oracle():
    rng = random.Random(51)
    for p in (0, 5):
        for _ in range(8):
            m = rand_mul(rng, 2, p)
            r = rand_r(rng, 2, p)
            rm = nested(r)
            o = lambda pat: slot_product_oracle(rm, rm, m, pat)
            assert ybe_operator(m, r, "P") == \
                t3_sub(t3_sub(o("23.12"), o("13.23")), o("12.13"))
            assert ybe_operator(m, r, "Q") == \
                t3_sub(t3_sub(o("12.23"), o("23.13")), o("13.12"))
            assert ybe_operator(m, r, "C") == \
                t3_add(t3_add(o("23.12"), o("23.13")), o("13.12"))


def test_p_equals_a_plus_c_rational():
    rng = random.Random(52)
    for _ in range(50):
        star = rand_mul(rng, 2)
        br, circ = polarize(star)
        r = rand_r(rng, 2)
        P = ybe_operator(star, r, "P")
        Q = ybe_operator(star, r, "Q")
        A = ybe_operator(circ, r, "A")
        C = ybe_operator(br, r, "C")
        assert P == t3_add(A, C)
        assert Q == t3_sub(A, C)


def test_zero_r_solves_everything():
    a = AdmPoissonAlgebra(solvable_lie_dim2())
    r = RTensor.from_entries(2, {})
    assert check_ybe(a, r, "adm_pybe").holds
    br, circ = polarize(a.star)
    pa = PoissonAlgebra.raw(br, circ)
    for kind in ("cybe", "aybe", "pybe"):
        assert check_ybe(pa, r, kind).holds


def test_adm_pybe_iff_pybe_skew_samples(catalog_gf5):
    rng = random.Random(53)
    for idx in rng.sample(catalog_gf5, 30):
        star = decode_mul(idx, 2, 5)
        a = AdmPoissonAlgebra.raw(star)
        br, circ = polarize(star)
        pa = PoissonAlgebra.raw(br, circ)
        for r in iter_r_tensors(2, 5, skew=True):
            assert check_ybe(a, r, "adm_pybe").holds == \
                check_ybe(pa, r, "pybe").holds


def test_coboundary_alpha_linear_in_r():
    rng = random.Random(54)
    a = AdmPoissonAlgebra(comm_assoc_dim2())
    r1 = rand_r(rng, 2)
    r2 = rand_r(rng, 2)
    c1 = coboundary_alpha(a, r1)
    c2 = coboundary_alpha(a, r2)
    both = coboundary_alpha(a, r_add(r1, r2))
    assert both == comul_add(c1, c2)
    assert coboundary_alpha(a, RTensor.from_entries(2, {})).is_zero()


def test_coboundary_bialgebra_iff_eqv_and_cosp(catalog_gf5):
    rng = random.Random(55)
    checked = agree_true = 0
    idxs = rng.sample(catalog_gf5, 25)
    for idx in idxs:
        star = decode_mul(idx, 2, 5)
        a = AdmPoissonAlgebra.raw(star)
        r = rand_r(rng, 2, 5)
        bial = check_adm_bialgebra(a, coboundary_alpha(a, r)).holds
        eqvs = all(check_coboundary_conditions(a, r, w).holds
                   for w in ("eqv1", "eqv2", "eqv3", "cosp"))
        assert bial == eqvs
        checked += 1
        agree_true += bial
    # skew solutions of the Yang-Baxter equation always qualify
    star = decode_mul(idxs[0], 2, 5)
    a = AdmPoissonAlgebra.raw(star)
    for r in iter_r_tensors(2, 5, skew=True):
        if check_ybe(a, r, "adm_pybe").holds:
            assert check_adm_bialgebra(a, coboundary_alpha(a, r)).holds
            break


def test_con1_implies_p_iff_q(catalog_muls):
    rng = random.Random(56)
    for star in rng.sample(catalog_muls, 15):
        a = AdmPoissonAlgebra.raw(star)
        for r in iter_r_tensors(2, 5, skew=False):
            if not check_coboundary_conditions(a, r, "con1").holds:
                continue
            assert ybe_operator(star, r, "P").is_zero() == \
                ybe_operator(star, r, "Q").is_zero()


def test_operator_form_requires_skew():
    a = AdmPoissonAlgebra(solvable_lie_dim2())
    with pytest.raises(ValueError):
        operator_form_check(a, RTensor.from_entries(2, {(0, 0): 1}))
    with pytest.raises(ValueError):
        cyclic_form_check(a, RTensor.from_entries(2, {(0, 0): 1}))
    with pytest.raises(ValueError):
        cyclic_form_check(a, RTensor.from_entries(2, {}))  # degenerate


def test_operator_and_cyclic_forms_match_pybe(catalog_gf5):
    rng = random.Random(57)
    for idx in rng.sample(catalog_gf5, 40):
        star = decode_mul(idx, 2, 5)
        a = AdmPoissonAlgebra.raw(star)
        for r in iter_r_tensors(2, 5, skew=True):
            pybe = check_ybe(a, r, "adm_pybe").holds
            assert operator_form_check(a, r).holds == pybe
            if mat_inverse(nested(r), 5) is not None:
                assert cyclic_form_check(a, r).holds == pybe


def test_coboundary_correspondence_solution_satisfies_systems():
    rng = random.Random(58)
    hits = 0
    while hits < 5:
        star = rand_mul(rng, 2, 5)
        a = AdmPoissonAlgebra.raw(star)
        r = rand_r(rng, 2, 5)
        ok, r1 = coboundary_correspondence(a, r)
        if not ok:
            continue
        hits += 1
        S = mat_add(nested(r), transpose(nested(r)))
        Y = nested(r1)
        for i in range(2):
            L = left_mult_basis(star, i)
            R = right_mult_basis(star, i)
            SmY = mat_sub(S, Y)
            SpY = mat_add(S, Y)
            # (id (x) L) - (R (x) id) applied to S - r1
            res1 = mat_sub(mat_mul(SmY, transpose(L)), mat_mul(R, SmY))
            # (L (x) id) - (id (x) R) applied to S + r1
            res2 = mat_sub(mat_mul(L, SpY), mat_mul(SpY, transpose(R)))
            assert mat_is_zero(res1) and mat_is_zero(res2)
