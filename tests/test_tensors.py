import random

import pytest

from admpoisson.scalars import Scalar, zero, one, of
from admpoisson.tensors import (vec_zero, basis_vec, MulTensor,
                                Tensor3, mat_identity, mat_mul, mat_vec,
                                mat_inverse, solve_linear, transpose,
                                dual_endo_family, mat_eq, mat_is_zero,
                                apply_mul, left_mult,
                                right_mult, left_mult_basis, right_mult_basis,
                                mult_of_vec, tensor3_product, SLOT_PATTERNS,
                                column)

from oracles import (bv_mul, vb_mul, rand_mat, rand_mul, rand_vec,
                     slot_product_oracle, t3_slot_apply, t3_swap)


def test_mat_mul_and_vec_agree():
    rng = random.Random(1)
    for p in (0, 5):
        a = rand_mat(rng, 3, 3, p)
        b = rand_mat(rng, 3, 3, p)
        x = rand_vec(rng, 3, p)
        assert mat_vec(mat_mul(a, b), x) == mat_vec(a, mat_vec(b, x))


def test_mat_inverse_random():
    rng = random.Random(2)
    for p in (0, 5):
        found = 0
        while found < 5:
            a = rand_mat(rng, 3, 3, p)
            inv = mat_inverse(a, p)
            if inv is None:
                continue
            found += 1
            assert mat_eq(mat_mul(a, inv), mat_identity(3, p))
            assert mat_eq(mat_mul(inv, a), mat_identity(3, p))


def test_mat_inverse_singular():
    p = 0
    a = [[of(1), of(2)], [of(2), of(4)]]
    assert mat_inverse(a, p) is None


def test_solve_linear_consistent_and_not():
    a = [[of(1), of(2)], [of(3), of(4)]]
    b = [of(5), of(6)]
    x = solve_linear(a, b)
    assert mat_vec(a, x) == b
    # inconsistent: second row is twice the first but rhs is not
    a = [[of(1), of(2)], [of(2), of(4)]]
    assert solve_linear(a, [of(1), of(3)]) is None
    # underdetermined: particular solution still solves
    a = [[of(1), of(2)]]
    x = solve_linear(a, [of(3)])
    assert mat_vec(a, x) == [of(3)]


def test_dual_endo_family_is_transpose():
    rng = random.Random(3)
    fam = [rand_mat(rng, 2, 2, 5) for _ in range(3)]
    dual = dual_endo_family(fam)
    assert all(mat_eq(d, transpose(m)) for d, m in zip(dual, fam))
    # involution
    assert all(mat_eq(a, b) for a, b in zip(dual_endo_family(dual), fam))


def test_left_right_mult_match_apply_mul():
    rng = random.Random(4)
    for p in (0, 5):
        m = rand_mul(rng, 3, p)
        x = rand_vec(rng, 3, p)
        y = rand_vec(rng, 3, p)
        assert mat_vec(left_mult(m, x), y) == apply_mul(m, x, y)
        assert mat_vec(right_mult(m, x), y) == apply_mul(m, y, x)


def test_bv_vb_mul_match_apply_mul():
    rng = random.Random(5)
    m = rand_mul(rng, 3)
    y = rand_vec(rng, 3)
    for i in range(3):
        e = basis_vec(3, i)
        assert bv_mul(m, i, y) == apply_mul(m, e, y)
        assert vb_mul(m, y, i) == apply_mul(m, y, e)


def test_mult_of_vec_linear():
    rng = random.Random(6)
    m = rand_mul(rng, 2, 5)
    L = [left_mult_basis(m, i) for i in range(2)]
    x = rand_vec(rng, 2, 5)
    y = rand_vec(rng, 2, 5)
    assert mat_vec(mult_of_vec(L, x), y) == apply_mul(m, x, y)


def test_mul_tensor_op_add_scale():
    rng = random.Random(7)
    m = rand_mul(rng, 2)
    opp = m.op()
    for i in range(2):
        for j in range(2):
            assert opp.prod(i, j) == m.prod(j, i)
    assert m.op().op() == m
    assert m.add(m.op()).sub(m.op()) == m
    two = of(2)
    assert m.scale(two).sub(m) == m


def test_tensor3_swap_and_slot_apply():
    rng = random.Random(8)
    m = rand_mul(rng, 2, 5)
    t = Tensor3(2, 5, [[rand_vec(rng, 2, 5) for _ in range(2)]
                       for _ in range(2)])
    assert t3_swap(t3_swap(t, 0, 2), 0, 2) == t
    a = rand_mat(rng, 2, 2, 5)
    b = rand_mat(rng, 2, 2, 5)
    # slot applications on distinct slots commute
    assert t3_slot_apply(t3_slot_apply(t, 0, a), 2, b) == \
        t3_slot_apply(t3_slot_apply(t, 2, b), 0, a)
    # composition within one slot
    assert t3_slot_apply(t3_slot_apply(t, 1, a), 1, b) == \
        t3_slot_apply(t, 1, mat_mul(b, a))


@pytest.mark.parametrize("slots", SLOT_PATTERNS)
def test_tensor3_product_matches_formal_unit_oracle(slots):
    rng = random.Random(hash(slots) % 1000)
    for p in (0, 5):
        for _ in range(10):
            m = rand_mul(rng, 2, p)
            ra = rand_mat(rng, 2, 2, p)
            rb = rand_mat(rng, 2, 2, p)
            got = tensor3_product(ra, rb, m, slots)
            want = slot_product_oracle(ra, rb, m, slots)
            assert got == want, f"pattern {slots} disagrees with oracle"


def test_tensor3_product_rejects_unknown_pattern():
    m = MulTensor(2)
    z = [[zero(), zero()], [zero(), zero()]]
    with pytest.raises(ValueError):
        tensor3_product(z, z, m, "12.21")


def test_from_entries_and_first_nonzero():
    m = MulTensor.from_entries(2, {(0, 1, 0): 3, (1, 0, 1): Scalar(2, 1, 5)},
                               p=5)
    assert m.entry(0, 1, 0) == Scalar(3, 1, 5)
    assert m.prod(1, 0) == [zero(5), Scalar(2, 1, 5)]
    t = Tensor3(2, 5)
    assert t.first_nonzero() is None and t.is_zero()
