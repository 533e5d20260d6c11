import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import Scalar, nested, of
from admpoisson.fileformat import parse_file
from admpoisson.tensors import (Exact, MulTensor, ShapeError, Tensor3, Terms, evaluate,
                                identity, solve)
from admpoisson.algebras import AdmPoissonAlgebra, AxiomReport, check_adm_poisson
from admpoisson.representations import Representation, adjoint_families, dual_rep
from admpoisson.yangbaxter import SLOT_PATTERNS, RTensor, ybe_operator

import oracles
from oracles import (apply_mul, basis_vec, bv_mul, vb_mul, dual_endo_family, first_nonzero,
                     left_mult, left_mult_basis, mat_eq, mat_identity, mat_inverse, mat_mul,
                     mat_vec, mul_add, mul_op, mul_scale, mul_sub, mult_of_vec, product,
                     rand_mat, rand_mul, rand_vec, right_mult, right_mult_basis,
                     slot_product_oracle, solve_linear, t3_slot_apply, t3_swap, transpose)


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
            inv = nested(solve(a, identity(3, p), p))
            assert inv == mat_inverse(a, p)
            if inv is None:
                continue
            found += 1
            assert mat_eq(mat_mul(a, inv), mat_identity(3, p))
            assert mat_eq(mat_mul(inv, a), mat_identity(3, p))


def test_mat_inverse_singular():
    p = 0
    a = [[of(1), of(2)], [of(2), of(4)]]
    assert solve(a, identity(2, p), p) is None
    assert mat_inverse(a, p) is None


def column_of(b):
    return [[x] for x in b]


def test_solve_linear_consistent_and_not():
    a = [[of(1), of(2)], [of(3), of(4)]]
    b = [of(5), of(6)]
    x = nested(solve(a, column_of(b)))
    assert mat_vec(a, [row[0] for row in x]) == b
    # inconsistent: second row is twice the first but rhs is not
    a = [[of(1), of(2)], [of(2), of(4)]]
    assert solve(a, column_of([of(1), of(3)])) is None
    # underdetermined: the free variable is zero
    a = [[of(1), of(2)]]
    assert nested(solve(a, column_of([of(3)]))) == [[of(3)], [of(0)]]


def scalar(rng, p, digits=1):
    if p:
        return Scalar(rng.randrange(p), 1, p)
    if digits > 1:
        return Scalar(rng.randint(-10 ** digits, 10 ** digits), rng.randint(1, 10 ** digits))
    return Scalar(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7]))


def systems(rng, n, p, digits=1):
    """(a, b) pairs at dim n: square random (mostly invertible), square
    singular and rectangular low-rank coefficient matrices, each with a
    consistent right-hand side a x and a random one; over Q the entries
    have up to `digits` digits above and below the fraction bar."""
    out = []
    for rows, cols, rank in ((n, n, n), (n, n, n - 1), (n + 1, n, n - 1),
                             (n, n + 2, max(n - 2, 0))):
        left = [[scalar(rng, p, digits) for _ in range(rank)] for _ in range(rows)]
        right = [[scalar(rng, p, digits) for _ in range(cols)] for _ in range(rank)]
        if rank == rows == cols:
            a = [[scalar(rng, p, digits) for _ in range(cols)] for _ in range(rows)]
        elif rank:
            a = mat_mul(left, right)
        else:
            a = [[Scalar(0, 1, p)] * cols for _ in range(rows)]
        x = [scalar(rng, p, digits) for _ in range(cols)]
        out.append((a, mat_vec(a, x)))
        out.append((a, [scalar(rng, p, digits) for _ in range(rows)]))
    return out


@pytest.mark.parametrize("p", [0, 5, 2 ** 31 - 1])
def test_solve_matches_the_old_elimination(p):
    """solve gives the particular solution of the old solve_linear (free
    variables zero) and None where it gave None; solve(a, I) is the old
    mat_inverse, None exactly on the singular matrices."""
    rng = random.Random(20 + p % 97)
    seen = {"inverse": 0, "singular": 0, "consistent": 0, "inconsistent": 0}
    for n in range(1, 7):
        # over Q also 20-digit rationals, whose rank-deficient systems make
        # the fraction-free rows grow before their gcd is divided out
        for digits in [1] * 3 + ([20] * 3 if p == 0 else []):
            for a, b in systems(rng, n, p, digits):
                old = solve_linear(a, b, p)
                new = solve(a, column_of(b), p)
                assert (new is None) == (old is None)
                if old is not None:
                    assert isinstance(new, Exact) and new.num.shape == (len(a[0]), 1)
                    assert [row[0] for row in nested(new)] == old
                    assert mat_vec(a, old) == b
                seen["consistent" if old is not None else "inconsistent"] += 1
                if len(a) == len(a[0]):
                    inv = solve(a, identity(n, p), p)
                    assert nested(inv) == mat_inverse(a, p)
                    seen["inverse" if inv is not None else "singular"] += 1
    assert all(seen.values()), seen


def test_dual_endo_family_is_transpose():
    rng = random.Random(3)
    fam = [rand_mat(rng, 2, 2, 5) for _ in range(3)]
    dual = dual_endo_family(fam)
    assert all(mat_eq(d, transpose(m)) for d, m in zip(dual, fam))
    # involution
    assert all(mat_eq(a, b) for a, b in zip(dual_endo_family(dual), fam))
    # dual_rep transposes the families with numpy
    other = [rand_mat(rng, 2, 2, 5) for _ in range(3)]
    alg = AdmPoissonAlgebra.raw(MulTensor(3, 5))
    d = dual_rep(Representation.raw(alg, fam, other))
    assert (nested(d.l), nested(d.r)) == (dual_endo_family(other), dual)


def test_left_right_mult_match_apply_mul():
    rng = random.Random(4)
    for p in (0, 5):
        m = rand_mul(rng, 3, p)
        x = rand_vec(rng, 3, p)
        y = rand_vec(rng, 3, p)
        assert mat_vec(left_mult(m, x), y) == apply_mul(m, x, y)
        assert mat_vec(right_mult(m, x), y) == apply_mul(m, y, x)
        assert tuple(map(nested, adjoint_families(m))) == (
            [left_mult_basis(m, i) for i in range(3)], [right_mult_basis(m, i) for i in range(3)])


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
    opp = mul_op(m)
    for i in range(2):
        for j in range(2):
            assert product(opp, i, j) == product(m, j, i)
    assert mul_op(mul_op(m)) == m
    assert mul_sub(mul_add(m, mul_op(m)), mul_op(m)) == m
    two = of(2)
    assert mul_sub(mul_scale(m, two), m) == m


def test_tensor3_swap_and_slot_apply():
    rng = random.Random(8)
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
    terms = Terms(SLOT_PATTERNS[slots], "xyz")
    for p in (0, 5):
        for _ in range(10):
            m = rand_mul(rng, 2, p)
            ra = rand_mat(rng, 2, 2, p)
            rb = rand_mat(rng, 2, 2, p)
            got = Tensor3(2, p, evaluate(terms, {"a": ra, "b": rb, "m": m.c}, p))
            want = slot_product_oracle(ra, rb, m, slots)
            assert got == want, f"pattern {slots} disagrees with oracle"
            assert oracles.tensor3_product(ra, rb, m, slots) == want


def test_ybe_operator_rejects_unknown_operator():
    m = MulTensor(2)
    r = RTensor([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        ybe_operator(m, r, "Z")


def test_from_entries_and_first_nonzero():
    m = MulTensor.from_entries(2, {(0, 1, 0): 3, (1, 0, 1): Scalar(2, 1, 5)},
                               p=5)
    assert m.c[0][1][0] == 3
    assert m.c[1][0] == [0, 2]
    assert RTensor.from_entries(2, {(1, 0): Fraction(-1, 2)}, 5).coeff == [[0, 0], [2, 0]]
    t = Tensor3(2, 5)
    assert first_nonzero(t) is None and t.is_zero()
    assert identity(2, 5).tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize("p", [0, 5, 2 ** 31 - 1])
def test_nested_numbers_build_what_the_parser_builds(p):
    """ints, Fractions and numpy integers, negative ones too, go in as the
    parser's tokens do; a denominator 0 mod p is refused with the parser's
    reason, and a float is no exact number."""
    field = f"gf {p}" if p else "rational"
    af = parse_file(f"format 1\nfield {field}\ndim 2\nop star\nstar: e1 e1 = 1 e1\n"
                    "tensor r: e1 e1 = 1/2\ntensor r: e1 e2 = -3\n"
                    "tensor r: e2 e1 = -7/4\n")
    for coeff in ([[Fraction(1, 2), -3], [Fraction(-7, 4), 0]],
                  [[Fraction(2, 4), np.int64(-3)], [Fraction(7, -4), np.int64(0)]],
                  np.array([[Fraction(1, 2), -3], [Fraction(-7, 4), 0]], dtype=object)):
        assert RTensor(coeff, p).exact == af.tensors["r"].exact
    assert MulTensor(2, p, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]) == af.ops["star"]
    assert MulTensor(1, p, [[[np.int64(-1)]]]).c == [[[p - 1 if p else -1]]]
    if p:
        with pytest.raises(ZeroDivisionError, match=f"^denominator {p} is 0 mod {p}$"):
            RTensor([[Fraction(1, p)]], p)
    with pytest.raises(TypeError, match="ints or Fractions"):
        RTensor([[0.5]], p)


def test_structures_refuse_data_of_another_shape():
    """An r-tensor is n x n, as structure constants are n x n x n."""
    for coeff in ([[1, 2, 3], [4, 5, 6]], [1, 2]):
        with pytest.raises(ShapeError, match="^coefficients are not 2 x 2$"):
            RTensor(coeff, 5)
    with pytest.raises(ShapeError, match="^structure constants are not 2 x 2 x 2$"):
        MulTensor(2, 5, [[1, 2], [3, 4]])


def test_exact_arrays_are_canonical():
    """One value, one (p, shape, den, num): equal arrays hash alike whatever
    their denominator was; int64 holds entries and p below 2**31, Python
    ints the rest; sums that leave int64 and huge moduli stay exact."""
    a = Exact([[2, -4], [0, 6]], -8)
    assert (a.den, a.num.tolist(), a.maxabs) == (4, [[-1, 2], [0, -3]], 3)
    assert a == Exact([[-1, 2], [0, -3]], 4) and hash(a) == hash(Exact([[-3, 6], [0, -9]], 12))
    assert a != Exact([[-1, 2], [0, -3]], 4, 5) and Exact([0, 0], 7).den == 1
    assert Exact([3, -1, 12], 2, 5).num.tolist() == [4, 2, 1]       # 3/2, -1/2, 6 mod 5
    assert a.tolist() == [[Fraction(-1, 4), Fraction(1, 2)], [0, Fraction(-3, 4)]]
    # the numbers of an Exact are Fractions over Q and ints over GF(p), and
    # an Exact is no list: it equals none
    assert Exact([[1, 2]]).tolist() == [[1, 2]] and Exact([[1, 2]]) != [[1, 2]]
    assert Exact([1, -2, 3, 6], 3).tolist() == [Fraction(1, 3), Fraction(-2, 3), 1, 2]
    assert {type(x) for x in Exact([3, -1, 12], 2, 5).tolist()} == {int}
    big = 2 ** 31
    assert Exact([big - 1]).num.dtype == np.int64 and Exact([big]).num.dtype == object
    assert Exact([1], 1, 2 ** 31 + 11).num.dtype == object
    s = Exact([big - 1], 3) + Exact([big - 1], 5)
    assert s.num.tolist() == [8 * (big - 1)] and s.den == 15
    assert (Exact([1, 2], 1, 7) - Exact([3, 2], 1, 7)) / 2 == Exact([6, 0], 1, 7)
    # arrays of one length and two shapes: the message names both shapes
    with pytest.raises(ShapeError, match=r"^operand shapes disagree: \(2, 3\) and \(2, 2\)$"):
        Exact([[1, 2, 3], [4, 5, 6]]) + Exact([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        a.num[0, 0] = 5
    with pytest.raises(AttributeError):
        a.den = 1
    # an all-zero array is canonical at den 1, also over a denominator past
    # int64, and a gcd of 2**31 or more is divided out on Python ints
    assert Exact(np.zeros(3, dtype=np.int64), 4000000000 ** 2) == Exact([0, 0, 0])
    assert Exact(np.array([0, 0]), 10 ** 19).den == 1
    e = Exact(np.array([2 ** 40, -3 * 2 ** 40]), 2 ** 41)
    assert (e.den, e.num.tolist(), e.num.dtype) == (2, [1, -3], np.int64)
    # arrays of a narrow evaluation type are widened before they can wrap
    for dtype in (np.int8, np.int16, np.uint8):
        assert Exact(np.array([4, 100], dtype=dtype), 3, 101) == Exact([4, 100], 3, 101)
    assert Exact(np.array([-128, 2], dtype=np.int8)).maxabs == 128


def test_witnesses_are_exact_rows():
    """A failing check reports lhs and rhs as Exacts at the failing index;
    first_entry cuts them to the first entry at which their values differ,
    compared on one denominator."""
    m = MulTensor.from_entries(2, {(0, 0, 1): 1, (1, 1, 0): 1})
    name, idx, lhs, rhs = check_adm_poisson(m).witness
    assert isinstance(lhs, Exact) and isinstance(rhs, Exact) and lhs.num.shape == (2,)
    # 1/2, 1 against 2/4, 3/4: the numerators differ at 0, the values at 1
    report = AxiomReport.fail("x", (0,), Exact([1, 2], 2), Exact([2, 3], 4)).first_entry()
    assert report.witness == ("x", (0,), Exact([1]), Exact([3], 4))


@pytest.mark.parametrize("text, out, copied", [
    ("r:pq m:psa", "qsa", []),          # the summed axis leads both factors
    ("a:suv b:ijs", "uvij", []),        # it leads one factor and ends the other
    ("a:stuv b:ijst", "ijuv", []),
    ("a:ak b:ikb", "iba", ["b"]),       # it lies between kept axes of b
    ("c:jks c:isl", "jkil", ["c"]),
    ("a:ijs b:aus", "ijau", ["b"]),     # it ends both factors
    ("a:ijst b:tsuv", "ijuv", ["b"]),   # in another order in b
])
def test_a_plan_copies_only_the_operands_einsum_runs_slowly(text, out, copied):
    """A contraction of two factors is run on its operands as they are when
    its summed axes, in one order, lead one factor and lead or end the
    other; otherwise the operands that are not laid out are copied."""
    ((_, layout, _, _),) = Terms(text, out).plan
    assert [name for name, order in layout if order is not None] == copied
