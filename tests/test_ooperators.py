import random

import pytest

from admpoisson.tensors import MulTensor
from admpoisson.algebras import AdmPoissonAlgebra, check_adm_poisson
from admpoisson.representations import adjoint_rep, check_representation
from admpoisson.yangbaxter import check_ybe
from admpoisson.matched import BilinearForm
from admpoisson.ooperators import (OOperatorCandidate, check_o_operator,
                                   check_rota_baxter,
                                   rota_baxter_as_o_operator,
                                   solution_from_o_operator,
                                   PreAdmPoisson, check_pre_adm_poisson,
                                   subadjacent, pre_rep,
                                   PrePoisson, check_pre_poisson,
                                   pre_to_prepoisson, prepoisson_to_pre,
                                   prepoisson_sum_pair,
                                   induced_pre_from_o_operator,
                                   canonical_solution,
                                   compatible_pre_from_invertible_o,
                                   pre_from_symplectic)
from admpoisson.search import decode_mul

from oracles import (apply_mul, column, mat_identity, mat_inverse, mat_vec, mat_zero,
                     nested, of, one, product, rand_mat, iter_maps, zero)
from test_algebras import idempotent_dim1, solvable_lie_dim2, comm_assoc_dim2


def all_dim1_pre_pairs(p=5):
    hits = []
    for s in range(p):
        for t in range(p):
            succ = MulTensor.from_entries(1, {(0, 0, 0): s}, p)
            prec = MulTensor.from_entries(1, {(0, 0, 0): t}, p)
            if check_pre_adm_poisson(PreAdmPoisson.raw(succ, prec)).holds:
                hits.append((s, t))
    return hits


def test_dim1_pre_pairs_are_negations():
    # at dim 1 over GF(5) the valid (s, t) pairs are exactly t = -s
    assert all_dim1_pre_pairs() == [(s, (-s) % 5) for s in range(5)]


def test_zero_theta_is_o_operator():
    a = AdmPoissonAlgebra(solvable_lie_dim2())
    rep = adjoint_rep(a)
    theta = mat_zero(2, 2, 0)
    assert check_o_operator(OOperatorCandidate(a, rep, theta)).holds


def test_rota_baxter_equals_o_operator_for_adjoint():
    rng = random.Random(60)
    a = AdmPoissonAlgebra(comm_assoc_dim2(5))
    seen = 0
    for _ in range(60):
        R = rand_mat(rng, 2, 2, 5)
        rb = check_rota_baxter(a, R).holds
        oo = check_o_operator(rota_baxter_as_o_operator(a, R)).holds
        assert rb == oo
        seen += rb
    assert check_rota_baxter(a, mat_zero(2, 2, 5)).holds


def test_solution_from_o_operator_solves_pybe():
    a = AdmPoissonAlgebra(idempotent_dim1(5))
    rep = adjoint_rep(a)
    for theta in iter_maps(1, 1, 5):
        cand = OOperatorCandidate(a, rep, theta)
        if check_o_operator(cand).holds:
            big, r = solution_from_o_operator(cand)
            assert r.is_skew()
            assert check_ybe(big, r, "adm_pybe").holds
            # theta occupies the off-diagonal corners
            assert nested(r)[0][1] == theta[0][0]
            assert nested(r)[1][0] == -theta[0][0]


def test_subadjacent_is_adm_poisson():
    succ = MulTensor.from_entries(1, {(0, 0, 0): 2}, 5)
    prec = MulTensor.from_entries(1, {(0, 0, 0): 3}, 5)
    pre = PreAdmPoisson(succ, prec)
    star = AdmPoissonAlgebra(subadjacent(succ, prec))
    assert star.star.is_zero()  # 2 + 3 = 0 mod 5
    rep = pre_rep(pre)
    assert check_representation(rep).holds
    assert (rep.l.tolist(), rep.r.tolist()) == ([[[2]]], [[[3]]])


def test_pre_structure_validation():
    succ = MulTensor.from_entries(1, {(0, 0, 0): 1}, 5)
    prec = MulTensor.from_entries(1, {(0, 0, 0): 1}, 5)  # t != -s: invalid
    with pytest.raises(ValueError):
        PreAdmPoisson(succ, prec)


def test_pre_to_prepoisson_roundtrip():
    succ = MulTensor.from_entries(1, {(0, 0, 0): 2}, 5)
    prec = MulTensor.from_entries(1, {(0, 0, 0): 3}, 5)
    pre = PreAdmPoisson(succ, prec)
    q = PrePoisson(*pre_to_prepoisson(succ, prec))
    back = PreAdmPoisson(*prepoisson_to_pre(q.dot, q.ast))
    assert back == pre
    # the maps are mutually inverse on arbitrary tensors too
    rng = random.Random(61)
    from oracles import rand_mul
    for _ in range(20):
        s = rand_mul(rng, 2, 5)
        t = rand_mul(rng, 2, 5)
        dot, ast = pre_to_prepoisson(s, t)
        s2, t2 = prepoisson_to_pre(dot, ast)
        assert s2 == s and t2 == t


def test_prepoisson_sum_pair_polarizes_subadjacent():
    from admpoisson.algebras import polarize
    succ = MulTensor.from_entries(1, {(0, 0, 0): 2}, 5)
    prec = MulTensor.from_entries(1, {(0, 0, 0): 3}, 5)
    q = PrePoisson(*pre_to_prepoisson(succ, prec))
    bracket, circ = prepoisson_sum_pair(q)
    br2, ci2 = polarize(subadjacent(succ, prec))
    assert bracket == br2
    assert circ == ci2


def test_induced_pre_from_o_operator():
    a = AdmPoissonAlgebra(comm_assoc_dim2(5))
    rep = adjoint_rep(a)
    theta = mat_identity(2, 5)
    cand = OOperatorCandidate(a, rep, theta)
    if check_o_operator(cand).holds:
        pre = induced_pre_from_o_operator(cand)
        assert check_pre_adm_poisson(pre).holds
    # an invalid candidate fails the check that callers make before inducing
    bad = OOperatorCandidate(a, rep, [[one(5), zero(5)],
                                      [zero(5), of(2, 1, 5)]])
    assert not check_o_operator(bad).holds


def test_induced_pre_makes_theta_a_homomorphism(catalog_muls):
    # theta(u > v + u < v) = theta(u) * theta(v) on the module basis
    found = 0
    for star in catalog_muls[::97]:
        a = AdmPoissonAlgebra.raw(star)
        rep = adjoint_rep(a)
        for theta in iter_maps(2, 2, 5):
            cand = OOperatorCandidate(a, rep, theta)
            if not check_o_operator(cand).holds:
                continue
            pre = induced_pre_from_o_operator(cand)
            summed = subadjacent(pre.succ, pre.prec)
            for i in range(2):
                for j in range(2):
                    assert mat_vec(theta, product(summed, i, j)) == \
                        apply_mul(star, column(theta, i), column(theta, j))
            found += 1
    assert found >= 20


def test_canonical_solution_passes_pybe():
    succ = MulTensor.from_entries(1, {(0, 0, 0): 2}, 5)
    prec = MulTensor.from_entries(1, {(0, 0, 0): 3}, 5)
    pre = PreAdmPoisson(succ, prec)
    rep = pre_rep(pre)        # the identity map is an O-operator over it
    assert check_o_operator(OOperatorCandidate(rep.alg, rep,
                                               mat_identity(1, 5))).holds
    big, r = canonical_solution(pre)
    assert big.n == 2
    assert r.is_skew()
    assert r.coeff[0][1] == 1
    assert check_ybe(big, r, "adm_pybe").holds
    assert check_adm_poisson(big.star).holds


def test_compatible_pre_from_invertible_o():
    a = AdmPoissonAlgebra(comm_assoc_dim2(5))
    rep = adjoint_rep(a)
    theta = mat_identity(2, 5)
    cand = OOperatorCandidate(a, rep, theta)
    if check_o_operator(cand).holds:
        pre = compatible_pre_from_invertible_o(cand)
        assert subadjacent(pre.succ, pre.prec) == a.star


def test_pre_from_symplectic_on_canonical_double():
    # the canonical solution is invertible; its inverse is a symplectic form
    # on the double, and the induced pre-structure sums back to the double
    succ = MulTensor.from_entries(1, {(0, 0, 0): 2}, 5)
    prec = MulTensor.from_entries(1, {(0, 0, 0): 3}, 5)
    pre = PreAdmPoisson(succ, prec)
    big, r = canonical_solution(pre)
    omega = BilinearForm(mat_inverse(nested(r), 5), 5)
    pre2 = pre_from_symplectic(big, omega)
    assert subadjacent(pre2.succ, pre2.prec) == big.star


def test_pre_from_symplectic_rejections():
    a = AdmPoissonAlgebra(solvable_lie_dim2(5))
    sym = BilinearForm(mat_identity(2, 5), 5)
    with pytest.raises(ValueError):
        pre_from_symplectic(a, sym)  # not skew
    with pytest.raises(ValueError):
        pre_from_symplectic(a, BilinearForm(mat_zero(2, 2, 5), 5))  # degenerate


def test_pre_poisson_axioms_flagged():
    # dot must be Zinbiel: a non-commutative associative dot can fail
    dot = MulTensor.from_entries(2, {(0, 0, 0): 1}, 5)
    ast = MulTensor(2, 5)
    report = check_pre_poisson(PrePoisson.raw(dot, ast))
    assert not report.holds and report.witness[0] == "zinbiel"
    with pytest.raises(ValueError):
        PrePoisson(dot, ast)


def test_non_square_theta_is_rejected_under_python_O():
    # the check that theta is square is not an assert, which -O strips
    import os
    import subprocess
    import sys
    from pathlib import Path
    script = ("from admpoisson.tensors import MulTensor\n"
              "from admpoisson.algebras import AdmPoissonAlgebra\n"
              "from admpoisson.representations import Representation\n"
              "from admpoisson.ooperators import (OOperatorCandidate,\n"
              "                                   compatible_pre_from_invertible_o)\n"
              "a = AdmPoissonAlgebra(MulTensor(2, 5))\n"
              "rep = Representation(a, [[[0]]] * 2, [[[0]]] * 2)\n"
              "try:\n"
              "    compatible_pre_from_invertible_o(\n"
              "        OOperatorCandidate(a, rep, [[0], [0]]))\n"
              "except ValueError as exc:\n"
              "    print('ValueError:', exc)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ValueError: theta must be square\n"
