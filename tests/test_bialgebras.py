import random

import pytest

from admpoisson.tensors import MulTensor
from admpoisson.algebras import AdmPoissonAlgebra, PoissonAlgebra, polarize, check_adm_poisson
from admpoisson.bialgebras import (Comultiplication, dual_structure,
                                   comult_of_mul, check_coalgebra,
                                   check_adm_bialgebra,
                                   PoissonComultiplicationPair,
                                   split_comultiplication,
                                   merge_comultiplication,
                                   check_poisson_bialgebra)

from oracles import comul_scale, comul_tau, decode_mul, of, rand_mul
from test_algebras import solvable_lie_dim2, comm_assoc_dim2


def rand_comul(rng, n, p=0):
    from oracles import rand_vec
    return Comultiplication(n, p, [[rand_vec(rng, n, p) for _ in range(n)]
                                   for _ in range(n)])


def test_dual_structure_comult_bijection():
    rng = random.Random(40)
    for _ in range(20):
        m = rand_mul(rng, 3, 5)
        assert dual_structure(comult_of_mul(m)) == m
        c = rand_comul(rng, 3, 5)
        assert comult_of_mul(dual_structure(c)) == c


def test_coalgebra_check_iff_dual_algebra(catalog_gf5):
    rng = random.Random(41)
    # duals of catalog algebras are coalgebras; random comuls mostly are not
    for idx in rng.sample(catalog_gf5, 15):
        c = comult_of_mul(decode_mul(idx, 2, 5))
        assert check_coalgebra(c).holds
    bad_found = 0
    for _ in range(30):
        c = rand_comul(rng, 2, 5)
        verdict = check_coalgebra(c).holds
        assert verdict == check_adm_poisson(dual_structure(c)).holds
        bad_found += not verdict
    assert bad_found >= 1


def test_zero_comultiplication_is_bialgebra():
    for mk in (solvable_lie_dim2, comm_assoc_dim2):
        a = AdmPoissonAlgebra(mk())
        assert check_adm_bialgebra(a, Comultiplication(a.n)).holds


def test_split_merge_roundtrip():
    rng = random.Random(42)
    for p in (0, 5):
        for _ in range(20):
            c = rand_comul(rng, 3, p)
            pair = split_comultiplication(c)
            assert merge_comultiplication(pair) == c
            # symmetry types enforced by the pair container
            assert pair.delta == comul_scale(comul_tau(pair.delta), of(-1, 1, p))
            assert pair.Delta == comul_tau(pair.Delta)


def test_pair_container_rejects_wrong_symmetry():
    c = Comultiplication.from_entries(2, {(0, 0, 1): 1})
    with pytest.raises(ValueError):
        PoissonComultiplicationPair(c, Comultiplication(2))
    with pytest.raises(ValueError):
        PoissonComultiplicationPair(Comultiplication(2), c)


def test_adm_iff_poisson_bialgebra_samples(catalog_gf5):
    rng = random.Random(43)
    idxs = rng.sample(catalog_gf5, 20)
    seen_good = 0
    for k in range(20):
        a_raw = decode_mul(idxs[k], 2, 5)
        alpha = comult_of_mul(decode_mul(idxs[(k * 7 + 3) % 20], 2, 5))
        a = AdmPoissonAlgebra.raw(a_raw)
        lhs = check_adm_bialgebra(a, alpha).holds
        pal = PoissonAlgebra(*polarize(a_raw))
        pair = split_comultiplication(alpha)
        rhs = check_poisson_bialgebra(pal, pair).holds
        assert lhs == rhs
        seen_good += lhs
    # the zero comultiplication always closes the loop
    a = AdmPoissonAlgebra.raw(decode_mul(idxs[0], 2, 5))
    zc = Comultiplication(2, 5)
    assert check_adm_bialgebra(a, zc).holds
    assert check_poisson_bialgebra(PoissonAlgebra(*polarize(a.star)),
                                   split_comultiplication(zc)).holds


def test_bialgebra_failure_names():
    a = AdmPoissonAlgebra(comm_assoc_dim2(5))
    # a comultiplication whose dual is fine but compatibilities fail
    c = comult_of_mul(comm_assoc_dim2(5))
    report = check_adm_bialgebra(a, c)
    if not report.holds:
        assert report.witness[0] in ("coalgebra", "defbi1", "defbi2", "defbi3")
