import random

import pytest

from admpoisson.tensors import ShapeError
from admpoisson.algebras import AdmPoissonAlgebra, PoissonAlgebra, check_adm_poisson
from admpoisson.representations import (Representation, check_representation,
                                        adjoint_rep,
                                        dual_rep, semidirect,
                                        PoissonRepresentation,
                                        rep_to_poisson_rep,
                                        poisson_rep_to_rep)

from oracles import (mat_eq, mat_zero, nested, of, product, rand_mat, rep_consequence_holds,
                     transpose)
from test_algebras import idempotent_dim1, solvable_lie_dim2, comm_assoc_dim2


def test_adjoint_rep_valid_on_examples():
    for mk in (idempotent_dim1, solvable_lie_dim2, comm_assoc_dim2):
        a = AdmPoissonAlgebra(mk())
        rep = adjoint_rep(a)
        assert check_representation(rep).holds
        assert rep_consequence_holds(rep)


def test_adjoint_rep_valid_on_catalog_sample(catalog_muls):
    rng = random.Random(20)
    for m in rng.sample(catalog_muls, 40):
        rep = adjoint_rep(AdmPoissonAlgebra.raw(m))
        assert check_representation(rep).holds


def test_dual_rep_swaps_and_transposes():
    a = AdmPoissonAlgebra(solvable_lie_dim2())
    rep = adjoint_rep(a)
    d = dual_rep(rep)
    assert all(mat_eq(x, transpose(y)) for x, y in zip(nested(d.l), nested(rep.r)))
    assert all(mat_eq(x, transpose(y)) for x, y in zip(nested(d.r), nested(rep.l)))
    assert check_representation(d).holds


def test_double_dual_is_identity():
    a = AdmPoissonAlgebra(comm_assoc_dim2(5))
    rep = adjoint_rep(a)
    dd = dual_rep(dual_rep(rep))
    assert dd == rep


def test_semidirect_equivalence_samples():
    # a representation is valid iff the square-zero extension is an algebra
    rng = random.Random(21)
    a = AdmPoissonAlgebra(idempotent_dim1(5))
    fams = [[rand_mat(rng, 2, 2, 5)] for _ in range(40)]
    fams.append([mat_zero(2, 2, 5)])          # known valid
    seen_good = seen_bad = 0
    for l in fams:
        for r in fams[:5] + [fams[-1]]:
            rep_ok = check_representation(Representation.raw(a, l, r)).holds
            big_ok = check_adm_poisson(semidirect(a.star, l, r)).holds
            assert rep_ok == big_ok
            seen_good += rep_ok
            seen_bad += not rep_ok
    assert seen_good >= 1 and seen_bad >= 1


def test_semidirect_contains_factor_and_square_zero():
    a = AdmPoissonAlgebra(solvable_lie_dim2())
    rep = adjoint_rep(a)
    big = AdmPoissonAlgebra(semidirect(a.star, rep.l, rep.r))
    n = a.n
    for i in range(n):
        for j in range(n):
            # algebra corner reproduces the original product
            assert product(big.star, i, j)[:n] == product(a.star, i, j)
            # module corner squares to zero
            assert all(c.is_zero() for c in product(big.star, n + i, n + j))


def test_rep_shape_validation():
    # the identity table's operand-size check, which python -O keeps
    a = AdmPoissonAlgebra(idempotent_dim1())
    one = [[[of(1)]]]
    cases = [([], []),
             ([[[of(1), of(0)]]],) * 2,                   # non-square
             (one + one, one + one),                      # two matrices for dim 1
             (one, [[[of(1), of(0)], [of(0), of(1)]]])]   # l and r of two sizes
    for l, r in cases:
        with pytest.raises(ShapeError):
            check_representation(Representation.raw(a, l, r))
        with pytest.raises(ShapeError):
            Representation(a, l, r)


def test_invalid_rep_rejected():
    a = AdmPoissonAlgebra(idempotent_dim1())
    l = [[[of(1)]]]
    r = [[[of(7)]]]  # fails the operator identities
    with pytest.raises(ValueError):
        Representation(a, l, r)
    assert not check_representation(Representation.raw(a, l, r)).holds


def test_poisson_rep_correspondence_roundtrip():
    a = AdmPoissonAlgebra(comm_assoc_dim2())
    rep = adjoint_rep(a)
    prep = rep_to_poisson_rep(rep)
    # checked builds: the polarized algebra and the Poisson representation hold
    palg = PoissonAlgebra(prep.palg.bracket, prep.palg.circ)
    PoissonRepresentation(palg, prep.s_bracket, prep.s_circ)
    back = poisson_rep_to_rep(prep)
    assert back == rep


def test_poisson_rep_validation():
    a = AdmPoissonAlgebra(idempotent_dim1())
    rep = adjoint_rep(a)
    prep = rep_to_poisson_rep(rep)
    # corrupting the symmetric part breaks validity
    bad = [[[of(5)]]]
    with pytest.raises(ValueError):
        PoissonRepresentation(prep.palg, prep.s_bracket, bad)


def test_poisson_rep_round_trip_makes_no_scalars():
    """The S families are stored as Exacts, and the round trip through the
    correspondence gives the representation back at dim 3.  (The package
    has no scalar type left to make: test_scalars guards that boundary.)"""
    from admpoisson.tensors import Exact, MulTensor
    a = AdmPoissonAlgebra(MulTensor.from_entries(3, {(i, i, i): 1 for i in range(3)}))
    rep = adjoint_rep(a)
    prep = rep_to_poisson_rep(rep)
    assert isinstance(prep.s_bracket, Exact) and isinstance(prep.s_circ, Exact)
    assert prep.vdim == 3 and poisson_rep_to_rep(prep) == rep
