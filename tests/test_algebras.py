import random

import pytest

from admpoisson.scalars import Scalar, of
from admpoisson.tensors import MulTensor
from admpoisson.algebras import (check_adm_poisson, check_poisson,
                                 AdmPoissonAlgebra, PoissonAlgebra,
                                 polarize, depolarize, polarize_raw,
                                 depolarize_raw, AxiomReport)

from oracles import (rand_mul, rand_triple, adm_identity_on_vectors, vec_is_zero,
                     poisson_identities_on_vectors, weak_associativity_holds)


def idempotent_dim1(p=0):
    return MulTensor.from_entries(1, {(0, 0, 0): 1}, p)


def solvable_lie_dim2(p=0):
    # [e1, e2] = e2 as the single operation (skew, so circ part is zero)
    return MulTensor.from_entries(2, {(0, 1, 1): 1, (1, 0, 1): -1}, p)


def comm_assoc_dim2(p=0):
    # e1 acts as a unit on the span: e1 e1 = e1, e1 e2 = e2 e1 = e2
    return MulTensor.from_entries(
        2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}, p)


def test_known_positives():
    for p in (0, 5):
        assert check_adm_poisson(idempotent_dim1(p)).holds
        assert check_adm_poisson(solvable_lie_dim2(p)).holds
        assert check_adm_poisson(comm_assoc_dim2(p)).holds


def test_known_negative_with_witness():
    # e1 e1 = e2, e2 e2 = e1 is not admissible-Poisson
    m = MulTensor.from_entries(2, {(0, 0, 1): 1, (1, 1, 0): 1})
    report = check_adm_poisson(m)
    assert not report.holds
    name, idx, lhs, rhs = report.witness
    assert name == "adm-poisson" and lhs != rhs


def test_check_agrees_with_vector_oracle():
    rng = random.Random(10)
    checked_pos = checked_neg = 0
    while checked_pos < 10 or checked_neg < 10:
        m = rand_mul(rng, 2, 5)
        verdict = check_adm_poisson(m).holds
        ok = True
        for _ in range(6):
            x, y, z = rand_triple(rng, 2, 5)
            if not vec_is_zero(adm_identity_on_vectors(m, x, y, z)):
                ok = False
                break
        if verdict:
            # basis verdict implies the identity on arbitrary vectors
            assert ok
            checked_pos += 1
        elif not ok:
            checked_neg += 1


def test_polarization_equivalence_samples():
    rng = random.Random(11)
    agree = 0
    while agree < 200:
        m = rand_mul(rng, 2, 5)
        br, circ = polarize_raw(m)
        assert check_adm_poisson(m).holds == check_poisson(br, circ).holds
        agree += 1


def test_polarize_depolarize_roundtrip():
    rng = random.Random(12)
    for p in (0, 5):
        for _ in range(20):
            m = rand_mul(rng, 3, p)
            br, circ = polarize_raw(m)
            assert depolarize_raw(br, circ) == m
            # polarized parts have the right symmetry
            assert br.op() == br.scale(of(-1, 1, p))
            assert circ.op() == circ


def test_polarize_object_roundtrip():
    a = AdmPoissonAlgebra(solvable_lie_dim2())
    pa = polarize(a)
    assert depolarize(pa) == a
    assert pa.bracket == solvable_lie_dim2()
    assert pa.circ.is_zero()


def test_poisson_check_matches_vector_oracle():
    rng = random.Random(13)
    hits = 0
    while hits < 30:
        m = rand_mul(rng, 2, 5)
        br, circ = polarize_raw(m)
        verdict = check_poisson(br, circ).holds
        ok = True
        for _ in range(4):
            x, y, z = rand_triple(rng, 2, 5)
            if any(not vec_is_zero(r) for r in
                   poisson_identities_on_vectors(br, circ, x, y, z)):
                ok = False
                break
        if verdict:
            assert ok
            hits += 1
        elif not ok:
            hits += 1


def test_weak_associativity_consequence(catalog_muls):
    rng = random.Random(14)
    for m in rng.sample(catalog_muls, 50):
        assert weak_associativity_holds(m)


def test_constructor_validation():
    with pytest.raises(ValueError):
        AdmPoissonAlgebra(MulTensor.from_entries(
            2, {(0, 0, 1): 1, (1, 1, 0): 1}))
    AdmPoissonAlgebra.raw(MulTensor.from_entries(
        2, {(0, 0, 1): 1, (1, 1, 0): 1}))  # raw skips the check
    with pytest.raises(ValueError):
        # bracket not antisymmetric
        PoissonAlgebra(MulTensor.from_entries(1, {(0, 0, 0): 1}),
                       MulTensor(1))


def test_axiom_report_contract():
    ok = AxiomReport.ok()
    assert ok and ok.witness is None
    bad = AxiomReport.fail("x", (0,), [of(1)], [of(0)])
    assert not bad and bad.witness[0] == "x"
    with pytest.raises(AssertionError):
        AxiomReport(True, ("x", (0,), [], []))
