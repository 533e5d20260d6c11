import hashlib
import random
from itertools import islice

import numpy as np
import pytest

from admpoisson.scalars import Scalar
from admpoisson.tensors import AxiomReport, MulTensor
from admpoisson.algebras import (ADM_POISSON, POISSON, AdmPoissonAlgebra,
                                 check_adm_poisson, check_poisson, polarize_raw)
from admpoisson.representations import Representation, adjoint_rep
from admpoisson.yangbaxter import ybe_operator, RTensor
from admpoisson.ooperators import (PRE_ADM_POISSON, PreAdmPoisson,
                                   check_pre_adm_poisson, check_o_operator,
                                   OOperatorCandidate)
from admpoisson import search as searchmod
from admpoisson.search import (encode_mul, decode_mul, table_mask, table_hits,
                               adm_catalog_indices, SearchSpec, SearchShortfall,
                               search, iter_r_tensors, iter_maps, o_operator_hits)

import oracles
from oracles import (rand_mat, rand_mul, brute_count_adm, dim2_gf5_tensor_array,
                     poisson_mask_dim2_gf5, sample_adm_poisson)


def test_encode_decode_roundtrip():
    rng = random.Random(80)
    for _ in range(30):
        m = rand_mul(rng, 2, 5)
        assert decode_mul(encode_mul(m), 2, 5) == m
    for idx in (0, 1, 5 ** 8 - 1, 12345):
        assert encode_mul(decode_mul(idx, 2, 5)) == idx


def test_decode_order_is_base_p_digits():
    m = decode_mul(5 ** 3, 2, 5)  # digit t=3 -> (i,j,k) = (0,1,1)
    assert m.c[0][1][1] == Scalar(1, 1, 5)
    assert sum(1 for i in range(2) for j in range(2) for k in range(2)
               if not m.c[i][j][k].is_zero()) == 1


def test_masks_against_exact_checkers():
    rng = random.Random(81)
    adm = table_mask(((ADM_POISSON,),), "c", np.arange(5 ** 8), 2, 5)
    poi = poisson_mask_dim2_gf5(dim2_gf5_tensor_array())
    for idx in [0, 1, 31, 5 ** 8 - 1] + [rng.randrange(5 ** 8)
                                         for _ in range(60)]:
        m = decode_mul(idx, 2, 5)
        assert bool(adm[idx]) == check_adm_poisson(m).holds
        assert bool(poi[idx]) == check_poisson(*polarize_raw(m)).holds


def test_catalog_counts(catalog_gf5):
    # dim 1 by brute force; dim 2 count is pinned and mask-verified
    assert len(list(adm_catalog_indices(1, 5))) == \
        brute_count_adm(1, 5, lambda m: check_adm_poisson(m).holds)
    assert len(catalog_gf5) == 769
    assert catalog_gf5 == sorted(catalog_gf5)
    assert catalog_gf5[0] == 0  # the zero algebra


def test_search_adm_dim1_exhaustive():
    spec = SearchSpec("adm_poisson", 1, p=5)
    hits = list(search(spec))
    # every scalar value works at dim 1
    assert len(hits) == 5
    spec = SearchSpec("adm_poisson", 1, p=5, nonzero_only=True)
    assert len(list(search(spec))) == 4


def test_search_count_and_determinism(catalog_gf5):
    spec = SearchSpec("adm_poisson", 2, p=5, count=7, nonzero_only=True)
    hits = list(search(spec))
    assert len(hits) == 7
    again = list(search(SearchSpec("adm_poisson", 2, p=5, count=7,
                                   nonzero_only=True)))
    assert [encode_mul(h.ops["star"]) for h in hits] == \
        [encode_mul(h.ops["star"]) for h in again]
    for h in hits:
        assert check_adm_poisson(h.ops["star"]).holds
        assert not h.ops["star"].is_zero()


def test_search_poisson_dim1():
    hits = list(search(SearchSpec("poisson", 1, p=5)))
    # bracket must vanish at dim 1; circ any associative scalar product
    assert len(hits) == 5
    for h in hits:
        assert h.ops["bracket"].is_zero()
        assert check_poisson(h.ops["bracket"], h.ops["circ"]).holds


def test_iter_r_tensors_counts():
    assert sum(1 for _ in iter_r_tensors(2, 5, skew=True)) == 5
    assert sum(1 for _ in iter_r_tensors(2, 5, skew=False)) == 5 ** 4
    for r in iter_r_tensors(2, 5, skew=True):
        assert r.is_skew()


def test_search_pybe_matches_direct_enumeration(catalog_gf5):
    star = decode_mul(catalog_gf5[100], 2, 5)
    spec = SearchSpec("adm_pybe_solution", 2, p=5, skew=True, algebra=star)
    got = [h.tensors["r"].coeff for h in search(spec)]
    want = [r.coeff for r in iter_r_tensors(2, 5, skew=True)
            if ybe_operator(star, r, "P").is_zero()]
    assert got == want and len(got) >= 1


def test_search_pybe_field_mismatch_rejected():
    star = MulTensor.from_entries(1, {(0, 0, 0): 1}, 0)  # rational algebra
    spec = SearchSpec("adm_pybe_solution", 1, p=5, algebra=star)
    with pytest.raises(ValueError):
        list(search(spec))


def test_search_o_operator_matches_direct(catalog_gf5):
    star = decode_mul(catalog_gf5[100], 2, 5)
    alg = AdmPoissonAlgebra(star)
    rep = adjoint_rep(alg)
    spec = SearchSpec("o_operator", 2, p=5, algebra=star, rep=(rep.l, rep.r))
    got = [h.maps["theta"] for h in search(spec)]
    want = [theta for theta in iter_maps(2, 2, 5)
            if check_o_operator(OOperatorCandidate(alg, rep, theta)).holds]
    assert got == want and len(got) >= 1


@pytest.mark.parametrize("n,m,p", [(1, 1, 7), (1, 1, 10007), (1, 3, 5), (2, 1, 7),
                                   (2, 2, 5)])
def test_o_operator_screen_matches_the_loop(monkeypatch, catalog_gf5, n, m, p):
    # thetas in iter_maps order over an algebra and an action (adjoint when
    # m == n, random otherwise), screened in batches of several sizes
    rng = random.Random(n * 100 + m * 10 + p)
    star = decode_mul(rng.choice(catalog_gf5), 2, 5) if (n, p) == (2, 5) \
        else rand_mul(rng, n, p)
    alg = AdmPoissonAlgebra.raw(star)
    rep = adjoint_rep(alg) if m == n else Representation.raw(
        alg, [rand_mat(rng, m, m, p) for _ in range(n)], [rand_mat(rng, m, m, p)] * n)
    want = [idx for idx, theta in enumerate(iter_maps(n, m, p))
            if oracles.check_o_operator(OOperatorCandidate(alg, rep, theta)).holds]
    assert want[0] == 0
    for chunk in (1, 7, searchmod.CHUNK):
        monkeypatch.setattr(searchmod, "CHUNK", chunk)
        assert list(o_operator_hits(star, rep.l, rep.r, p)) == want


def test_search_o_operator_rejects_another_dim(catalog_gf5):
    star = decode_mul(catalog_gf5[100], 2, 5)
    rep = adjoint_rep(AdmPoissonAlgebra(star))
    for dim in (1, 3):
        spec = SearchSpec("o_operator", dim, p=5, algebra=star, rep=(rep.l, rep.r))
        with pytest.raises(ValueError, match="must match the search dim"):
            list(search(spec))


def test_search_pre_dim1_exhaustive():
    hits = list(search(SearchSpec("pre_adm_poisson", 1, p=5)))
    pairs = [(h.ops["succ"].c[0][0][0].num, h.ops["prec"].c[0][0][0].num)
             for h in hits]
    assert sorted(pairs) == [(s, (-s) % 5) for s in range(5)]


def test_search_pre_dim2_yields_verified_instances():
    hits = list(search(SearchSpec("pre_adm_poisson", 2, p=5, count=10,
                                  nonzero_only=True)))
    assert len(hits) == 10
    for h in hits:
        pre = PreAdmPoisson.raw(h.ops["succ"], h.ops["prec"])
        assert check_pre_adm_poisson(pre).holds
        assert not (pre.succ.is_zero() and pre.prec.is_zero())


def test_search_rejects_bad_spec():
    with pytest.raises(ValueError):
        SearchSpec("frobenius", 1)
    with pytest.raises(ValueError):
        SearchSpec("adm_poisson", 1, p=0)
    with pytest.raises(ValueError):
        list(search(SearchSpec("adm_pybe_solution", 1, p=5)))  # no algebra
    for count in (0, -1):
        with pytest.raises(ValueError, match="count must be at least 1"):
            SearchSpec("adm_poisson", 1, count=count)


TABLES = {"adm_poisson": (((ADM_POISSON,),), "c"),
          "poisson": (POISSON, "bo"),
          "pre_adm_poisson": (PRE_ADM_POISSON, "sq")}


@pytest.mark.parametrize("target,n,p,chunks", [
    (target, 1, p, [1, 2, 3, 10, p * p, p * p + 1])
    for target in TABLES for p in (5, 7, 13)] + [
    ("adm_poisson", 2, 5, [1000, 4097, 5 ** 8 // 3 + 1])])
def test_streamed_sweep_matches_the_unchunked_mask(monkeypatch, target, n, p, chunks):
    groups, names = TABLES[target]
    space = p ** (len(names) * n ** 3)
    want = np.flatnonzero(table_mask(groups, names, np.arange(space), n, p)).tolist()
    assert want
    for chunk in chunks:
        monkeypatch.setattr(searchmod, "CHUNK", chunk)
        assert list(table_hits(groups, names, n, p)) == want


@pytest.mark.parametrize("p", [257, 2 ** 31 - 1])
def test_batch_mask_over_wide_spaces(p):
    # 257**8 indices overflow int64; at 2**31-1 the residual does too
    rng = random.Random(p)
    draws = [0, 1] + [rng.randrange(p ** 8) for _ in range(40)]
    mask = table_mask(((ADM_POISSON,),), "c", draws, 2, p)
    assert mask[:2].all()
    for idx, ok in zip(draws, mask):
        assert bool(ok) == check_adm_poisson(decode_mul(idx, 2, p)).holds


@pytest.mark.parametrize("seed", [101, 202])
@pytest.mark.parametrize("nonzero_only", [False, True])
def test_batched_sampler_matches_the_per_candidate_loop(monkeypatch, seed,
                                                         nonzero_only):
    spec = SearchSpec("adm_poisson", 2, p=7, count=2, seed=seed,
                      nonzero_only=nonzero_only)
    want = list(islice(sample_adm_poisson(spec), spec.count))
    assert len(want) == 2
    # hits fall in the first batch, and across batches of 1000 draws
    for chunk in (searchmod.CHUNK, 1000):
        monkeypatch.setattr(searchmod, "CHUNK", chunk)
        assert [h.ops["star"] for h in search(spec)] == want


def test_sampled_batches_are_bounded_by_the_output_cap(monkeypatch):
    """The sampled screen holds about MAX_OUTPUT_ENTRIES identity entries at
    a time: batches of max(1, min(CHUNK, cap // n**4)) draws, drawn in the
    same order and giving the same hits."""
    spec = SearchSpec("adm_poisson", 2, p=7, count=2, seed=101)
    want = [h.ops["star"] for h in search(spec)]
    sizes, table = [], searchmod.table_mask

    def recording(groups, names, draws, n, p):
        sizes.append(len(draws))
        return table(groups, names, draws, n, p)
    monkeypatch.setattr(searchmod, "table_mask", recording)
    for cap, batch in ((searchmod.MAX_OUTPUT_ENTRIES, searchmod.CHUNK), (16 * 50, 50), (15, 1)):
        monkeypatch.setattr(searchmod, "MAX_OUTPUT_ENTRIES", cap)
        sizes.clear()
        assert [h.ops["star"] for h in search(spec)] == want
        assert sizes and set(sizes) == {batch}, cap


def test_sampled_search_reports_its_shortfall():
    spec = SearchSpec("adm_poisson", 3, p=5, count=1)
    with pytest.raises(SearchShortfall, match="^found 0 of 1 after 10000 attempts$"):
        list(search(spec))


def test_count_1_builds_only_the_first_chunk(monkeypatch):
    built = []
    digit_arrays = searchmod.digit_arrays

    def recording(indices, *args):
        built.append((int(indices[0]), len(indices)))
        return digit_arrays(indices, *args)
    monkeypatch.setattr(searchmod, "digit_arrays", recording)
    hits = list(search(SearchSpec("adm_poisson", 2, p=5, count=1)))
    assert len(hits) == 1 and hits[0].ops["star"].is_zero()
    assert built == [(0, searchmod.CHUNK)]


def test_pre_search_reports_a_failed_recheck(monkeypatch):
    # the re-check of an induced pre-structure is not an assert (python -O)
    monkeypatch.setattr(searchmod, "check_pre_adm_poisson",
                        lambda pre: AxiomReport.fail("pre1", (0, 0, 0), [], []))
    with pytest.raises(RuntimeError, match="fails pre1 at"):
        list(search(SearchSpec("pre_adm_poisson", 2, p=5, count=1)))


# sha256 of the stdout of the command below, unchanged since the pre search
# checked each hit twice
PRE_NONZERO_10_SHA256 = "421f2d9e68aec9e352f5b1eb303412ba8ccd9768ddeb9c9068f14f7247e38eb2"


def test_pre_search_checks_each_hit_once(monkeypatch, capsys):
    """`search pre_adm_poisson --dim 2 --field 5 --count 10 --nonzero-only`
    contracts the screened hits of each module at once (so the hits of the
    last module are all screened) and skips those whose induced
    pre-structure was already emitted before any exact check: it re-checks
    the O-operator and the pre-structure once per emitted structure, and
    prints what it printed before."""
    from admpoisson import ooperators
    from admpoisson.cli import run_command
    calls = {"check_o_operator": 0, "check_pre_adm_poisson": 0, "hits": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    def counted_hits(*args):
        for idx in o_operator_hits(*args):
            calls["hits"] += 1
            yield idx

    for mod in (searchmod, ooperators):
        for name in ("check_o_operator", "check_pre_adm_poisson"):
            monkeypatch.setattr(mod, name, counted(getattr(ooperators, name)))
    monkeypatch.setattr(searchmod, "o_operator_hits", counted_hits)
    code = run_command(["search", "pre_adm_poisson", "--dim", "2", "--field", "5",
                        "--count", "10", "--nonzero-only"])
    out = capsys.readouterr().out
    assert code == 0 and out.count("# instance") == 10
    assert hashlib.sha256(out.encode()).hexdigest() == PRE_NONZERO_10_SHA256
    assert calls["hits"] == 2655
    assert calls["check_o_operator"] == calls["check_pre_adm_poisson"] == 10
