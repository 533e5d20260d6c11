import hashlib
import random
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from admpoisson.tensors import MulTensor
from admpoisson.algebras import (ADM_POISSON, POISSON, AdmPoissonAlgebra,
                                 check_adm_poisson, check_poisson, polarize)
from admpoisson.representations import REPRESENTATION, Representation, adjoint_rep
from admpoisson.ooperators import (PRE_ADM_POISSON, PreAdmPoisson, check_o_operator,
                                   OOperatorCandidate)
from admpoisson.fileformat import read_file
from admpoisson import search as searchmod
from admpoisson.search import (base_p_digits, operations, screen,
                               table_hits, adm_catalog_indices, SearchSpec,
                               SearchShortfall, search, o_operator_hits)

import oracles
from oracles import (decode_mul, encode_mul, rand_mat, rand_mul, brute_count_adm,
                     dim2_gf5_tensor_array, poisson_mask_dim2_gf5, sample_adm_poisson,
                     sample_poisson, iter_r_tensors, iter_maps, nested)

CORPUS = Path(__file__).parent / "corpus"


def table_mask(groups, names, indices, n, p):
    """Which of `indices` pass the screen, screened as one batch."""
    batch = [(range(len(indices)), base_p_digits(indices, len(names) * n ** 3, p))]
    mask = np.zeros(len(indices), dtype=bool)
    mask[[k for k, _ in screen(groups, batch, operations(names, n), {}, p)]] = True
    return mask


def keys(hits):
    return [k for k, _ in hits]


def test_oracle_encoding_is_base_p_digits():
    """The oracle's encode_mul/decode_mul, by which the catalog tests index
    structures, are inverse to each other, and digit t of an index is the
    entry at (i,j,k), t written in base n."""
    rng = random.Random(80)
    for _ in range(30):
        m = rand_mul(rng, 2, 5)
        assert decode_mul(encode_mul(m), 2, 5) == m
    for idx in (0, 1, 5 ** 8 - 1, 12345):
        assert encode_mul(decode_mul(idx, 2, 5)) == idx
    m = decode_mul(5 ** 3, 2, 5)  # digit t=3 -> (i,j,k) = (0,1,1)
    assert m.c[0][1][1] == 1
    assert sum(1 for i in range(2) for j in range(2) for k in range(2) if m.c[i][j][k]) == 1


def test_masks_against_exact_checkers():
    rng = random.Random(81)
    adm = table_mask(((ADM_POISSON,),), "c", np.arange(5 ** 8), 2, 5)
    poi = poisson_mask_dim2_gf5(dim2_gf5_tensor_array())
    for idx in [0, 1, 31, 5 ** 8 - 1] + [rng.randrange(5 ** 8)
                                         for _ in range(60)]:
        m = decode_mul(idx, 2, 5)
        assert bool(adm[idx]) == check_adm_poisson(m).holds
        assert bool(poi[idx]) == check_poisson(*polarize(m)).holds


def test_catalog_counts(catalog_gf5):
    # dim 1 by brute force; dim 2 count is pinned and mask-verified
    assert len(keys(adm_catalog_indices(1, 5))) == \
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


def pybe_algebras(p, catalog_gf5):
    """Three catalog algebras and ybe.alg over GF(5); the zero algebra and
    three sampled ones over GF(7)."""
    if p == 5:
        return ([decode_mul(catalog_gf5[i], 2, 5) for i in (0, 100, 500)]
                + [read_file(CORPUS / "ybe.alg").ops["star"]])
    spec = SearchSpec("adm_poisson", 2, p=7, count=3, seed=1, nonzero_only=True)
    return [decode_mul(0, 2, 7)] + [h.ops["star"] for h in search(spec)]


def test_search_pybe_matches_direct_enumeration(catalog_gf5):
    # every r at (2, p), full and skew, in enumeration order, against the
    # per-r loop
    for p, skew in ((5, True), (5, False), (7, True), (7, False)):
        solutions = 0
        for star in pybe_algebras(p, catalog_gf5):
            a = AdmPoissonAlgebra(star)
            want = [r for r in iter_r_tensors(2, p, skew)
                    if oracles.check_ybe(a, r, "adm_pybe").holds]
            for nonzero_only in (False, True):
                spec = SearchSpec("adm_pybe_solution", 2, p=p, skew=skew, algebra=star,
                                  nonzero_only=nonzero_only)
                assert [h.tensors["r"] for h in search(spec)] == \
                    [r for r in want if not (nonzero_only and r.is_zero())]
            solutions += len(want) - 1          # r = 0 always solves
        assert solutions >= 1, (p, skew)


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
    got = [nested(h.maps["theta"]) for h in search(spec)]
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
        hits = list(o_operator_hits(star, rep.l, rep.r, p))
        assert keys(hits) == want
        # each hit's digit column is its map theta
        for idx, column in hits[:20]:
            assert [[s.num for s in row] for row in oracles.decode_map(idx, n, m, p)] == \
                column.reshape(n, m).tolist()


def test_search_o_operator_rejects_another_dim(catalog_gf5):
    star = decode_mul(catalog_gf5[100], 2, 5)
    rep = adjoint_rep(AdmPoissonAlgebra(star))
    for dim in (1, 3):
        spec = SearchSpec("o_operator", dim, p=5, algebra=star, rep=(rep.l, rep.r))
        with pytest.raises(ValueError, match="must match the search dim"):
            list(search(spec))


def test_search_pre_dim1_exhaustive():
    hits = list(search(SearchSpec("pre_adm_poisson", 1, p=5)))
    pairs = [(h.ops["succ"].c[0][0][0], h.ops["prec"].c[0][0][0]) for h in hits]
    assert sorted(pairs) == [(s, (-s) % 5) for s in range(5)]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_dim1_sweeps_emit_what_the_oracle_accepts(p):
    """Each dim-1 sweep emits, in ascending order, exactly the structures
    that the oracle's scalar loops accept."""
    values = [MulTensor.from_entries(1, {(0, 0, 0): a}, p) for a in range(p)]
    pairs = [(x, y) for y in values for x in values]    # digit 0 is the first operation
    got = {target: list(search(SearchSpec(target, 1, p=p)))
           for target in ("adm_poisson", "poisson", "pre_adm_poisson")}
    assert [h.ops["star"] for h in got["adm_poisson"]] == \
        [m for m in values if oracles.check_adm_poisson(m).holds]
    assert [(h.ops["bracket"], h.ops["circ"]) for h in got["poisson"]] == \
        [pair for pair in pairs if oracles.check_poisson(*pair).holds]
    assert [(h.ops["succ"], h.ops["prec"]) for h in got["pre_adm_poisson"]] == \
        [pair for pair in pairs if oracles.check_pre_adm_poisson(PreAdmPoisson.raw(*pair)).holds]


def test_search_pre_dim2_yields_verified_instances():
    hits = list(search(SearchSpec("pre_adm_poisson", 2, p=5, count=40,
                                  nonzero_only=True)))
    assert len(hits) == 40
    for h in hits:
        pre = PreAdmPoisson.raw(h.ops["succ"], h.ops["prec"])
        assert oracles.check_pre_adm_poisson(pre).holds
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
    star = MulTensor.from_entries(1, {(0, 0, 0): 1}, 5)
    rep = adjoint_rep(AdmPoissonAlgebra(star))
    for target, algebra in (("adm_pybe_solution", star), ("adm_poisson", None)):
        with pytest.raises(ValueError, match=f"{target} search takes no representation"):
            SearchSpec(target, 1, p=5, algebra=algebra, rep=(rep.l, rep.r))
    for target, algebra in (("adm_poisson", None), ("poisson", None),
                            ("pre_adm_poisson", None), ("o_operator", star)):
        with pytest.raises(ValueError, match=f"{target} search takes no --skew"):
            SearchSpec(target, 1, p=5, skew=True, algebra=algebra)
    assert SearchSpec("adm_pybe_solution", 1, p=5, skew=True, algebra=star).skew


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
        assert keys(table_hits(groups, names, n, p)) == want


@pytest.mark.parametrize("p", [257, 2 ** 31 - 1])
def test_batch_mask_over_wide_spaces(p):
    # 257**8 indices overflow int64; at 2**31-1 the residual does too
    rng = random.Random(p)
    draws = [0, 1] + [rng.randrange(p ** 8) for _ in range(40)]
    mask = table_mask(((ADM_POISSON,),), "c", draws, 2, p)
    assert mask[:2].all()
    for idx, ok in zip(draws, mask):
        assert bool(ok) == check_adm_poisson(decode_mul(idx, 2, p)).holds


@pytest.mark.parametrize("n,p", [(2, 257), (2, 2 ** 31 - 1), (3, 2 ** 31 - 1), (16, 5)])
def test_wide_indices_split_into_int64_blocks(n, p):
    rng = random.Random(n + p % 1000)
    space = p ** n ** 3
    draws = [0, space - 1] + [rng.randrange(space) for _ in range(6)]
    digits = base_p_digits(draws, n ** 3, p)
    assert digits.dtype == np.int64 and digits.shape == (n ** 3, len(draws))
    for idx, column in zip(draws, digits.T):
        assert column.tolist() == oracles.decode_mul(idx, n, p).exact.num.ravel().tolist()


def test_digits_beyond_int64_are_python_ints():
    p = 2 ** 89 - 1
    draws = [0, p * p - 1, 12345 * p + 678]
    digits = base_p_digits(draws, 2, p)
    assert digits.dtype == object
    assert digits.T.tolist() == [[idx % p, idx // p] for idx in draws]


@pytest.mark.parametrize("seed,p", [(0, 5), (0, 7), (5, 5), (5, 7)])
def test_batched_poisson_sampler_matches_the_per_draw_loop(monkeypatch, seed, p):
    # the reference's hits in draw order, until two have a nonzero operation
    hits, ref = [], sample_poisson(SearchSpec("poisson", 2, p=p, count=2, seed=seed))
    while sum(not (b.is_zero() and o.is_zero()) for b, o in hits) < 2:
        hits.append(next(ref))
    want = {False: hits[:2],
            True: [(b, o) for b, o in hits if not (b.is_zero() and o.is_zero())][:2]}
    # batches of CHUNK, of 1000 draws, and of 50 under a reduced output cap
    for chunk, cap in ((searchmod.CHUNK, searchmod.MAX_OUTPUT_ENTRIES),
                       (1000, searchmod.MAX_OUTPUT_ENTRIES), (searchmod.CHUNK, 16 * 50)):
        monkeypatch.setattr(searchmod, "CHUNK", chunk)
        monkeypatch.setattr(searchmod, "MAX_OUTPUT_ENTRIES", cap)
        for nonzero_only in (False, True):
            spec = SearchSpec("poisson", 2, p=p, count=2, seed=seed,
                              nonzero_only=nonzero_only)
            got = [(h.ops["bracket"], h.ops["circ"]) for h in search(spec)]
            assert got == want[nonzero_only]
            assert all(oracles.check_poisson(*pair).holds for pair in got)


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
        got = [h.ops["star"] for h in search(spec)]
        assert got == want
        assert all(oracles.check_adm_poisson(m).holds for m in got)


def test_sampled_batches_are_bounded_by_the_output_cap(monkeypatch):
    """The sampled screen holds about MAX_OUTPUT_ENTRIES identity entries at
    a time: batches of max(1, min(CHUNK, cap // n**4)) draws, drawn in the
    same order and giving the same hits."""
    spec = SearchSpec("adm_poisson", 2, p=7, count=2, seed=101)
    want = [h.ops["star"] for h in search(spec)]
    sizes, screen = [], searchmod.screen

    def recording(groups, batches, *args):
        def counted():
            for draws, digits in batches:
                sizes.append(len(draws))
                yield draws, digits
        return screen(groups, counted(), *args)
    monkeypatch.setattr(searchmod, "screen", recording)
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
    digits = searchmod.base_p_digits

    def recording(indices, *args):
        built.append((int(indices[0]), len(indices)))
        return digits(indices, *args)
    monkeypatch.setattr(searchmod, "base_p_digits", recording)
    hits = list(search(SearchSpec("adm_poisson", 2, p=5, count=1)))
    assert len(hits) == 1 and hits[0].ops["star"].is_zero()
    assert built == [(0, searchmod.CHUNK)]


# sha256 of the stdout of the command below, measured when the pre search
# still checked each hit twice
PRE_NONZERO_10_SHA256 = "421f2d9e68aec9e352f5b1eb303412ba8ccd9768ddeb9c9068f14f7247e38eb2"


def count_checks(monkeypatch):
    """The tables of each tensors.check_identities call from now on, in a
    list; every admpoisson module that bound the function calls the count."""
    import sys
    from admpoisson import tensors, representations, ooperators, yangbaxter  # noqa: F401
    real, tables = tensors.check_identities, []

    def counted(groups, operands, p):
        tables.append(groups)
        return real(groups, operands, p)
    for name, module in list(sys.modules.items()):
        if name.startswith("admpoisson") and getattr(module, "check_identities", None) is real:
            monkeypatch.setattr(module, "check_identities", counted)
    return tables


def test_pre_search_checks_no_hit(monkeypatch, capsys):
    """`search pre_adm_poisson --dim 2 --field 5 --count 10 --nonzero-only`
    contracts the screened hits of each module at once (so the hits of the
    last module are all screened) and skips those whose induced
    pre-structure was already emitted.  Its only exact checks ask whether
    each algebra's dual module is a representation: no O-operator and no
    pre-structure is checked again.  It prints what it printed before."""
    from admpoisson.cli import run_command
    tables, hits = count_checks(monkeypatch), []

    def counted_hits(*args):
        for idx in o_operator_hits(*args):
            hits.append(idx)
            yield idx

    monkeypatch.setattr(searchmod, "o_operator_hits", counted_hits)
    code = run_command(["search", "pre_adm_poisson", "--dim", "2", "--field", "5",
                        "--count", "10", "--nonzero-only"])
    out = capsys.readouterr().out
    assert code == 0 and out.count("# instance") == 10
    assert hashlib.sha256(out.encode()).hexdigest() == PRE_NONZERO_10_SHA256
    assert len(hits) == 2655
    assert tables and all(groups is REPRESENTATION for groups in tables)


# k[x]/(x^2) over GF(5) (e1 the unit, e2 = x) with its adjoint action
UNITAL_GF5 = """format 1
field gf 5
dim 2
vdim 2
op star
star: e1 e1 = 1 e1
star: e1 e2 = 1 e2
star: e2 e1 = 1 e2
rep l e1 = [1,0 ; 0,1]
rep l e2 = [0,0 ; 1,0]
rep r e1 = [1,0 ; 0,1]
rep r e2 = [0,0 ; 1,0]
"""


@pytest.fixture
def search_files(tmp_path):
    """The files the searches below name: ybe.alg of the corpus, and
    unital.alg, UNITAL_GF5 written out."""
    (tmp_path / "unital.alg").write_text(UNITAL_GF5, encoding="utf-8")
    return {"ybe.alg": CORPUS / "ybe.alg", "unital.alg": tmp_path / "unital.alg"}


@pytest.mark.parametrize("target,kwargs,checks", [
    ("adm_poisson", {"dim": 2}, 0),
    ("adm_poisson", {"dim": 2, "p": 7, "count": 2, "seed": 101}, 0),
    ("poisson", {"dim": 1}, 0),
    ("poisson", {"dim": 2, "p": 7, "count": 2, "seed": 5}, 0),
    ("pre_adm_poisson", {"dim": 1, "p": 7}, 0),
    ("adm_pybe_solution", {"dim": 2, "algebra": "ybe.alg"}, 1),
    ("o_operator", {"dim": 2, "algebra": "unital.alg"}, 2)],
    ids=["adm-sweep", "adm-sampled", "poisson-sweep", "poisson-sampled", "pre-sweep",
         "adm-pybe", "o-operator"])
def test_search_checks_only_its_fixed_input(monkeypatch, search_files, target, kwargs,
                                            checks):
    """The screen is the check: no emitted hit is checked again.  The only
    exact checks of a search are those of its fixed input: the algebra is
    adm-Poisson, and for o_operator the action is a representation."""
    kwargs = {"p": 5, **kwargs}
    if "algebra" in kwargs:
        af = read_file(search_files[kwargs["algebra"]])
        kwargs["algebra"] = af.ops["star"]
        if target == "o_operator":
            kwargs["rep"] = (af.reps["l"], af.reps["r"])
    tables = count_checks(monkeypatch)
    assert list(search(SearchSpec(target, **kwargs)))
    assert tables == [((ADM_POISSON,),), REPRESENTATION][:checks]


# sha256 of the stdout of more searches: the first four measured before
# their target was screened in batches, the rest before the search stopped
# checking each screened hit again
SEARCH_SHA256 = [
    (["poisson", "--dim", "2", "--field", "5", "--count", "3", "--nonzero-only"],
     "ab8d372f3ca0797412cf5bd8efc6cf755c010e15bb61e8b8f185cef02b27a91f"),
    (["poisson", "--dim", "2", "--field", "7", "--count", "2", "--seed", "5"],
     "f28369382250e7b736fd88c966db70cf2bf9e10723cc7a33f51a82efd5e12deb"),
    (["adm_pybe_solution", "--dim", "2", "--field", "5", "--algebra", "ybe.alg"],
     "c9b1ca439d6e4e741ed744fbf79a94b41b31113084e93eb9a896e652d24428ed"),
    (["adm_pybe_solution", "--dim", "2", "--field", "5", "--algebra", "ybe.alg", "--skew"],
     "6ddff64ad120d98572cf143511864554f4ceac2ead54a2f219fa41912d7371a4"),
    (["adm_poisson", "--dim", "2", "--field", "5"],
     "f907c659040c2d2949eb7afaeb0b1f1b93221a3ec6f1fd7468c8a5d9f2b3b7d2"),
    (["adm_poisson", "--dim", "2", "--field", "5", "--nonzero-only", "--count", "20"],
     "2ad8937b8f3d8932b4de240b4f4ed3639133b13f02be2f3f2c92fde8bf9d5d5c"),
    (["adm_poisson", "--dim", "2", "--field", "7", "--count", "2", "--seed", "101"],
     "2b02d37a4971f18c98e44ba1a16cbd713f9c9e8e589c9db65d87f51b8deb24a3"),
    (["adm_poisson", "--dim", "2", "--field", "7", "--count", "2", "--seed", "202"],
     "1b3d6d26c06281187df37053ba6ec1ad231fccefa39cca733b11857a2284484b"),
    (["pre_adm_poisson", "--dim", "1", "--field", "7"],
     "d8f94f9c9a06acf267efd98eafc47973d3f9527777402e59177b29cd3c0f53f7"),
    (["o_operator", "--dim", "2", "--field", "5", "--algebra", "unital.alg"],
     "a1d9f56aa155717b44d2a739eb48d59acd7ec52d572a9f0e6f355abb8bdef0c9"),
]


@pytest.mark.parametrize("argv,digest", SEARCH_SHA256)
def test_search_output_is_pinned(capsys, search_files, argv, digest):
    from admpoisson.cli import run_command
    code = run_command(["search"] + [str(search_files.get(a, a)) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("table", ["adm", "poisson", "pre", "o-operator", "adm-pybe"])
@pytest.mark.parametrize("p", [5, 7])
def test_checks_and_screens_share_one_overflow_rule(monkeypatch, table, p):
    """A one-structure check and a one-candidate screen of the same
    structure contract it in one dtype, narrower than int64 over these
    fields, and give one verdict.  Every structure has an entry p - 1, the
    largest residue a screen allows for; the first of each dim is zero
    elsewhere."""
    from admpoisson import tensors
    from admpoisson.ooperators import O_OPERATOR
    from admpoisson.yangbaxter import YBE
    groups = {"adm": ((ADM_POISSON,),), "poisson": POISSON, "pre": PRE_ADM_POISSON,
              "o-operator": ((O_OPERATOR,),), "adm-pybe": ((YBE["adm_pybe"][1],),)}[table]
    ranks = {name: rank for group in groups for ident in group
             for name, rank in ident.residual.ranks.items()}
    # the type of every evaluation, kernel or einsum, is chosen by _narrowest
    chosen, narrowest = [], tensors._narrowest
    monkeypatch.setattr(tensors, "_narrowest", lambda bound: chosen.append(narrowest(bound))
                        or chosen[-1])
    rng, verdicts = np.random.default_rng(1500 + p), set()
    for n, high in [(1, 1), (2, 1)] + [(1, p), (2, p)] * 10:
        ops = {name: rng.integers(0, high, (n,) * rank) for name, rank in ranks.items()}
        ops[max(ops)].flat[0] = p - 1
        chosen.clear()
        holds = tensors.check_identities(groups, {k: tensors.Exact(a, 1, p)
                                                  for k, a in ops.items()}, p).holds
        dtypes = chosen[:1]     # the residuals' (a witness's lhs may take a narrower one)
        chosen.clear()
        hits = list(screen(groups, [([0], np.zeros((1, 1)))],
                           lambda _: {k: a[..., None] for k, a in ops.items()}, {}, p))
        dtypes += chosen
        assert len(dtypes) == 2 and len(set(dtypes)) == 1, dtypes
        assert dtypes[0] in (np.int8, np.int16, np.int32)
        assert holds == bool(hits)
        verdicts.add(holds)
    assert verdicts == {True, False}
