"""Exhaustive and randomized search for structures over small prime fields.

Candidate multiplications on an n-dimensional space over GF(p) are encoded
as integers: digit t of the base-p expansion is c[i][j][k] with
t = (i*n + j)*n + k, so index 0 is the zero algebra and enumeration by
ascending integer is the deterministic exhaustive order.

Every target runs through one screen: batches of candidates, each a key
and a column of base-p digits (candidate axis last), go through the
identity tables beside the fixed operands.  Exhaustive sweeps take
ascending batches of CHUNK; sampled searches take seeded draws in batches,
in the order drawn.  The screen is the check: it evaluates the identity
tables exactly, under the one overflow rule of every check, so each hit is
emitted as screened, built from its own digit column.  A target only
validates its fixed input and names its hit source and the file a hit is
printed in.  The targets beyond the algebra catalogs import the modules of
their tables where they run.
"""

import random
from itertools import islice

import numpy as np

from .scalars import check_characteristic
from .tensors import Exact, MulTensor, RTensor, as_exact, cast_operands, contract
from .algebras import ADM_POISSON, POISSON, AdmPoissonAlgebra, check_adm_poisson
from .fileformat import MAX_DIM, MAX_OUTPUT_ENTRIES, AlgebraFile

MAX_EXHAUSTIVE = 5 ** 9
CHUNK = 4096            # candidates screened at a time


def encode_mul(m):
    return sum(d * m.p ** t for t, d in enumerate(m.exact.num.ravel().tolist()))


def decode_mul(idx, n, p):
    return MulTensor(n, p, Exact(base_p_digits([idx], n ** 3, p).reshape(n, n, n), 1, p))


def base_p_digits(indices, cells, p):
    """Base-p digits 0 .. cells-1 of each index, shape (cells, len(indices)).
    Wide indices are cut with Python divmod into int64 blocks of k digits,
    p**k the largest power within int64; only a p beyond int64 gives objects."""
    top, k = np.iinfo(np.int64).max, 1
    while k < cells and p ** (k + 1) <= top:
        k += 1
    dtype = np.int64 if p <= top else object
    rem, q = np.array(indices, dtype=dtype if k >= cells else object), p ** k
    split = np.empty((-(-cells // k), len(rem)), dtype=dtype)
    for b in range(len(split)):
        split[b] = rem % q
        rem //= q
    digits = np.empty((len(split), k, len(rem)), dtype=dtype)
    for t in range(k):
        digits[:, t] = split % p
        split //= p
    return digits.reshape(-1, len(rem))[:cells]


def screen(groups, batches, operands, fixed, p):
    """The key and digit column of each candidate that satisfies every
    identity of `groups`.  `batches` yields (keys, digits), digits of shape
    (cells, B); operands(digits) names the candidates' operand arrays, and
    `fixed` the operands all candidates share, with a last axis of 1.
    Each batch is cast once by cast_operands, which bounds its memory; a
    hit is a candidate at which every residual is zero."""
    sides = [ident.residual for group in groups for ident in group]
    for keys, digits in batches:
        arrays = cast_operands(sides, {**fixed, **operands(digits)}, p - 1, p)
        fails = np.logical_or.reduce([contract(side, arrays, p).reshape(-1, len(keys)).any(0)
                                      for side in sides])
        for i in np.flatnonzero(~fails).tolist():
            yield keys[i], digits[:, i]


def sweep(cells, p):
    """(indices, digits) of every candidate of `cells` digits, CHUNK at a time."""
    for start in range(0, p ** cells, CHUNK):
        stop = min(start + CHUNK, p ** cells)
        yield range(start, stop), base_p_digits(np.arange(start, stop), cells, p)


class _OutOfDraws(Exception):
    """A sampled source has made all its draws (args: their number)."""


def draws(spec, draw, digits):
    """(draws, digits(draws)) of spec.count * 10000 draws of draw(), in
    batches that keep the largest identity output (n**4 entries a draw)
    near MAX_OUTPUT_ENTRIES; raises _OutOfDraws after the last."""
    if spec.count is None:
        raise ValueError("space too large without a sample count")
    attempts = spec.count * 10000
    batch = max(1, min(CHUNK, MAX_OUTPUT_ENTRIES // spec.dim ** 4))
    for start in range(0, attempts, batch):
        keys = [draw() for _ in range(min(batch, attempts - start))]
        yield keys, digits(keys)
    raise _OutOfDraws(attempts)


def operations(names, n):
    """Operands of digits that hold one n x n x n operation per name, in turn."""
    return lambda digits: dict(zip(names, digits.reshape(len(names), n, n, n, -1)))


def table_hits(groups, names, n, p):
    """Ascending keys and digit columns of the candidates at (n, p) that
    satisfy every identity of `groups`; operand names[o] is operation o."""
    return screen(groups, sweep(len(names) * n ** 3, p), operations(names, n), {}, p)


def o_operator_hits(star, l, r, p):
    """Ascending keys and digit columns of the O-operators theta over the
    operation star and the action (l, r), broadcast; entry (i, j) of theta
    (one row per basis element of star) is digit i*cols + j of its key."""
    from .ooperators import O_OPERATOR
    fixed = {name: as_exact(data, p).num.astype(np.int64)[..., None]
             for name, data in (("c", star.exact), ("l", l), ("r", r))}
    n, m = star.n, fixed["l"].shape[1]
    return screen(((O_OPERATOR,),), sweep(n * m, p),
                  lambda digits: {"t": digits.reshape(n, m, -1)}, fixed, p)


def adm_catalog_indices(n, p):
    """Ascending encodings of all adm-Poisson multiplications at (n, p),
    with their digit columns, as they are found; only spaces within the
    exhaustive bound are supported."""
    if p ** (n ** 3) > MAX_EXHAUSTIVE:
        raise ValueError(f"space p^(n^3) = {p ** (n ** 3)} exceeds exhaustive bound")
    yield from table_hits(((ADM_POISSON,),), "c", n, p)


def _instances(spec, hits, operands, build):
    """The file build(ops) of each hit, ops its operands as Exacts by name,
    built from its own digit column; with nonzero_only, of the hits with a
    nonzero operand."""
    for _, column in hits:
        arrays = operands(column[:, None])
        if not spec.nonzero_only or any(a.any() for a in arrays.values()):
            yield build({name: Exact(a[..., 0], 1, spec.p) for name, a in arrays.items()})


class SearchShortfall(Exception):
    """A sampled search used up its attempts before finding `count` hits."""

    def __init__(self, found, count, attempts):
        super().__init__(f"found {found} of {count} after {attempts} attempts")


class SearchSpec:
    """target, a key of TARGETS; algebra constrains the tensor/operator
    targets, rep the o_operator target and skew the adm_pybe_solution
    target, and the other targets take none of them."""

    def __init__(self, target, dim, p=5, count=None, seed=0,
                 nonzero_only=False, skew=False, algebra=None, rep=None):
        if target not in TARGETS:
            raise ValueError(f"unknown target {target!r}")
        if algebra is not None and target not in ("adm_pybe_solution", "o_operator"):
            raise ValueError(f"{target} search takes no fixed algebra")
        if rep is not None and target != "o_operator":
            raise ValueError(f"{target} search takes no representation")
        if skew and target != "adm_pybe_solution":
            raise ValueError(f"{target} search takes no --skew")
        check_characteristic(p)
        if p == 0:
            raise ValueError("search runs over finite fields")
        if dim < 1:
            raise ValueError(f"dimension must be at least 1, got {dim}")
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} exceeds the largest supported dimension {MAX_DIM}")
        if count is not None and count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        self.target = target
        self.dim = dim
        self.p = p
        self.count = count
        self.seed = seed
        self.nonzero_only = nonzero_only
        self.skew = skew
        self.algebra = algebra          # MulTensor, for tensor/operator targets
        self.rep = rep                  # (l, r) families, for o_operator


def search(spec):
    """Yield the instances that pass the screen as AlgebraFile objects,
    deterministically.

    A sampled search that runs out of attempts before it finds spec.count
    instances raises SearchShortfall after yielding those it found."""
    hits, operands, build = TARGETS[spec.target](spec, spec.p, spec.dim)
    found, instances = 0, _instances(spec, hits, operands, build)
    try:
        for found, af in enumerate(islice(instances, spec.count), 1):
            yield af
    except _OutOfDraws as exc:
        raise SearchShortfall(found, spec.count, exc.args[0]) from None


def _search_adm(spec, p, n):
    if p ** (n ** 3) <= MAX_EXHAUSTIVE:
        hits = adm_catalog_indices(n, p)
    else:
        rng, space = random.Random(spec.seed), p ** (n ** 3)
        hits = screen(((ADM_POISSON,),),
                      draws(spec, lambda: rng.randrange(space),
                            lambda keys: base_p_digits(keys, n ** 3, p)),
                      operations("c", n), {}, p)
    return hits, operations("c", n), lambda ops: AlgebraFile(p, n, star=MulTensor(n, p, ops["c"]))


def _search_poisson(spec, p, n):
    if p ** (2 * n ** 3) <= MAX_EXHAUSTIVE:
        operands, hits = operations("bo", n), table_hits(POISSON, "bo", n, p)
    else:
        # draws in the symmetry subspace: for each i <= j and k, a bracket
        # residue (0 on the diagonal) and then a circ residue
        rng, upper = random.Random(spec.seed), np.triu_indices(n)

        def operands(digits):
            pairs = digits.reshape(len(upper[0]), n, 2, -1)
            bracket, circ = np.zeros((2, n, n, n, digits.shape[-1]), dtype=digits.dtype)
            bracket[upper] = pairs[:, :, 0] * (upper[0] != upper[1])[:, None, None]
            bracket[upper[::-1]] = -bracket[upper] % p
            circ[upper] = circ[upper[::-1]] = pairs[:, :, 1]
            return {"b": bracket, "o": circ}
        cells = n * n * (n + 1)
        hits = screen(POISSON, draws(spec, lambda: [rng.randrange(p) for _ in range(cells)],
                                     lambda keys: np.array(keys, dtype=np.int64).T),
                      operands, {}, p)
    return hits, operands, lambda ops: AlgebraFile(
        p, n, bracket=MulTensor(n, p, ops["b"]), circ=MulTensor(n, p, ops["o"]))


def _fixed_algebra(spec, p, n, needs):
    """The fixed algebra, given, at (n, p) and adm-Poisson, or ValueError."""
    star = spec.algebra
    if star is None:
        raise ValueError(f"{spec.target} search needs {needs}")
    if star.n != n or star.p != p:
        raise ValueError("fixed algebra must match the search dim and field")
    report = check_adm_poisson(star)
    if not report.holds:
        raise ValueError(f"the fixed algebra is not adm-Poisson: it fails {report.where()}")
    return AdmPoissonAlgebra.raw(star)


def _search_pybe(spec, p, n):
    from .yangbaxter import YBE
    alg = _fixed_algebra(spec, p, n, "a fixed algebra")
    upper = np.triu_indices(n, 1)
    cells = len(upper[0]) if spec.skew else n * n
    if p ** cells > MAX_EXHAUSTIVE:
        raise ValueError("space too large; restrict to skew or lower dim")

    def operands(digits):
        """r as a and b: the digits, or r - r^T with them above the diagonal."""
        if not spec.skew:
            return dict.fromkeys("ab", digits.reshape(n, n, -1))
        r = np.zeros((n, n, digits.shape[-1]), dtype=digits.dtype)
        r[upper] = digits
        return dict.fromkeys("ab", (r - r.transpose(1, 0, 2)) % p)
    fixed = {"m": alg.star.exact.num[..., None]}
    hits = screen(((YBE["adm_pybe"][1],),), sweep(cells, p), operands, fixed, p)
    return hits, operands, lambda ops: AlgebraFile(p, n, star=alg.star, r=RTensor(ops["a"], p))


def _search_o_operator(spec, p, n):
    from .representations import Representation, check_representation
    if spec.rep is None:
        raise ValueError("o_operator search needs an algebra and a representation")
    alg = _fixed_algebra(spec, p, n, "an algebra and a representation")
    l, r = spec.rep
    rep = Representation.raw(alg, l, r)
    report = check_representation(rep)
    if not report.holds:
        raise ValueError(f"the fixed action is not a representation: it fails {report.where()}")
    m = rep.vdim
    if p ** (n * m) > MAX_EXHAUSTIVE:
        raise ValueError("theta space too large")

    def build(ops):
        af = AlgebraFile(p, n, m, star=alg.star, l=l, r=r)
        af.maps["theta"] = ops["t"]
        return af
    return (o_operator_hits(alg.star, l, r, p),
            lambda digits: {"t": digits.reshape(n, m, -1)}, build)


def _search_pre(spec, p, n):
    """Pre-structures: exhaustive over the raw pair space when affordable,
    otherwise induced by the O-operators over the algebra catalog."""
    from .ooperators import PRE_ADM_POISSON
    if p ** (2 * n ** 3) <= MAX_EXHAUSTIVE:
        hits = table_hits(PRE_ADM_POISSON, "sq", n, p)
    else:
        hits = _induced_pre_hits(n, p)
    return hits, operations("sq", n), lambda ops: AlgebraFile(
        p, n, succ=MulTensor(n, p, ops["s"]), prec=MulTensor(n, p, ops["q"]))


def _induced_pre_hits(n, p):
    """Keys and digit columns (succ, then prec) of the distinct
    pre-structures induced by the O-operators on the adjoint module of each
    catalog algebra at (n, p), and on its dual where that is a module; the
    O-operators of one module induce theirs at once, batch-last."""
    from .representations import adjoint_rep, check_representation, dual_rep
    from .ooperators import INDUCED_PRE
    seen = set()
    for _, column in adm_catalog_indices(n, p):
        star = MulTensor(n, p, Exact(column.reshape(n, n, n), 1, p))
        adj = adjoint_rep(AdmPoissonAlgebra.raw(star))
        dual = dual_rep(adj)
        for rep in [adj, dual] if check_representation(dual).holds else [adj]:
            thetas = np.stack([t for _, t in o_operator_hits(star, rep.l, rep.r, p)], axis=-1)
            ops = cast_operands(INDUCED_PRE, {"t": thetas.reshape(n, rep.vdim, -1),
                                              "l": rep.l.num[..., None],
                                              "r": rep.r.num[..., None]}, p - 1, p)
            pres = np.stack([contract(t, ops, p) for t in INDUCED_PRE])
            for pair in np.moveaxis(pres, -1, 0):
                key = pair.tobytes()
                if key not in seen:
                    seen.add(key)
                    yield key, pair.reshape(-1)


# each target: its hits, their operands and the file of one hit
TARGETS = {"adm_poisson": _search_adm, "poisson": _search_poisson,
           "adm_pybe_solution": _search_pybe, "pre_adm_poisson": _search_pre,
           "o_operator": _search_o_operator}
