"""Exhaustive and randomized search for structures over small prime fields.

Candidate multiplications on an n-dimensional space over GF(p) are encoded
as integers: digit t of the base-p expansion is c[i][j][k] with
t = (i*n + j)*n + k, so index 0 is the zero algebra and enumeration by
ascending integer is the deterministic exhaustive order.

Candidates are screened in batches of CHUNK by the identity tables
(identity_mask), with the candidate axis innermost.  Exhaustive sweeps
take the batches in ascending order and yield each batch's hits before
building the next; sampled searches screen batches of random draws.
O-operator maps theta are screened the same way, over a fixed algebra
and action.  Every emitted hit is re-verified by the exact checker.
"""

import random
from itertools import islice

import numpy as np

from .scalars import check_characteristic
from .tensors import Exact, MulTensor, as_exact, identity_mask, _sum_terms
from .algebras import (ADM_POISSON, POISSON, AdmPoissonAlgebra,
                       check_adm_poisson, check_poisson)
from .representations import (Representation, adjoint_rep, check_representation,
                              dual_rep)
from .yangbaxter import RTensor, ybe_operator
from .ooperators import (OOperatorCandidate, O_OPERATOR, check_o_operator,
                         PreAdmPoisson, PRE_ADM_POISSON, INDUCED_PRE, check_pre_adm_poisson)
from .fileformat import MAX_DIM, MAX_OUTPUT_ENTRIES, AlgebraFile

MAX_EXHAUSTIVE = 5 ** 9
CHUNK = 4096            # candidates screened at a time


def encode_mul(m):
    return sum(d * m.p ** t for t, d in enumerate(m.exact.num.ravel().tolist()))


def decode_mul(idx, n, p):
    return MulTensor(n, p, Exact(base_p_digits([idx], n ** 3, p).reshape(n, n, n), 1, p))


def base_p_digits(indices, cells, p):
    """Base-p digits 0 .. cells-1 of each index, shape (cells, len(indices))."""
    wide = p ** cells > np.iinfo(np.int64).max
    rem = np.array(indices, dtype=object if wide else np.int64)
    digits = np.empty((cells, len(rem)), dtype=rem.dtype)
    for t in range(cells):
        digits[t] = rem % p
        rem //= p
    return digits


def digit_arrays(indices, n, p, ops=1):
    """The structure tensors of the candidates `indices`, batch-last: `ops`
    residue arrays of shape (n, n, n, len(indices)); operation o holds
    base-p digits o*n**3 ... (o+1)*n**3 - 1 of each index."""
    cells = n ** 3
    digits = base_p_digits(indices, ops * cells, p)
    return [digits[o * cells:(o + 1) * cells].reshape(n, n, n, -1) for o in range(ops)]


def table_mask(groups, names, indices, n, p):
    """Which of the candidates `indices` satisfy every identity of `groups`;
    operand names[o] is operation o."""
    arrays = dict(zip(names, digit_arrays(indices, n, p, len(names))))
    mask = np.ones(len(indices), dtype=bool)
    for group in groups:
        for ident in group:
            mask &= identity_mask(ident, arrays, p)
    return mask


def table_hits(groups, names, n, p):
    """Ascending indices of all candidates at (n, p) that satisfy every
    identity of `groups`, one CHUNK at a time."""
    space = p ** (len(names) * n ** 3)
    for start in range(0, space, CHUNK):
        indices = np.arange(start, min(start + CHUNK, space))
        yield from indices[table_mask(groups, names, indices, n, p)].tolist()


def o_operator_hits(star, l, r, p):
    """Ascending indices of the maps theta that are O-operators over the
    operation star and the action (l, r), one CHUNK at a time; theta has
    one row per basis element of star, one column per module basis element,
    and entry (i, j) is base-p digit i*cols + j of its index (as iter_maps).
    The fixed operands are broadcast along the batch of thetas."""
    fixed = {name: as_exact(data, p).num.astype(np.int64)[..., None]
             for name, data in (("c", star.exact), ("l", l), ("r", r))}
    n, m = star.n, fixed["l"].shape[1]
    space = p ** (n * m)
    for start in range(0, space, CHUNK):
        indices = np.arange(start, min(start + CHUNK, space))
        theta = base_p_digits(indices, n * m, p).reshape(n, m, -1)
        yield from indices[identity_mask(O_OPERATOR, {"t": theta, **fixed}, p)].tolist()


def adm_catalog_indices(n, p):
    """Ascending encodings of all adm-Poisson multiplications at (n, p), as
    they are found; only spaces within the exhaustive bound are supported."""
    space = p ** (n ** 3)
    if space > MAX_EXHAUSTIVE:
        raise ValueError(f"space p^(n^3) = {space} exceeds exhaustive bound")
    yield from table_hits(((ADM_POISSON,),), "c", n, p)


class SearchShortfall(Exception):
    """A sampled search used up its attempts before finding `count` hits."""

    def __init__(self, found, count, attempts):
        super().__init__(f"found {found} of {count} after {attempts} attempts")


class SearchSpec:
    """target in {adm_poisson, poisson, adm_pybe_solution, pre_adm_poisson,
    o_operator}; algebra/rep constrain the tensor/operator targets."""

    TARGETS = ("adm_poisson", "poisson", "adm_pybe_solution",
               "pre_adm_poisson", "o_operator")

    def __init__(self, target, dim, p=5, count=None, seed=0,
                 nonzero_only=False, skew=False, algebra=None, rep=None):
        if target not in self.TARGETS:
            raise ValueError(f"unknown target {target!r}")
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
    """Yield verified instances as AlgebraFile objects, deterministically.

    A sampled search that runs out of attempts before it finds spec.count
    instances raises SearchShortfall after yielding those it found."""
    run = {"adm_poisson": _search_adm, "poisson": _search_poisson,
           "adm_pybe_solution": _search_pybe, "o_operator": _search_o_operator,
           "pre_adm_poisson": _search_pre}[spec.target]
    yield from islice(run(spec, spec.p, spec.dim), spec.count)


def _search_adm(spec, p, n):
    space = p ** (n ** 3)
    if space <= MAX_EXHAUSTIVE:
        for idx in adm_catalog_indices(n, p):
            m = decode_mul(idx, n, p)
            if spec.nonzero_only and m.is_zero():
                continue
            if not check_adm_poisson(m).holds:
                continue
            yield AlgebraFile(p, n, star=m)
    else:
        rng = random.Random(spec.seed)
        if spec.count is None:
            raise ValueError("space too large without a sample count")
        attempts, found = spec.count * 10000, 0
        # a batch's largest identity output has n**4 entries per draw
        batch = max(1, min(CHUNK, MAX_OUTPUT_ENTRIES // n ** 4))
        for start in range(0, attempts, batch):
            draws = [rng.randrange(space) for _ in range(min(batch, attempts - start))]
            for i in np.flatnonzero(table_mask(((ADM_POISSON,),), "c", draws, n, p)):
                m = decode_mul(draws[i], n, p)
                if spec.nonzero_only and m.is_zero():
                    continue
                if check_adm_poisson(m).holds:
                    found += 1
                    yield AlgebraFile(p, n, star=m)
        raise SearchShortfall(found, spec.count, attempts)


def _search_poisson(spec, p, n):
    space = p ** (2 * n ** 3)
    if space <= MAX_EXHAUSTIVE:
        sub = p ** (n ** 3)
        for idx in table_hits(POISSON, "bo", n, p):
            br = decode_mul(idx % sub, n, p)
            circ = decode_mul(idx // sub, n, p)
            if spec.nonzero_only and br.is_zero() and circ.is_zero():
                continue
            if check_poisson(br, circ).holds:
                yield AlgebraFile(p, n, bracket=br, circ=circ)
    else:
        # sample inside the necessary symmetry subspaces, then verify exactly
        rng = random.Random(spec.seed)
        if spec.count is None:
            raise ValueError("space too large without a sample count")
        attempts, found = spec.count * 10000, 0
        for _ in range(attempts):
            br_e, circ_e = np.zeros((2, n, n, n), dtype=object)
            for i in range(n):
                for j in range(i, n):
                    for k in range(n):
                        b = rng.randrange(p)
                        c = rng.randrange(p)
                        if i == j:
                            b = 0
                        br_e[i, j, k], br_e[j, i, k] = b, -b
                        circ_e[i, j, k] = circ_e[j, i, k] = c
            br = MulTensor(n, p, Exact(br_e, 1, p))
            circ = MulTensor(n, p, Exact(circ_e, 1, p))
            if spec.nonzero_only and br.is_zero() and circ.is_zero():
                continue
            if check_poisson(br, circ).holds:
                found += 1
                yield AlgebraFile(p, n, bracket=br, circ=circ)
        raise SearchShortfall(found, spec.count, attempts)


def iter_r_tensors(n, p, skew):
    """Deterministic enumeration of r in P (x) P (optionally skew: the
    entries above the diagonal, row by row, are the base-p digits)."""
    if not skew:
        for coeff in iter_maps(n, n, p):
            yield RTensor(coeff, p)
        return
    upper = np.triu_indices(n, 1)
    for idx in range(p ** len(upper[0])):
        coeff = np.zeros((n, n), dtype=object)
        coeff[upper] = base_p_digits([idx], len(upper[0]), p)[:, 0]
        yield RTensor(Exact(coeff - coeff.T, 1, p), p)


def _search_pybe(spec, p, n):
    if spec.algebra is None:
        raise ValueError("adm_pybe_solution search needs a fixed algebra")
    star = spec.algebra
    if star.n != n or star.p != p:
        raise ValueError("fixed algebra must match the search dim and field")
    space = p ** (n * (n - 1) // 2 if spec.skew else n * n)
    if space > MAX_EXHAUSTIVE:
        raise ValueError("space too large; restrict to skew or lower dim")
    for r in iter_r_tensors(n, p, spec.skew):
        if spec.nonzero_only and r.is_zero():
            continue
        if ybe_operator(star, r, "P").is_zero():
            yield AlgebraFile(p, n, star=star, r=r)


def decode_map(idx, rows, cols, p):
    """The rows x cols matrix whose entry (i, j) is base-p digit i*cols + j
    of idx."""
    return Exact(base_p_digits([idx], rows * cols, p).reshape(rows, cols), 1, p)


def iter_maps(rows, cols, p):
    for idx in range(p ** (rows * cols)):
        yield decode_map(idx, rows, cols, p)


def _search_o_operator(spec, p, n):
    if spec.algebra is None or spec.rep is None:
        raise ValueError("o_operator search needs an algebra and a representation")
    star = spec.algebra
    if star.n != n or star.p != p:
        raise ValueError("fixed algebra must match the search dim and field")
    alg = AdmPoissonAlgebra(star)
    l, r = spec.rep
    rep = Representation(alg, l, r)
    m = rep.vdim
    space = p ** (n * m)
    if space > MAX_EXHAUSTIVE:
        raise ValueError("theta space too large")
    for idx in o_operator_hits(star, l, r, p):
        if spec.nonzero_only and idx == 0:
            continue
        theta = decode_map(idx, n, m, p)
        if check_o_operator(OOperatorCandidate(alg, rep, theta)).holds:
            af = AlgebraFile(p, n, m, star=star, l=l, r=r)
            af.maps["theta"] = theta
            yield af


def _search_pre(spec, p, n):
    """Pre-structures: exhaustive over the raw pair space when affordable,
    otherwise generated from O-operators over the algebra catalog (every
    O-operator induces a pre-structure on its module); all hits re-verified."""
    space = p ** (2 * n ** 3)
    if space <= MAX_EXHAUSTIVE:
        sub = p ** (n ** 3)
        for idx in table_hits(PRE_ADM_POISSON, "sq", n, p):
            succ = decode_mul(idx % sub, n, p)
            prec = decode_mul(idx // sub, n, p)
            if spec.nonzero_only and succ.is_zero() and prec.is_zero():
                continue
            if check_pre_adm_poisson(PreAdmPoisson.raw(succ, prec)).holds:
                yield AlgebraFile(p, n, succ=succ, prec=prec)
        return
    seen = set()
    for alg_idx in adm_catalog_indices(n, p):
        star = decode_mul(alg_idx, n, p)
        alg = AdmPoissonAlgebra.raw(star)
        adj = adjoint_rep(alg, check=False)
        dual = dual_rep(adj, check=False)
        for rep in [adj, dual] if check_representation(dual).holds else [adj]:
            hits, m = list(o_operator_hits(star, rep.l, rep.r, p)), rep.vdim
            # the pre-structures all the hits induce, batch-last; exact checks
            # only for one about to be emitted
            ops = {"t": base_p_digits(hits, n * m, p).reshape(n, m, -1),
                   "l": rep.l.num[..., None], "r": rep.r.num[..., None]}
            pres = np.stack([_sum_terms(t, ops, (m,) * 3 + (len(hits),), np.int64, p)
                             for t in INDUCED_PRE])
            for idx, pair in zip(hits, np.moveaxis(pres, -1, 0)):
                if (spec.nonzero_only and not pair.any()) or pair.tobytes() in seen:
                    continue
                pre = PreAdmPoisson.raw(*(MulTensor(m, p, Exact(x, 1, p)) for x in pair))
                if not check_o_operator(OOperatorCandidate(alg, rep, decode_map(idx, n, m, p))).holds:
                    continue
                report = check_pre_adm_poisson(pre)
                if not report.holds:
                    raise RuntimeError(f"induced pre-structure fails {report.witness[0]} "
                                       f"at {report.witness[1]}")
                seen.add(pair.tobytes())
                yield AlgebraFile(p, n, succ=pre.succ, prec=pre.prec)
