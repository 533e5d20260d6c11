"""Checks of the program's answers that use only the oracle.

A check request is correct when the exit code and first line match the
verdict the input was built to have, and a FAIL witness names an identity
the input was built to break and that identity is nonzero at the printed
indices.  A build is correct when its re-parsed output equals the oracle's
own construction and satisfies the construction's axioms at random vectors.
"""

import itertools
import re

import numpy as np

from oracle import (adjoint, adm_residual, adm_tensor, basis, bowtie, con1_residual,
                    cyclic_residual, dual_family, dual_mul, fam_of,
                    o_operator_residual, operator_form_residual,
                    poisson_residuals, pre_residuals, prepoisson_residuals,
                    read_doc, flat, rep_residuals, rota_baxter_residual, semidirect,
                    vanishes_at_random, ybe_tensor, lmat, rmat,
                    invariance_residual)

_WITNESS = re.compile(r"^FAIL (\S+) at \(([\d,]*)\):")


def parse_witness(line):
    m = _WITNESS.match(line)
    if m is None:
        return None
    return m.group(1), tuple(int(i) - 1 for i in m.group(2).split(",") if i)


def check_verdict(case, code, out):
    """(correct, reason) for a check request's exit code and stdout."""
    line = out.splitlines()[0] if out else ""
    if case.valid:
        if code == 0 and line.startswith(f"OK {case.name} "):
            return True, ""
        return False, f"expected OK, got exit {code}: {line!r}"
    if code != 1:
        return False, f"expected exit 1, got {code}: {line!r}"
    wit = parse_witness(line)
    if wit is None:
        return False, f"unparsable witness {line!r}"
    name, idx = wit
    if name not in case.expect:
        return False, f"witness {name} not among {sorted(case.expect)}"
    try:
        holds = min(idx, default=0) >= 0 and witness_holds(case.doc, name, idx)
    except (IndexError, KeyError, ValueError):
        holds = False
    if not holds:
        return False, f"witness {name} at {idx} is zero or out of range"
    return True, ""


def _fams(doc, prefix):
    if prefix == "rep":
        return doc.ops["star"], doc.reps["l"], doc.reps["r"]
    k = prefix[-1]
    return doc.ops[f"star{k}"], doc.reps[f"l{k}"], doc.reps[f"r{k}"]


def _poisson_pair(doc):
    if "bracket" in doc.ops:
        return doc.ops["bracket"], doc.ops["circ"]
    c = doc.ops["star"]
    f = doc.f
    ct = np.transpose(c, (1, 0, 2))
    return f.red(f.half * (c - ct)), f.red(f.half * (c + ct))


def witness_holds(doc, name, idx):
    """Is the named identity nonzero at the (0-based) printed indices?"""
    f = doc.f
    n = doc.dim
    e = lambda i, size=n: basis(f, size, i)
    prefix, _, ident = name.rpartition(":")
    if ident == "adm-poisson":
        c = doc.ops["star" + (prefix[-1] if prefix.startswith("star") else "")]
        return not f.is_zero(adm_residual(f, c, *(e(i, c.shape[0]) for i in idx)))
    if ident in ("antisymmetry", "jacobi", "symmetry", "associativity", "leibniz"):
        br, circ = _poisson_pair(doc)
        vecs = [e(i) for i in idx] + [e(0)] * (3 - len(idx))
        return not f.is_zero(poisson_residuals(f, br, circ, *vecs)[ident])
    if ident in ("c2", "c3", "c4"):
        c, l, r = _fams(doc, prefix or "rep")
        m = c.shape[0]
        return not f.is_zero(rep_residuals(f, c, l, r, e(idx[0], m), e(idx[1], m))[ident])
    if ident.startswith("match"):
        s1, s2 = doc.ops["star1"], doc.ops["star2"]
        c = bowtie(f, s1, s2, doc.reps["l1"], doc.reps["r1"], doc.reps["l2"], doc.reps["r2"])
        n1 = s1.shape[0]
        a, b, k = idx
        triple = (a, b, n1 + k) if int(ident[5:]) <= 3 else (n1 + a, n1 + b, k)
        size = c.shape[0]
        return any(not f.is_zero(adm_residual(f, c, *(e(i, size) for i in perm)))
                   for perm in itertools.permutations(triple))
    if ident == "invariance":
        return not f.is_zero(invariance_residual(f, doc.ops["star"], doc.maps["form"],
                                                 *(e(i) for i in idx)))
    if ident == "coalgebra":
        i, a, b = idx
        dual = dual_mul(doc.comuls["alpha"])
        return any(adm_residual(f, dual, e(a), e(b), e(s))[i] != 0 for s in range(n))
    if ident == "comultiplication-symmetry":
        d, D = doc.comuls["delta"], doc.comuls["Delta"]
        return (not f.is_zero(d + np.transpose(d, (0, 2, 1)))
                or not f.is_zero(D - np.transpose(D, (0, 2, 1))))
    if ident in ("adm-pybe", "cybe", "aybe"):
        r = doc.tensors["r"]
        if ident == "adm-pybe":
            t = ybe_tensor(f, doc.ops["star"], r, "P")
        else:
            br, circ = _poisson_pair(doc)
            t = ybe_tensor(f, br, r, "C") if ident == "cybe" else ybe_tensor(f, circ, r, "A")
        return t[idx] != 0
    if ident == "con1":
        return not f.is_zero(con1_residual(f, doc.ops["star"], doc.tensors["r"], e(idx[0])))
    if ident in ("o-operator", "rota-baxter"):
        c = doc.ops["star"]
        if ident == "o-operator":
            theta = doc.maps["theta"]
            m = theta.shape[1]
            res = o_operator_residual(f, c, doc.reps["l"], doc.reps["r"], theta,
                                      e(idx[0], m), e(idx[1], m))
        else:
            res = rota_baxter_residual(f, c, doc.maps["R"], e(idx[0]), e(idx[1]))
        return not f.is_zero(res)
    if ident in ("pre1", "pre2", "pre3"):
        return not f.is_zero(pre_residuals(f, doc.ops["succ"], doc.ops["prec"],
                                           *(e(i) for i in idx))[ident])
    if ident in ("zinbiel", "pre-lie", "compat1", "compat2"):
        return not f.is_zero(prepoisson_residuals(f, doc.ops["dot"], doc.ops["ast"],
                                                  *(e(i) for i in idx))[ident])
    if ident == "operator-form":
        return not f.is_zero(operator_form_residual(f, doc.ops["star"], doc.tensors["r"],
                                                    e(idx[0]), e(idx[1])))
    if ident == "cyclic-form":
        omega = f.inv_matrix(doc.tensors["r"])
        return not f.is_zero(cyclic_residual(f, doc.ops["star"], omega,
                                             *(e(i) for i in idx)))
    return False


# ---------------------------------------------------------------- builds

def _same(f, a, b):
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    return a.shape == b.shape and f.is_zero(a - b)


def _adm_ok(f, c, rng):
    return vanishes_at_random(f, c.shape[0], 3,
                              lambda x, y, z: adm_residual(f, c, x, y, z), rng, trials=4)


def _rep_ok(f, c, l, r, rng):
    return vanishes_at_random(f, c.shape[0], 2,
                              lambda x, y: flat(rep_residuals(f, c, l, r, x, y)), rng, trials=4)


def _sol_from_o(f, c, l, r, theta):
    """(semidirect by the dual representation, skew tensor from theta)."""
    n, m = theta.shape
    dl, dr = dual_family(l, r)
    big = semidirect(f, c, dl, dr)
    t = f.zeros(n + m, n + m)
    t[:n, n:] = theta
    t[n:, :n] = -theta.T
    return big, f.red(t)


def check_build(case, code, out, rng):
    """(correct, reason) for a build request."""
    if code != 0:
        return False, f"build exited {code}"
    try:
        got = read_doc(out)
    except (ValueError, KeyError, IndexError) as exc:
        return False, f"output does not parse: {exc}"
    d = case.doc
    f = d.f
    if got.f.p != f.p:
        return False, "output field differs"
    try:
        ok = _build_ok(case.name, f, d, got, rng)
    except (KeyError, IndexError, ValueError):
        ok = False
    return (True, "") if ok else (False, f"{case.name} output fails its re-check")


def _build_ok(name, f, d, got, rng):
    ops = got.ops
    if name == "polarize":
        c = d.ops["star"]
        ct = np.transpose(c, (1, 0, 2))
        br, circ = ops["bracket"], ops["circ"]
        return (_same(f, br, f.half * (c - ct)) and _same(f, circ, f.half * (c + ct))
                and vanishes_at_random(f, d.dim, 3, lambda x, y, z: flat(
                    poisson_residuals(f, br, circ, x, y, z)), rng, trials=4))
    if name == "depolarize":
        star = ops["star"]
        return (_same(f, star, d.ops["bracket"] + d.ops["circ"]) and _adm_ok(f, star, rng))
    if name == "semidirect":
        want = semidirect(f, d.ops["star"], d.reps["l"], d.reps["r"])
        return _same(f, ops["star"], want) and _adm_ok(f, ops["star"], rng)
    if name == "bowtie":
        want = bowtie(f, d.ops["star1"], d.ops["star2"], d.reps["l1"], d.reps["r1"],
                      d.reps["l2"], d.reps["r2"])
        return _same(f, ops["star"], want) and _adm_ok(f, ops["star"], rng)
    if name == "manin-double":
        c, dual = d.ops["star"], dual_mul(d.comuls["alpha"])
        l1, r1 = dual_family(*adjoint(c))
        l2, r2 = dual_family(*adjoint(dual))
        want = bowtie(f, c, dual, l1, r1, l2, r2)
        return _same(f, ops["star"], want) and _adm_ok(f, ops["star"], rng)
    if name == "coboundary-alpha":
        c, r = d.ops["star"], d.tensors["r"]
        n = d.dim
        want = np.array([r @ lmat(c, basis(f, n, i)).T - rmat(c, basis(f, n, i)) @ r
                         for i in range(n)], dtype=object)
        return _same(f, ops["star"], c) and _same(f, got.comuls["alpha"], want)
    if name == "split":
        a = d.comuls["alpha"]
        at = np.transpose(a, (0, 2, 1))
        return (_same(f, got.comuls["delta"], f.half * (a - at))
                and _same(f, got.comuls["Delta"], f.half * (a + at)))
    if name == "merge":
        return _same(f, got.comuls["alpha"], d.comuls["delta"] + d.comuls["Delta"])
    if name == "solution-from-o":
        big, t = _sol_from_o(f, d.ops["star"], d.reps["l"], d.reps["r"], d.maps["theta"])
        return (_same(f, ops["star"], big) and _same(f, got.tensors["r"], t)
                and f.is_zero(ybe_tensor(f, big, t, "P")))
    if name == "induced-pre":
        l, r, theta = d.reps["l"], d.reps["r"], d.maps["theta"]
        m = theta.shape[1]
        succ, prec = f.zeros(m, m, m), f.zeros(m, m, m)
        for i in range(m):
            ti = theta[:, i]
            lm, rm = fam_of(l, ti), fam_of(r, ti)
            for j in range(m):
                succ[i, j] = lm[:, j]
                prec[j, i] = rm[:, j]
        s, q = ops["succ"], ops["prec"]
        return (_same(f, s, succ) and _same(f, q, prec)
                and vanishes_at_random(f, m, 3, lambda x, y, z: flat(
                    pre_residuals(f, s, q, x, y, z)), rng, trials=4))
    if name == "subadjacent":
        star = ops["star"]
        return _same(f, star, d.ops["succ"] + d.ops["prec"]) and _adm_ok(f, star, rng)
    if name == "canonical-solution":
        s, q = d.ops["succ"], d.ops["prec"]
        n = d.dim
        l = np.array([lmat(s, basis(f, n, i)) for i in range(n)], dtype=object)
        r = np.array([rmat(q, basis(f, n, i)) for i in range(n)], dtype=object)
        theta = np.eye(n, dtype=int).astype(object) * f.elem(1)
        big, t = _sol_from_o(f, s + q, l, r, theta)
        return (_same(f, ops["star"], big) and _same(f, got.tensors["r"], t)
                and _adm_ok(f, ops["star"], rng)
                and f.is_zero(ybe_tensor(f, big, t, "P")))
    if name == "dual-rep":
        dl, dr = dual_family(d.reps["l"], d.reps["r"])
        return (_same(f, got.reps["l"], dl) and _same(f, got.reps["r"], dr)
                and _rep_ok(f, d.ops["star"], dl, dr, rng))
    if name == "adjoint-rep":
        l, r = adjoint(d.ops["star"])
        return (_same(f, got.reps["l"], l) and _same(f, got.reps["r"], r)
                and _rep_ok(f, d.ops["star"], l, r, rng))
    return False


# ---------------------------------------------------------------- search

def split_instances(out):
    """([instance texts], total) from a search's stdout; total None when the
    trailer is missing."""
    blocks, cur, total = [], None, None
    for line in out.splitlines():
        if line.startswith("# instance "):
            cur = []
            blocks.append(cur)
        elif line.startswith("# total "):
            total = int(line.split()[2])
            cur = None
        elif cur is not None:
            cur.append(line)
    return ["\n".join(b) + "\n" for b in blocks], total


def _basis_zero(f, n, arity, fn):
    return all(f.is_zero(fn(*(basis(f, n, i) for i in idx)))
               for idx in itertools.product(range(n), repeat=arity))


def hit_ok(req, doc, p):
    """Exact re-verification of one search hit (all basis tuples)."""
    f = doc.f
    if f.p != p:
        return False
    n = doc.dim
    t = req.target
    if "--nonzero-only" in req.args and all(f.is_zero(a) for a in doc.ops.values()):
        return False
    if t == "adm_poisson":
        return f.is_zero(adm_tensor(f, doc.ops["star"]))
    if t == "poisson":
        br, circ = doc.ops["bracket"], doc.ops["circ"]
        return _basis_zero(f, n, 3, lambda x, y, z: flat(poisson_residuals(f, br, circ, x, y, z)))
    if t == "pre_adm_poisson":
        s, q = doc.ops["succ"], doc.ops["prec"]
        return _basis_zero(f, n, 3, lambda x, y, z: flat(pre_residuals(f, s, q, x, y, z)))
    fixed = req.files[req.opt("--algebra")]
    if not _same(f, doc.ops["star"], fixed.ops["star"]):
        return False
    if t == "adm_pybe_solution":
        r = doc.tensors["r"]
        if "--skew" in req.args and not f.is_zero(r + r.T):
            return False
        return f.is_zero(ybe_tensor(f, doc.ops["star"], r, "P"))
    if t == "o_operator":
        l, r, theta = doc.reps["l"], doc.reps["r"], doc.maps["theta"]
        if not (_same(f, l, fixed.reps["l"]) and _same(f, r, fixed.reps["r"])):
            return False
        m = theta.shape[1]
        c = doc.ops["star"]
        return _basis_zero(f, m, 2, lambda u, v: o_operator_residual(f, c, l, r, theta, u, v))
    return False


def _key(doc):
    return tuple(str(x) for table in (doc.ops, doc.tensors, doc.maps)
                 for name in sorted(table) for x in table[name].flat)


_COUNTS = {}


def brute_count(req):
    """The number of instances an exhaustive request must print, counted by
    the benchmark's own enumeration."""
    key = tuple(a for a in req.args if a not in req.files)
    if key not in _COUNTS:
        _COUNTS[key] = _brute(req)
    return _COUNTS[key]


def _digits(idx, p, size):
    return [(idx // p ** t) % p for t in range(size)]


def _brute(req):
    p, n = int(req.opt("--field")), int(req.opt("--dim"))
    from oracle import Field
    f = Field(p)
    t = req.target
    if t == "adm_poisson":
        return _adm_count(p, n) - ("--nonzero-only" in req.args)
    if t in ("poisson", "pre_adm_poisson"):
        total, size = 0, n ** 3
        for idx in range(p ** (2 * size)):
            a = np.array(_digits(idx % p ** size, p, size), dtype=object).reshape(n, n, n)
            b = np.array(_digits(idx // p ** size, p, size), dtype=object).reshape(n, n, n)
            res = poisson_residuals if t == "poisson" else pre_residuals
            total += _basis_zero(f, n, 3, lambda x, y, z: flat(res(f, a, b, x, y, z)))
        return total
    fixed = req.files[req.opt("--algebra")]
    c = fixed.ops["star"]
    if t == "adm_pybe_solution":
        total = 0
        for idx in range(p ** (n * n)):
            r = np.array(_digits(idx, p, n * n), dtype=object).reshape(n, n)
            if "--skew" in req.args and not f.is_zero(r + r.T):
                continue
            total += f.is_zero(ybe_tensor(f, c, r, "P"))
        return total
    if t == "o_operator":
        l, r = fixed.reps["l"], fixed.reps["r"]
        m = l.shape[1]
        total = 0
        for idx in range(p ** (n * m)):
            theta = np.array(_digits(idx, p, n * m), dtype=object).reshape(n, m)
            total += _basis_zero(f, m, 2,
                                 lambda u, v: o_operator_residual(f, c, l, r, theta, u, v))
        return total
    raise ValueError(f"no brute-force count for {t}")


def _adm_count(p, n, chunk=1 << 15):
    """Count products on GF(p)^n satisfying 3*(adm residual) = 0, in int64
    chunks over all p^(n^3) structure tensors."""
    size = n ** 3
    total = 0
    for start in range(0, p ** size, chunk):
        idx = np.arange(start, min(start + chunk, p ** size), dtype=np.int64)
        C = np.stack([(idx // p ** t) % p for t in range(size)], axis=1).reshape(-1, n, n, n)
        m = lambda spec: np.einsum(spec, C, C)
        res = (3 * (m("aijs,askm->aijkm") - m("ajks,aism->aijkm"))
               - m("akjs,aism->aijkm") + m("aijs,aksm->aijkm")
               + m("aiks,ajsm->aijkm") - m("akis,ajsm->aijkm")) % p
        total += int(np.count_nonzero(~res.reshape(len(idx), -1).any(axis=1)))
    return total


def check_search(req, code, out, p):
    """(correct, hits, reason) for one search request."""
    if code != 0:
        return False, 0, f"search exited {code}"
    texts, total = split_instances(out)
    if total is None or total != len(texts):
        return False, len(texts), f"# total {total} but {len(texts)} instances"
    docs = []
    for text in texts:
        try:
            docs.append(read_doc(text))
        except (ValueError, KeyError, IndexError) as exc:
            return False, total, f"instance does not parse: {exc}"
    try:
        ok = all(hit_ok(req, d, p) for d in docs)
    except (KeyError, IndexError, ValueError):
        ok = False
    if not ok:
        return False, total, "an instance fails its exact re-check"
    if req.mode == "exhaustive":
        if len({_key(d) for d in docs}) != total:
            return False, total, "duplicate instances"
        want = brute_count(req)
        if total != want:
            return False, total, f"# total {total}, brute force counts {want}"
    elif total != req.count:
        return False, total, f"# total {total}, asked for {req.count}"
    return True, total, ""
