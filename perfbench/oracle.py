"""The benchmark's own exact arithmetic, file reader/writer and identity
evaluators.  Nothing here imports admpoisson: verdicts, witnesses and built
outputs of the program under test are checked against this code only.

Elements are `fractions.Fraction` over Q (p == 0) and ints in [0, p) over
GF(p); tensors are numpy object arrays of them.  Index conventions follow
the file format: a product is c[i, j, k] (e_i * e_j = sum_k c[i, j, k] e_k),
a module family is fam[i, a, b] (matrix of the action of e_i, row a,
column b), a map is theta[i, j] (theta(v_j) = sum_i theta[i, j] e_i), a
comultiplication is a[i, j, k] (alpha(e_i) = sum a[i, j, k] e_j (x) e_k) and
an r-tensor is r[i, j].
"""

import random
from fractions import Fraction

import numpy as np


class Field:
    """Q (p == 0) or GF(p); elements as described in the module docstring."""

    def __init__(self, p):
        self.p = p

    def __repr__(self):
        return "Q" if self.p == 0 else f"GF({self.p})"

    def elem(self, num, den=1):
        if self.p:
            return num * pow(den, -1, self.p) % self.p
        return Fraction(num, den)

    def parse(self, text):
        num, _, den = text.strip().partition("/")
        return self.elem(int(num), int(den) if den else 1)

    def red(self, arr):
        """Canonical form of an object array (ints reduced mod p)."""
        arr = np.asarray(arr, dtype=object)
        if self.p:
            return arr % self.p
        return arr

    def norm(self, x):
        """Canonical form of one element."""
        return x % self.p if self.p else x

    def zeros(self, *shape):
        z = np.empty(shape, dtype=object)
        z.fill(self.elem(0))
        return z

    def rand(self, *shape, rng, lo=-3, hi=3):
        """Random elements; small integers over Q, uniform over GF(p)."""
        if self.p:
            vals = [rng.randrange(self.p) for _ in range(int(np.prod(shape)))]
        else:
            vals = [Fraction(rng.randint(lo, hi)) for _ in range(int(np.prod(shape)))]
        return np.array(vals, dtype=object).reshape(shape)

    def is_zero(self, arr):
        return not np.any(self.red(arr) != 0)

    def inv_matrix(self, m):
        """Exact inverse by Gauss-Jordan elimination, or None if singular."""
        n = m.shape[0]
        a = [[self.elem(0) + x for x in row] + [self.elem(int(i == j)) for j in range(n)]
             for i, row in enumerate(m.tolist())]
        for col in range(n):
            piv = next((r for r in range(col, n) if self._nz(a[r][col])), None)
            if piv is None:
                return None
            a[col], a[piv] = a[piv], a[col]
            inv = self._inv(a[col][col])
            a[col] = [self._mul(x, inv) for x in a[col]]
            for r in range(n):
                if r != col and self._nz(a[r][col]):
                    f = a[r][col]
                    a[r] = [self._sub(x, self._mul(f, y)) for x, y in zip(a[r], a[col])]
        return np.array([row[n:] for row in a], dtype=object)

    def _nz(self, x):
        return (x % self.p != 0) if self.p else x != 0

    def _inv(self, x):
        return pow(x, -1, self.p) if self.p else 1 / x

    def _mul(self, x, y):
        return x * y % self.p if self.p else x * y

    def _sub(self, x, y):
        return (x - y) % self.p if self.p else x - y

    @property
    def third(self):
        return self.elem(1, 3)

    @property
    def half(self):
        return self.elem(1, 2)


# ------------------------------------------------------------- file format

class Doc:
    """A parsed file: field, dims and named arrays."""

    def __init__(self, p, dim, vdim=None):
        self.f = Field(p)
        self.dim = dim
        self.vdim = vdim
        self.ops = {}        # name -> (n, n, n)
        self.comuls = {}     # name -> (n, n, n)
        self.tensors = {}    # name -> (n, n)
        self.reps = {}       # name -> (count, m, m)
        self.rep_vdim = set()  # rep families indexed by the vdim basis
        self.maps = {}       # name -> (rows, cols)
        self.op_vdim = set()


def _basis(tok):
    if not tok.startswith("e"):
        raise ValueError(f"bad basis token {tok!r}")
    return int(tok[1:]) - 1


def _matrix(f, text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad matrix {text!r}")
    rows = [[f.parse(e) for e in row.split(",")] for row in text[1:-1].split(";")]
    return np.array(rows, dtype=object)


def read_doc(text):
    """Parse the text format (the subset printed by the program)."""
    header = {}
    body = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] in ("format", "dim", "vdim", "field"):
            header[words[0]] = words[1:]
        else:
            body.append(line)
    p = 0 if header["field"] == ["rational"] else int(header["field"][1])
    doc = Doc(p, int(header["dim"][0]),
              int(header["vdim"][0]) if "vdim" in header else None)
    f = doc.f
    rep_rows = {}
    for line in body:
        words = line.split()
        if words[0] == "op":
            size = doc.vdim if words[2:] == ["vdim"] else doc.dim
            if words[2:] == ["vdim"]:
                doc.op_vdim.add(words[1])
            doc.ops[words[1]] = f.zeros(size, size, size)
        elif words[0] == "comul":
            doc.comuls[words[1]] = f.zeros(doc.dim, doc.dim, doc.dim)
        elif words[0] == "tensor":
            name, rest = line[len("tensor"):].split(":", 1)
            lhs, rhs = rest.split("=")
            i, j = (_basis(t) for t in lhs.split())
            t = doc.tensors.setdefault(name.strip(), f.zeros(doc.dim, doc.dim))
            t[i, j] = f.parse(rhs)
        elif words[0] == "rep":
            lhs, rhs = line[len("rep"):].split("=", 1)
            toks = lhs.split()
            if toks[1:2] == ["vdim"]:
                doc.rep_vdim.add(toks[0])
            rep_rows.setdefault(toks[0], {})[_basis(toks[-1])] = _matrix(f, rhs)
        elif words[0] == "map":
            lhs, rhs = line[len("map"):].split("=", 1)
            doc.maps[lhs.strip()] = _matrix(f, rhs)
        else:
            name, rest = line.split(":", 1)
            lhs, rhs = rest.split("=")
            idx = [_basis(t) for t in lhs.split()]
            terms = [] if rhs.strip() == "0" else rhs.split("+")
            for term in terms:
                toks = term.split()
                coef = f.parse(toks[0])
                out = tuple(_basis(t) for t in toks[1:])
                if name in doc.ops:
                    doc.ops[name][idx[0], idx[1], out[0]] += coef
                else:
                    doc.comuls[name][idx[0], out[0], out[1]] += coef
    for name, mats in rep_rows.items():
        count = doc.vdim if name in doc.rep_vdim else doc.dim
        m = next(iter(mats.values())).shape[0]
        doc.reps[name] = np.array([mats.get(i, f.zeros(m, m)) for i in range(count)],
                                  dtype=object).reshape(count, m, m)
    for table in (doc.ops, doc.comuls, doc.tensors):
        for name in table:
            table[name] = f.red(table[name])
    return doc


def write_doc(doc):
    """Text of a Doc in the program's input format."""
    f = doc.f
    out = ["format 1", "field rational" if f.p == 0 else f"field gf {f.p}",
           f"dim {doc.dim}"]
    if doc.vdim is not None:
        out.append(f"vdim {doc.vdim}")
    for name, c in doc.ops.items():
        c = f.red(c)
        out.append(f"op {name}" + (" vdim" if name in doc.op_vdim else ""))
        n = c.shape[0]
        for i in range(n):
            for j in range(n):
                terms = [f"{c[i, j, k]} e{k + 1}" for k in range(n) if c[i, j, k] != 0]
                if terms:
                    out.append(f"{name}: e{i + 1} e{j + 1} = " + " + ".join(terms))
    for name, a in doc.comuls.items():
        a = f.red(a)
        out.append(f"comul {name}")
        n = a.shape[0]
        for i in range(n):
            terms = [f"{a[i, j, k]} e{j + 1} e{k + 1}"
                     for j in range(n) for k in range(n) if a[i, j, k] != 0]
            if terms:
                out.append(f"{name}: e{i + 1} = " + " + ".join(terms))
    for name, r in doc.tensors.items():
        r = f.red(r)
        entries = [(i, j) for i in range(r.shape[0]) for j in range(r.shape[1])
                   if r[i, j] != 0] or [(0, 0)]
        out.extend(f"tensor {name}: e{i + 1} e{j + 1} = {r[i, j]}" for i, j in entries)
    for name, fam in doc.reps.items():
        tag = " vdim" if name in doc.rep_vdim else ""
        for i, mat in enumerate(f.red(fam)):
            out.append(f"rep {name}{tag} e{i + 1} = {_fmt_matrix(mat)}")
    for name, mat in doc.maps.items():
        out.append(f"map {name} = {_fmt_matrix(f.red(mat))}")
    return "\n".join(out) + "\n"


def _fmt_matrix(mat):
    return "[" + " ; ".join(",".join(str(x) for x in row) for row in mat) + "]"


# ---------------------------------------------------------------- algebra

def flat(residuals):
    """All entries of a dict of residual arrays, as one array."""
    return np.array([v for m in residuals.values() for v in np.asarray(m).flat], dtype=object)


def mul(c, x, y):
    return np.einsum("i,j,ijk->k", x, y, c)


def lmat(c, x):
    """Matrix of y -> x * y (entry [k, j])."""
    return np.einsum("i,ijk->kj", x, c)


def rmat(c, x):
    """Matrix of y -> y * x (entry [k, j])."""
    return np.einsum("i,jik->kj", x, c)


def fam_of(fam, x):
    return np.einsum("i,iab->ab", x, fam)


def adm_residual(f, c, x, y, z):
    """(x*y)*z - x*(y*z) + 1/3( -x*(z*y) + z*(x*y) + y*(x*z) - y*(z*x) )."""
    m = lambda u, v: mul(c, u, v)
    corr = -m(x, m(z, y)) + m(z, m(x, y)) + m(y, m(x, z)) - m(y, m(z, x))
    return f.red(m(m(x, y), z) - m(x, m(y, z)) + f.third * corr)


def adm_tensor(f, c):
    """The adm residual at every basis triple, as an (n, n, n, n) array."""
    m = lambda spec: np.einsum(spec, c, c)
    corr = (-m("kjs,ism->ijkm") + m("ijs,ksm->ijkm") + m("iks,jsm->ijkm")
            - m("kis,jsm->ijkm"))
    return f.red(m("ijs,skm->ijkm") - m("jks,ism->ijkm") + f.third * corr)


def poisson_residuals(f, br, circ, x, y, z):
    b = lambda u, v: mul(br, u, v)
    o = lambda u, v: mul(circ, u, v)
    return {
        "antisymmetry": f.red(b(x, y) + b(y, x)),
        "jacobi": f.red(b(b(x, y), z) + b(b(y, z), x) + b(b(z, x), y)),
        "symmetry": f.red(o(x, y) - o(y, x)),
        "associativity": f.red(o(o(x, y), z) - o(x, o(y, z))),
        "leibniz": f.red(b(x, o(y, z)) - o(b(x, y), z) - o(y, b(x, z))),
    }


def rep_residuals(f, c, l, r, x, y):
    t = f.third
    xy, yx = mul(c, x, y), mul(c, y, x)
    lx, ly, rx, ry = fam_of(l, x), fam_of(l, y), fam_of(r, x), fam_of(r, y)
    l_xy, r_xy, r_yx = fam_of(l, xy), fam_of(r, xy), fam_of(r, yx)
    return {
        "c2": f.red(l_xy - lx @ ly + t * (r_xy + ly @ lx - lx @ ry - ly @ rx)),
        "c3": f.red(ry @ lx - lx @ ry + t * (ly @ lx + r_xy - lx @ ly - r_yx)),
        "c4": f.red(ry @ rx - r_xy + t * (ly @ rx + lx @ ry - r_yx - lx @ ly)),
    }


def pre_residuals(f, s, q, x, y, z):
    t = f.third
    S = lambda u, v: mul(s, u, v)   # u > v
    P = lambda u, v: mul(q, u, v)   # u < v
    a = (-S(S(x, y), z) - S(P(x, y), z) + S(x, S(y, z))
         + t * (S(x, P(z, y)) - P(z, S(x, y)) - P(z, P(x, y)) - S(y, S(x, z))
                + S(y, P(z, x))))
    b = (-S(x, P(z, y)) + P(S(x, z), y)
         + t * (-S(x, S(y, z)) + S(y, S(x, z)) + P(z, P(x, y)) + P(z, S(x, y))
                - P(z, S(y, x)) - P(z, P(y, x))))
    cc = (-P(z, S(x, y)) - P(z, P(x, y)) + P(P(z, x), y)
          + t * (-P(z, S(y, x)) - P(z, P(y, x)) + S(y, P(z, x)) + S(x, P(z, y))
                 - S(x, S(y, z))))
    return {"pre1": f.red(a), "pre2": f.red(b), "pre3": f.red(cc)}


def prepoisson_residuals(f, dot, ast, x, y, z):
    d = lambda u, v: mul(dot, u, v)
    a = lambda u, v: mul(ast, u, v)
    return {
        "zinbiel": f.red(d(x, d(y, z)) - d(d(y, x), z) - d(d(x, y), z)),
        "pre-lie": f.red(a(x, a(y, z)) - a(a(x, y), z) - a(y, a(x, z)) + a(a(y, x), z)),
        "compat1": f.red(d(a(x, y) - a(y, x), z) - a(x, d(y, z)) + d(y, a(x, z))),
        "compat2": f.red(a(d(x, y) + d(y, x), z) - d(x, a(y, z)) - d(y, a(x, z))),
    }


def invariance_residual(f, c, g, x, y, z):
    return f.red(mul(c, x, y) @ g @ z - x @ g @ mul(c, y, z))


def o_operator_residual(f, c, l, r, theta, u, v):
    tu, tv = theta @ u, theta @ v
    return f.red(mul(c, tu, tv) - theta @ (fam_of(l, tu) @ v + fam_of(r, tv) @ u))


def rota_baxter_residual(f, c, R, x, y):
    Rx, Ry = R @ x, R @ y
    return f.red(mul(c, Rx, Ry) - R @ (mul(c, Rx, y) + mul(c, x, Ry)))


def cyclic_residual(f, c, omega, x, y, z):
    w = lambda u, v: u @ omega @ v
    return f.red(np.array([w(mul(c, x, y), z) + w(mul(c, y, z), x) + w(mul(c, z, x), y)],
                          dtype=object))


def operator_form_residual(f, c, r, a, b):
    u, v = r.T @ a, r.T @ b
    return f.red(mul(c, u, v) - r.T @ (rmat(c, u).T @ b + lmat(c, v).T @ a))


def con1_residual(f, c, r, x):
    S = r + r.T
    return f.red(lmat(c, x) @ S - S @ rmat(c, x).T)


def ybe_tensor(f, c, r, kind):
    """P (adm-pybe), A (aybe) or C (cybe) as an (n, n, n) array."""
    pat = {
        "12.13": "ab,cd,ack->kbd", "13.23": "ab,cd,bdk->ack",
        "23.12": "ab,cd,adk->ckb", "23.13": "ab,cd,bdk->cak",
        "13.12": "ab,cd,ack->kdb",
    }
    t = lambda name: np.einsum(pat[name], r, r, c)
    if kind in ("P", "A"):
        return f.red(t("23.12") - t("13.23") - t("12.13"))
    return f.red(t("23.12") + t("23.13") + t("13.12"))


def dual_mul(a):
    """Multiplication on the dual space: c'[j, k, i] = a[i, j, k]."""
    return np.transpose(a, (1, 2, 0))


def bowtie(f, s1, s2, l1, r1, l2, r2):
    n1, n2 = s1.shape[0], s2.shape[0]
    c = f.zeros(n1 + n2, n1 + n2, n1 + n2)
    P, Q = slice(0, n1), slice(n1, n1 + n2)
    c[P, P, P] = s1
    c[Q, Q, Q] = s2
    c[P, Q, Q] = np.transpose(l1, (0, 2, 1))    # e_i * f_b = sum_a l1[i,a,b] f_a
    c[Q, P, Q] = np.transpose(r1, (2, 0, 1))    # f_b * e_i = sum_a r1[i,a,b] f_a
    c[Q, P, P] = np.transpose(l2, (0, 2, 1))    # f_a * e_j = sum_k l2[a,k,j] e_k
    c[P, Q, P] = np.transpose(r2, (2, 0, 1))    # e_j * f_a = sum_k r2[a,k,j] e_k
    return c


def semidirect(f, c, l, r):
    n, m = c.shape[0], l.shape[1]
    zero = f.zeros(m, m, m)
    return bowtie(f, c, zero, l, r, f.zeros(m, n, n), f.zeros(m, n, n))


def adjoint(c):
    """(l, r) families of the adjoint representation: L(e_i), R(e_i)."""
    n = c.shape[0]
    eye = np.eye(n, dtype=int).astype(object)
    return (np.array([lmat(c, eye[i]) for i in range(n)], dtype=object),
            np.array([rmat(c, eye[i]) for i in range(n)], dtype=object))


def dual_family(l, r):
    """The dual representation (r^T, l^T)."""
    return np.transpose(r, (0, 2, 1)), np.transpose(l, (0, 2, 1))


def basis(f, n, i):
    v = f.zeros(n)
    v[i] = f.elem(1)
    return v


def rand_vectors(f, n, k, rng):
    return [f.rand(n, rng=rng, lo=-7, hi=7) for _ in range(k)]


def vanishes_at_random(f, n, arity, fn, rng, trials=24):
    """True when fn (multilinear in `arity` vectors of length n, returning an
    array) is zero at `trials` random points; any nonzero value is a proof
    that the identity fails."""
    for _ in range(trials):
        if not f.is_zero(fn(*rand_vectors(f, n, arity, rng))):
            return False
    return True


def rng_for(*parts):
    return random.Random("/".join(str(p) for p in parts))
