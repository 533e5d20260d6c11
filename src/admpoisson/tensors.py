"""Dense coefficient containers and exact linear algebra.

Vectors are plain lists of Scalar; matrices are row-major lists of rows.
MulTensor holds the structure constants c[i][j][k] of one bilinear operation
(e_i <> e_j = sum_k c[i][j][k] e_k); Tensor3 holds an element of the triple
tensor power.  Everything is treated as immutable by convention.
"""

from math import lcm
from operator import add, sub

import numpy as np

from .scalars import (Scalar, ScalarModeError, zero, one, check_characteristic,
                      _exact)

# ---------------------------------------------------------------------------
# vectors


def vec_zero(n, p=0):
    return [zero(p) for _ in range(n)]


def basis_vec(n, i, p=0):
    v = vec_zero(n, p)
    v[i] = one(p)
    return v


# ---------------------------------------------------------------------------
# matrices


def mat_zero(rows, cols, p=0):
    return [[zero(p) for _ in range(cols)] for _ in range(rows)]


def mat_identity(n, p=0):
    m = mat_zero(n, n, p)
    for i in range(n):
        m[i][i] = one(p)
    return m


def mat_add(a, b):
    assert len(a) == len(b) and len(a[0]) == len(b[0])
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    assert len(a) == len(b) and len(a[0]) == len(b[0])
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    assert len(a[0]) == len(b), "inner dimensions must agree"
    cols_b = len(b[0])
    out = []
    for row in a:
        out_row = []
        for j in range(cols_b):
            s = row[0] * b[0][j]
            for k in range(1, len(b)):
                s = s + row[k] * b[k][j]
            out_row.append(s)
        out.append(out_row)
    return out


def mat_vec(a, x):
    assert len(a[0]) == len(x)
    return [sum_scalars(row[k] * x[k] for k in range(len(x))) for row in a]


def sum_scalars(it):
    total = None
    for s in it:
        total = s if total is None else total + s
    assert total is not None
    return total


def transpose(a):
    return [list(col) for col in zip(*a)]


def dual_endo_family(fam):
    """x -> (f(x))^T for a per-basis family of square matrices.

    This realizes the composite "minus dual endomorphism": the dual of an
    endomorphism carries a minus sign in the pairing convention used for
    module families, and negating it again leaves the plain transpose.
    """
    return [transpose(m) for m in fam]


def column(a, j):
    return [row[j] for row in a]


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def solve_linear(a, b, p=0):
    """Solve a x = b exactly (a: list of rows, b: list).

    Returns a particular solution with all free variables set to zero,
    or None when the system is inconsistent.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    pivots = []  # (row, col)
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, rows):
            if not aug[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = one(p) / aug[rank][col]
        aug[rank] = [x * inv for x in aug[rank]]
        for r in range(rows):
            if r != rank and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[rank])]
        pivots.append((rank, col))
        rank += 1
    for r in range(rank, rows):
        if not aug[r][cols].is_zero():
            return None
    x = vec_zero(cols, p)
    for r, col in pivots:
        x[col] = aug[r][cols]
    return x


def mat_inverse(a, p=0):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [list(a[i]) + list(mat_identity(n, p)[i]) for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not aug[r][col].is_zero():
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = one(p) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# structure constants of one bilinear operation


def _entrywise(f, x, y):
    """f on matching entries of two n x n x n coefficient arrays."""
    if len(x) != len(y):
        raise ShapeError(f"operand sizes disagree: {len(x)} and {len(y)}")
    return [[[f(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(pa, pb)]
            for pa, pb in zip(x, y)]


class MulTensor:
    """Structure constants c[i][j][k]: e_i <> e_j = sum_k c[i][j][k] e_k."""

    __slots__ = ("n", "p", "c")

    def __init__(self, n, p=0, c=None):
        check_characteristic(p)
        if n < 1:
            raise ValueError(f"dimension must be at least 1, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        if c is None:
            c = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
        else:
            assert len(c) == n and all(len(r) == n for r in c)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("MulTensor is immutable")

    @classmethod
    def from_entries(cls, n, entries, p=0):
        """entries: dict (i,j,k) -> Scalar (or int, coerced)."""
        c = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
        for (i, j, k), val in entries.items():
            if not isinstance(val, Scalar):
                val = Scalar(val, 1, p)
            c[i][j][k] = val
        return cls(n, p, c)

    def entry(self, i, j, k):
        return self.c[i][j][k]

    def prod(self, i, j):
        """Coordinate vector of e_i <> e_j."""
        return list(self.c[i][j])

    def is_zero(self):
        return all(x.is_zero() for pl in self.c for row in pl for x in row)

    def __eq__(self, other):
        if not isinstance(other, MulTensor):
            return NotImplemented
        return self.n == other.n and self.p == other.p and self.c == other.c

    def __hash__(self):
        return hash((self.n, self.p, tuple(tuple(tuple(r) for r in pl) for pl in self.c)))

    def map_entries(self, f):
        return MulTensor(self.n, self.p,
                         [[[f(x) for x in row] for row in pl] for pl in self.c])

    def add(self, other):
        return MulTensor(self.n, self.p, _entrywise(add, self.c, other.c))

    def sub(self, other):
        return MulTensor(self.n, self.p, _entrywise(sub, self.c, other.c))

    def scale(self, s):
        return self.map_entries(lambda x: s * x)

    def op(self):
        """The opposite operation: c'[i][j][k] = c[j][i][k]."""
        return MulTensor(self.n, self.p,
                         [[list(self.c[j][i]) for j in range(self.n)]
                          for i in range(self.n)])


def apply_mul(m, x, y):
    """(x <> y)_k = sum_ij x_i y_j c[i][j][k]."""
    assert len(x) == m.n and len(y) == m.n, "dimension mismatch"
    out = vec_zero(m.n, m.p)
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if yj.is_zero():
                continue
            f = xi * yj
            row = m.c[i][j]
            for k in range(m.n):
                if not row[k].is_zero():
                    out[k] = out[k] + f * row[k]
    return out


def left_mult(m, x):
    """Matrix of y -> x <> y.  L[k][j] = sum_i x_i c[i][j][k]."""
    assert len(x) == m.n
    out = mat_zero(m.n, m.n, m.p)
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j in range(m.n):
            row = m.c[i][j]
            for k in range(m.n):
                if not row[k].is_zero():
                    out[k][j] = out[k][j] + xi * row[k]
    return out


def right_mult(m, x):
    """Matrix of y -> y <> x.  R[k][j] = sum_i x_i c[j][i][k]."""
    assert len(x) == m.n
    out = mat_zero(m.n, m.n, m.p)
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j in range(m.n):
            row = m.c[j][i]
            for k in range(m.n):
                if not row[k].is_zero():
                    out[k][j] = out[k][j] + xi * row[k]
    return out


def left_mult_basis(m, i):
    return left_mult(m, basis_vec(m.n, i, m.p))


def right_mult_basis(m, i):
    return right_mult(m, basis_vec(m.n, i, m.p))


def mult_of_vec(fam, x):
    """sum_i x_i fam[i] for a per-basis matrix family."""
    rows = len(fam[0])
    cols = len(fam[0][0])
    out = None
    for xi, m in zip(x, fam):
        if xi.is_zero():
            continue
        term = mat_scale(xi, m)
        out = term if out is None else mat_add(out, term)
    if out is None:
        # x is zero; infer the scalar mode from the family
        p = fam[0][0][0].p
        return mat_zero(rows, cols, p)
    return out


# ---------------------------------------------------------------------------
# triple tensors


class Tensor3:
    """Coefficients t[i][j][k] of sum t[i][j][k] e_i (x) e_j (x) e_k."""

    __slots__ = ("n", "p", "t")

    def __init__(self, n, p=0, t=None):
        check_characteristic(p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        if t is None:
            t = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
        object.__setattr__(self, "t", t)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    def is_zero(self):
        return all(x.is_zero() for pl in self.t for row in pl for x in row)

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.n == other.n and self.p == other.p and self.t == other.t

    def add(self, other):
        return Tensor3(self.n, self.p, _entrywise(add, self.t, other.t))

    def sub(self, other):
        return Tensor3(self.n, self.p, _entrywise(sub, self.t, other.t))

    def scale(self, s):
        return Tensor3(self.n, self.p,
                       [[[s * x for x in row] for row in pl] for pl in self.t])

    def first_nonzero(self):
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if not self.t[i][j][k].is_zero():
                        return (i, j, k)
        return None


# ---------------------------------------------------------------------------
# identities as tables of signed einsum terms


class AxiomReport:
    """Verdict of an identity check, with a re-evaluatable first witness."""

    __slots__ = ("holds", "witness")

    def __init__(self, holds, witness=None):
        assert holds == (witness is None)
        self.holds = holds
        self.witness = witness  # (identity name, index tuple, lhs, rhs)

    @classmethod
    def ok(cls):
        return cls(True)

    @classmethod
    def fail(cls, name, idx, lhs, rhs):
        return cls(False, (name, idx, lhs, rhs))

    def tagged(self, tag):
        """The same verdict, its witness name prefixed with 'tag:'."""
        if self.holds:
            return self
        name, idx, lhs, rhs = self.witness
        return AxiomReport.fail(f"{tag}:{name}", idx, lhs, rhs)

    def first_entry(self):
        """The same verdict, its witness cut to the first entry at which the
        lhs and rhs vectors differ, as one-entry lists."""
        if self.holds:
            return self
        name, idx, lhs, rhs = self.witness
        k = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
        return AxiomReport.fail(name, idx, [lhs[k]], [rhs[k]])

    def __bool__(self):
        return self.holds

    def __repr__(self):
        if self.holds:
            return "AxiomReport(holds)"
        name, idx, _, _ = self.witness
        return f"AxiomReport(fails {name} at {idx})"


def _signed_terms(text):
    """[(numerator, denominator, [(name, subscripts), ...]), ...] of a side."""
    terms, sign, coef, factors = [], 1, (1, 1), []
    for tok in text.split() + ["+"]:
        if tok in ("+", "-"):
            if factors:
                terms.append((sign * coef[0], coef[1], factors))
            sign, coef, factors = (1 if tok == "+" else -1), (1, 1), []
        elif ":" in tok:
            factors.append(tuple(tok.split(":")))
        else:
            num, _, den = tok.partition("/")
            coef = (int(num), int(den or 1))
    return terms


class Terms:
    """A sum of signed einsum terms over named operands onto the `out` axes.

    Written like 'a:ijs b:skl - 1/3 a:kjs b:isl': each term is an optional
    sign, an optional rational coefficient and its factors NAME:SUBSCRIPTS,
    with repeated letters summed as in np.einsum.  Coefficients are stored
    times `den`, which must clear them; the terms of `minus` are subtracted.
    Operand axes past the subscripts (the candidate axis of a batch) are
    carried through, last, to the output.
    """

    __slots__ = ("terms", "ranks", "degrees", "weight", "summed", "out_axes", "joined")

    def __init__(self, text, out, den=1, minus=""):
        signed = _signed_terms(text) + [(-a, b, f) for a, b, f in _signed_terms(minus)]
        self.terms, self.ranks = [], {}
        for num, cden, factors in signed:
            if den % cden:
                raise ValueError(f"coefficient {num}/{cden} in {text!r} is not cleared")
            spec = ",".join(subs + "..." for _, subs in factors) + "->" + out + "..."
            self.terms.append((num * (den // cden), [n for n, _ in factors], spec))
            self.ranks.update((n, len(subs)) for n, subs in factors)
        self.degrees = {len(factors) for _, _, factors in signed}
        self.weight = sum(abs(k) for k, _, _ in self.terms)
        self.summed = max((len(set("".join(subs for _, subs in f)) - set(out))
                           for _, _, f in signed), default=0)
        # where each output axis's size can be read: (operand, axis)
        self.out_axes = [next(((n, subs.index(c)) for _, _, f in signed
                               for n, subs in f if c in subs), None) for c in out]
        self.joined = _joined_axes([f for _, _, f in signed], out)


def _joined_axes(terms, out):
    """The operand axes (name, axis) in groups that must have one size: an
    output letter joins its axes in every term, a summed letter within its
    term, and groups sharing an axis are one group."""
    by_letter = {}
    for t, factors in enumerate(terms):
        for name, subs in factors:
            for axis, c in enumerate(subs):
                by_letter.setdefault(c if c in out else (t, c), set()).add((name, axis))
    groups = []
    for axes in by_letter.values():
        for group in [g for g in groups if g & axes]:
            groups.remove(group)
            axes |= group
        groups.append(axes)
    return [sorted(g) for g in groups]


class Identity:
    """lhs = rhs as Terms over the axes `index` + `value`.

    `index` names the axes a witness reports, in the order a failing index
    is searched for; `value` names the axes of the reported lhs and rhs.
    Both sides are stored times `den`, which clears every coefficient; every
    term has `degree` factors, so scaling all operands by a common
    denominator D scales both sides by D**degree.
    """

    __slots__ = ("name", "index", "lhs", "rhs", "residual", "den", "degree")

    def __init__(self, name, index, value, lhs, rhs=""):
        self.name, self.index = name, index
        self.den = lcm(*(b for _, b, _ in _signed_terms(f"{lhs} + {rhs}")))
        self.lhs = Terms(lhs, index + value, self.den)
        self.rhs = Terms(rhs, index + value, self.den)
        self.residual = Terms(lhs, index + value, self.den, minus=rhs)
        if len(self.residual.degrees) != 1:
            raise ValueError(f"{name}: terms differ in degree")
        (self.degree,) = self.residual.degrees


class ShapeError(ValueError):
    """Operands whose axis sizes disagree where an identity joins them."""


_INT_TYPES = [(np.iinfo(t).max, t) for t in (np.int8, np.int16, np.int32, np.int64)]
_INT64_MAX = np.iinfo(np.int64).max


def _overflow_bound(side, maxabs, size, p):
    """A bound on every partial sum of `side`, and on p, over operands whose
    entries are at most `maxabs` in absolute value and whose axes have at
    most `size` entries: weight * maxabs**degree * size**summed."""
    degree = max(side.degrees, default=0)
    return max(p, side.weight * maxabs ** degree * size ** side.summed)


def _check_sizes(side, shapes):
    """Raise ShapeError unless the operand axes of each joined group of
    `side` have one size."""
    for group in side.joined:
        sizes = [(shapes[name][axis] if axis < len(shapes[name]) else None, name)
                 for name, axis in group]
        for size, name in sizes:
            if size is None:
                raise ShapeError(f"operand {name!r} has too few axes")
            if size != sizes[0][0]:
                raise ShapeError(f"operand sizes disagree: {sizes[0][1]!r} has "
                                 f"{sizes[0][0]} where {name!r} has {size}")


def _sum_terms(side, arrays, shape, dtype, p):
    """One Terms over `arrays` cast to `dtype`, reduced into [0, p) over GF(p)."""
    total = np.zeros(shape, dtype=dtype)
    term = np.empty(shape, dtype=dtype)
    for k, names, spec in side.terms:
        # into a buffer of our own: a one-factor einsum may return a view
        np.einsum(spec, *(arrays[name] for name in names), out=term)
        term *= k
        total += term
    if p:
        total %= p
    return total


def evaluate_terms(sides, arrays, p):
    """Each Terms of `sides` over one structure's operands (from
    exact_operands, in their dtype) as exact integers, reduced into [0, p)
    over GF(p)."""
    dtype = next(iter(arrays.values())).dtype
    axes = next(side.out_axes for side in sides if side.terms)
    shape = tuple(arrays[name].shape[axis] for name, axis in axes)
    return [_sum_terms(side, arrays, shape, dtype, p) for side in sides]


def exact_operands(operands, p, sides):
    """One structure's operands (nested lists of Scalars) as integer arrays
    scaled by one common denominator D, for evaluating `sides`; returns
    (arrays, D).

    Raises ShapeError when the operands' axis sizes do not fit the letters
    of `sides`.  The arrays are int64 when _overflow_bound of every side
    fits in int64, with maxabs the largest |entry| after D is cleared, and
    Python-int object arrays otherwise."""
    items, shapes = {}, {}
    for name, data in operands.items():
        a = np.array(data, dtype=object)
        items[name], shapes[name] = a.ravel().tolist(), a.shape
    for side in sides:
        _check_sizes(side, shapes)
    if {s.p for flat in items.values() for s in flat} != {p}:
        raise ScalarModeError(f"operands are not all over p={p}")
    den = 1 if p else lcm(*(s.den for flat in items.values() for s in flat))
    nums = {name: [s.num * (den // s.den) for s in flat] for name, flat in items.items()}
    maxabs = max(max(map(abs, flat), default=0) for flat in nums.values())
    size = max(max(shape, default=1) for shape in shapes.values())
    bound = max(_overflow_bound(side, maxabs, size, p) for side in sides)
    dtype = np.int64 if bound <= _INT64_MAX else object
    arrays = {name: np.array(flat, dtype=dtype).reshape(shapes[name])
              for name, flat in nums.items()}
    return arrays, den


def _scalars(values, den, p):
    if isinstance(values, list):
        return [_scalars(v, den, p) for v in values]
    return _exact(values, den, p)


def check_identities(groups, operands, p):
    """The first failing identity of a sequence of groups, or ok.

    Within a group the witness is the first index, in lexicographic order,
    at which any identity fails; ties go to the identity listed first.
    Its lhs and rhs are rebuilt as exact Scalars at that index (one-entry
    lists when the identity has no value axes).
    """
    arrays, den = exact_operands(operands, p, [ident.residual for group in groups
                                               for ident in group])
    for group in groups:
        sides = [evaluate_terms((ident.lhs, ident.rhs), arrays, p)
                 for ident in group]
        failing = np.stack([(lhs != rhs).reshape(lhs.shape[:len(ident.index)] + (-1,))
                            .any(-1) for ident, (lhs, rhs) in zip(group, sides)],
                           axis=-1)
        if failing.any():
            *idx, which = np.unravel_index(failing.argmax(), failing.shape)
            idx = tuple(int(i) for i in idx)
            ident, (lhs, rhs) = group[which], sides[which]
            scale = ident.den * den ** ident.degree
            return AxiomReport.fail(ident.name, idx,
                                    _scalars(np.atleast_1d(lhs[idx]).tolist(), scale, p),
                                    _scalars(np.atleast_1d(rhs[idx]).tolist(), scale, p))
    return AxiomReport.ok()


def identity_mask(ident, arrays, p):
    """Which candidates of a GF(p) batch satisfy `ident`.

    Each operand holds residues in [0, p) with the candidate axis last, so
    that every einsum runs its inner loop along the batch; an operand that
    is the same for every candidate has a last axis of size 1 and is
    broadcast.  The residual is evaluated in the narrowest signed type that
    holds _overflow_bound (Python ints above int64), which bounds the
    batch's memory.
    """
    side = ident.residual
    size = max(max(arrays[name].shape[:r]) for name, r in side.ranks.items())
    bound = _overflow_bound(side, p - 1, size, p)
    dtype = next((t for limit, t in _INT_TYPES if bound <= limit), object)
    cast = {name: arrays[name].astype(dtype, copy=False) for name in side.ranks}
    batch = max(a.shape[-1] for a in cast.values())
    shape = tuple(cast[name].shape[axis] for name, axis in side.out_axes) + (batch,)
    res = _sum_terms(side, cast, shape, dtype, p)
    return ~res.reshape(-1, batch).any(axis=0)


def evaluate_scalars(terms, operands, p):
    """Terms over nested-Scalar operands, as nested lists of Scalars."""
    arrays, den = exact_operands(operands, p, [terms])
    (val,) = evaluate_terms((terms,), arrays, p)
    return _scalars(val.tolist(), den ** max(terms.degrees), p)


# ---------------------------------------------------------------------------
# triple tensors from products of two rank-2 tensors

# Left operand a[i][.] and right operand b[.][.] placed in triple-tensor
# slots; "12.13" is a in slots (1,2) times b in (1,3).  The shared slot
# carries the product m, whose output index takes that slot's place.
SLOT_PATTERNS = {
    "12.13": "a:iy b:jz m:ijx",     # (e_ia * e_ib) (x) e_ja (x) e_jb
    "13.23": "a:xi b:yj m:ijz",     # e_ia (x) e_ib (x) (e_ja * e_jb)
    "23.12": "a:iz b:xj m:ijy",     # e_ib (x) (e_ia * e_jb) (x) e_ja
    "12.23": "a:xi b:jz m:ijy",     # e_ia (x) (e_ja * e_ib) (x) e_jb
    "23.13": "a:yi b:xj m:ijz",     # e_ib (x) e_ia (x) (e_ja * e_jb)
    "13.12": "a:iz b:jy m:ijx",     # (e_ia * e_ib) (x) e_jb (x) e_ja
}
_SLOT_TERMS = {slots: Terms(text, "xyz") for slots, text in SLOT_PATTERNS.items()}


def tensor3_product(ra, rb, m, slots):
    """Componentwise product of two rank-2 coefficient matrices placed in
    triple-tensor slots (see SLOT_PATTERNS), as a Tensor3."""
    if slots not in SLOT_PATTERNS:
        raise ValueError(f"unknown slot pattern {slots!r}")
    if len(ra) != m.n or len(rb) != m.n:
        raise ValueError("dimension mismatch")
    t = evaluate_scalars(_SLOT_TERMS[slots], {"a": ra, "b": rb, "m": m.c}, m.p)
    return Tensor3(m.n, m.p, t)
