"""Dense coefficient containers and exact linear algebra.

Structures are nested lists of Scalar: row-major matrices, MulTensor's
structure constants c[i][j][k] of one bilinear operation (e_i <> e_j =
sum_k c[i][j][k] e_k) and Tensor3's coefficients of an element of the triple
tensor power.  Everything is treated as immutable by convention.
Constructions move and combine entries as numpy object arrays of these
Scalars (objects), contract them with Terms (evaluate_scalars), and solve
linear systems with one exact elimination (solve).
"""

from math import lcm

import numpy as np

from .scalars import (Scalar, ScalarModeError, zero, one, check_characteristic,
                      _exact)


class ShapeError(ValueError):
    """Operands whose axis sizes disagree where an identity joins them."""


def objects(*data):
    """Nested-Scalar operands as numpy object arrays (the array itself for
    one operand); ShapeError when the operands' sizes disagree."""
    arrays = [np.array(d, dtype=object) for d in data]
    if len({a.shape for a in arrays}) > 1:
        raise ShapeError("operand sizes disagree: " +
                         " and ".join(str(len(d)) for d in data))
    return arrays[0] if len(arrays) == 1 else arrays


def dense(shape, entries=(), p=0):
    """Nested lists of Scalars of `shape`, zero except at `entries`: a dict
    index tuple -> Scalar (or int, coerced)."""
    a = np.full(shape, zero(p), dtype=object)
    for idx, val in dict(entries).items():
        a[idx] = val if isinstance(val, Scalar) else Scalar(val, 1, p)
    return a.tolist()


def identity(n, p=0):
    """The n x n identity matrix as an object array of Scalars."""
    return np.where(np.eye(n, dtype=bool), one(p), zero(p))


def solve(a, b, p=0):
    """A solution X of a X = b by exact Gauss-Jordan elimination, with every
    free variable zero, or None when the system is inconsistent.

    a is rows x cols and b rows x k (nested lists or object arrays of
    Scalars); X is cols x k nested lists.  The inverse of a square a is
    solve(a, identity(n, p), p), which is None exactly when a is singular.
    """
    a, b = objects(a), objects(b)
    cols = a.shape[1]
    aug = np.concatenate([a, b], axis=1)
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        below = np.flatnonzero(aug[rank:, col])
        if not len(below):
            continue
        aug[[rank, rank + below[0]]] = aug[[rank + below[0], rank]]
        aug[rank] = aug[rank] * (one(p) / aug[rank, col])
        others = np.flatnonzero(aug[:, col])
        others = others[others != rank]
        aug[others] = aug[others] - np.multiply.outer(aug[others, col], aug[rank])
        pivots.append(col)
    if aug[len(pivots):, cols:].any():
        return None
    x = np.full((cols, b.shape[1]), zero(p), dtype=object)
    x[pivots] = aug[:len(pivots), cols:]
    return x.tolist()


# ---------------------------------------------------------------------------
# containers


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
            c = dense((n, n, n), p=p)
        elif len(c) != n or any(len(r) != n for r in c):
            raise ShapeError(f"structure constants are not {n} x {n} x {n}")
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("MulTensor is immutable")

    @classmethod
    def from_entries(cls, n, entries, p=0):
        """entries: dict (i,j,k) -> Scalar (or int, coerced)."""
        return cls(n, p, dense((n, n, n), entries, p))

    def is_zero(self):
        return all(x.is_zero() for pl in self.c for row in pl for x in row)

    def __eq__(self, other):
        if not isinstance(other, MulTensor):
            return NotImplemented
        return self.n == other.n and self.p == other.p and self.c == other.c

    def __hash__(self):
        return hash((self.n, self.p, tuple(tuple(tuple(r) for r in pl) for pl in self.c)))


class Tensor3:
    """Coefficients t[i][j][k] of sum t[i][j][k] e_i (x) e_j (x) e_k."""

    __slots__ = ("n", "p", "t")

    def __init__(self, n, p=0, t=None):
        check_characteristic(p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", dense((n, n, n), p=p) if t is None else t)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    def is_zero(self):
        return all(x.is_zero() for pl in self.t for row in pl for x in row)

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.n == other.n and self.p == other.p and self.t == other.t


# ---------------------------------------------------------------------------
# identities as tables of signed einsum terms


class AxiomReport:
    """Verdict of an identity check, with a re-evaluatable first witness."""

    __slots__ = ("holds", "witness")

    def __init__(self, holds, witness=None):
        if holds != (witness is None):
            raise ValueError("a report has a witness exactly when it fails")
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
    """Terms over nested-Scalar operands (those it names), as nested lists
    of Scalars."""
    arrays, den = exact_operands({name: operands[name] for name in terms.ranks}, p, [terms])
    (val,) = evaluate_terms((terms,), arrays, p)
    return _scalars(val.tolist(), den ** max(terms.degrees), p)
