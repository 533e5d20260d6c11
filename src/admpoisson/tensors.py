"""Exact arrays, the structures stored in them, identity tables and exact
linear algebra.

Every structure is one Exact: integers over a common denominator.  MulTensor
holds the structure constants c[i][j][k] of a bilinear operation (e_i <> e_j
= sum_k c[i][j][k] e_k), Tensor3 the coefficients of a triple tensor,
Comultiplication those of a comultiplication and RTensor those of an
r-tensor; Record is the immutable base of the structures checked against
their identities.
Identities and contractions are tables of signed einsum terms evaluated on
the integers, each by a plan of its distinct contractions (contract) or,
at dims 1-3, all the tables of a call by one compiled flat-monomial
kernel (check_identities, evaluate), and linear systems are eliminated
on them (solve).  Numbers enter the Python API as nested ints and Fractions
(as_exact) and leave it through Exact.tolist().
"""

from itertools import permutations, product
from math import gcd, lcm, prod
from operator import index

import numpy as np

from .scalars import ScalarModeError, check_characteristic

_WIDE = 2 ** 31         # int64 entries and p stay below: a product or sum fits


class ShapeError(ValueError):
    """Operands whose axis sizes disagree where an identity joins them."""


class Exact:
    """An immutable array of exact numbers: the integers `num` over `den`.

    Canonical form: over Q (p = 0) den >= 1 and gcd(den, every num) = 1,
    so den is the lcm of the entries' reduced denominators; over GF(p) num
    holds residues in [0, p) and den = 1.  num is int64 when every |entry|
    and p are below 2**31, and an object array of Python ints otherwise;
    maxabs is the largest |entry|; len is the size of the first axis, and
    tolist() reads the entries as numbers.
    """

    __slots__ = ("num", "den", "p", "maxabs")

    def __init__(self, num, den=1, p=0):
        """num / den over an already validated p, brought to canonical form."""
        num = np.asarray(num)
        if num.dtype.kind in "iu" and num.itemsize < 8:
            num = num.astype(np.int64)      # a narrow evaluation type would wrap here
        if p:
            if den != 1:
                num = (num.astype(object) if p >= _WIDE else num) % p * pow(den, -1, p)
            num, den = num % p, 1
            maxabs = int(num.max(initial=0))
        else:
            if den < 0:
                num, den = -num, -den
            # g = den on an all-zero array, which is canonical at den = 1
            g = gcd(den, int(np.gcd.reduce(num, axis=None)))
            if g > 1:
                num, den = (num if g < _WIDE else num.astype(object)) // g, den // g
            maxabs = int(abs(num).max(initial=0))
        num = num.astype(np.int64 if max(maxabs, p) < _WIDE else object)
        num.flags.writeable = False
        for name, value in zip(Exact.__slots__, (num, den, p, maxabs)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Exact is immutable")

    def tolist(self):
        """The entries as nested lists: Fractions over Q, int residues in
        [0, p) over GF(p)."""
        if self.p:
            return self.num.tolist()
        from fractions import Fraction      # on first use: no CLI command needs it
        return np.frompyfunc(lambda a: Fraction(a, self.den), 1, 1)(
            self.num.astype(object)).tolist()

    def __len__(self):
        return len(self.num)

    def transpose(self, *axes):
        return Exact(self.num.transpose(axes or None), self.den, self.p)

    def is_zero(self):
        return not self.maxabs

    def __add__(self, other):
        return _combined(np.add, self, other)

    def __sub__(self, other):
        return _combined(np.subtract, self, other)

    def __truediv__(self, k):     # by a nonzero int
        return Exact(self.num, self.den * k, self.p)

    def __eq__(self, other):
        if not isinstance(other, Exact):
            return NotImplemented
        return ((self.p, self.den, self.num.shape) == (other.p, other.den, other.num.shape)
                and bool((self.num == other.num).all()))

    def __hash__(self):
        return hash((self.p, self.den, self.num.shape, tuple(self.num.ravel().tolist())))


def common(*exacts):
    """The nums of Exacts over one field on their least common denominator
    D, and D; as Python ints where an entry reaches 2**31."""
    if len({e.p for e in exacts}) > 1:
        raise ScalarModeError("operands are not all over one field")
    den = lcm(*(e.den for e in exacts))
    scales = [(e.num, den // e.den if e.maxabs else 1, e.maxabs) for e in exacts]
    return [num if k == 1 else (num if m * k < _WIDE else num.astype(object)) * k
            for num, k, m in scales], den


def _combined(op, x, y):
    """op(x, y) entrywise; ShapeError when the shapes disagree."""
    if x.num.shape != y.num.shape:
        raise ShapeError(f"operand shapes disagree: {x.num.shape} and {y.num.shape}")
    (a, b), den = common(x, y)
    return Exact(op(a, b), den, x.p)


def as_exact(data, p):
    """`data` as an Exact over p: an Exact itself, or nested lists (or an
    array) of exact numbers, converted here as the parser converts its
    tokens.  A number is anything with integer `numerator` and
    `denominator`: an int, a Fraction, a numpy integer."""
    if isinstance(data, Exact):
        if data.p != p:
            raise ScalarModeError(f"operands are not all over p={p}")
        return data
    a = np.array(data, dtype=object)
    return from_fractions(a.shape, None, *_fractions(a.ravel().tolist(), p), p)


def _fractions(numbers, p):
    """The numerators and the denominators of exact numbers, as two lists
    of ints, each denominator nonzero (mod p)."""
    try:
        nums = [index(x.numerator) for x in numbers]
        dens = [index(x.denominator) for x in numbers]
    except AttributeError as exc:
        raise TypeError(f"entries must be ints or Fractions: {exc}") from None
    bad = next((d for d in dens if (d % p == 0 if p else d == 0)), None)
    if bad is not None:
        raise ZeroDivisionError(f"denominator {bad} is 0 mod {p}" if p else "zero denominator")
    return nums, dens


def from_fractions(shape, cells, nums, dens=None, p=0):
    """The Exact of `shape` that sums the fractions nums[t] / dens[t] at the
    flat row-major indices cells[t] (cells None: every cell, in order):
    lists of ints, each den nonzero (mod p), and dens None when every den
    is 1.  Each distinct den is scaled once; the entries stay int64 while
    every value is below 2**31."""
    den, wide, factors = 1, max(max(nums), -min(nums)) if nums else 0, None
    if dens and (distinct := set(dens)) != {1}:
        if p:
            scale = {d: pow(d, -1, p) for d in distinct}
        else:
            den = lcm(*distinct)
            scale = {d: den // d for d in distinct}
        factors = list(map(scale.__getitem__, dens))
        wide *= max(map(abs, scale.values()))
    dtype = np.int64 if wide < _WIDE else object
    vals = np.array(nums, dtype)
    if factors is not None:
        vals = vals * np.array(factors, dtype)
    if cells is None:
        return Exact(vals.reshape(shape), den, p)
    cells = np.asarray(cells, dtype=np.intp)
    num = np.zeros(prod(shape), dtype=dtype)
    if dtype is object and np.bincount(cells).max(initial=0) < 2:
        num[cells] = vals       # np.add.at is slow on Python ints
    else:
        np.add.at(num, cells, vals)     # a cell given twice sums its terms
    return Exact(num.reshape(shape), den, p)


def identity(n, p=0):
    """The n x n identity matrix as an Exact."""
    return Exact(np.eye(n, dtype=np.int64), 1, p)


def solve(a, b, p=0):
    """A solution X of a X = b by exact Gauss-Jordan elimination, with every
    free variable zero, as an Exact, or None when the system is inconsistent.

    a is rows x cols and b rows x k (Exacts, or nested numbers).  Rows are
    combined fraction-free on the integers of one denominator, each changed
    row reduced mod p over GF(p) and divided by its gcd over Q; the pivot of
    a column is its first nonzero row.  The inverse of a square a is
    solve(a, identity(n, p), p), which is None exactly when a is singular.
    """
    (a, b), _ = common(as_exact(a, p), as_exact(b, p))
    cols = a.shape[1]
    aug = np.concatenate([a, b], axis=1).astype(object)
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        below = np.flatnonzero(aug[rank:, col])
        if not len(below):
            continue
        aug[[rank, rank + below[0]]] = aug[[rank + below[0], rank]]
        others = np.flatnonzero(aug[:, col])
        others = others[others != rank]
        rows = aug[others] * aug[rank, col] - np.multiply.outer(aug[others, col], aug[rank])
        if p:
            aug[others] = rows % p
        else:           # a row that became zero is divided by 1
            aug[others] = rows // np.maximum(np.gcd.reduce(rows, axis=1), 1)[:, None]
        pivots.append(col)
    rank = len(pivots)
    if aug[rank:, cols:].any():
        return None
    heads = aug[range(rank), pivots]
    den = lcm(*(abs(h) for h in heads))
    x = np.zeros((cols, b.shape[1]), dtype=object)
    x[pivots] = aug[:rank, cols:] * (den // heads)[:, None]
    return Exact(x, den, p)


# ---------------------------------------------------------------------------
# containers


def _from_entries(shape, entries, p):
    """The Exact of `shape`, zero except at `entries` (index tuple -> number)."""
    cells = [np.ravel_multi_index(key, shape) for key in entries]
    return from_fractions(shape, cells, *_fractions(entries.values(), p), p)


class Structure:
    """An immutable structure whose `rank` axes have n entries, stored as one
    Exact (`exact`); each subclass names its entries, read as nested numbers
    (Exact.tolist()).  Data of another shape raises ShapeError."""

    __slots__ = ("n", "p", "exact")
    rank = 3
    entries = "coefficients"

    def __init__(self, n, p=0, data=None):
        exact = (Exact(np.zeros((n,) * self.rank, dtype=np.int64), 1, p) if data is None
                 else as_exact(data, p))
        if exact.num.shape != (n,) * self.rank:
            raise ShapeError(f"{self.entries} are not {' x '.join([str(n)] * self.rank)}")
        for name, value in zip(Structure.__slots__, (n, p, exact)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_entries(cls, n, entries, p=0):
        """entries: dict index tuple -> number (an int, a Fraction, ...)."""
        return cls(n, p, _from_entries((n,) * cls.rank, entries, p))

    def is_zero(self):
        return self.exact.is_zero()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.exact == other.exact

    def __hash__(self):
        return hash((self.n, self.exact))


class Record:
    """An immutable record of the values its `__slots__` name, in that order;
    two are equal when they are of one type and equal slot by slot.

    A subclass that sets `what` and `verify` (the record -> AxiomReport) is
    verified on a checked build, which raises ValueError 'not <what>: it
    fails <where>' on a failing report; raw builds it unchecked.  n and p
    are those of the first value.
    """

    __slots__ = ()
    what = None
    n = property(lambda self: getattr(self, self.__slots__[0]).n)
    p = property(lambda self: getattr(self, self.__slots__[0]).p)

    def __init__(self, *values, check=True):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} values")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        if check and self.what:
            self.verify().require(self.what)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def raw(cls, *values):
        return cls(*values, check=False)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class MulTensor(Structure):
    """Structure constants c[i][j][k]: e_i <> e_j = sum_k c[i][j][k] e_k."""

    __slots__ = ()
    entries = "structure constants"
    c = property(lambda self: self.exact.tolist())

    def __init__(self, n, p=0, c=None):
        check_characteristic(p)
        if n < 1:
            raise ValueError(f"dimension must be at least 1, got {n}")
        super().__init__(n, p, c)


class Tensor3(Structure):
    """Coefficients t[i][j][k] of sum t[i][j][k] e_i (x) e_j (x) e_k."""

    __slots__ = ()
    t = property(lambda self: self.exact.tolist())


class Comultiplication(Structure):
    """Coefficients a[i][j][k] of alpha(e_i) = sum a[i][j][k] e_j (x) e_k."""

    __slots__ = ()
    a = property(lambda self: self.exact.tolist())


class RTensor(Structure):
    """r = sum coeff[i][j] e_i (x) e_j."""

    __slots__ = ()
    rank = 2
    coeff = property(lambda self: self.exact.tolist())

    def __init__(self, coeff, p=0):
        coeff = as_exact(coeff, p)
        super().__init__(len(coeff), p, coeff)

    @classmethod
    def from_entries(cls, n, entries, p=0):
        """entries: dict (i,j) -> number (an int, a Fraction, ...)."""
        return cls(_from_entries((n, n), entries, p), p)

    def tau(self):
        return RTensor(self.exact.transpose(), self.p)

    def sym_part(self):
        return RTensor((self.exact + self.exact.transpose()) / 2, self.p)

    def skew_part(self):
        return RTensor((self.exact - self.exact.transpose()) / 2, self.p)

    def is_skew(self):
        return (self.exact + self.exact.transpose()).is_zero()

    def is_symmetric(self):
        return self.exact == self.exact.transpose()


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
        lhs and rhs vectors (Exacts) differ, as one-entry Exacts."""
        if self.holds:
            return self
        name, idx, lhs, rhs = self.witness
        (a, b), _ = common(lhs, rhs)
        k = int((a != b).argmax())
        return AxiomReport.fail(name, idx, *(Exact(e.num[k:k + 1], e.den, e.p)
                                             for e in (lhs, rhs)))

    def where(self):
        """'name at (i,j,...)' of a failing report, its indices 1-based as
        basis vectors are named in files."""
        name, idx = self.witness[:2]
        return f"{name} at ({','.join(str(i + 1) for i in idx)})"

    def require(self, what):
        """Raise ValueError 'not <what>: it fails <where>' unless it holds."""
        if not self.holds:
            raise ValueError(f"not {what}: it fails {self.where()}")

    def __bool__(self):
        return self.holds

    def __repr__(self):
        return f"AxiomReport({'holds' if self.holds else 'fails ' + self.where()})"


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


def rewritten(text, subs, minus=""):
    """The terms of `text` less those of `minus`, each factor of an operand
    named in `subs` replaced by a sum over the positions of its subscripts
    and multiplied out: {"c": "a:201"} makes c:xyz a:zxy, and
    {"c": "s:012 + q:012"} makes it s:xyz + q:xyz."""
    out = []
    for num, den, factors in _signed_terms(text) + [(-a, b, f) for a, b, f in
                                                    _signed_terms(minus)]:
        sums = [[(a, b, [(new, "".join(letters[int(k)] for k in pos)) for new, pos in f])
                 for a, b, f in _signed_terms(subs[name])] if name in subs
                else [(1, 1, [(name, letters)])] for name, letters in factors]
        for parts in product(*sums):
            k, d = num * prod(a for a, _, _ in parts), den * prod(b for _, b, _ in parts)
            out.append(f"{'-' if k < 0 else '+'} {abs(k)}/{d} "
                       + " ".join(f"{name}:{s}" for _, _, f in parts for name, s in f))
    return " ".join(out)


class Terms:
    """A sum of signed einsum terms over named operands onto the `out` axes.

    Written like 'a:ijs b:skl - 1/3 a:kjs b:isl': each term is an optional
    sign, an optional rational coefficient and its factors NAME:SUBSCRIPTS,
    with repeated letters summed as in np.einsum.  Coefficients are stored
    times `den`, which must clear them; the terms of `minus` are subtracted.
    Operand axes past the subscripts (the candidate axis of a batch) are
    carried through, last, to the output.  `plan` is compiled on first use
    (see _compile).
    """

    __slots__ = ("terms", "out", "ranks", "degrees", "weight", "summed", "out_axes", "joined",
                 "_plan")

    def __init__(self, text, out, den=1, minus=""):
        signed = _signed_terms(text) + [(-a, b, f) for a, b, f in _signed_terms(minus)]
        self.terms, self.out, self.ranks, self._plan = [], out, {}, None
        for num, cden, factors in signed:
            if den % cden:
                raise ValueError(f"coefficient {num}/{cden} in {text!r} is not cleared")
            self.terms.append((num * (den // cden), factors))
            self.ranks.update((n, len(subs)) for n, subs in factors)
        self.degrees = {len(factors) for _, _, factors in signed}
        self.weight = sum(abs(k) for k, _ in self.terms)
        self.summed = max((len(set("".join(subs for _, subs in f)) - set(out))
                           for _, _, f in signed), default=0)
        # where each output axis's size can be read: (operand, axis)
        self.out_axes = [next(((n, subs.index(c)) for _, _, f in signed
                               for n, subs in f if c in subs), None) for c in out]
        self.joined = _joined_axes([f for _, _, f in signed], out)

    @property
    def plan(self):
        if self._plan is None:
            self._plan = _compile(self.terms, self.out)
        return self._plan


def _canonical(factors, out):
    """The contraction of one term up to the order of its factors and the
    names of its letters: the least (names, labels, free labels) over the
    factor orders, each letter labelled by its first appearance; with the
    label of each letter."""
    best = None
    for order in permutations(factors):
        label = {}
        for _, subs in order:
            for c in subs:
                label.setdefault(c, len(label))
        key = (tuple((name, tuple(label[c] for c in subs)) for name, subs in order),
               tuple(sorted(label[c] for c in out)))
        if best is None or key < best[0]:
            best = key, label
    return best


def _fast_as_written(key):
    """Whether einsum runs a canonical contraction of two factors as fast on
    its operands as they are as laid out: when the summed labels, in one
    order, lead the axes of one factor and lead or end those of the other,
    a copy costs more than it saves (measured at dims 2-8)."""
    factors, free = key
    summed = [tuple(c for c in labels if c not in free) for _, labels in factors]
    m = len(summed[0])
    lead = [labels[:m] == summed[0] for _, labels in factors]
    end = [labels[len(labels) - m:] == summed[0] for _, labels in factors]
    return summed[0] == summed[1] and (lead[0] and (lead[1] or end[1]) or lead[1] and end[0])


def _laid_out(key):
    """The einsum of a canonical contraction of two factors over operands
    laid out as einsum runs fast: summed axes last in the first factor and
    first in the others (a candidate axis stays last), unless it runs as
    fast on the operands as they are (_fast_as_written).  Returns (spec,
    [(name, axis order, or None to take the operand as it is), ...]); the
    output axes are the free labels in order."""
    factors, free = key
    as_written = _fast_as_written(key)
    letters, layout = [], []
    for f, (name, labels) in enumerate(factors):
        axes = range(len(labels))
        summed = sorted((a for a in axes if labels[a] not in free), key=labels.__getitem__)
        kept = [a for a in axes if labels[a] in free]
        order = tuple(axes) if as_written else tuple(kept + summed if f == 0 else summed + kept)
        letters.append("".join(chr(97 + labels[a]) for a in order) + "...")
        layout.append((name, None if order == tuple(axes) else order))
    return ",".join(letters) + "->" + "".join(chr(97 + c) for c in free) + "...", layout


def _compile(terms, out):
    """The plan of a sum of terms: its distinct contractions, each (spec,
    layout, written, steps), where a step (k, axes) adds k times the
    contraction's output transposed by axes (None: as it is).  A
    contraction of two factors is laid out by _laid_out.  One of one or
    three factors is `written`: it runs as its first term is written, into
    a buffer of the output's shape, which einsum runs about twice as fast
    for three factors as the layout of two (measured at dims 4-8)."""
    plan, index = [], {}
    for k, factors in terms:
        key, label = _canonical(factors, out)
        if key not in index:
            if len(factors) == 2:
                (spec, layout), outputs, written = _laid_out(key), key[1], False
            else:
                spec = ",".join(subs + "..." for _, subs in factors) + "->" + out + "..."
                layout = [(name, None) for name, _ in factors]
                outputs, written = [label[c] for c in out], True
            index[key] = len(plan), outputs
            plan.append((spec, layout, written, []))
        c, outputs = index[key]
        axes = tuple(outputs.index(label[ch]) for ch in out)
        plan[c][3].append((k, None if axes == tuple(range(len(out))) else axes))
    return plan


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
    The identity is checked on its `residual`, lhs - rhs; `lhs` alone is
    evaluated only for a witness.  Both are stored times `den`, which clears
    every coefficient; every term has `degree` factors, so scaling all
    operands by a common denominator D scales both sides by D**degree.
    `text` keeps the two sides as written, to derive identities from.
    """

    __slots__ = ("name", "index", "text", "lhs", "residual", "den", "degree")

    def __init__(self, name, index, value, lhs, rhs=""):
        self.name, self.index, self.text = name, index, (lhs, rhs)
        self.den = lcm(*(b for _, b, _ in _signed_terms(f"{lhs} + {rhs}")))
        self.lhs = Terms(lhs, index + value, self.den)
        self.residual = Terms(lhs, index + value, self.den, minus=rhs)
        if len(self.residual.degrees) != 1:
            raise ValueError(f"{name}: terms differ in degree")
        (self.degree,) = self.residual.degrees


_INT_TYPES = [(np.iinfo(t).max, t) for t in (np.int8, np.int16, np.int32, np.int64)]


def _overflow_bound(side, maxabs, size, p):
    """A bound on every partial sum of `side`, and on p, over operands whose
    entries are at most `maxabs` in absolute value and whose axes have at
    most `size` entries: weight * maxabs**degree * size**summed."""
    degree = max(side.degrees, default=0)
    return max(p, side.weight * maxabs ** degree * size ** side.summed)


def _narrowest(bound):
    """The narrowest signed integer type that holds `bound`, or object, for
    Python ints, above int64."""
    return next((t for limit, t in _INT_TYPES if bound <= limit), object)


def cast_operands(sides, arrays, maxabs, p):
    """`arrays` cast once to the _narrowest type that holds _overflow_bound
    of every Terms of `sides` over them, whose entries are at most `maxabs`
    in absolute value (a trailing candidate axis is not an axis of the
    bound).  Every einsum evaluation casts its operand set through here; a
    kernel evaluation takes its type by the same rule (_evaluated)."""
    size = max(max(arrays[name].shape[:rank], default=1)
               for side in sides for name, rank in side.ranks.items())
    dtype = _narrowest(max(_overflow_bound(side, maxabs, size, p) for side in sides))
    return {name: a.astype(dtype, copy=False) for name, a in arrays.items()}


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


def contract(terms, arrays, p):
    """`terms` over `arrays`, integer arrays of one dtype (cast_operands),
    evaluated in that dtype and reduced into [0, p) over GF(p).  The output
    has the `out` axes, then the candidate axis of a batch when an operand
    has more axes than its subscripts: the largest last axis, since an
    operand shared by every candidate has a last axis of 1 and is
    broadcast.  Each distinct contraction of the plan is evaluated once, on
    its operands laid out once per call, and added transposed to each of its
    terms; every partial sum stays within _overflow_bound in any order."""
    shape = [arrays[name].shape[axis] for name, axis in terms.out_axes]
    batch = [arrays[name].shape[-1] for name, rank in terms.ranks.items()
             if arrays[name].ndim > rank]
    tail = ()
    if batch:
        shape.append(max(batch))
        tail = (len(terms.out),)
    total, laid = None, {}
    for spec, layout, written, steps in terms.plan:
        operands = []
        for name, order in layout:
            a = arrays[name]
            if order is not None:
                if (name, order) not in laid:
                    laid[name, order] = np.ascontiguousarray(
                        a.transpose(order + tuple(range(len(order), a.ndim))))
                a = laid[name, order]
            operands.append(a)
        if written:
            # into a buffer of our own: a one-factor einsum may return a view
            res = np.einsum(spec, *operands, out=np.empty(shape, operands[0].dtype))
        else:
            res = np.einsum(spec, *operands)
            if res.ndim < len(shape):
                res = res[..., None]
        for k, axes in steps:
            term = res if axes is None else res.transpose(axes + tail)
            if total is None:
                total = np.empty(shape, dtype=res.dtype)
                np.multiply(term, k, out=total)
            elif k == 1:
                total += term
            elif k == -1:
                total -= term
            else:
                total += term * k
    if p:
        total %= p
    return total


# (tuple of Terms, operand shapes) -> their _Kernel, or None where their plans
# evaluate them: the shapes have passed _check_sizes (see _evaluated)
_KERNELS = {}
_ONE = np.ones(1, dtype=np.int64)


def _strides(letters, dims, term_letters):
    """The stride of each of `term_letters` in the row-major flat index of
    `letters` over axes of `dims` (0 for a letter not among them)."""
    return [sum(prod(dims[a + 1:]) for a, c in enumerate(letters) if c == t)
            for t in term_letters]


class _Kernel:
    """A tuple of Terms over operands of fixed shapes as flat monomials: each
    a coefficient times entries of one vector, added into one cell of the
    Terms' outputs laid end to end.  The vector holds the entries of the
    operands in `names`, in order, then a 1 that pads the terms of lower
    degree; `factors` (degree x monomials) index it.  Each term gives one
    monomial for each assignment of its letters; equal monomials (factors
    sorted) are merged and those of coefficient 0 dropped, but for one in
    each cell left empty, so np.add.reduceat from `starts` sums each cell.
    `outputs` holds each output's (start, stop, shape) in the cells, and
    `bounds` the (weight, degree, size**summed) of each _overflow_bound."""

    __slots__ = ("names", "coefs", "factors", "starts", "outputs", "bounds")

    def __init__(self, sides, shapes):
        names = sorted({name for side in sides for name in side.ranks})
        sizes = [prod(shapes[name]) for name in names]
        base = dict(zip(names, np.cumsum([0] + sizes).tolist()))
        one, degree = sum(sizes), max(max(side.degrees) for side in sides)
        rows, coefs, outputs, cells = [], [], [], 0
        for side in sides:
            dims = tuple(shapes[name][axis] for name, axis in side.out_axes)
            for k, factors in side.terms:
                size = {c: shapes[name][axis] for name, subs in factors
                        for axis, c in enumerate(subs)}
                # the row of a monomial: its cell, then the offsets of its factors
                flat = [(side.out, dims, cells)] + [(subs, shapes[name], base[name])
                                                    for name, subs in factors]
                pad = degree - len(factors)
                strides = [_strides(*f[:2], size) for f in flat] + [[0] * len(size)] * pad
                count = prod(size.values())
                grid = np.indices(tuple(size.values()), np.int32).reshape(len(size), count)
                rows.append(np.array(strides, np.int32) @ grid
                            + np.array([f[2] for f in flat] + [one] * pad, np.int32)[:, None])
                coefs.append(np.full(count, k))
            outputs.append((cells, cells + prod(dims), dims))
            cells += prod(dims)
        rows.append(np.array([np.arange(cells)] + [np.full(cells, one)] * degree, np.int32))
        coefs.append(np.zeros(cells, int))      # a monomial 0 in every cell
        rows = np.concatenate(rows, axis=1)
        for last in range(degree, 1, -1):       # sort each monomial's factors
            for f in range(1, last):
                rows[f], rows[f + 1] = (np.minimum(rows[f], rows[f + 1]),
                                        np.maximum(rows[f], rows[f + 1]))
        # one key a monomial, the digits of its row in base one + 1
        key = rows[0].astype(np.int64 if cells * (one + 1) ** degree < 2 ** 63 else object)
        for f in rows[1:]:
            key = key * (one + 1) + f
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        rows, coefs = rows[:, order[first]], np.add.reduceat(np.concatenate(coefs)[order], first)
        filled = np.zeros(cells, bool)
        filled[rows[0, coefs != 0]] = True
        keep = (coefs != 0) | (rows[1] == one) & ~filled[rows[0]]
        rows, coefs = rows[:, keep], coefs[keep]
        size = max(max(shapes[name], default=1) for name in names)
        self.names, self.outputs = names, outputs
        self.coefs = coefs.astype(np.min_scalar_type(-1 - int(abs(coefs).max())))
        self.factors = rows[1:].astype(np.min_scalar_type(one))
        self.starts = np.flatnonzero(np.r_[True, rows[0, 1:] != rows[0, :-1]])
        self.bounds = [(side.weight, max(side.degrees), size ** side.summed) for side in sides]

    def __call__(self, arrays, maxabs, p):
        """The outputs over `arrays` (name -> integer array), whose entries
        are at most `maxabs` in absolute value, in the type cast_operands
        would take and reduced into [0, p) over GF(p); None when that type
        is object."""
        dtype = _narrowest(max(p, *(w * maxabs ** d * s for w, d, s in self.bounds)))
        if dtype is object:
            return None
        vector = np.concatenate([*(arrays[name].ravel() for name in self.names), _ONE],
                                dtype=dtype, casting="unsafe")
        prods = vector.take(self.factors[0])
        for f in self.factors[1:]:
            prods *= vector.take(f)
        prods *= self.coefs
        out = np.add.reduceat(prods, self.starts)
        if p:
            out %= p
        return [out[a:b].reshape(dims) for a, b, dims in self.outputs]


def _evaluated(sides, operands, p):
    """The values of `sides` over one structure's operands (Exacts, or
    nested numbers) scaled by one common denominator D, as integer arrays
    of their `out` shapes, and D.

    Raises ShapeError when the operands' axis sizes do not fit the letters
    of `sides`.  When every operand axis has 1 to 3 entries (no candidate
    axis) the sides are evaluated at once by their _Kernel, compiled on the
    first call with these sides and operand shapes, unless their values
    need Python ints; otherwise, and at larger shapes, where the plans run
    faster, each side is contracted by its plan on operands cast by
    cast_operands."""
    exacts = {name: as_exact(data, p) for name, data in operands.items()}
    key = (tuple(sides), tuple((name, e.num.shape) for name, e in exacts.items()))
    if key not in _KERNELS:
        shapes = dict(key[1])
        for side in sides:
            _check_sizes(side, shapes)
        small = all(len(shapes[name]) == rank and set(shapes[name]) <= {1, 2, 3}
                    for side in sides for name, rank in side.ranks.items())
        _KERNELS[key] = _Kernel(sides, shapes) if small else None
    kernel = _KERNELS[key]
    arrays, den, maxabs = _scaled(exacts)
    values = kernel(arrays, maxabs, p) if kernel is not None else None
    if values is None:
        arrays = cast_operands(sides, arrays, maxabs, p)
        values = [contract(side, arrays, p) for side in sides]
    return values, den


def _scaled(exacts):
    """The nums of one structure's Exacts (name -> Exact) on one common
    denominator D, by name; D; and the largest |num|."""
    nums, den = common(*exacts.values())
    return dict(zip(exacts, nums)), den, max(e.maxabs * (den // e.den) for e in exacts.values())


def exact_operands(operands, p, sides):
    """One structure's operands (Exacts, or nested lists of numbers) as
    integer arrays scaled by one common denominator D, for contracting
    `sides`; returns (arrays, D).

    Raises ShapeError when the operands' axis sizes do not fit the letters
    of `sides`.  The arrays are cast by cast_operands, with maxabs the
    largest |entry| after D is cleared."""
    exacts = {name: as_exact(data, p) for name, data in operands.items()}
    shapes = {name: e.num.shape for name, e in exacts.items()}
    for side in sides:
        _check_sizes(side, shapes)
    arrays, den, maxabs = _scaled(exacts)
    return cast_operands(sides, arrays, maxabs, p), den


def check_identities(groups, operands, p):
    """The first failing identity of a sequence of groups, or ok.

    The residuals of all groups are evaluated at once (_evaluated).  Within
    a group the witness is the first index, in lexicographic order, at which
    any residual is nonzero; ties go to the identity listed first.  Only its
    lhs is evaluated again, contracted by its plan: its lhs and rhs (lhs -
    residual) are the Exacts of the value axes at that index (of one entry
    when the identity has no value axes).
    """
    values, den = _evaluated([ident.residual for group in groups for ident in group],
                             operands, p)
    values = iter(values)
    for group in groups:
        residuals = [next(values) for _ in group]
        if not any(res.any() for res in residuals):
            continue
        failing = np.stack([res.reshape(res.shape[:len(ident.index)] + (-1,)).any(-1)
                            for ident, res in zip(group, residuals)], axis=-1)
        *idx, which = np.unravel_index(failing.argmax(), failing.shape)
        idx = tuple(int(i) for i in idx)
        ident = group[which]
        # on Python ints: lhs - residual may leave a narrow dtype
        arrays, _ = exact_operands(operands, p, [ident.lhs])
        lhs = np.atleast_1d(contract(ident.lhs, arrays, p)[idx]).astype(object)
        rhs = lhs - np.atleast_1d(residuals[which][idx]).astype(object)
        scale = ident.den * den ** ident.degree
        return AxiomReport.fail(ident.name, idx, Exact(lhs, scale, p),
                                Exact(rhs % p if p else rhs, scale, p))
    return AxiomReport.ok()


def evaluate(tables, operands, p):
    """Terms, or a sequence of Terms evaluated at once, over the operands
    they name (Exacts or nested numbers), as an Exact or a list of Exacts."""
    sides = [tables] if isinstance(tables, Terms) else list(tables)
    values, den = _evaluated(sides, {name: operands[name] for side in sides
                                     for name in side.ranks}, p)
    exacts = [Exact(v, den ** max(side.degrees), p) for side, v in zip(sides, values)]
    return exacts[0] if isinstance(tables, Terms) else exacts
