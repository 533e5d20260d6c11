"""Line-based text format for algebras, tensors, representations and maps.

Grammar (one statement per line, '#' starts a comment, blank lines ignored):

    format 1                      # optional version header
    field rational | field gf 5
    dim 2
    vdim 1                        # optional second (module) dimension
    op star                       # declares an operation on the main space
    op star2 vdim                 # declares an operation on the module space
    star: e1 e2 = 1 e2 + -1/2 e1  # unlisted products are zero
    tensor r: e1 e2 = 1           # coefficient of e1 (x) e2
    rep L e1 = [0,1 ; 0,0]        # row-major matrix, rows separated by ';'
    map theta = [1,0 ; 0,2]
    comul alpha                   # declares a comultiplication
    alpha: e1 = 1 e1 e2           # coefficient of e1 (x) e2 in alpha(e1)

Indices are 1-based (e1, e2, ...). Printing is canonical and deterministic;
parse(print(f)) == f and print(parse(text)) is a fixed point.
"""

from itertools import chain, repeat
from math import gcd, isqrt
from types import SimpleNamespace

import numpy as np

from .scalars import check_characteristic
from .tensors import Comultiplication, MulTensor, RTensor, as_exact, from_fractions

# The largest identity output, an index triple times a value axis, has
# dim**4 entries; MAX_DIM keeps it at MAX_OUTPUT_ENTRIES (MAX_DIM = 32).
# A larger `dim` or `vdim` is rejected before anything is allocated.
MAX_OUTPUT_ENTRIES = 2 ** 20
MAX_DIM = isqrt(isqrt(MAX_OUTPUT_ENTRIES))
# "e1" .. "e32" by 0-based index; other spellings take the checked path
_BASIS_INDEX = {f"e{i + 1}": i for i in range(MAX_DIM)}


class FormatError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class AlgebraFile:
    """Parsed form of the text format; a plain mutable container.  The
    parser stores every structure, family and map as an Exact array;
    keyword `parts` are filed by their type."""

    def __init__(self, p=0, dim=None, vdim=None, **parts):
        self.p = p                  # 0 = rational, else prime characteristic
        self.dim = dim
        self.vdim = vdim
        self.ops = {}               # name -> MulTensor
        self.tensors = {}           # name -> RTensor
        self.reps = {}              # name -> matrices, one per e_i (Exact or nested lists)
        self.rep_spaces = {}        # name -> "dim" | "vdim" (index space)
        self.maps = {}              # name -> matrix (Exact or nested lists)
        self.comuls = {}            # name -> Comultiplication
        for name, part in parts.items():    # filed by type: anything else is a family
            {MulTensor: self.ops, RTensor: self.tensors,
             Comultiplication: self.comuls}.get(type(part), self.reps)[name] = part

    def __eq__(self, other):
        if not isinstance(other, AlgebraFile):
            return NotImplemented
        return (self.p == other.p and self.dim == other.dim and
                self.vdim == other.vdim and self.ops == other.ops and
                self.tensors == other.tensors and
                self._eff_spaces() == other._eff_spaces() and
                self._arrays(self.reps) == other._arrays(other.reps) and
                self._arrays(self.maps) == other._arrays(other.maps) and
                self.comuls == other.comuls)

    def _eff_spaces(self):
        return {k: self.rep_spaces.get(k, "dim") for k in self.reps}

    def _arrays(self, part):
        return {k: as_exact(v, self.p) for k, v in part.items()}


def _parse_basis(tok, size, lineno, label="basis vector"):
    i = _BASIS_INDEX.get(tok, size)
    if i < size:
        return i
    digits = tok[1:]
    if not (tok.startswith("e") and digits.isascii() and digits.isdecimal()):
        raise FormatError(lineno, f"expected {label} like 'e1', got {tok!r}")
    # compare lengths first: int() refuses very long digit strings
    if len(digits.lstrip("0")) > len(str(size)) or not 1 <= int(digits) <= size:
        raise FormatError(lineno, f"index {tok} out of range (size {size})")
    return int(digits) - 1


def _parse_scalar(tok, p, lineno):
    """'7' or '-3/4' as ints (num, den), den nonzero (mod p); p was validated
    on the field line.  The parser converts its tokens in bulk (_convert)
    and calls this only to report the first bad one."""
    try:
        return int(tok), 1
    except ValueError:
        pass
    num_s, slash, den_s = tok.strip().partition("/")
    try:
        num, den = int(num_s), int(den_s) if slash else 1
    except ValueError as exc:
        raise FormatError(lineno, f"bad scalar {tok!r}: {exc}")
    if den % p == 0 if p else den == 0:
        why = f"denominator {den} is 0 mod {p}" if p else "zero denominator"
        raise FormatError(lineno, f"bad scalar {tok!r}: {why}")
    return num, den


def _convert(toks, p):
    """The coefficient tokens as (nums, dens), lists of ints (dens None when
    no token is a fraction), or None when _parse_scalar rejects a token:
    the same rule, a list at a time (int() strips the whitespace that
    _parse_scalar strips before it splits at '/')."""
    try:
        return list(map(int, toks)), None
    except ValueError:
        pass
    # each partition is freed before the next: a list of them would be a
    # burst of new tracked tuples, which can set off a full collection
    heads = [tok.partition("/")[0] for tok in toks]
    tails = [tail if slash else "1" for _, slash, tail in map(str.partition, toks, repeat("/"))]
    try:
        nums = list(map(int, heads))
        den_of = {tail: int(tail) for tail in set(tails)}
    except ValueError:
        return None
    if any(d % p == 0 for d in den_of.values()) if p else 0 in den_of.values():
        return None
    return nums, list(map(den_of.__getitem__, tails))


def _check_tokens(marks, p):
    """Raise the FormatError of the first bad coefficient or term in file
    order, if there is one."""
    for lineno, payload, target, cell in marks:
        if target.arity:
            _parse_terms(payload, target.shape[0], p, lineno, target.arity, cell)
        else:
            for tok in payload:
                _parse_scalar(tok, p, lineno)


def _target(shape=None, arity=0):
    """One structure of a file while it is read.  `arity` is the number of
    basis vectors in a term: 1 for an operation, 2 for a comultiplication,
    0 for tensors, families and maps, whose entries are one token each.
    `toks` and `cells` are the coefficient tokens and the flat cells they
    add to; `seen` the keys of the lines read, for the duplicate checks.
    A namespace rather than a class of this module, whose constructor
    perfbench/tracer.py would count among the module's public calls."""
    return SimpleNamespace(shape=shape, arity=arity, toks=[], cells=[], seen={})


def parse_file(text):
    """The AlgebraFile of `text`.  One pass over the lines checks the
    statements; the terms of each structure are then split at once and
    all coefficient tokens converted at once.  Tokens and terms are
    checked one by one only when something failed, in file order, so
    that every error is the one a token-by-token reading meets first."""
    af, targets, marks = AlgebraFile(), {}, []
    try:
        _read_statements(text, af, targets, marks)
        for target in targets.values():
            if target.arity:
                _collect_terms(target, [m for m in marks if m[2] is target], af.p)
    except FormatError:
        _check_tokens(marks, af.p)      # a bad token on an earlier line comes first
        raise
    values = _convert(list(chain.from_iterable(t.toks for t in targets.values())), af.p)
    if values is None:
        _check_tokens(marks, af.p)      # raises
    nums, dens = values
    start = 0
    for (kind, name), target in targets.items():
        stop = start + len(target.toks)
        exact = from_fractions(target.shape, target.cells, nums[start:stop],
                               dens and dens[start:stop], af.p)
        start = stop
        if kind == "op":
            af.ops[name] = MulTensor(target.shape[0], af.p, exact)
        elif kind == "comul":
            af.comuls[name] = Comultiplication(af.dim, af.p, exact)
        elif kind == "tensor":
            af.tensors[name] = RTensor(exact, af.p)
        else:
            (af.reps if kind == "rep" else af.maps)[name] = exact
    return af


def _read_statements(text, af, targets, marks):
    """The line pass of parse_file: sets af's header, keeps a _target per
    structure in `targets`, keyed (kind, name), and in `marks` the (line
    number, payload, target, cell) of every line with coefficients, in
    file order."""
    field_seen = False
    heads = {}      # 'NAME:' -> the _target of op NAME, when NAME has no ':'

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        words = line.split(None, 3)     # a statement of more words is rejected by length
        head = words[0]

        # a product line as print_file writes it, read here when it is new
        # and its indices are in range; the general data line takes the rest
        target = heads.get(head)
        if target is not None and len(words) == 4 and words[3][0] == "=":
            size = target.shape[0]
            i, j = _BASIS_INDEX.get(words[1], size), _BASIS_INDEX.get(words[2], size)
            cell = i * size + j
            if i < size and j < size and cell not in target.seen:
                target.seen[cell] = None
                marks.append((lineno, words[3][1:], target, cell))
                continue

        if head == "format":
            if words[1:] != ["1"]:
                raise FormatError(lineno, f"unsupported format version {line!r}")
            continue

        if head == "field":
            if field_seen:
                raise FormatError(lineno, "duplicate field declaration")
            if words[1:] == ["rational"]:
                af.p = 0
            elif (len(words) == 3 and words[1] == "gf" and words[2].isascii()
                  and words[2].isdecimal()):
                try:
                    # int() raises ValueError on very long digit strings
                    p = int(words[2])
                    check_characteristic(p)
                except ValueError as exc:
                    raise FormatError(lineno, str(exc))
                af.p = p
            else:
                raise FormatError(lineno, f"bad field declaration {line!r}")
            field_seen = True
            continue

        if head == "dim" or head == "vdim":
            # ASCII digits only: int() also reads other scripts' digits
            digits = words[1].lstrip("0") if len(words) == 2 else ""
            if not (digits.isascii() and digits.isdecimal()):
                raise FormatError(lineno, f"bad {head} declaration {line!r}")
            if getattr(af, head) is not None:
                raise FormatError(lineno, f"duplicate {head} declaration")
            # compare lengths first: int() refuses very long digit strings
            if len(digits) > len(str(MAX_DIM)) or int(digits) > MAX_DIM:
                raise FormatError(lineno, f"{head} {words[1]} exceeds the largest "
                                          f"supported dimension {MAX_DIM}")
            setattr(af, head, int(digits))
            continue

        if not field_seen:
            raise FormatError(lineno, "field must be declared first")
        if af.dim is None:
            raise FormatError(lineno, "dim must be declared before data")

        if head == "op":
            if len(words) == 2:
                name, size = words[1], af.dim
            elif len(words) == 3 and words[2] == "vdim":
                name, size = words[1], af.vdim
                if af.vdim is None:
                    raise FormatError(lineno, "op on vdim but no vdim declared")
            else:
                raise FormatError(lineno, f"bad op declaration {line!r}")
            if ("op", name) in targets or ("comul", name) in targets:
                raise FormatError(lineno, f"duplicate name {name!r}")
            targets["op", name] = target = _target((size,) * 3, arity=1)
            if ":" not in name:
                heads[name + ":"] = target
            continue

        if head == "comul":
            if len(words) != 2:
                raise FormatError(lineno, f"bad comul declaration {line!r}")
            name = words[1]
            if ("comul", name) in targets or ("op", name) in targets:
                raise FormatError(lineno, f"duplicate name {name!r}")
            targets["comul", name] = _target((af.dim,) * 3, arity=2)
            continue

        if head == "tensor":
            # tensor NAME: ei ej = c
            rest = line[len("tensor"):].strip()
            if ":" not in rest:
                raise FormatError(lineno, "tensor line needs 'NAME: ei ej = c'")
            name, body = rest.split(":", 1)
            name = name.strip()
            lhs, _, rhs = body.partition("=")
            toks = lhs.split()
            if len(toks) != 2 or not rhs.strip():
                raise FormatError(lineno, "tensor line needs 'NAME: ei ej = c'")
            i = _parse_basis(toks[0], af.dim, lineno)
            j = _parse_basis(toks[1], af.dim, lineno)
            target = targets.get(("tensor", name))
            if target is None:
                target = targets["tensor", name] = _target((af.dim,) * 2)
            if (i, j) in target.seen:
                raise FormatError(lineno, f"duplicate tensor entry {toks[0]} {toks[1]}")
            target.seen[i, j] = None
            marks.append((lineno, [rhs], target, None))
            target.toks.append(rhs)
            target.cells.append(i * af.dim + j)
            continue

        if head == "rep":
            # rep NAME [vdim] ei = [matrix]
            rest = line[len("rep"):].strip()
            lhs, eq, rhs = rest.partition("=")
            toks = lhs.split()
            if len(toks) == 3 and toks[1] == "vdim":
                if af.vdim is None:
                    raise FormatError(lineno, "rep on vdim but no vdim declared")
                name, space, size = toks[0], "vdim", af.vdim
                btok = toks[2]
            elif len(toks) == 2:
                name, space, size = toks[0], "dim", af.dim
                btok = toks[1]
            else:
                raise FormatError(lineno, "rep line needs 'rep NAME [vdim] ei = [matrix]'")
            if not eq:
                raise FormatError(lineno, "rep line needs 'rep NAME [vdim] ei = [matrix]'")
            if af.rep_spaces.setdefault(name, space) != space:
                raise FormatError(lineno, f"rep {name!r} mixes index spaces")
            i = _parse_basis(btok, size, lineno)
            target = targets.get(("rep", name))
            if target is None:
                target = targets["rep", name] = _target()
            rows = _add_matrix(target, rhs, i, lineno, marks)
            if i in target.seen:
                raise FormatError(lineno, f"duplicate rep matrix for {btok}")
            target.seen[i] = (lineno, len(rows), len(rows[0]))
            continue

        if head == "map":
            rest = line[len("map"):].strip()
            lhs, eq, rhs = rest.partition("=")
            name = lhs.strip()
            if not name or not eq:
                raise FormatError(lineno, "map line needs 'map NAME = [matrix]'")
            if ("map", name) in targets:
                raise FormatError(lineno, f"duplicate map {name!r}")
            targets["map", name] = target = _target()
            rows = _add_matrix(target, rhs, 0, lineno, marks)
            target.shape = (len(rows), len(rows[0]))
            continue

        # data line: 'name: ...'
        if ":" in line:
            name, body = line.split(":", 1)
            name = name.strip()
            if ("op", name) in targets:
                target = targets["op", name]
                size = target.shape[0]
                lhs, eq, rhs = body.partition("=")
                toks = lhs.split()
                if len(toks) != 2 or not eq:
                    raise FormatError(lineno, "product line needs 'NAME: ei ej = terms'")
                i = _parse_basis(toks[0], size, lineno)
                cell = i * size + _parse_basis(toks[1], size, lineno)
                if cell in target.seen:
                    raise FormatError(lineno, f"duplicate product {toks[0]} {toks[1]}")
            elif ("comul", name) in targets:
                target = targets["comul", name]
                lhs, eq, rhs = body.partition("=")
                toks = lhs.split()
                if len(toks) != 1 or not eq:
                    raise FormatError(lineno, "comul line needs 'NAME: ei = terms'")
                cell = _parse_basis(toks[0], af.dim, lineno)
                if cell in target.seen:
                    raise FormatError(lineno, f"duplicate comultiplication of {toks[0]}")
            else:
                raise FormatError(lineno, f"data line for undeclared name {name!r}")
            target.seen[cell] = None
            marks.append((lineno, rhs, target, cell))
            continue

        raise FormatError(lineno, f"unrecognized line {line!r}")

    if not field_seen:
        raise FormatError(1, "missing field declaration")
    if af.dim is None:
        raise FormatError(1, "missing dim declaration")

    for (kind, name), target in targets.items():
        if kind == "rep":
            m = next(iter(target.seen.values()))[1]
            for lineno, rows, cols in target.seen.values():
                if rows != m or cols != m:
                    raise FormatError(lineno, f"rep {name!r} matrices disagree in size")
            target.shape = (af.dim if af.rep_spaces[name] == "dim" else af.vdim, m, m)


def _add_matrix(target, text, i, lineno, marks):
    """Add the entries of the matrix `text`, '[a,b ; c,d]', to target as
    the i-th matrix of its family (cells from i * rows**2), and return its
    rows of tokens.  A ragged matrix is rejected after its tokens are
    noted, since a token-by-token reading meets them first."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise FormatError(lineno, "matrix must be enclosed in [ ... ]")
    rows = [row_s.split(",") for row_s in text[1:-1].split(";")]
    toks = [tok for row in rows for tok in row]
    start = i * len(rows) ** 2
    marks.append((lineno, toks, target, None))
    target.toks += toks
    target.cells += range(start, start + len(toks))
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise FormatError(lineno, "matrix rows have unequal lengths")
    return rows


def _collect_terms(target, lines, p):
    """Fill target.toks and target.cells from its term lines, the marks
    (line number, right-hand side, target, cell) of `lines`.  Every line in
    the spelling '<c> e<k> + ...' (arity 1) or '<c> e<j> e<k> + ...' (arity
    2) with indices in range: all lines are joined and split once, and
    their indices looked up at once in _BASIS_INDEX.  Otherwise each line
    is read by _parse_terms, which raises the first error of a line."""
    size, arity = target.shape[0], target.arity
    rhss = [rhs for _, rhs, _, _ in lines]
    joined = " + ".join(rhss)
    toks = joined.split()
    step = arity + 2
    coefs, seps = toks[::step], toks[arity + 1::step]
    # the joined text splits as its lines do exactly when every '+' is a
    # separator token and the tokens between them make whole terms
    if len(toks) == len(coefs) * step - 1 and joined.count("+") == len(seps) == seps.count("+"):
        idx = [np.fromiter(map(_BASIS_INDEX.get, toks[a::step], repeat(size)), np.intp,
                           len(coefs)) for a in range(1, arity + 1)]
        if max(ks.max() for ks in idx) < size:
            terms = np.fromiter(map(str.count, rhss, repeat("+")), np.intp, len(rhss)) + 1
            cells = np.array([cell for _, _, _, cell in lines]).repeat(terms)
            for ks in idx:
                cells = cells * size + ks
            target.toks, target.cells = coefs, cells
            return
    for lineno, rhs, _, cell in lines:
        cells, coefs = _parse_terms(rhs, size, p, lineno, arity, cell)
        target.toks += coefs
        target.cells += cells


def _parse_terms(rhs, size, p, lineno, arity, cell):
    """'1 e2 + -1/2 e1' (arity 1) or '1 e1 e2 + ...' (arity 2), or '0', as
    (cells, coefficient tokens), each token checked in order: each term's
    cell is the flat row-major index of `cell` followed by its indices."""
    if rhs.strip() == "0":
        return [], []
    cells, coefs = [], []
    for part in rhs.split("+"):
        toks = part.split()
        if len(toks) != 1 + arity:
            raise FormatError(lineno, f"bad term {part.strip()!r}")
        _parse_scalar(toks[0], p, lineno)
        coefs.append(toks[0])
        c = cell
        for t in toks[1:]:
            c = c * size + _parse_basis(t, size, lineno)
        cells.append(c)
    return cells, coefs


def entry_strings(x, p):
    """The entries of an Exact (or nested numbers) over p as strings, '' for
    0: the one spelling of numbers in files and in witnesses."""
    e = as_exact(x, p)
    return np.array([f"{a // g}/{e.den // g}" if (g := gcd(a, e.den)) != e.den else
                     str(a // g) if a else "" for a in e.num.ravel().tolist()],
                    dtype=object).reshape(e.num.shape)


def _fmt_matrix(mat):
    return "[" + " ; ".join(",".join(v or "0" for v in row) for row in mat) + "]"


def print_file(af):
    out = ["format 1", "field rational" if af.p == 0 else f"field gf {af.p}", f"dim {af.dim}"]
    if af.vdim is not None:
        out.append(f"vdim {af.vdim}")
    for name in sorted(af.ops):
        m = af.ops[name]
        tag = " vdim" if af.vdim is not None and m.n == af.vdim != af.dim else ""
        out.append(f"op {name}{tag}")
        s = entry_strings(m.exact, m.p)
        for i in range(m.n):
            for j in range(m.n):
                terms = [f"{v} e{k + 1}" for k, v in enumerate(s[i, j]) if v]
                if terms:
                    out.append(f"{name}: e{i + 1} e{j + 1} = " + " + ".join(terms))
    for name in sorted(af.comuls):
        c = af.comuls[name]
        out.append(f"comul {name}")
        for i, plane in enumerate(entry_strings(c.exact, c.p)):
            terms = [f"{v} e{j + 1} e{k + 1}" for (j, k), v in np.ndenumerate(plane) if v]
            if terms:
                out.append(f"{name}: e{i + 1} = " + " + ".join(terms))
    for name in sorted(af.tensors):
        r = af.tensors[name]
        # keep an explicit zero entry so that a zero tensor survives reparsing
        out += [f"tensor {name}: e{i + 1} e{j + 1} = {v}" for (i, j), v
                in np.ndenumerate(entry_strings(r.exact, r.p)) if v] or [
                    f"tensor {name}: e1 e1 = 0"]
    for name in sorted(af.reps):
        tag = " vdim" if af.rep_spaces.get(name, "dim") == "vdim" else ""
        for i, mat in enumerate(entry_strings(af.reps[name], af.p)):
            out.append(f"rep {name}{tag} e{i + 1} = {_fmt_matrix(mat)}")
    for name in sorted(af.maps):
        out.append(f"map {name} = {_fmt_matrix(entry_strings(af.maps[name], af.p))}")
    return "\n".join(out) + "\n"


def read_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_file(fh.read())


def write_file(path, af):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_file(af))
