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

import sys
from functools import partial
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


def _parse_basis(tok, size, lineno):
    i = _BASIS_INDEX.get(tok, size)
    if i < size:
        return i
    digits = tok[1:]
    if not (tok.startswith("e") and digits.isascii() and digits.isdecimal()):
        raise FormatError(lineno, f"expected basis vector like 'e1', got {tok!r}")
    # compare lengths first: int() refuses very long digit strings
    if len(digits.lstrip("0")) > len(str(size)) or not 1 <= int(digits) <= size:
        raise FormatError(lineno, f"index {tok} out of range (size {size})")
    return int(digits) - 1


def _parse_scalar(tok, p, lineno):
    """'7' or '-3/4' as ints (num, den), den nonzero (mod p); p was validated
    on the field line.  The parser converts its tokens in bulk (_convert)
    and calls this only on the checked reading of a file that failed."""
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
    no token is a fraction), by the rule of _parse_scalar, a list at a time
    (int() strips the whitespace that _parse_scalar strips before it splits
    at '/').  A bad token raises a FormatError without its line, which the
    checked reading of parse_file finds."""
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
        raise FormatError(0, "bad scalar")
    if any(d % p == 0 for d in den_of.values()) if p else 0 in den_of.values():
        raise FormatError(0, "bad scalar")
    return nums, list(map(den_of.__getitem__, tails))


def _target(shape=None, arity=0):
    """One structure of a file while it is read.  `arity` is the number of
    basis vectors in a term: 1 for an operation, 2 for a comultiplication,
    0 for tensors, families and maps, whose entries are one token each.
    `toks` and `cells` are the coefficient tokens and the flat cells they
    add to (for terms, until _collect_terms splits them, the right-hand
    sides and cells of the lines); `seen` the keys of the lines read, for
    the duplicate checks.  A namespace rather than a class of this module,
    whose constructor perfbench/tracer.py would count among the module's
    public calls."""
    return SimpleNamespace(shape=shape, arity=arity, toks=[], cells=[], seen={})


def parse_file(text):
    """The AlgebraFile of `text`.  One pass over the lines checks the
    statements; the terms of each structure are then split at once and
    all coefficient tokens converted at once.  When any step fails, the
    text is read again with each token and term checked where it stands,
    and the first error in file order is raised."""
    af, targets = AlgebraFile(), {}
    try:
        _read_statements(text, af, targets)
        for target in targets.values():
            if target.arity:
                _collect_terms(target)
        nums, dens = _convert(list(chain.from_iterable(t.toks for t in targets.values())), af.p)
    except FormatError:
        _read_statements(text, AlgebraFile(), {}, checked=True)    # raises the first error
        raise
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


def _read_statements(text, af, targets, checked=False):
    """The line pass of parse_file: sets af's header and keeps a _target per
    structure in `targets`, keyed (kind, name).  With `checked`, every
    coefficient and term is also checked on its line, so the first error
    in file order is raised."""
    field_seen = False
    heads = {}      # 'NAME:' -> the _target of op NAME, when NAME has no ':'

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        words = line.split(None, 3)     # a statement of more words is rejected by length
        head = words[0]

        # a product line as print_file writes it, without the general split
        # (the checked reading keeps no heads: its terms need checking)
        target = heads.get(head)
        if target is not None and len(words) == 4 and words[3][0] == "=":
            _add_terms(target, words[1:3], words[3][1:], lineno)
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
            if ":" not in name and not checked:
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
            if checked:
                _parse_scalar(rhs, af.p, lineno)
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
            rows = _add_matrix(target, rhs, i, lineno, af.p if checked else None)
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
            rows = _add_matrix(target, rhs, 0, lineno, af.p if checked else None)
            target.shape = (len(rows), len(rows[0]))
            continue

        # data line: 'name: ...'
        if ":" in line:
            name, body = line.split(":", 1)
            name = name.strip()
            target = targets.get(("op", name)) or targets.get(("comul", name))
            if target is None:
                raise FormatError(lineno, f"data line for undeclared name {name!r}")
            lhs, eq, rhs = body.partition("=")
            toks = lhs.split()
            if len(toks) != 3 - target.arity or not eq:
                raise FormatError(lineno, "product line needs 'NAME: ei ej = terms'"
                                  if target.arity == 1 else "comul line needs 'NAME: ei = terms'")
            _add_terms(target, toks, rhs, lineno)
            if checked:
                _check_terms(rhs, target.shape[0], af.p, lineno, target.arity)
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


def _add_matrix(target, text, i, lineno, p=None):
    """Add the entries of the matrix `text`, '[a,b ; c,d]', to target as
    the i-th matrix of its family (cells from i * rows**2), and return its
    rows of tokens.  Given p, on the checked reading, each entry is checked
    as a scalar over p before the rows are compared, since a token-by-token
    reading meets them first."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise FormatError(lineno, "matrix must be enclosed in [ ... ]")
    rows = [row_s.split(",") for row_s in text[1:-1].split(";")]
    toks = [tok for row in rows for tok in row]
    if p is not None:
        for tok in toks:
            _parse_scalar(tok, p, lineno)
    start = i * len(rows) ** 2
    target.toks += toks
    target.cells += range(start, start + len(toks))
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise FormatError(lineno, "matrix rows have unequal lengths")
    return rows


def _add_terms(target, btoks, rhs, lineno):
    """Record the data line 'NAME: <btoks> = <rhs>' of an operation (two
    basis tokens) or a comultiplication (one): the cell of its basis tokens,
    checked to be new, and its right-hand side for _collect_terms."""
    size = target.shape[0]
    cell = 0
    for tok in btoks:
        cell = cell * size + _parse_basis(tok, size, lineno)
    if cell in target.seen:
        what = "product" if target.arity == 1 else "comultiplication of"
        raise FormatError(lineno, f"duplicate {what} {' '.join(btoks)}")
    target.seen[cell] = None
    target.toks.append(rhs)
    target.cells.append(cell)


def _collect_terms(target):
    """Split the right-hand sides in target.toks into coefficient tokens,
    and their line cells in target.cells into term cells.  A term reads
    '<c> e<k>' (arity 1) or '<c> e<j> e<k>' (arity 2): all lines are joined
    and split at once, and their basis tokens looked up at once in
    _BASIS_INDEX.  If the joined split fails, '0' lines (no terms) are
    dropped and every '+' spaced, and it is tried once more; basis tokens
    outside the table, such as 'e01', go through _parse_basis.  A bad term
    raises a FormatError whose line the checked reading finds."""
    size, arity, step = target.shape[0], target.arity, target.arity + 2
    rhss, cells = target.toks, target.cells
    for _ in range(2):
        joined = " + ".join(rhss)
        toks = joined.split()
        coefs, seps = toks[::step], toks[arity + 1::step]
        # the joined text splits as its lines do exactly when every '+' is a
        # separator token and the tokens between them make whole terms
        if not rhss or (len(toks) == len(coefs) * step - 1
                        and joined.count("+") == len(seps) == seps.count("+")):
            break
        kept = [n for n, rhs in enumerate(rhss) if rhs.strip() != "0"]
        rhss, cells = [rhss[n].replace("+", " + ") for n in kept], [cells[n] for n in kept]
    else:
        raise FormatError(0, "bad term")
    terms = np.fromiter(map(str.count, rhss, repeat("+")), np.intp, len(rhss)) + 1
    cells = np.array(cells, np.intp).repeat(terms)
    for a in range(1, arity + 1):
        btoks = toks[a::step]
        ks = np.fromiter(map(_BASIS_INDEX.get, btoks, repeat(size)), np.intp, len(btoks))
        if ks.max(initial=0) >= size:       # 'e01', or an index out of range
            for n in np.flatnonzero(ks >= size):
                ks[n] = _parse_basis(btoks[n], size, 0)
        cells = cells * size + ks
    target.toks, target.cells = coefs, cells


def _check_terms(rhs, size, p, lineno, arity):
    """Raise the first error, in token order, of the terms `rhs`: '1 e2 +
    -1/2 e1' (arity 1), '1 e1 e2 + ...' (arity 2), or '0' for none."""
    if rhs.strip() == "0":
        return
    for part in rhs.split("+"):
        toks = part.split()
        if len(toks) != 1 + arity:
            raise FormatError(lineno, f"bad term {part.strip()!r}")
        _parse_scalar(toks[0], p, lineno)
        for t in toks[1:]:
            _parse_basis(t, size, lineno)


def entry_strings(x, p, readable=False):
    """The entries of an Exact (or nested numbers) over p as strings, '' for
    0: the one spelling of numbers in files and in witnesses.  Each is
    exact at any length, although str() writes no more digits than int()
    reads, sys.get_int_max_str_digits(), a limit of the whole process.  With
    `readable`, an entry over that limit raises a ValueError that names it
    instead, since a file that holds it could not be read back."""
    e = as_exact(x, p)
    num = e.num.ravel().tolist()
    try:
        strings = _spell(num, e.den, str)
    except ValueError:
        if readable:
            raise ValueError(f"an entry has more than {sys.get_int_max_str_digits()} digits, "
                             "the most that a number of a file may have "
                             "(sys.get_int_max_str_digits())") from None
        from decimal import Decimal     # exact and bound by no such limit; rarely imported
        strings = _spell(num, e.den, lambda a: str(Decimal(a)))
    return np.array(strings, dtype=object).reshape(e.num.shape)


def _spell(num, den, digits):
    """The entries num/den in lowest terms, each integer written by digits."""
    return [f"{digits(a // g)}/{digits(den // g)}" if (g := gcd(a, den)) != den else
            digits(a // g) if a else "" for a in num]


def _fmt_matrix(mat):
    return "[" + " ; ".join(",".join(v or "0" for v in row) for row in mat) + "]"


def print_file(af):
    """The canonical text of af; a ValueError when an entry has more digits
    than the parser reads (entry_strings)."""
    strings = partial(entry_strings, readable=True)
    out = ["format 1", "field rational" if af.p == 0 else f"field gf {af.p}", f"dim {af.dim}"]
    if af.vdim is not None:
        out.append(f"vdim {af.vdim}")
    for name in sorted(af.ops):
        m = af.ops[name]
        tag = " vdim" if af.vdim is not None and m.n == af.vdim != af.dim else ""
        out.append(f"op {name}{tag}")
        s = strings(m.exact, m.p)
        for i in range(m.n):
            for j in range(m.n):
                terms = [f"{v} e{k + 1}" for k, v in enumerate(s[i, j]) if v]
                if terms:
                    out.append(f"{name}: e{i + 1} e{j + 1} = " + " + ".join(terms))
    for name in sorted(af.comuls):
        c = af.comuls[name]
        out.append(f"comul {name}")
        for i, plane in enumerate(strings(c.exact, c.p)):
            terms = [f"{v} e{j + 1} e{k + 1}" for (j, k), v in np.ndenumerate(plane) if v]
            if terms:
                out.append(f"{name}: e{i + 1} = " + " + ".join(terms))
    for name in sorted(af.tensors):
        r = af.tensors[name]
        # keep an explicit zero entry so that a zero tensor survives reparsing
        out += [f"tensor {name}: e{i + 1} e{j + 1} = {v}" for (i, j), v
                in np.ndenumerate(strings(r.exact, r.p)) if v] or [
                    f"tensor {name}: e1 e1 = 0"]
    for name in sorted(af.reps):
        tag = " vdim" if af.rep_spaces.get(name, "dim") == "vdim" else ""
        for i, mat in enumerate(strings(af.reps[name], af.p)):
            out.append(f"rep {name}{tag} e{i + 1} = {_fmt_matrix(mat)}")
    for name in sorted(af.maps):
        out.append(f"map {name} = {_fmt_matrix(strings(af.maps[name], af.p))}")
    return "\n".join(out) + "\n"


def read_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_file(fh.read())


def write_file(path, af):
    text = print_file(af)       # before the file is opened: it may raise
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
