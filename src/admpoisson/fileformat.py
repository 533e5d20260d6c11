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

from math import gcd, isqrt

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
    on the field line."""
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


def _cells(rows, start=0):
    """A parsed matrix as (cells, fractions), its first flat index `start`."""
    fracs = [v for row in rows for v in row]
    return range(start, start + len(fracs)), fracs


def _parse_matrix(text, p, lineno):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise FormatError(lineno, "matrix must be enclosed in [ ... ]")
    rows = []
    for row_s in text[1:-1].split(";"):
        entries = [e for e in row_s.split(",")]
        rows.append([_parse_scalar(e, p, lineno) for e in entries])
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise FormatError(lineno, "matrix rows have unequal lengths")
    return rows


def parse_file(text):
    af = AlgebraFile()
    field_seen = False
    op_sizes = {}                   # name -> "dim" | "vdim"
    op_data = {}                    # name -> {(i, j): vec-of-scalar terms}
    comul_names = set()
    comul_data = {}                 # name -> {(i, j, k): scalar}
    tensor_data = {}                # name -> {(i, j): scalar}
    rep_data = {}                   # name -> {i: (line number, matrix)}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split(None, 3)     # a statement of more words is rejected by length
        head = words[0]

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
                name, size = words[1], "dim"
            elif len(words) == 3 and words[2] == "vdim":
                name, size = words[1], "vdim"
                if af.vdim is None:
                    raise FormatError(lineno, "op on vdim but no vdim declared")
            else:
                raise FormatError(lineno, f"bad op declaration {line!r}")
            if name in op_sizes or name in comul_names:
                raise FormatError(lineno, f"duplicate name {name!r}")
            op_sizes[name] = size
            op_data[name] = {}
            continue

        if head == "comul":
            if len(words) != 2:
                raise FormatError(lineno, f"bad comul declaration {line!r}")
            name = words[1]
            if name in comul_names or name in op_sizes:
                raise FormatError(lineno, f"duplicate name {name!r}")
            comul_names.add(name)
            comul_data[name] = {}
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
            entry = tensor_data.setdefault(name, {})
            if (i, j) in entry:
                raise FormatError(lineno, f"duplicate tensor entry {toks[0]} {toks[1]}")
            entry[(i, j)] = _parse_scalar(rhs, af.p, lineno)
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
            mat = _parse_matrix(rhs, af.p, lineno)
            entry = rep_data.setdefault(name, {})
            if i in entry:
                raise FormatError(lineno, f"duplicate rep matrix for {btok}")
            entry[i] = (lineno, mat)
            continue

        if head == "map":
            rest = line[len("map"):].strip()
            lhs, eq, rhs = rest.partition("=")
            name = lhs.strip()
            if not name or not eq:
                raise FormatError(lineno, "map line needs 'map NAME = [matrix]'")
            if name in af.maps:
                raise FormatError(lineno, f"duplicate map {name!r}")
            rows = _parse_matrix(rhs, af.p, lineno)
            af.maps[name] = from_fractions((len(rows), len(rows[0])), [_cells(rows)], af.p)
            continue

        # data line: 'name: ...'
        if ":" in line:
            name, body = line.split(":", 1)
            name = name.strip()
            if name in op_sizes:
                size = af.dim if op_sizes[name] == "dim" else af.vdim
                lhs, eq, rhs = body.partition("=")
                toks = lhs.split()
                if len(toks) != 2 or not eq:
                    raise FormatError(lineno, "product line needs 'NAME: ei ej = terms'")
                i = _parse_basis(toks[0], size, lineno)
                j = _parse_basis(toks[1], size, lineno)
                if (i, j) in op_data[name]:
                    raise FormatError(lineno, f"duplicate product {toks[0]} {toks[1]}")
                op_data[name][(i, j)] = _parse_terms(rhs, size, af.p, lineno, 1, i * size + j)
                continue
            if name in comul_names:
                lhs, eq, rhs = body.partition("=")
                toks = lhs.split()
                if len(toks) != 1 or not eq:
                    raise FormatError(lineno, "comul line needs 'NAME: ei = terms'")
                i = _parse_basis(toks[0], af.dim, lineno)
                if i in comul_data[name]:
                    raise FormatError(lineno, f"duplicate comultiplication of {toks[0]}")
                comul_data[name][i] = _parse_terms(rhs, af.dim, af.p, lineno, 2, i)
                continue
            raise FormatError(lineno, f"data line for undeclared name {name!r}")

        raise FormatError(lineno, f"unrecognized line {line!r}")

    if not field_seen:
        raise FormatError(1, "missing field declaration")
    if af.dim is None:
        raise FormatError(1, "missing dim declaration")

    for name, size_kind in op_sizes.items():
        size = af.dim if size_kind == "dim" else af.vdim
        af.ops[name] = MulTensor(size, af.p, from_fractions((size,) * 3,
                                                            op_data[name].values(), af.p))

    for name in comul_names:
        af.comuls[name] = Comultiplication(af.dim, af.p, from_fractions(
            (af.dim,) * 3, comul_data[name].values(), af.p))

    for name, entries in tensor_data.items():
        cells = [i * af.dim + j for i, j in entries]
        af.tensors[name] = RTensor(from_fractions((af.dim,) * 2, [(cells, entries.values())],
                                                  af.p), af.p)

    for name, by_index in rep_data.items():
        m = len(next(iter(by_index.values()))[1])
        for lineno, mat in by_index.values():
            if len(mat) != m or len(mat[0]) != m:
                raise FormatError(lineno, f"rep {name!r} matrices disagree in size")
        count = af.dim if af.rep_spaces[name] == "dim" else af.vdim
        af.reps[name] = from_fractions((count, m, m), [_cells(mat, i * m * m) for i, (_, mat)
                                                       in by_index.items()], af.p)

    return af


def _parse_terms(rhs, size, p, lineno, arity, cell):
    """'1 e2 + -1/2 e1' (arity 1) or '1 e1 e2 + ...' (arity 2), or '0', as
    (cells, fractions): each term's cell is the flat row-major index of
    `cell` followed by its indices, its fraction (num, den)."""
    if rhs.strip() == "0":
        return [], []
    cells, fracs = [], []
    for part in rhs.split("+"):
        toks = part.split()
        if len(toks) != 1 + arity:
            raise FormatError(lineno, f"bad term {part.strip()!r}")
        fracs.append(_parse_scalar(toks[0], p, lineno))
        c = cell
        for t in toks[1:]:
            c = c * size + _parse_basis(t, size, lineno)
        cells.append(c)
    return cells, fracs


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
