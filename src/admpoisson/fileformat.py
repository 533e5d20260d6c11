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

from math import isqrt

from .scalars import check_characteristic, _parse, zero
from .tensors import MulTensor, mat_zero
from .bialgebras import Comultiplication
from .yangbaxter import RTensor

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
    """Parsed form of the text format; a plain mutable container."""

    def __init__(self, p=0, dim=None, vdim=None):
        self.p = p                  # 0 = rational, else prime characteristic
        self.dim = dim
        self.vdim = vdim
        self.ops = {}               # name -> MulTensor
        self.tensors = {}           # name -> RTensor
        self.reps = {}              # name -> list of matrices (one per e_i)
        self.rep_spaces = {}        # name -> "dim" | "vdim" (index space)
        self.maps = {}              # name -> matrix (list of rows)
        self.comuls = {}            # name -> Comultiplication

    def __eq__(self, other):
        if not isinstance(other, AlgebraFile):
            return NotImplemented
        return (self.p == other.p and self.dim == other.dim and
                self.vdim == other.vdim and self.ops == other.ops and
                self.tensors == other.tensors and
                self._eff_spaces() == other._eff_spaces() and
                _fams_eq(self.reps, other.reps) and
                _mats_eq(self.maps, other.maps) and
                self.comuls == other.comuls)

    def _eff_spaces(self):
        return {k: self.rep_spaces.get(k, "dim") for k in self.reps}


def _fams_eq(a, b):
    return (set(a) == set(b) and
            all(a[k] == b[k] for k in a))


def _mats_eq(a, b):
    return set(a) == set(b) and all(a[k] == b[k] for k in a)


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
    # p was validated on the field line
    try:
        return _parse(tok, p)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(lineno, f"bad scalar {tok!r}: {exc}")


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
        words = line.split()
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
            af.maps[name] = _parse_matrix(rhs, af.p, lineno)
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
                op_data[name][(i, j)] = _parse_terms(rhs, size, af.p, lineno, arity=1)
                continue
            if name in comul_names:
                lhs, eq, rhs = body.partition("=")
                toks = lhs.split()
                if len(toks) != 1 or not eq:
                    raise FormatError(lineno, "comul line needs 'NAME: ei = terms'")
                i = _parse_basis(toks[0], af.dim, lineno)
                if i in comul_data[name]:
                    raise FormatError(lineno, f"duplicate comultiplication of {toks[0]}")
                comul_data[name][i] = _parse_terms(rhs, af.dim, af.p, lineno, arity=2)
                continue
            raise FormatError(lineno, f"data line for undeclared name {name!r}")

        raise FormatError(lineno, f"unrecognized line {line!r}")

    if not field_seen:
        raise FormatError(1, "missing field declaration")
    if af.dim is None:
        raise FormatError(1, "missing dim declaration")

    for name, size_kind in op_sizes.items():
        size = af.dim if size_kind == "dim" else af.vdim
        entries = {}
        for (i, j), terms in op_data[name].items():
            for idx, coef in terms:
                key = (i, j, idx[0])
                entries[key] = entries.get(key, zero(af.p)) + coef
        af.ops[name] = MulTensor.from_entries(size, entries, af.p)

    for name in comul_names:
        entries = {}
        for i, terms in comul_data[name].items():
            for idx, coef in terms:
                key = (i, idx[0], idx[1])
                entries[key] = entries.get(key, zero(af.p)) + coef
        af.comuls[name] = Comultiplication.from_entries(af.dim, entries, af.p)

    for name, entries in tensor_data.items():
        af.tensors[name] = RTensor.from_entries(af.dim, entries, af.p)

    for name, by_index in rep_data.items():
        m = len(next(iter(by_index.values()))[1])
        for lineno, mat in by_index.values():
            if len(mat) != m or len(mat[0]) != m:
                raise FormatError(lineno, f"rep {name!r} matrices disagree in size")
        count = af.dim if af.rep_spaces[name] == "dim" else af.vdim
        fam = [by_index[i][1] if i in by_index else mat_zero(m, m, af.p)
               for i in range(count)]
        af.reps[name] = fam

    return af


def _parse_terms(rhs, size, p, lineno, arity):
    """'1 e2 + -1/2 e1' (arity 1) or '1 e1 e2 + ...' (arity 2); also '0'."""
    rhs = rhs.strip()
    if rhs == "0":
        return []
    terms = []
    for part in rhs.split("+"):
        toks = part.split()
        if len(toks) != 1 + arity:
            raise FormatError(lineno, f"bad term {part.strip()!r}")
        coef = _parse_scalar(toks[0], p, lineno)
        idx = tuple(_parse_basis(t, size, lineno) for t in toks[1:])
        terms.append((idx, coef))
    return terms


def _fmt_matrix(mat):
    return "[" + " ; ".join(",".join(str(c) for c in row) for row in mat) + "]"


def print_file(af):
    out = ["format 1"]
    out.append("field rational" if af.p == 0 else f"field gf {af.p}")
    out.append(f"dim {af.dim}")
    if af.vdim is not None:
        out.append(f"vdim {af.vdim}")
    for name in sorted(af.ops):
        m = af.ops[name]
        if af.vdim is not None and m.n == af.vdim and m.n != af.dim:
            out.append(f"op {name} vdim")
        else:
            out.append(f"op {name}")
        for i in range(m.n):
            for j in range(m.n):
                terms = [f"{c} e{k + 1}"
                         for k, c in enumerate(m.c[i][j]) if not c.is_zero()]
                if terms:
                    out.append(f"{name}: e{i + 1} e{j + 1} = " + " + ".join(terms))
    for name in sorted(af.comuls):
        c = af.comuls[name]
        out.append(f"comul {name}")
        for i in range(c.n):
            terms = [f"{c.a[i][j][k]} e{j + 1} e{k + 1}"
                     for j in range(c.n) for k in range(c.n)
                     if not c.a[i][j][k].is_zero()]
            if terms:
                out.append(f"{name}: e{i + 1} = " + " + ".join(terms))
    for name in sorted(af.tensors):
        r = af.tensors[name]
        n = len(r.coeff)
        if r.is_zero():
            # keep an explicit zero entry so the tensor survives reparsing
            out.append(f"tensor {name}: e1 e1 = 0")
            continue
        for i in range(n):
            for j in range(n):
                if not r.coeff[i][j].is_zero():
                    out.append(f"tensor {name}: e{i + 1} e{j + 1} = {r.coeff[i][j]}")
    for name in sorted(af.reps):
        tag = " vdim" if af.rep_spaces.get(name, "dim") == "vdim" else ""
        for i, mat in enumerate(af.reps[name]):
            out.append(f"rep {name}{tag} e{i + 1} = {_fmt_matrix(mat)}")
    for name in sorted(af.maps):
        out.append(f"map {name} = {_fmt_matrix(af.maps[name])}")
    return "\n".join(out) + "\n"


def read_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_file(fh.read())


def write_file(path, af):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_file(af))
