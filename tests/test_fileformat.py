import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from admpoisson.tensors import MulTensor
from admpoisson.yangbaxter import RTensor
from admpoisson.bialgebras import Comultiplication
from admpoisson import fileformat
from admpoisson.fileformat import (MAX_DIM, MAX_OUTPUT_ENTRIES, AlgebraFile,
                                   FormatError, parse_file, print_file,
                                   read_file, write_file)

import oracles
from oracles import Scalar, of, one, product, rand_mul, rand_mat, zero
from test_cli import grammar_files


SAMPLE = """\
# a commented example
format 1
field rational
dim 2
vdim 1

op star
star: e1 e1 = 1 e1          # products not listed are zero
star: e1 e2 = 1 e2 + -1/2 e1

tensor r: e1 e2 = 3/4
rep l e1 = [2]
rep l e2 = [0]
map theta = [1 ; 0]
comul alpha
alpha: e1 = 1 e1 e2 + -1 e2 e1
"""


def test_parse_sample():
    af = parse_file(SAMPLE)
    assert af.p == 0 and af.dim == 2 and af.vdim == 1
    star = af.ops["star"]
    assert product(star, 0, 1) == [of(-1, 2), one()]
    assert product(star, 1, 1) == [zero(), zero()]
    assert af.tensors["r"].coeff[0][1] == Fraction(3, 4)
    assert af.reps["l"].tolist()[0] == [[2]]
    assert af.maps["theta"].tolist() == [[1], [0]]
    assert af.comuls["alpha"].a[0][0][1] == 1
    assert af.comuls["alpha"].a[0][1][0] == -1


def test_print_parse_identity():
    af = parse_file(SAMPLE)
    assert parse_file(print_file(af)) == af


def test_print_is_fixed_point():
    text = print_file(parse_file(SAMPLE))
    assert print_file(parse_file(text)) == text


def test_roundtrip_random_files():
    rng = random.Random(70)
    for p in (0, 5):
        af = AlgebraFile(p=p, dim=2, vdim=2)
        af.ops["star"] = rand_mul(rng, 2, p)
        af.ops["succ"] = rand_mul(rng, 2, p)
        af.tensors["r"] = RTensor(rand_mat(rng, 2, 2, p), p)
        af.reps["l"] = [rand_mat(rng, 2, 2, p) for _ in range(2)]
        af.reps["r"] = [rand_mat(rng, 2, 2, p) for _ in range(2)]
        af.maps["theta"] = rand_mat(rng, 2, 2, p)
        from oracles import rand_vec
        af.comuls["alpha"] = Comultiplication(
            2, p, [[rand_vec(rng, 2, p) for _ in range(2)] for _ in range(2)])
        assert parse_file(print_file(af)) == af


def test_zero_tensor_survives_roundtrip():
    af = AlgebraFile(p=5, dim=2)
    af.ops["star"] = MulTensor(2, 5)
    af.tensors["r"] = RTensor.from_entries(2, {}, 5)
    text = print_file(af)
    assert "tensor r: e1 e1 = 0" in text
    back = parse_file(text)
    assert "r" in back.tensors and back.tensors["r"].is_zero()
    assert back == af


def test_rep_vdim_tag_roundtrip():
    af = AlgebraFile(p=5, dim=2, vdim=1)
    af.ops["star"] = MulTensor(2, 5)
    af.reps["l2"] = [[[one(5), zero(5)], [zero(5), one(5)]]]
    af.rep_spaces["l2"] = "vdim"
    text = print_file(af)
    assert "rep l2 vdim e1 =" in text
    back = parse_file(text)
    assert back == af
    assert back.rep_spaces["l2"] == "vdim"


def test_gf_field_header():
    af = parse_file("format 1\nfield gf 5\ndim 1\nop star\n"
                    "star: e1 e1 = 3 e1\n")
    assert af.p == 5
    assert product(af.ops["star"], 0, 0) == [Scalar(3, 1, 5)]
    assert "field gf 5" in print_file(af)


def test_repeated_terms_accumulate():
    af = parse_file("field rational\ndim 1\nop star\n"
                    "star: e1 e1 = 1 e1 + 1 e1\n")
    assert product(af.ops["star"], 0, 0) == [of(2)]


@pytest.mark.parametrize("text,line", [
    ("format 2\nfield rational\ndim 1\n", 1),
    ("dim 1\nop star\n", 2),                      # field must come first
    ("field rational\nop star\n", 2),             # dim before data
    ("field rational\nfield gf 5\ndim 1\n", 2),   # duplicate field
    ("field gf 4\ndim 1\n", 1),                   # bad characteristic
    ("field gf 3\ndim 1\n", 1),                   # unsupported characteristic
    ("field rational\ndim 1\nstar: e1 e1 = 1 e1\n", 3),  # undeclared name
    ("field rational\ndim 1\nop star\nstar: e1 e9 = 1 e1\n", 4),  # bad index
    ("field rational\ndim 1\nop star\nstar: e1 e1 = 1 e1\n"
     "star: e1 e1 = 2 e1\n", 5),                  # duplicate product
    ("field rational\ndim 1\nop star\nop star\n", 4),  # duplicate op
    ("field rational\ndim 1\nrep l e1 = [1,2 ; 3]\n", 3),  # ragged matrix
    ("field rational\ndim 1\nwibble\n", 3),       # unknown statement
    ("field rational\ndim 1\nop x vdim\n", 3),    # vdim op without vdim
    ("field rational\ndim ²\n", 2),              # not a decimal number
    ("field rational\ndim \uff10\n", 2),          # fullwidth zero
    ("field rational\ndim 2\nvdim \u0660\n", 3),  # Arabic-Indic zero
    ("field gf \u0665\ndim 1\n", 1),             # Arabic-Indic five
    ("field gf 1" + "0" * 5000 + "\ndim 1\n", 1),  # over int()'s digit limit
    ("field rational\ndim 2\nop star\nstar: e\u00b2 e1 = 1 e1\n", 4),
    ("field rational\ndim 2\nop star\nstar: e1 e1 = 1 e" + "9" * 5000 + "\n", 4),
] + [
    # a bad coefficient, matrix entry or tensor entry is reported before an
    # error of a later line: a duplicate product, an undeclared name, a ragged matrix
    (f"field rational\ndim 2\nop star\n{bad}\n{later}\n", 4)
    for bad in ("star: e2 e2 = x e1", "map m = [1,1/0]", "tensor r: e1 e2 = 2/")
    for later in ("star: e1 e1 = 1 e1\nstar: e1 e1 = 2 e1", "wibble: e1 e1 = 1 e1",
                  "rep l e1 = [1,2 ; 3]")
])
def test_errors_carry_line_numbers(text, line):
    with pytest.raises(FormatError) as exc:
        parse_file(text)
    assert exc.value.lineno == line


def test_rep_size_mismatch_reports_its_line():
    text = ("field rational\ndim 2\nrep L e1 = [1,0 ; 0,1]\n"
            "rep L e2 = [1,2,3 ; 4,5,6 ; 7,8,9]\n")
    with pytest.raises(FormatError) as exc:
        parse_file(text)
    assert exc.value.lineno == 4
    assert "rep 'L' matrices disagree in size" in str(exc.value)
    with pytest.raises(FormatError) as exc:       # one non-square matrix
        parse_file("field rational\ndim 1\n\nrep L e1 = [1,2]\n")
    assert exc.value.lineno == 4


@pytest.mark.parametrize("line", [f"dim {MAX_DIM + 1}", "dim 1000000000000000",
                                  "vdim " + "9" * 5000])
def test_dimensions_above_the_cap_are_rejected_at_their_line(line):
    # the largest identity output, MAX_DIM**4 entries, stays within the cap
    assert MAX_DIM ** 4 <= MAX_OUTPUT_ENTRIES < (MAX_DIM + 1) ** 4
    header = "field rational\n" + ("dim 1\n" if line.startswith("vdim") else "")
    with pytest.raises(FormatError) as exc:
        parse_file(f"{header}{line}\nop star\n")
    assert exc.value.lineno == header.count("\n") + 1
    assert f"exceeds the largest supported dimension {MAX_DIM}" in str(exc.value)


def test_missing_headers():
    with pytest.raises(FormatError):
        parse_file("")
    with pytest.raises(FormatError):
        parse_file("field rational\n")


def test_read_write_files(tmp_path):
    af = parse_file(SAMPLE)
    path = tmp_path / "x.alg"
    write_file(path, af)
    assert read_file(path) == af


CORPUS_TEXTS = [path.read_text() for path in
                sorted((Path(__file__).parent / "corpus").glob("*.alg"))] + [SAMPLE]
CORPUS_LINES = [line for text in CORPUS_TEXTS for line in text.splitlines()]


@st.composite
def mangled_files(draw):
    """A corpus file with up to three lines replaced by, or with inserted,
    arbitrary text, lines of other files or their tails."""
    lines = draw(st.sampled_from(CORPUS_TEXTS)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        cut = draw(st.integers(0, 20))
        tails = st.sampled_from(CORPUS_LINES).map(lambda line: line[cut:])
        piece = draw(st.text(max_size=12) | tails)
        lines[at:at + draw(st.integers(0, 1))] = [piece]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.text() | mangled_files())
def test_parse_raises_only_format_errors_and_print_parse_is_idempotent(text):
    try:
        af = parse_file(text)
    except FormatError:
        return
    printed = print_file(af)
    assert print_file(parse_file(printed)) == printed


# ---------------------------------------------------------------------------
# the integer parser against the Scalar parser it replaced


def parse_outcome(parse, text):
    """(the AlgebraFile, its printed text) or (FormatError message, line)."""
    try:
        af = parse(text)
    except FormatError as exc:
        return str(exc), exc.lineno
    return af, print_file(af)


def assert_parsers_agree(text):
    new = parse_outcome(parse_file, text)
    assert new == parse_outcome(oracles.parse_file_scalars, text)
    return new


def test_parsers_agree_on_the_corpus():
    outcomes = [assert_parsers_agree(text)[0] for text in CORPUS_TEXTS]
    assert sum(isinstance(af, AlgebraFile) for af in outcomes) == len(CORPUS_TEXTS) - 1


def _one_op(field, rhs):
    return f"field {field}\ndim 2\nop star\nstar: e1 e2 = {rhs}\n"


@pytest.mark.parametrize("field", ["rational", "gf 5", f"gf {2 ** 31 - 1}"])
@pytest.mark.parametrize("rhs", [
    "1/2 e1 + 1/2 e1", "1 e1 + -1 e1", "3/-4 e2", "0/7 e1", "0",
    "12345678901234567890 e1 + -98765432109876543210/7 e2",
    "1/12345678901234567890 e2 + 2147483646/2147483645 e1 + -1/3 e1",
    "1/5 e1", "1/0 e1", "1/2147483647 e2", "x e1", "1 e3", "1 e1 +2 e2", "1 e1 + + 2 e2",
    "1 e01 + 2 e2", "1/2/3 e1", "/3 e1", "1_0 e2 + \u0663 e1", "1 e1 e2",
    # values past int64 beside negative ones: numpy would make them floats
    "-1 e1 + 9223372036854775809 e1", "-1 e1 + 9223372036854775808 e2", "1/ e1",
])
def test_parsers_agree_on_coefficients(field, rhs):
    assert_parsers_agree(_one_op(field, rhs))


@pytest.mark.parametrize("field", ["rational", "gf 11", f"gf {2 ** 31 - 1}"])
def test_parsers_agree_on_families_maps_tensors_and_comultiplications(field):
    text = (f"field {field}\ndim 2\nvdim 3\n"
            "rep l e2 = [1/2,-3 ; 12345678901234567890/9,0]\n"
            "rep l e1 = [0,1 ; 2,3/4]\n"
            "rep m vdim e3 = [1,2,3 ; 4,5,6 ; 7,8,-9/2]\n"
            "map theta = [1/3,2,0 ; -4/6,5,2147483648]\n"
            "tensor r: e2 e1 = -7/21\n"
            "comul alpha\n"
            "alpha: e1 = 1/2 e1 e2 + -1 e2 e1 + 1/2 e1 e2\n"
            "alpha: e2 = 99999999999999999999 e2 e2\n")
    af, _ = assert_parsers_agree(text)
    assert set(af.reps) == {"l", "m"} and af.reps["m"].num.shape == (3, 3, 3)
    for bad in ("rep l e1 = [1,2]\n", "map t = [1/0]\n", "tensor r: e1 e1 = 7/7\n",
                "alpha: e1 = 1 e1\n", "map t = [1 ; 2,3]\n"):
        assert_parsers_agree(text + bad)


# ---------------------------------------------------------------------------
# dense files, whole and with one token corrupted


def _coef(rng):
    """A coefficient token whose denominator is nonzero mod 5 and mod 2**31 - 1."""
    kind = rng.randrange(4)
    if kind == 0:
        return str(rng.randint(-9, 9))
    if kind == 1:
        return f"{rng.randint(-999, 999)}/{rng.choice([2, 3, 4, 6, 7, 9, 12, 10 ** 15 + 1])}"
    if kind == 2:
        return str(rng.randint(-10 ** 25, 10 ** 25))
    return f"{rng.randint(-10 ** 12, 10 ** 12)}/-{rng.choice([3, 11, 2 ** 40 + 3])}"


def _dense_lines(rng, field, n):
    """The lines of a dense file over `field` at dim n (an operation, a
    comultiplication, a family, a map and a tensor, every entry present),
    each a list of (kind, text) pieces: kind 'coef', 'basis' or '+' for the
    tokens a corruption may hit, '' for the rest."""
    def terms(name, lhs, arity):
        line = [("", f"{name}: {lhs} = ")]
        for idx in itertools.product(range(1, n + 1), repeat=arity):
            if len(line) > 1:
                line += [("", " "), ("+", "+"), ("", " ")]
            line.append(("coef", _coef(rng)))
            for k in idx:
                line += [("", " "), ("basis", f"e{k}")]
        return line

    def matrix(head, rows, cols):
        line = [("", head + "[")]
        for r in range(rows):
            for c in range(cols):
                line += [("", " ; " if r and not c else "," if c else ""), ("coef", _coef(rng))]
        return line + [("", "]")]

    lines = [[("", f"field {field}")], [("", f"dim {n}")], [("", "op star")]]
    lines += [terms("star", f"e{i} e{j}", 1) for i in range(1, n + 1) for j in range(1, n + 1)]
    lines += [[("", "comul alpha")]] + [terms("alpha", f"e{i}", 2) for i in range(1, n + 1)]
    lines += [matrix(f"rep l e{i} = ", n, n) for i in range(1, n + 1)]
    lines += [matrix("map theta = ", n, n + 1)]
    lines += [[("", f"tensor r: e{i} e{j} = "), ("coef", _coef(rng))]
              for i in range(1, n + 1) for j in range(1, n + 1)]
    return lines


CORRUPTIONS = {
    "coef": ["x", "1/0", "", "1/", "/3", "1_0", "\u0663", "2/5", "1/2/3", "+3", "0/0",
             "1.5", "9" * 5000, "-", "e1"],
    "basis": ["e0", "e5", "e01", "f1", "e", "e\u00b2", "", "e1e1", "1", "+"],
    "+": ["-", "++", "", "+ +", "*", "+1", "e1", "=", ","],
    "/": ["//", " / ", "", "\\", "/0", "/ ", "+/", ";"],
}


def _text(lines):
    return "\n".join("".join(text for _, text in line) for line in lines) + "\n"


def _spots(lines):
    """kind -> the (line, piece) places of the tokens a corruption of that
    kind may replace."""
    return {kind: [(a, b) for a, line in enumerate(lines) for b, (k, text) in enumerate(line)
                   if k == kind or kind == "/" and k == "coef" and "/" in text]
            for kind in CORRUPTIONS}


def _corrupted(lines, kind, spot, bad):
    lines = [list(line) for line in lines]
    a, b = spot
    k, text = lines[a][b]
    lines[a][b] = (k, text.replace("/", bad, 1) if kind == "/" else bad)
    return _text(lines)


@st.composite
def corrupted_dense_files(draw):
    """A dense file of dim 1-4 over Q, GF(5) or GF(2**31 - 1) with one
    coefficient, basis vector, '+' or '/' replaced."""
    field = draw(st.sampled_from(["rational", "gf 5", f"gf {2 ** 31 - 1}"]))
    lines = _dense_lines(random.Random(draw(st.integers(0, 2 ** 32))), field,
                         draw(st.integers(1, 4)))
    spots = _spots(lines)
    kind = draw(st.sampled_from(sorted(kind for kind in spots if spots[kind])))
    return _corrupted(lines, kind, draw(st.sampled_from(spots[kind])),
                      draw(st.sampled_from(CORRUPTIONS[kind])))


@pytest.mark.parametrize("field", ["rational", "gf 5", f"gf {2 ** 31 - 1}"])
def test_parsers_agree_on_every_corruption(field):
    """Each corruption at the first, a middle and the last token of its kind
    in a dim-2 dense file."""
    lines = _dense_lines(random.Random(2), field, 2)
    for kind, spots in _spots(lines).items():
        for spot in {spots[0], spots[len(spots) // 2], spots[-1]}:
            for bad in CORRUPTIONS[kind]:
                assert_parsers_agree(_corrupted(lines, kind, spot, bad))


@settings(max_examples=300, deadline=None)
@given(grammar_files() | mangled_files() | corrupted_dense_files())
def test_parsers_agree_on_the_line_grammar(text):
    assert_parsers_agree(text)


@pytest.mark.parametrize("field", ["rational", "gf 5", f"gf {2 ** 31 - 1}"])
def test_dense_files_parse_as_the_oracle_reads_them(field):
    for seed in range(3):
        for n in (1, 2, 4):
            af, _ = assert_parsers_agree(_text(_dense_lines(random.Random(seed), field, n)))
            assert isinstance(af, AlgebraFile)
            assert len(af.ops) == len(af.comuls) == len(af.reps) == len(af.maps) == 1


def _dim16(rng, field, repeat):
    """A dense dim-16 product; with `repeat`, every fourth line names one
    basis vector in two terms, so that their coefficients add up."""
    lines = [f"field {field}", "dim 16", "op star"]
    for i, j in itertools.product(range(1, 17), repeat=2):
        ks = list(range(1, 17)) + ([rng.randint(1, 16)] if repeat and j % 4 == 0 else [])
        lines.append(f"star: e{i} e{j} = " + " + ".join(f"{_coef(rng)} e{k}" for k in ks))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field,repeat", [("rational", True), (f"gf {2 ** 31 - 1}", False)])
def test_dense_dim16_products_parse_as_the_oracle_reads_them(field, repeat):
    text = _dim16(random.Random(16), field, repeat)
    af, printed = assert_parsers_agree(text)
    assert isinstance(af, AlgebraFile) and af.ops["star"].exact.num.shape == (16,) * 3
    assert parse_file(printed) == af


def test_a_valid_dense_file_converts_its_tokens_in_bulk(monkeypatch):
    """No coefficient of a valid dense file goes through _parse_scalar, the
    token-by-token check kept for errors."""
    calls = []
    checked = fileformat._parse_scalar
    monkeypatch.setattr(fileformat, "_parse_scalar",
                        lambda *args: calls.append(args) or checked(*args))
    for text in (_dim16(random.Random(8), "rational", True),
                 _text(_dense_lines(random.Random(8), "rational", 4)),
                 _text(_dense_lines(random.Random(8), "gf 5", 3))):
        parse_file(text)
    assert calls == []
    with pytest.raises(FormatError):     # the check still runs where a token is bad
        parse_file(_text(_dense_lines(random.Random(8), "rational", 2)).replace("e2 = ", "e2 = x"))
    assert calls


# every spelling the grammar allows: a '0' line, '+' without spaces, 'e01'
MIXED_SPELLINGS = """\
field {field}
dim 3
op star
star: e1 e1 = 1 e1 + -1/2 e2
star: e1 e2 = 0
star: e2 e1 = 1 e1+2 e2
star: e2 e2 = 3 e01 + 1/3 e3
star: e3 e3 = 4/3 e3 +-1 e3
comul alpha
alpha: e1 = 1 e1 e2 + 2 e3 e3
alpha: e2 = 0
alpha: e3 = 1 e1 e2+-2/3 e2 e1 + 5 e03 e001
"""


@pytest.mark.parametrize("field", ["rational", "gf 7", f"gf {2 ** 31 - 1}"])
def test_every_spelling_of_terms_is_read_in_bulk(monkeypatch, field):
    """Terms in any spelling are split and converted with the canonical
    ones: neither the term checker nor _parse_scalar runs on a valid file,
    and both run where a term is bad."""
    calls = []
    for name in ("_check_terms", "_parse_scalar"):
        checked = getattr(fileformat, name)
        monkeypatch.setattr(fileformat, name,
                            lambda *args, checked=checked: calls.append(args) or checked(*args))
    text = MIXED_SPELLINGS.format(field=field)
    af, _ = assert_parsers_agree(text)
    assert calls == []
    assert isinstance(af, AlgebraFile) and set(af.ops) == {"star"} and set(af.comuls) == {"alpha"}
    for good, bad in (("e03", "e04"), ("+-2/3", "+-2/0"), ("e1+2", "e1+2+")):
        with pytest.raises(FormatError) as exc:
            parse_file(text.replace(good, bad))
        assert exc.value.lineno == 1 + text[:text.index(good)].count("\n")
    assert calls
