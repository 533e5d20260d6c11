import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from admpoisson.scalars import Scalar, of, one, zero
from admpoisson.tensors import MulTensor, mat_identity
from admpoisson.yangbaxter import RTensor
from admpoisson.bialgebras import Comultiplication
from admpoisson.fileformat import (MAX_DIM, MAX_OUTPUT_ENTRIES, AlgebraFile,
                                   FormatError, parse_file, print_file,
                                   read_file, write_file)

from oracles import rand_mul, rand_mat


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
    assert star.prod(0, 1) == [of(-1, 2), one()]
    assert star.prod(1, 1) == [zero(), zero()]
    assert af.tensors["r"].coeff[0][1] == of(3, 4)
    assert af.reps["l"][0] == [[of(2)]]
    assert af.maps["theta"] == [[one()], [zero()]]
    assert af.comuls["alpha"].a[0][0][1] == one()
    assert af.comuls["alpha"].a[0][1][0] == of(-1)


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
    assert af.ops["star"].prod(0, 0) == [Scalar(3, 1, 5)]
    assert "field gf 5" in print_file(af)


def test_repeated_terms_accumulate():
    af = parse_file("field rational\ndim 1\nop star\n"
                    "star: e1 e1 = 1 e1 + 1 e1\n")
    assert af.ops["star"].prod(0, 0) == [of(2)]


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
