import contextlib
import io
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from admpoisson.cli import (run_command, make_parser, PREDICATES, CONSTRUCTIONS,
                            SEARCH_TARGETS)
from admpoisson.fileformat import parse_file, print_file, read_file
from admpoisson.algebras import check_adm_poisson

CORPUS = Path(__file__).parent / "corpus"

CORPUS_FILES = ["good_adm.alg", "bad_adm.alg", "poisson_pair.alg",
                "rep_theta.alg", "ybe.alg", "matched.alg", "bialg.alg",
                "pre.alg", "prepoisson.alg", "badformat.alg"]
# a GF(5) file whose operation is not adm-Poisson, with a zero action
BAD_ADM_GF5 = Path(__file__).parent / "bad_adm_gf5.alg"


def run(capsys, *argv):
    code = run_command([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_corpus_is_complete():
    assert sorted(CORPUS_FILES) == sorted(p.name for p in CORPUS.glob("*.alg"))
    assert len(CORPUS_FILES) == 10


@pytest.mark.parametrize("name", [n for n in CORPUS_FILES
                                  if n != "badformat.alg"])
def test_corpus_roundtrip(name):
    text = (CORPUS / name).read_text()
    af = parse_file(text)
    printed = print_file(af)
    assert parse_file(printed) == af
    assert print_file(parse_file(printed)) == printed


# expected (predicate, file, exit code, first-line prefix)
CHECK_CASES = [
    ("adm-poisson", "good_adm.alg", 0, "OK adm-poisson (dim 2, 8 triples checked)"),
    ("adm-poisson", "bad_adm.alg", 1, "FAIL adm-poisson at (1,1,2):"),
    ("poisson", "good_adm.alg", 0, "OK poisson (dim 2, 8 triples checked)"),
    ("poisson", "poisson_pair.alg", 0, "OK poisson (dim 2, 8 triples checked)"),
    ("rep", "rep_theta.alg", 0, "OK rep (dim 1, module dim 1, 1 pairs checked)"),
    ("o-operator", "rep_theta.alg", 0, "OK o-operator (dim 1, module dim 1)"),
    ("rota-baxter", "rep_theta.alg", 0, "OK rota-baxter (dim 1)"),
    ("adm-pybe", "ybe.alg", 0, "OK adm-pybe (dim 2)"),
    ("pybe", "ybe.alg", 0, "OK pybe (dim 2)"),
    ("operator-form", "ybe.alg", 0, "OK operator-form (dim 2)"),
    ("cyclic-form", "ybe.alg", 0, "OK cyclic-form (dim 2)"),
    ("con1", "ybe.alg", 0, "OK con1 (dim 2)"),
    ("matched-pair", "matched.alg", 0, "OK matched-pair (dims 1+1, 6 identities checked)"),
    ("bialgebra", "bialg.alg", 0, "OK bialgebra (dim 2)"),
    ("pre-adm", "pre.alg", 0, "OK pre-adm (dim 1, 1 triples checked)"),
    ("pre-poisson", "prepoisson.alg", 0, "OK pre-poisson (dim 1, 1 triples checked)"),
]


@pytest.mark.parametrize("pred,name,code,prefix", CHECK_CASES)
def test_check_golden(capsys, pred, name, code, prefix):
    got, out, err = run(capsys, "check", pred, CORPUS / name)
    assert got == code
    assert out.splitlines()[0].startswith(prefix)


def test_witness_format(capsys):
    code, out, err = run(capsys, "check", "adm-poisson", CORPUS / "bad_adm.alg")
    assert code == 1
    line = out.splitlines()[0]
    # FAIL <identity> at (i,j,k): lhs=[...] rhs=[...]  with 1-based indices
    m = re.fullmatch(r"FAIL ([\w-]+) at \((\d+(,\d+)*)\): "
                     r"lhs=\[.*\] rhs=\[.*\]", line)
    assert m, line
    assert all(int(x) >= 1 for x in m.group(2).split(","))
    assert line == "FAIL adm-poisson at (1,1,2): lhs=[1, 0] rhs=[-1/3, 0]"


# failing checks whose residual vanishes in row 0 of the witness matrix
ROW0_FILES = {
    "poisson-bialgebra": "field gf 5\ndim 2\nop bracket\nop circ\ncirc: e1 e1 = 1 e1\n"
                         "comul delta\ncomul Delta\nDelta: e1 = 1 e2 e2\n",
    "bialgebra": "field gf 5\ndim 2\nop star\nstar: e1 e1 = 1 e1\n"
                 "comul alpha\nalpha: e1 = 1 e2 e2\n",
}


@pytest.mark.parametrize("pred,line", [
    ("poisson-bialgebra",
     "FAIL infinitesimal at (1,1): lhs=[[0, 0], [0, 1]] rhs=[[0, 0], [0, 0]]"),
    ("bialgebra", "FAIL defbi1 at (1,1): lhs=[[0, 0], [0, 2]] rhs=[[0, 0], [0, 0]]"),
])
def test_matrix_witness_prints_the_whole_matrix(capsys, tmp_path, pred, line):
    path = tmp_path / "row0.alg"
    path.write_text(ROW0_FILES[pred])
    code, out, err = run(capsys, "check", pred, path)
    assert code == 1
    assert out == line + "\n"
    lhs, rhs = re.fullmatch(r"FAIL \S+ at \S+ lhs=(.*) rhs=(.*)", line).groups()
    assert lhs != rhs


def test_bad_format_is_exit_2(capsys):
    code, out, err = run(capsys, "check", "adm-poisson",
                         CORPUS / "badformat.alg")
    assert code == 2
    assert out == ""
    assert "error:" in err and "line 5" in err


def test_missing_file_is_exit_2(capsys):
    code, out, err = run(capsys, "check", "adm-poisson",
                         CORPUS / "nope.alg")
    assert code == 2
    assert "error:" in err


def test_unknown_predicate_is_exit_2(capsys):
    code, out, err = run(capsys, "check", "frobnicate", CORPUS / "good_adm.alg")
    assert code == 2


BUILD_CASES = [
    ("polarize", "good_adm.alg"),
    ("depolarize", "poisson_pair.alg"),
    ("adjoint-rep", "good_adm.alg"),
    ("dual-rep", "rep_theta.alg"),
    ("semidirect", "rep_theta.alg"),
    ("bowtie", "matched.alg"),
    ("manin-double", "bialg.alg"),
    ("coboundary-alpha", "ybe.alg"),
    ("solution-from-o", "rep_theta.alg"),
    ("induced-pre", "rep_theta.alg"),
    ("subadjacent", "pre.alg"),
    ("canonical-solution", "pre.alg"),
]


@pytest.mark.parametrize("cons,name", BUILD_CASES)
def test_build_output_reparses(capsys, cons, name):
    code, out, err = run(capsys, "build", cons, CORPUS / name)
    assert code == 0
    af = parse_file(out)   # the emitted text is valid format
    assert print_file(af) == out


def test_build_golden_canonical_solution(capsys):
    code, out, err = run(capsys, "build", "canonical-solution", CORPUS / "pre.alg")
    assert code == 0
    assert out == ("format 1\n"
                   "field gf 5\n"
                   "dim 2\n"
                   "op star\n"
                   "star: e1 e2 = 3 e2\n"
                   "star: e2 e1 = 2 e2\n"
                   "tensor r: e1 e2 = 1\n"
                   "tensor r: e2 e1 = 4\n")


def test_build_polarize_golden(capsys):
    code, out, err = run(capsys, "build", "polarize", CORPUS / "good_adm.alg")
    assert code == 0
    assert out == ("format 1\n"
                   "field rational\n"
                   "dim 2\n"
                   "op bracket\n"
                   "op circ\n"
                   "circ: e1 e1 = 1 e1\n"
                   "circ: e1 e2 = 1 e2\n"
                   "circ: e2 e1 = 1 e2\n")


def test_build_split_merge_roundtrip(capsys, tmp_path):
    code, out, err = run(capsys, "build", "coboundary-alpha", CORPUS / "ybe.alg")
    assert code == 0
    src = tmp_path / "alpha.alg"
    src.write_text(out)
    code, split_out, err = run(capsys, "build", "split", src)
    assert code == 0
    mid = tmp_path / "pair.alg"
    mid.write_text(split_out)
    code, merged, err = run(capsys, "build", "merge", mid)
    assert code == 0
    assert parse_file(merged).comuls["alpha"] == parse_file(out).comuls["alpha"]


def test_build_out_flag(capsys, tmp_path):
    dest = tmp_path / "out.alg"
    code, out, err = run(capsys, "build", "polarize", CORPUS / "good_adm.alg",
                         "--out", dest)
    assert code == 0
    assert f"OK polarize -> {dest}" in out
    assert read_file(dest).ops.keys() == {"bracket", "circ"}


def test_build_failure_exit_1(capsys, tmp_path):
    code, out, err = run(capsys, "build", "polarize", CORPUS / "bad_adm.alg")
    # polarize has no validity requirement; use a construction that does
    code, out, err = run(capsys, "build", "adjoint-rep", CORPUS / "bad_adm.alg")
    assert code == 1
    assert out.startswith("FAIL adm-poisson")
    # theta = 1 over the adjoint action of e1 e1 = e1 is no O-operator
    path = tmp_path / "bad_theta.alg"
    path.write_text("field gf 5\ndim 1\nvdim 1\nop star\nstar: e1 e1 = 1 e1\n"
                    "rep l e1 = [1]\nrep r e1 = [1]\nmap theta = [1]\n")
    assert run(capsys, "build", "induced-pre", path) == \
        (1, "FAIL o-operator at (1,1): lhs=[1] rhs=[2]\n", "")


# valid inputs whose evaluations end on an all-zero array over a
# denominator of 2**63 or more (den**2 = 1.6e19, and a sum to zero over 1e19)
HUGE_DEN = {
    "tiny.alg": "field rational\ndim 1\nop star\nstar: e1 e1 = 1/4000000000 e1\n"
                "tensor r: e1 e1 = 1/4000000000\n",
    "cancel.alg": "field rational\ndim 1\nop star\nstar: e1 e1 = "
                  "1/10000000000000000000 e1 + -1/10000000000000000000 e1\n",
}


@pytest.mark.parametrize("argv,first", [
    (["check", "eqv1", "tiny.alg"], "OK eqv1 (dim 1)"),
    (["check", "cosp", "tiny.alg"], "OK cosp (dim 1)"),
    (["build", "coboundary-alpha", "tiny.alg"], "format 1"),
    (["check", "adm-poisson", "cancel.alg"], "OK adm-poisson (dim 1, 1 triples checked)"),
])
def test_zero_results_over_huge_denominators(capsys, tmp_path, argv, first):
    for name, text in HUGE_DEN.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *argv[:-1], tmp_path / argv[-1])
    assert (code, out.splitlines()[0], err) == (0, first, "")


def test_unwritable_out_is_exit_2(capsys, tmp_path):
    dest = tmp_path / "missing" / "x.alg"
    code, out, err = run(capsys, "build", "polarize", CORPUS / "good_adm.alg", "--out", dest)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {dest}: ")


@pytest.mark.parametrize("argv", [["check", "adm-poisson"],
                                  ["search", "adm_poisson", "--algebra"]])
def test_file_that_is_not_utf8_is_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"\xff\xfe bad\n")
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


def test_search_cli_rejects_dim_above_the_cap(capsys):
    code, out, err = run(capsys, "search", "adm_poisson", "--dim", "33", "--count", "1")
    assert (code, out) == (2, "")
    assert err == "error: dimension 33 exceeds the largest supported dimension 32\n"


def test_search_cli_format(capsys):
    code, out, err = run(capsys, "search", "adm_poisson", "--dim", "1",
                         "--field", "5", "--nonzero-only")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "# total 4"
    assert lines[0] == "# instance 1"
    # each instance block reparses
    blocks = out.split("# instance")[1:]
    for blk in blocks:
        body = "\n".join(blk.splitlines()[1:]).strip() + "\n"
        af = parse_file(body)
        assert check_adm_poisson(af.ops["star"]).holds


def test_search_cli_with_algebra(capsys):
    code, out, err = run(capsys, "search", "adm_pybe_solution", "--dim", "2",
                         "--field", "5", "--skew", "--nonzero-only",
                         "--algebra", CORPUS / "ybe.alg")
    assert code == 0
    assert "# total" in out
    total = int(out.splitlines()[-1].split()[-1])
    assert total >= 1


@pytest.mark.parametrize("target", ["adm_poisson", "poisson", "pre_adm_poisson"])
def test_search_cli_refuses_an_algebra_for_a_target_that_fixes_none(capsys, target):
    code, out, err = run(capsys, "search", target, "--field", "5",
                         "--algebra", CORPUS / "ybe.alg")
    assert (code, out) == (2, "")
    assert err == f"error: {target} search takes no fixed algebra\n"


@pytest.mark.parametrize("target, fixed", [
    ("adm_poisson", []), ("poisson", []), ("pre_adm_poisson", []),
    ("o_operator", ["--algebra", BAD_ADM_GF5])])
def test_search_cli_refuses_skew_for_a_target_without_r(capsys, target, fixed):
    code, out, err = run(capsys, "search", target, "--dim", "2", "--field", "5", "--skew",
                         *fixed)
    assert (code, out) == (2, "")
    assert err == f"error: {target} search takes no --skew\n"


def test_the_cli_names_every_search_target():
    from admpoisson.search import TARGETS
    assert SEARCH_TARGETS == tuple(TARGETS)


@pytest.mark.parametrize("target", ["adm_pybe_solution", "o_operator"])
def test_search_cli_rejects_a_fixed_algebra_that_is_not_adm_poisson(capsys, target):
    # the witness is the one `check adm-poisson` prints, 1-based
    assert run(capsys, "check", "adm-poisson", BAD_ADM_GF5)[1].startswith(
        "FAIL adm-poisson at (1,1,2):")
    skew = ["--skew"] if target == "adm_pybe_solution" else []
    code, out, err = run(capsys, "search", target, "--dim", "2", "--field", "5", *skew,
                         "--algebra", BAD_ADM_GF5)
    assert (code, out) == (2, "")
    assert err == "error: the fixed algebra is not adm-Poisson: it fails adm-poisson at (1,1,2)\n"


def test_search_cli_rejects_a_fixed_action_that_is_not_a_representation(capsys, tmp_path):
    # the witness is the one `check rep` prints, 1-based
    path = tmp_path / "bad_rep.alg"
    path.write_text("field gf 5\ndim 1\nop star\nstar: e1 e1 = 1 e1\n"
                    "rep l e1 = [2]\nrep r e1 = [3]\n")
    assert run(capsys, "check", "rep", path)[:2] == (1, "FAIL c2 at (1,1): lhs=[[2]] rhs=[[4]]\n")
    code, out, err = run(capsys, "search", "o_operator", "--dim", "1", "--field", "5",
                         "--algebra", path)
    assert (code, out) == (2, "")
    assert err == "error: the fixed action is not a representation: it fails c2 at (1,1)\n"


def test_search_cli_bad_field(capsys):
    code, out, err = run(capsys, "search", "adm_poisson", "--field", "4")
    assert code == 2
    assert "error:" in err


def test_search_cli_field_mismatch(capsys):
    code, out, err = run(capsys, "search", "adm_pybe_solution", "--dim", "2",
                         "--field", "7", "--algebra", CORPUS / "ybe.alg")
    assert code == 2


def test_search_cli_algebra_over_other_field(capsys):
    # a rational file under a GF(5) search is an input error, not a crash
    code, out, err = run(capsys, "search", "o_operator", "--field", "5",
                         "--algebra", CORPUS / "rep_theta.alg")
    assert code == 2
    assert err.startswith("error: ") and "does not match --field 5" in err


def test_search_cli_rejects_dim_0(capsys):
    code, out, err = run(capsys, "search", "adm_poisson", "--dim", "0")
    assert code == 2
    assert re.match(r"error: \S", err)
    assert "# total" not in out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_search_cli_rejects_count_below_1(capsys, count):
    code, out, err = run(capsys, "search", "adm_poisson", "--count", count)
    assert code == 2
    assert err == f"error: count must be at least 1, got {count}\n"
    assert out == ""


def test_search_cli_reports_shortfall(capsys):
    # 20,000 random dim-3 candidates over GF(5) hold no adm-Poisson algebra
    code, out, err = run(capsys, "search", "adm_poisson", "--dim", "3",
                         "--count", "2")
    assert code == 3
    assert err == "error: found 0 of 2 after 20000 attempts\n"
    assert out == "# total 0\n"


@pytest.mark.parametrize("argv", [
    ["search", "adm_poisson", "--dim", "0"],
    ["search", "adm_poisson", "--dim", "33", "--count", "1"],
    ["search", "o_operator", "--field", "5", "--algebra",
     str(CORPUS / "rep_theta.alg")],
    ["search", "adm_poisson", "--count", "0"],
    ["search", "adm_poisson", "--count", "-3"],
    ["search", "adm_pybe_solution", "--dim", "2", "--field", "5", "--skew", "--algebra",
     str(BAD_ADM_GF5)],
])
def test_search_validation_holds_under_python_O(argv):
    # validation must not rely on assert, which `python -O` strips
    import os
    import subprocess
    import sys
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-m", "admpoisson.cli"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert re.match(r"error: \S", proc.stderr)
    assert "# total" not in proc.stdout


MISMATCHED = {
    # a bracket on vdim beside a circ on dim
    "poisson.alg": "field rational\ndim 2\nvdim 3\nop bracket vdim\nop circ\n"
                   "bracket: e1 e2 = 1 e3\ncirc: e1 e1 = 1 e1\n",
    # an operation on vdim beside a dim-sized r
    "r.alg": "field rational\ndim 2\nvdim 3\nop star vdim\nstar: e1 e1 = 1 e1\n"
             "tensor r: e1 e2 = 1\ntensor r: e2 e1 = -1\n",
    "unital.alg": "field gf 5\ndim 2\nvdim 2\nop star\nstar: e1 e1 = 1 e1\n"
                  "star: e1 e2 = 1 e2\nstar: e2 e1 = 1 e2\n"
                  "rep L e1 = [1,0 ; 0,1]\nrep L e2 = [0,0 ; 1,0]\n"
                  "rep R e1 = [1,0 ; 0,1]\nrep R e2 = [0,0 ; 1,0]\n",
    # one matrix per vdim basis element beside a dim-sized operation
    "rep.alg": "field gf 5\ndim 2\nvdim 1\nop star\nstar: e1 e1 = 1 e1\n"
               "rep l vdim e1 = [1,0 ; 0,1]\nrep r vdim e1 = [1,0 ; 0,1]\n"
               "map theta = [1,0 ; 0,1]\n",
    # an operation on vdim beside dim-sized comultiplications
    "comul.alg": "field rational\ndim 2\nvdim 3\nop star vdim\nstar: e1 e1 = 1 e1\n"
                 "comul alpha\ncomul delta\ncomul Delta\n",
    # each pair of operations on dim and vdim
    "pairs.alg": "field gf 5\ndim 2\nvdim 1\nop succ\nop prec vdim\nop bracket\n"
                 "op circ vdim\nop dot\nop ast vdim\n",
}
MISMATCHED_ARGV = [
    ["check", "poisson", "poisson.alg"],
    ["check", "adm-pybe", "r.alg"],
    ["check", "cosp", "r.alg"],
    ["check", "con1", "r.alg"],
    ["check", "eqv3", "r.alg"],
    ["check", "operator-form", "r.alg"],
    ["build", "coboundary-alpha", "r.alg"],
    ["check", "rep", "rep.alg"],
    ["check", "o-operator", "rep.alg"],
    ["build", "semidirect", "rep.alg"],
    ["build", "dual-rep", "rep.alg"],
    ["build", "solution-from-o", "rep.alg"],
    ["build", "induced-pre", "rep.alg"],
    ["check", "bialgebra", "comul.alg"],
    ["check", "poisson-bialgebra", "comul.alg"],
    ["build", "manin-double", "comul.alg"],
    ["check", "pre-adm", "pairs.alg"],
    ["check", "pre-poisson", "pairs.alg"],
    ["build", "depolarize", "pairs.alg"],
    ["build", "subadjacent", "pairs.alg"],
    ["build", "canonical-solution", "pairs.alg"],
    ["search", "o_operator", "--dim", "3", "--field", "5", "--algebra", "unital.alg"],
]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_mismatched_operand_sizes_are_input_errors(tmp_path, flags):
    # one interpreter, with and without the asserts that -O strips, runs
    # every case in process and reports (exit code, stdout, stderr)
    import json
    import os
    import subprocess
    import sys
    for name, text in MISMATCHED.items():
        (tmp_path / name).write_text(text)
    script = ("import contextlib, io, json, sys\n"
              "from admpoisson.cli import run_command\n"
              "out = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    o, e = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):\n"
              "        code = run_command(argv)\n"
              "    out.append([code, o.getvalue(), e.getvalue()])\n"
              "print(json.dumps(out))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", script,
                           json.dumps(MISMATCHED_ARGV)], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for argv, (code, out, err) in zip(MISMATCHED_ARGV, results):
        assert code == 2, argv
        assert out == "", argv
        assert re.fullmatch(r"error: \S[^\n]*\n", err), argv
    assert results[0][2] == "error: operand sizes disagree: 'b' has 3 where 'o' has 2\n"
    assert results[-1][2] == "error: fixed algebra must match the search dim and field\n"



def test_no_assert_in_the_package():
    # validation must not rely on assert, which `python -O` strips
    import ast
    import admpoisson
    for path in sorted(Path(admpoisson.__file__).parent.glob("*.py")):
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"

@st.composite
def grammar_files(draw):
    """Parseable files from the line grammar, with operations, families,
    maps and tensors sized by dim or vdim (up to 4) at random, so that
    operand sizes often disagree; products and comultiplications take up to
    three terms, and coefficients include fractions and big integers."""
    dim = draw(st.integers(1, 4))
    vdim = draw(st.none() | st.integers(1, 4))
    lines = [f"field {draw(st.sampled_from(['rational', 'gf 5', 'gf 7']))}", f"dim {dim}"]
    spaces = {"dim": dim}
    if vdim:
        lines.append(f"vdim {vdim}")
        spaces["vdim"] = vdim
    # denominators stay nonzero mod 5 and mod 7, so that the file parses
    coef = (st.sampled_from(["1", "-1", "2", "1/2"])
            | st.builds("{}/{}".format, st.integers(-99, 99),
                        st.sampled_from([1, 3, 4, 6, 8, 9, 11, 12, 13, 16]))
            | st.integers(-10 ** 30, 10 ** 30).map(str))

    def basis(n):
        return st.integers(1, n).map("e{}".format)

    def matrix(rows, cols):
        return "[" + " ; ".join(",".join(draw(coef) for _ in range(cols))
                                for _ in range(rows)) + "]"

    names = st.sampled_from(["star", "star1", "star2", "bracket", "circ", "succ", "prec",
                             "dot", "ast"])
    for name in draw(st.lists(names, unique=True, max_size=4)):
        space = draw(st.sampled_from(sorted(spaces)))
        n = spaces[space]
        lines.append(f"op {name}" + (" vdim" if space == "vdim" else ""))
        for (i, j), terms in draw(st.dictionaries(
                st.tuples(basis(n), basis(n)),
                st.lists(st.tuples(coef, basis(n)), min_size=1, max_size=3),
                max_size=3)).items():
            lines.append(f"{name}: {i} {j} = " + " + ".join(f"{c} {k}" for c, k in terms))
    for name in draw(st.lists(st.sampled_from(["alpha", "delta", "Delta"]), unique=True)):
        lines.append(f"comul {name}")
        for i, terms in draw(st.dictionaries(basis(dim), st.lists(
                st.tuples(coef, basis(dim), basis(dim)), min_size=1, max_size=3),
                max_size=2)).items():
            lines.append(f"{name}: {i} = " + " + ".join(f"{c} {j} {k}" for c, j, k in terms))
    for (i, j), c in draw(st.dictionaries(st.tuples(basis(dim), basis(dim)), coef,
                                          max_size=3)).items():
        lines.append(f"tensor r: {i} {j} = {c}")
    reps = st.sampled_from(["l", "r", "L", "R", "l1", "r1", "l2", "r2"])
    for name in draw(st.lists(reps, unique=True, max_size=4)):
        space = draw(st.sampled_from(sorted(spaces)))
        size = draw(st.integers(1, 3))
        for i in draw(st.sets(st.integers(1, spaces[space]), min_size=1)):
            tag = " vdim" if space == "vdim" else ""
            lines.append(f"rep {name}{tag} e{i} = {matrix(size, size)}")
    for name in draw(st.lists(st.sampled_from(["theta", "R", "form", "B"]), unique=True)):
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        lines.append(f"map {name} = {matrix(rows, cols)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(grammar_files())
def test_every_command_answers_with_an_exit_code(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "grammar.alg"
    path.write_text(text)
    argvs = [["check", pred, str(path)] for pred in sorted(PREDICATES)]
    argvs += [["build", cons, str(path)] for cons in sorted(CONSTRUCTIONS)]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = run_command(argv)
        assert code in (0, 1, 2), (argv, text)
        assert code != 2 or re.fullmatch(r"error: \S[^\n]*\n", err.getvalue()), (argv, text)


def test_console_entry_point():
    import shutil
    import subprocess
    exe = shutil.which("admpoisson")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "check", "adm-poisson",
                           str(CORPUS / "good_adm.alg")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("OK adm-poisson")


def _annihilator_file(field, lam):
    """A dense-enough valid input for the checks below: on e1 = t, e2 = t^2,
    e3 = t^3, e4 = u, e5 = v, t^a t^b = lam t^(a+b) (commutative and
    associative, so admissible-Poisson) with annihilator span(e3, e4, e5),
    the adjoint representation, and a skew r in annihilator (x) annihilator,
    so that every Yang-Baxter and coboundary product of r vanishes."""
    lines = [f"field {field}", "dim 5", "vdim 5", "op star",
             f"star: e1 e1 = {lam} e2", f"star: e1 e2 = {lam} e3", f"star: e2 e1 = {lam} e3"]
    for name, (i, j) in (("l", (0, 1)), ("r", (1, 0))):
        for x in range(5):
            mat = [[0] * 5 for _ in range(5)]
            for y, z in ((0, 1), (1, 2)) if x == 0 else ((0, 2),) if x == 1 else ():
                mat[z][y] = lam
            lines.append(f"rep {name} e{x + 1} = [" + " ; ".join(
                ",".join(str(c) for c in row) for row in mat) + "]")
    lines += ["tensor r: e3 e4 = 3/4", "tensor r: e4 e3 = -3/4",
              "tensor r: e4 e5 = -5/7", "tensor r: e5 e4 = 5/7"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field,lam", [("rational", "3/2"), ("gf 10007", "5005")])
def test_passing_checks_make_no_scalars(tmp_path, capsys, field, lam):
    """From the parser to the verdict or the built file, every command runs
    on integer arrays, on the corpus and on an annihilator file that passes
    or fails, witnesses and the eliminations of `solve` included.  (The
    package has no scalar type left to make: test_scalars guards that
    boundary.)"""
    good, bad = tmp_path / "good.alg", tmp_path / "bad.alg"
    good.write_text(_annihilator_file(field, lam))
    bad.write_text(_annihilator_file(field, lam).replace("star: e2 e1", "star: e2 e2"))
    for predicate in ("adm-poisson", "poisson", "rep", "adm-pybe", "cosp"):
        assert run_command(["check", predicate, str(good)]) == 0, predicate
        assert capsys.readouterr().out.startswith(f"OK {predicate} (dim 5")
    assert run_command(["check", "adm-poisson", str(bad)]) == 1
    assert capsys.readouterr().out.startswith("FAIL adm-poisson at (1,1,1): ")
    codes = Counter()
    for path in [good, bad] + [CORPUS / name for name in CORPUS_FILES]:
        argvs = [["check", pred, str(path)] for pred in sorted(PREDICATES)]
        argvs += [["build", cons, str(path)] for cons in sorted(CONSTRUCTIONS)]
        for argv in argvs:
            codes[run_command(argv)] += 1
            capsys.readouterr()
    assert codes[0] and codes[1] and codes[2]


def _readme_names(lead):
    """The backticked names of the README paragraph that starts with `lead`."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = text[text.index(lead):].split("\n\n")[0]
    return sorted(re.findall(r"`([^`]+)`", paragraph))


def test_readme_lists_every_predicate_and_construction():
    assert _readme_names("Predicates include") == sorted(PREDICATES)
    assert _readme_names("Constructions include") == sorted(CONSTRUCTIONS)


@pytest.mark.parametrize("argv,code,calls", [
    (["check", "adm-poisson", CORPUS / "good_adm.alg"], 0, 1),
    (["check", "adm-poisson", CORPUS / "bad_adm.alg"], 1, 2),   # residual, then lhs
    (["check", "rep", CORPUS / "rep_theta.alg"], 0, 4),         # the algebra, c2-c4
])
def test_a_check_evaluates_each_identity_once(monkeypatch, capsys, argv, code, calls):
    """Each identity's residual is contracted once; only the failing
    identity's lhs is contracted again, for its witness."""
    from admpoisson import tensors
    seen, contract = [], tensors.contract
    monkeypatch.setattr(tensors, "contract", lambda terms, *a: seen.append(terms)
                        or contract(terms, *a))
    assert run(capsys, *argv)[0] == code
    assert len(seen) == calls


@pytest.mark.parametrize("construction,name,calls", [
    ("adjoint-rep", "good_adm.alg", 1),             # the algebra
    ("induced-pre", "rep_theta.alg", 3),            # the algebra, the action, theta
    ("canonical-solution", "pre.alg", 1),           # the pre-structure
])
def test_a_build_checks_only_its_prerequisites(monkeypatch, capsys, construction, name,
                                               calls):
    """A build checks the structures it reads, once each, and does not
    re-check what the construction's theorem guarantees of its result."""
    import sys
    from admpoisson import tensors
    for module in ("matched", "bialgebras", "ooperators", "search"):
        __import__(f"admpoisson.{module}")
    seen, check = [], tensors.check_identities
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "admpoisson"]:
        if getattr(module, "check_identities", None) is check:
            monkeypatch.setattr(module, "check_identities",
                                lambda *a: seen.append(a) or check(*a))
    assert run(capsys, "build", construction, CORPUS / name)[0] == 0
    assert len(seen) == calls


GOOD = str(CORPUS / "good_adm.alg")
USAGE_ARGV = [
    [], ["-h"], ["--help"], ["bogus"],
    ["check", "-h"], ["build", "-h"], ["search", "-h"],
    ["check", "adm-poisson"], ["build", "polarize"], ["search"],
    ["check", "nonsense", GOOD], ["build", "nonsense", GOOD], ["search", "nonsense"],
    ["check", "adm-poisson", GOOD, "--x"], ["build", "polarize", GOOD, "--x"],
    ["search", "adm_poisson", "--x"],
    ["check", "adm-poisson", GOOD, "extra"], ["build", "polarize", GOOD, "extra"],
    ["search", "adm_poisson", "extra"],
    ["search", "adm_poisson", "--dim", "x"],
    # where a parser of its own could read otherwise than the subparser
    ["check", "--", "adm-poisson"], ["build", "polarize", GOOD, "--out"],
    ["search", "--dim", "2"], ["search", "adm_poisson", "--nonz", "--x"],
    ["search", "adm_poisson", "--dim=x"], ["check", "adm-poisson", GOOD, "-h"],
    ["--", "check", "adm-poisson", GOOD],
]


@pytest.mark.parametrize("argv", USAGE_ARGV)
def test_usage_errors_read_as_with_every_subparser(capsys, argv):
    """run_command builds the parser of its command only; its help and
    usage errors are those of the parser of every command, byte for byte."""
    with pytest.raises(SystemExit) as exc:
        make_parser().parse_args(argv)
    out = capsys.readouterr()
    assert run(capsys, *argv) == (2 if exc.value.code else 0, out.out, out.err)


@pytest.mark.parametrize("argv", [
    ["check", "adm-poisson", GOOD],
    ["check", "--", "adm-poisson", GOOD],
    ["build", "--out", "x.alg", "polarize", GOOD],
    ["build", "polarize", "--", GOOD],
    ["search", "adm_poisson", "--nonz", "--sk"],
    ["search", "--dim=2", "adm_poisson", "--field=7"],
    ["search", "adm_poisson", "--seed", "-1", "--count", "3"],
    ["search", "--alg", GOOD, "--", "o_operator"],
])
def test_a_command_parser_reads_as_its_subparser(argv):
    """What the parser of a command reads from the arguments after it is
    what the parser of every command reads, but for `command`."""
    full = vars(make_parser().parse_args(argv))
    assert full.pop("command") == argv[0]
    args, extras = make_parser(argv[0]).parse_known_args(argv[1:])
    assert extras == [] and vars(args) == full


@pytest.mark.parametrize("argv,parsers", [
    (["check", "adm-poisson", GOOD], 1),
    (["build", "polarize", GOOD], 1),
    (["search", "adm_poisson", "--dim", "1", "--field", "5"], 1),
    (["check", "adm-poisson", GOOD, "--x"], 5),
    ([], 4),
    (["-h"], 4),
    (["bogus"], 4),
])
def test_a_command_builds_only_its_own_subparser(monkeypatch, capsys, argv, parsers):
    """The parser of the command alone; the top-level parser and all three
    subparsers when no command is named, and beside the command's parser
    when an argument is left over, to report it.  Each is built once per
    process: running the command again builds none."""
    import argparse
    make_parser.cache_clear()
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    first = run(capsys, *argv)
    assert len(built) == parsers
    built.clear()
    assert run(capsys, *argv) == first and built == []


KEPT_ARGV = USAGE_ARGV + [
    ["check", "adm-poisson", GOOD], ["check", "adm-poisson", CORPUS / "bad_adm.alg"],
    ["build", "polarize", GOOD],
]


def test_a_kept_parser_reads_as_a_fresh_one(capsys):
    """Help, usage errors, a passing and a failing check and a build, run
    twice in one process on the kept parsers, print what they print on
    parsers built for each run."""
    fresh = []
    for argv in KEPT_ARGV:
        make_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    make_parser.cache_clear()
    for _ in range(2):
        assert [run(capsys, *argv) for argv in KEPT_ARGV] == fresh


def test_a_kept_parser_formats_help_at_the_width_of_the_moment(monkeypatch, capsys):
    """The help formatter reads the terminal width when it formats, so a
    parser built at one width writes the help of another as a fresh one
    does."""
    make_parser.cache_clear()
    kept = {}
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        kept[columns] = run(capsys, "check", "-h")
    assert kept["40"] != kept["120"]
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        make_parser.cache_clear()
        assert run(capsys, "check", "-h") == kept[columns]


@pytest.mark.parametrize("argv", [("check", "adm-poisson", "good_adm.alg"),
                                  ("build", "polarize", "good_adm.alg"),
                                  ("check", "nonsense", "good_adm.alg")])
def test_a_command_leaves_no_cyclic_garbage(capsys, argv):
    """Commands run one after another in one process free their own
    argparse parsers, so none is left for the full collections."""
    import gc
    argv = argv[:-1] + (CORPUS / argv[-1],)
    run(capsys, *argv)
    gc.collect()
    for _ in range(3):
        run(capsys, *argv)
    assert gc.collect() == 0


def test_a_witness_is_printed_exactly_at_any_length(tmp_path, capsys):
    """A witness entry of more digits than str() writes in this process
    (sys.get_int_max_str_digits(), 4,300 by default) is printed in full:
    as str() writes it with the limit lifted."""
    import sys
    n = str(7 ** 4000)[:3000]
    path = tmp_path / "long.alg"
    path.write_text(f"field rational\ndim 2\nop star\nstar: e1 e1 = {n} e1 + 1 e2\n"
                    "star: e2 e2 = 3 e1\nstar: e2 e1 = 5 e2\n")
    argvs = [("check", "adm-poisson", path), ("build", "coboundary-alpha", path)]
    runs = [run(capsys, *argv) for argv in argvs]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        unlimited = run(capsys, *argvs[0])
    finally:
        sys.set_int_max_str_digits(limit)
    assert runs == [unlimited, unlimited]
    code, out, err = unlimited
    assert (code, err) == (1, "") and out.startswith("FAIL adm-poisson at (1,1,1): lhs=[")
    assert max(map(len, re.findall(r"\d+", out))) > 4300


def test_a_build_too_long_to_read_back_is_an_input_error(tmp_path, capsys):
    """A built file with an entry of more digits than the parser reads is
    not printed: exit code 2, a message that names the limit, no file."""
    import sys
    n = str(7 ** 4000)[:2500]
    path, out = tmp_path / "long.alg", tmp_path / "out.alg"
    path.write_text(f"field rational\ndim 2\nop star\nstar: e1 e1 = {n} e1\n"
                    f"star: e1 e2 = {n} e2\nstar: e2 e1 = {n} e2\n"
                    f"tensor r: e1 e2 = {n}\ntensor r: e2 e1 = -{n}\n")
    assert run(capsys, "check", "adm-poisson", path)[0] == 0
    error = (f"error: an entry has more than {sys.get_int_max_str_digits()} digits, the most "
             "that a number of a file may have (sys.get_int_max_str_digits())\n")
    assert run(capsys, "build", "coboundary-alpha", path) == (2, "", error)
    assert run(capsys, "build", "coboundary-alpha", path, "--out", out) == (2, "", error)
    assert not out.exists()
