import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from admpoisson.cli import run_command, PREDICATES, CONSTRUCTIONS
from admpoisson.fileformat import parse_file, print_file, read_file
from admpoisson.algebras import check_adm_poisson

CORPUS = Path(__file__).parent / "corpus"

CORPUS_FILES = ["good_adm.alg", "bad_adm.alg", "poisson_pair.alg",
                "rep_theta.alg", "ybe.alg", "matched.alg", "bialg.alg",
                "pre.alg", "prepoisson.alg", "badformat.alg"]


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


def test_build_failure_exit_1(capsys):
    code, out, err = run(capsys, "build", "polarize", CORPUS / "bad_adm.alg")
    # polarize has no validity requirement; use a construction that does
    code, out, err = run(capsys, "build", "adjoint-rep", CORPUS / "bad_adm.alg")
    assert code == 1
    assert out.startswith("FAIL adm-poisson")


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
    ["search", "o_operator", "--field", "5", "--algebra",
     str(CORPUS / "rep_theta.alg")],
    ["search", "adm_poisson", "--count", "0"],
    ["search", "adm_poisson", "--count", "-3"],
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


@st.composite
def grammar_files(draw):
    """Parseable files from the line grammar, with operations, families,
    maps and tensors sized by dim or vdim at random, so that operand sizes
    often disagree."""
    dim = draw(st.integers(1, 2))
    vdim = draw(st.none() | st.integers(1, 3))
    lines = [f"field {draw(st.sampled_from(['rational', 'gf 5', 'gf 7']))}", f"dim {dim}"]
    spaces = {"dim": dim}
    if vdim:
        lines.append(f"vdim {vdim}")
        spaces["vdim"] = vdim
    coef = st.sampled_from(["1", "-1", "2", "1/2"])

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
        for (i, j), (c, k) in draw(st.dictionaries(st.tuples(basis(n), basis(n)),
                                                   st.tuples(coef, basis(n)),
                                                   max_size=3)).items():
            lines.append(f"{name}: {i} {j} = {c} {k}")
    for name in draw(st.lists(st.sampled_from(["alpha", "delta", "Delta"]), unique=True)):
        lines.append(f"comul {name}")
        for i, (c, j, k) in draw(st.dictionaries(basis(dim), st.tuples(
                coef, basis(dim), basis(dim)), max_size=2)).items():
            lines.append(f"{name}: {i} = {c} {j} {k}")
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
