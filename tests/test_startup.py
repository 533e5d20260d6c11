"""What a CLI process loads and how it ends.

Each command imports only the modules it runs (the package exports load on
first use), and the console entry ends the process with os._exit after
flushing its output, so these tests compare `python -m admpoisson.cli`
with the in-process `run_command` byte for byte."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from admpoisson.cli import run_command

CORPUS = Path(__file__).parent / "corpus"
SRC = str(Path(__file__).resolve().parent.parent / "src")
# what `check adm-poisson` loads, and every command beside the modules it runs
CORE = ["admpoisson", "admpoisson.algebras", "admpoisson.cli", "admpoisson.fileformat",
        "admpoisson.scalars", "admpoisson.tensors"]


def python(*args):
    """sys.executable with admpoisson imported from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    # a buffered stdout, as a pipe gets by default, so that a lost flush shows
    env.pop("PYTHONUNBUFFERED", None)
    return [sys.executable, *args], env


def in_process(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def console(argv, flags=()):
    cmd, env = python(*flags, "-m", "admpoisson.cli", *argv)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


# ------------------------------------------------------------ what loads

LOADED_SCRIPT = """\
import contextlib, io, json, sys
from admpoisson.cli import run_command
with contextlib.redirect_stdout(io.StringIO()):
    code = run_command(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "admpoisson"),
                  sorted({"fractions", "decimal"} & set(sys.modules))]))
"""


@pytest.mark.parametrize("argv, extra", [
    (["check", "adm-poisson", str(CORPUS / "good_adm.alg")], []),
    (["search", "adm_poisson", "--dim", "1", "--field", "5"], ["admpoisson.search"]),
    (["search", "poisson", "--dim", "1", "--field", "7"], ["admpoisson.search"]),
    # ooperators, with the modules its own tables and classes import
    (["search", "pre_adm_poisson", "--dim", "1", "--field", "5"],
     ["admpoisson.ooperators", "admpoisson.representations", "admpoisson.search",
      "admpoisson.yangbaxter"]),
])
def test_a_command_loads_only_the_modules_it_runs(argv, extra):
    """The package modules a command runs, and no `fractions` (nor the
    `decimal` it imports): numbers are read as Fractions only by
    Exact.tolist(), which no command calls."""
    cmd, env = python("-c", LOADED_SCRIPT, *argv)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, sorted(CORE + extra), []]


EXPORTS_SCRIPT = """\
import json, sys
import admpoisson
fresh = sorted(m for m in sys.modules if m.startswith("admpoisson."))
names = list(admpoisson.__all__)
bad = []
for name in names:
    scope = {}
    exec(f"from admpoisson import {name}", scope)
    value = getattr(admpoisson, name)
    if scope[name] is not value or name not in dir(admpoisson) \\
            or vars(admpoisson)[name] is not value:
        bad.append(name)
try:
    admpoisson.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([fresh, names, bad, unknown]))
"""


def test_package_exports_resolve_on_first_use():
    """Importing the package loads no module; every exported name resolves
    through `from admpoisson import NAME` and getattr, is listed by dir(),
    and is kept on the package once read; an unknown name is an
    AttributeError."""
    cmd, env = python("-c", EXPORTS_SCRIPT)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    fresh, names, bad, unknown = json.loads(proc.stdout)
    assert fresh == []
    assert len(names) == len(set(names)) == 62
    assert not [name for name in names if name.endswith("_raw")]
    assert {"MulTensor", "RTensor", "Comultiplication", "check_adm_poisson",
            "Representation", "manin_double", "check_ybe", "canonical_solution"} <= set(names)
    assert bad == []
    assert unknown == "module 'admpoisson' has no attribute 'no_such_name'"


def test_moved_structures_keep_their_import_paths():
    from admpoisson import Comultiplication, RTensor, bialgebras, tensors, yangbaxter
    assert bialgebras.Comultiplication is tensors.Comultiplication is Comultiplication
    assert yangbaxter.RTensor is tensors.RTensor is RTensor


# ------------------------------------------------------------ how it ends

EXIT_CASES = [
    (["check", "adm-poisson", str(CORPUS / "good_adm.alg")], 0),
    (["check", "adm-poisson", str(CORPUS / "bad_adm.alg")], 1),
    (["check", "adm-poisson", str(CORPUS / "no_such_file.alg")], 2),
    (["search", "adm_poisson", "--dim", "3", "--field", "5", "--count", "2",
      "--nonzero-only"], 3),
    (["check", "adm-poisson", str(CORPUS / "good_adm.alg"), "--x"], 2),
    (["search", "adm_poisson", "--dim", "x"], 2),
    (["search", "adm_poisson", "--nonz", "--x"], 2),
]


@pytest.mark.parametrize("argv, code", EXIT_CASES)
def test_console_entry_matches_run_command(capsys, argv, code):
    """stdout, stderr and exit code of the console entry, with and without
    the asserts that -O strips, are those of run_command."""
    expected = in_process(capsys, argv)
    assert expected[0] == code and (expected[1] or expected[2])
    for flags in ((), ("-O",)):
        assert console(argv, flags) == expected, flags


def test_a_bad_coefficient_after_a_zero_line_through_the_console_entry(capsys, tmp_path):
    """A file whose one error is a coefficient after a '0' line: the text
    is read again with each term checked where it stands, and the error
    names that coefficient's line, with and without -O, as in process."""
    path = tmp_path / "bad_coefficient.alg"
    path.write_text("field gf 5\ndim 2\nop star\nstar: e1 e1 = 0\n"
                    "star: e1 e2 = 1 e1 + 2/5 e2\nstar: e2 e2 = 1 e2\n")
    argv = ["check", "adm-poisson", str(path)]
    expected = in_process(capsys, argv)
    assert expected == (2, "", f"error: {path}: line 5: bad scalar '2/5': "
                               "denominator 5 is 0 mod 5\n")
    for flags in ((), ("-O",)):
        assert console(argv, flags) == expected, flags


def test_build_out_file_is_complete(capsys, tmp_path):
    good = str(CORPUS / "good_adm.alg")
    text = in_process(capsys, ["build", "polarize", good])[1]
    out = tmp_path / "polar.alg"
    assert console(["build", "polarize", good, "--out", str(out)]) == (
        0, f"OK polarize -> {out}\n", "")
    assert out.read_text(encoding="utf-8") == text


def test_full_search_through_a_pipe_is_byte_identical(capsys):
    argv = ["search", "adm_poisson", "--dim", "2", "--field", "5"]
    expected = in_process(capsys, argv)
    assert expected[1].count("# instance") == 769
    assert console(argv) == expected


def test_a_closed_stdout_ends_with_exit_1_and_no_traceback():
    """A reader that stops after one line (`| head -1`): the command ends
    with exit code 1 and prints nothing on stderr.  The full output (about
    100 KB) exceeds what the pipe and the writer's buffer hold."""
    cmd, env = python("-m", "admpoisson.cli", "search", "adm_poisson", "--dim", "2",
                      "--field", "5")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            bufsize=0, env=env)
    assert proc.stdout.readline() == b"# instance 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
