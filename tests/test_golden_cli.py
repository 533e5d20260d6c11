"""The CLI transcript of every predicate and every construction on every
corpus file, compared byte for byte with tests/golden/corpus_cli.txt.

Each run records its argv, exit code, stdout and stderr, with the corpus
files named relative to tests/ and the terminal width fixed.  When a fresh
run differs, the test writes it to a temporary file and names it, so the
two transcripts can be diffed.  To write the golden file anew (only where
an output is meant to change), run `python tests/test_golden_cli.py`.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from admpoisson.cli import CONSTRUCTIONS, PREDICATES, run_command

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden" / "corpus_cli.txt"


def _argvs():
    files = sorted(p.relative_to(TESTS).as_posix() for p in (TESTS / "corpus").glob("*.alg"))
    for name in files:
        for pred in sorted(PREDICATES):
            yield ["check", pred, name]
        for cons in sorted(CONSTRUCTIONS):
            yield ["build", cons, name]


def transcript():
    """Every run's argv, exit code, stdout and stderr, run from tests/ at a
    terminal width of 80."""
    saved = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(TESTS)
    os.environ["COLUMNS"] = "80"
    chunks = []
    try:
        for argv in _argvs():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command(argv)
            chunks.append(f"$ admpoisson {' '.join(argv)}\n"
                          f"exit {code}\n"
                          f"--- stdout\n{out.getvalue()}"
                          f"--- stderr\n{err.getvalue()}"
                          f"--- end\n")
    finally:
        os.chdir(saved[0])
        if saved[1] is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved[1]
    return "".join(chunks)


def test_corpus_transcript_is_golden():
    actual = transcript()
    if actual != GOLDEN.read_text():
        with tempfile.NamedTemporaryFile("w", prefix="corpus_cli_", suffix=".txt",
                                         delete=False) as f:
            f.write(actual)
        raise AssertionError(f"the CLI transcript differs from {GOLDEN}; "
                             f"the fresh one is in {f.name}")


def test_transcript_covers_every_command_and_file():
    runs = GOLDEN.read_text().count("$ admpoisson ")
    files = len(list((TESTS / "corpus").glob("*.alg")))
    assert runs == files * (len(PREDICATES) + len(CONSTRUCTIONS)) == 481


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript())
