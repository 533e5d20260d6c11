"""Run one admpoisson command in this process under the tracer.

    python child.py TRACE_OUT -- <admpoisson arguments>

The exit code and output are the command's; the trace is written to
TRACE_OUT when the command ends.  admpoisson is imported from PYTHONPATH,
which the benchmark points at the checkout's src/.
"""

import sys

import tracer


def main():
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        sys.exit("usage: child.py TRACE_OUT -- ARGS...")
    tr = tracer.install(tracer.Tracer())
    from admpoisson import cli
    try:
        code = cli.run_command(argv)
    finally:
        sys.stdout.flush()
        tr.dump(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
