"""Command-line front end: check predicates, build constructions, search.

Exit codes: 0 = predicate holds / construction succeeded, 1 = predicate
fails (first witness printed), 2 = input or usage error, 3 = a sampled
search found fewer instances than --count asked for. Output is plain
text, one report per line; witness indices are printed 1-based to match
the file format's e1-style basis naming.
"""

import argparse
import functools
import gc
import os
import sys

from .scalars import check_characteristic
from .tensors import ShapeError
from .algebras import (AdmPoissonAlgebra, PoissonAlgebra, check_adm_poisson,
                       check_poisson, depolarize, polarize)
from .fileformat import (AlgebraFile, FormatError, entry_strings, print_file, read_file,
                         write_file)
# The other modules are imported by the functions that use them, so that a
# command loads only the modules it runs.


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


class Failed(Exception):
    """A failed prerequisite or predicate, carrying its witness line; maps
    to exit code 1."""


def _fmt_value(v):
    """Nested lists of entry strings (entry_strings of a witness side)."""
    return "[" + ", ".join(map(_fmt_value, v)) + "]" if isinstance(v, list) else v or "0"


def _require(report, tag=None):
    """Raise Failed with the witness of a failing report, its name prefixed
    with 'tag:' when given."""
    if report.holds:
        return
    report = report.tagged(tag) if tag else report
    lhs, rhs = (_fmt_value(entry_strings(x, x.p).tolist()) for x in report.witness[2:])
    raise Failed(f"FAIL {report.where()}: lhs={lhs} rhs={rhs}")


def _lookup(table, what, names, single_ok):
    """The first of `names` in `table`, or its only entry if single_ok."""
    for name in names:
        if name in table:
            return table[name]
    if single_ok and len(table) == 1:
        return next(iter(table.values()))
    raise InputError(f"file does not define {what} named "
                     f"{' or '.join(repr(n) for n in names)}")


def _get_op(af, *names):
    return _lookup(af.ops, "an operation", names, len(names) == 1)


def _get_pair(af, first, second):
    """The two operations a command reads together, each by its own name:
    a file's only operation stands in for neither."""
    return tuple(_lookup(af.ops, "an operation", (name,), False) for name in (first, second))


def _get_tensor(af, name="r"):
    return _lookup(af.tensors, "a tensor", (name,), True)


def _name_of(table, value):
    return next(name for name, v in table.items() if v is value)


def _fitted(af, r, alg):
    """r, the file's tensor, when it is n x n over the algebra."""
    if r.n != alg.n:
        raise InputError(f"tensor {_name_of(af.tensors, r)!r} is {r.n} x {r.n}, "
                         f"but the algebra has dim {alg.n}")
    return r


def _get_rep_family(af, *names):
    return _lookup(af.reps, "a representation family", names, False)


def _get_map(af, *names):
    return _lookup(af.maps, "a map", names, True)


def _get_comul(af, *names):
    return _lookup(af.comuls, "a comultiplication", names, len(names) == 1)


# ------------------------------------------------------------- prerequisites
# each checks one structure of the file and raises Failed when it fails


def _adm(af):
    star = _get_op(af, "star")
    _require(check_adm_poisson(star))
    return AdmPoissonAlgebra.raw(star)


def _action(af, n):
    """The file's families (l, r): n square matrices each, all of one size."""
    l, r = _get_rep_family(af, "l", "L"), _get_rep_family(af, "r", "R")
    if l.num.shape != r.num.shape or len(l) != n:
        (nl, ml), (nr, mr) = ((_name_of(af.reps, f), f.num.shape[1]) for f in (l, r))
        raise InputError(f"reps {nl!r} and {nr!r} hold {len(l)} and {len(r)} matrices of "
                         f"sizes {ml} and {mr}, but the algebra needs {n} of one size")
    return l, r


def _rep(af, alg, tag=None):
    from .representations import Representation, check_representation
    rep = Representation.raw(alg, *_action(af, alg.n))
    _require(check_representation(rep), tag)
    return rep


def _poisson(af):
    """The (bracket, circ) pair, polarizing a single 'star' if necessary."""
    if "bracket" in af.ops or "circ" in af.ops:
        br, circ = _get_pair(af, "bracket", "circ")
    else:
        br, circ = polarize(_get_op(af, "star"))
    _require(check_poisson(br, circ))
    return PoissonAlgebra.raw(br, circ)


def _matched_pair(af):
    from .matched import MatchedPairData
    if af.vdim is None:
        raise InputError("matched-pair files need both dim and vdim")
    s1, s2 = _get_pair(af, "star1", "star2")
    if s1.n != af.dim or s2.n != af.vdim:
        raise InputError("star1 must live on dim, star2 on vdim")
    fams = {name: _get_rep_family(af, name) for name in ("l1", "r1", "l2", "r2")}
    for name, fam in fams.items():
        count, size = (af.dim, af.vdim) if name.endswith("1") else (af.vdim, af.dim)
        if fam.num.shape[:2] != (count, size):
            raise InputError(f"rep {name} has the wrong shape "
                             f"(need {count} matrices of size {size}; "
                             f"declare l2/r2 with 'rep NAME vdim ei = ...')")
    _require(check_adm_poisson(s1), "star1")
    _require(check_adm_poisson(s2), "star2")
    return MatchedPairData(AdmPoissonAlgebra.raw(s1), AdmPoissonAlgebra.raw(s2),
                           *fams.values())


def _o_operator(af):
    """The O-operator candidate of the file, its algebra and action checked."""
    from .ooperators import OOperatorCandidate
    if af.vdim is None:
        raise InputError("o-operator files need both dim and vdim")
    alg = _adm(af)
    rep = _rep(af, alg, "rep")
    theta = _get_map(af, "theta")
    if theta.num.shape != (alg.n, rep.vdim):
        raise InputError("theta must be a dim x vdim matrix")
    return OOperatorCandidate(alg, rep, theta)


def _pre(af):
    from .ooperators import PreAdmPoisson, check_pre_adm_poisson
    pre = PreAdmPoisson.raw(*_get_pair(af, "succ", "prec"))
    _require(check_pre_adm_poisson(pre))
    return pre


def _as_input_error(check, *args, **kwargs):
    """check(*args, **kwargs), its ValueError an input error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise InputError(str(exc))


# ------------------------------------------------- predicates: their OK line

def _check_adm_poisson(af):
    n = _adm(af).n
    return f"OK adm-poisson (dim {n}, {n ** 3} triples checked)"


def _check_poisson(af):
    n = _poisson(af).n
    return f"OK poisson (dim {n}, {n ** 3} triples checked)"


def _check_rep(af):
    alg = _adm(af)
    rep = _rep(af, alg)
    return f"OK rep (dim {alg.n}, module dim {rep.vdim}, {alg.n * alg.n} pairs checked)"


def _check_matched_pair(af):
    from .matched import check_matched_pair
    mp = _matched_pair(af)
    _require(check_matched_pair(mp))
    return f"OK matched-pair (dims {mp.p1.n}+{mp.p2.n}, 6 identities checked)"


def _check_invariant_form(af):
    from .matched import BilinearForm, check_invariant_form
    alg = _adm(af)
    gram = _get_map(af, "form", "B")
    if gram.num.shape != (alg.n, alg.n):
        raise InputError("form matrix must be square of the algebra dimension")
    _require(check_invariant_form(alg, BilinearForm(gram, alg.p)))
    return f"OK invariant-form (dim {alg.n}, {alg.n ** 3} triples checked)"


def _check_bialgebra(af):
    from .bialgebras import check_adm_bialgebra
    alg = _adm(af)
    _require(check_adm_bialgebra(alg, _get_comul(af, "alpha")))
    return f"OK bialgebra (dim {alg.n})"


def _check_poisson_bialgebra(af):
    from .bialgebras import PoissonComultiplicationPair, check_poisson_bialgebra
    palg = _poisson(af)
    delta = _get_comul(af, "delta")
    Delta = _get_comul(af, "Delta")
    try:
        pair = PoissonComultiplicationPair(delta, Delta)
    except ValueError as exc:
        raise Failed(f"FAIL comultiplication-symmetry at (1): {exc}")
    _require(check_poisson_bialgebra(palg, pair))
    return f"OK poisson-bialgebra (dim {palg.n})"


def _check_ybe(name):
    def run(af):
        from .yangbaxter import check_ybe
        r = _get_tensor(af)
        alg = _adm(af) if name == "adm-pybe" else _poisson(af)
        _require(check_ybe(alg, _fitted(af, r, alg), name.replace("-", "_")))
        return f"OK {name} (dim {alg.n})"
    return run


def _check_on_r(name):
    """The check of condition `name` on the file's r: the operator or cyclic
    form, or a coboundary condition."""
    def run(af):
        from .yangbaxter import (check_coboundary_conditions, cyclic_form_check,
                                 operator_form_check)
        check = {"operator-form": operator_form_check, "cyclic-form": cyclic_form_check}.get(
            name, lambda a, r: check_coboundary_conditions(a, r, name))
        alg = _adm(af)
        _require(_as_input_error(check, alg, _fitted(af, _get_tensor(af), alg)))
        return f"OK {name} (dim {alg.n})"
    return run


def _check_o_operator(af):
    from .ooperators import check_o_operator
    cand = _o_operator(af)
    _require(check_o_operator(cand))
    return f"OK o-operator (dim {cand.alg.n}, module dim {cand.rep.vdim})"


def _check_rota_baxter(af):
    from .ooperators import check_rota_baxter
    alg = _adm(af)
    R = _get_map(af, "R", "theta")
    if R.num.shape != (alg.n, alg.n):
        raise InputError("Rota-Baxter map must be square of the algebra dimension")
    _require(check_rota_baxter(alg, R))
    return f"OK rota-baxter (dim {alg.n})"


def _check_pre_adm(af):
    n = _pre(af).n
    return f"OK pre-adm (dim {n}, {n ** 3} triples checked)"


def _check_pre_poisson(af):
    from .ooperators import PrePoisson, check_pre_poisson
    dot, ast = _get_pair(af, "dot", "ast")
    _require(check_pre_poisson(PrePoisson.raw(dot, ast)))
    return f"OK pre-poisson (dim {dot.n}, {dot.n ** 3} triples checked)"


PREDICATES = {
    "adm-poisson": _check_adm_poisson,
    "poisson": _check_poisson,
    "rep": _check_rep,
    "matched-pair": _check_matched_pair,
    "invariant-form": _check_invariant_form,
    "bialgebra": _check_bialgebra,
    "poisson-bialgebra": _check_poisson_bialgebra,
    **{name: _check_ybe(name) for name in ("adm-pybe", "cybe", "aybe", "pybe")},
    **{name: _check_on_r(name) for name in ("con1", "eqv1", "eqv2", "eqv3", "cosp", "cosp2")},
    "o-operator": _check_o_operator,
    "rota-baxter": _check_rota_baxter,
    "pre-adm": _check_pre_adm,
    "pre-poisson": _check_pre_poisson,
    "operator-form": _check_on_r("operator-form"),
    "cyclic-form": _check_on_r("cyclic-form"),
}


# -------------------------------------------------------------- constructions

def _build_polarize(af):
    br, circ = polarize(_get_op(af, "star"))
    return AlgebraFile(af.p, br.n, bracket=br, circ=circ)


def _build_depolarize(af):
    br, circ = _get_pair(af, "bracket", "circ")
    return AlgebraFile(af.p, br.n, star=depolarize(br, circ))


def _build_semidirect(af):
    from .representations import semidirect
    alg = _adm(af)
    rep = _rep(af, alg)
    big = semidirect(alg.star, rep.l, rep.r)
    return AlgebraFile(af.p, big.n, star=big)


def _build_bowtie(af):
    from .matched import bowtie, check_matched_pair
    mp = _matched_pair(af)
    _require(check_matched_pair(mp))
    big = bowtie(mp)
    return AlgebraFile(af.p, big.n, star=big)


def _build_manin_double(af):
    from .matched import manin_double
    from .bialgebras import dual_structure
    alg = _adm(af)
    dual = dual_structure(_get_comul(af, "alpha"))
    _require(check_adm_poisson(dual), "dual")
    double, report = manin_double(alg, AdmPoissonAlgebra.raw(dual))
    _require(report)
    return AlgebraFile(af.p, double.n, star=double.star)


def _build_coboundary_alpha(af):
    from .yangbaxter import coboundary_alpha
    alg = _adm(af)
    r = _fitted(af, _get_tensor(af), alg)
    return AlgebraFile(af.p, alg.n, star=alg.star, alpha=coboundary_alpha(alg, r))


def _build_split(af):
    from .bialgebras import split_comultiplication
    c = _get_comul(af, "alpha")
    pair = split_comultiplication(c)
    return AlgebraFile(af.p, c.n, delta=pair.delta, Delta=pair.Delta)


def _build_merge(af):
    from .bialgebras import PoissonComultiplicationPair, merge_comultiplication
    delta = _get_comul(af, "delta")
    pair = _as_input_error(PoissonComultiplicationPair, delta, _get_comul(af, "Delta"))
    return AlgebraFile(af.p, delta.n, alpha=merge_comultiplication(pair))


def _build_solution_from_o(af):
    from .ooperators import check_o_operator, solution_from_o_operator
    cand = _o_operator(af)
    _require(check_o_operator(cand))
    big, r = solution_from_o_operator(cand)
    return AlgebraFile(af.p, big.n, star=big.star, r=r)


def _build_induced_pre(af):
    from .ooperators import check_o_operator, induced_pre_from_o_operator
    cand = _o_operator(af)
    _require(check_o_operator(cand))
    pre = induced_pre_from_o_operator(cand)
    return AlgebraFile(af.p, pre.n, succ=pre.succ, prec=pre.prec)


def _build_subadjacent(af):
    from .ooperators import subadjacent
    pre = _pre(af)
    return AlgebraFile(af.p, pre.n, star=subadjacent(pre.succ, pre.prec))


def _build_canonical_solution(af):
    from .ooperators import canonical_solution
    big, r = canonical_solution(_pre(af))
    return AlgebraFile(af.p, big.n, star=big.star, r=r)


def _build_dual_rep(af):
    from .representations import dual_rep
    alg = _adm(af)
    d = dual_rep(_rep(af, alg))
    return AlgebraFile(af.p, alg.n, d.vdim, star=alg.star, l=d.l, r=d.r)


def _build_adjoint_rep(af):
    from .representations import adjoint_rep
    alg = _adm(af)
    rep = adjoint_rep(alg)
    return AlgebraFile(af.p, alg.n, alg.n, star=alg.star, l=rep.l, r=rep.r)


CONSTRUCTIONS = {
    "polarize": _build_polarize,
    "depolarize": _build_depolarize,
    "semidirect": _build_semidirect,
    "bowtie": _build_bowtie,
    "manin-double": _build_manin_double,
    "coboundary-alpha": _build_coboundary_alpha,
    "split": _build_split,
    "merge": _build_merge,
    "solution-from-o": _build_solution_from_o,
    "induced-pre": _build_induced_pre,
    "subadjacent": _build_subadjacent,
    "canonical-solution": _build_canonical_solution,
    "dual-rep": _build_dual_rep,
    "adjoint-rep": _build_adjoint_rep,
}


def _read(path):
    try:
        return read_file(path)
    except FormatError as exc:
        raise InputError(f"{path}: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _cmd_check(args):
    print(PREDICATES[args.predicate](_read(args.file)))
    return 0


def _cmd_build(args):
    af = CONSTRUCTIONS[args.construction](_read(args.file))
    if not args.out:
        sys.stdout.write(_as_input_error(print_file, af))
        return 0
    try:
        _as_input_error(write_file, args.out, af)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}")
    print(f"OK {args.construction} -> {args.out}")
    return 0


def _cmd_search(args):
    from . import search as searchmod
    _as_input_error(check_characteristic, args.field)
    algebra = rep = None
    if args.algebra:
        af = _read(args.algebra)
        if af.p != args.field:
            field = "rational" if af.p == 0 else f"gf {af.p}"
            raise InputError(f"{args.algebra}: field {field} does not match "
                             f"--field {args.field}")
        algebra = _get_op(af, "star")
        if args.target == "o_operator":
            rep = _action(af, algebra.n)
    spec = _as_input_error(searchmod.SearchSpec, args.target, args.dim, p=args.field,
                           count=args.count, seed=args.seed, nonzero_only=args.nonzero_only,
                           skew=args.skew, algebra=algebra, rep=rep)
    found, code = 0, 0
    try:
        for af in searchmod.search(spec):
            found += 1
            print(f"# instance {found}")
            sys.stdout.write(print_file(af))
            print()
    except ValueError as exc:
        raise InputError(str(exc))
    except searchmod.SearchShortfall as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    print(f"# total {found}")
    return code


# the keys of search.TARGETS, named here so that parsing imports no search code
SEARCH_TARGETS = ("adm_poisson", "poisson", "adm_pybe_solution", "pre_adm_poisson",
                  "o_operator")


# each command: its function, its help line, and its subparser's arguments
COMMANDS = {
    "check": (_cmd_check, "verify a predicate on a file", [
        ("predicate", dict(choices=sorted(PREDICATES))),
        ("file", {}),
    ]),
    "build": (_cmd_build, "derive a structure from a file", [
        ("construction", dict(choices=sorted(CONSTRUCTIONS))),
        ("file", {}),
        ("--out", dict(default=None)),
    ]),
    "search": (_cmd_search, "search for instances", [
        ("target", dict(choices=SEARCH_TARGETS)),
        ("--dim", dict(type=int, default=1)),
        ("--field", dict(type=int, default=5, help="prime characteristic (not 2 or 3)")),
        ("--count", dict(type=int, default=None)),
        ("--seed", dict(type=int, default=0)),
        ("--nonzero-only", dict(action="store_true")),
        ("--skew", dict(action="store_true")),
        ("--algebra", dict(default=None,
                           help="file fixing the algebra (tensor/operator targets)")),
    ]),
}


@functools.cache
def make_parser(command=None):
    """The parser of `command` alone, `admpoisson COMMAND`, built as argparse
    builds its subparser; or, when `command` names none (no arguments, -h,
    an unknown command), the top-level parser with all three subparsers.
    Each is built once per process and kept: parsing leaves a parser as it
    was, and its help is formatted at the terminal width of the moment."""
    if command in COMMANDS:
        return _add_arguments(argparse.ArgumentParser(prog=f"admpoisson {command}"), command)
    parser = argparse.ArgumentParser(
        prog="admpoisson",
        description="Verify and build admissible-Poisson structures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_line), name)
    return parser


def _add_arguments(parser, command):
    for flag, options in COMMANDS[command][2]:
        parser.add_argument(flag, **options)
    return parser


def _parse(argv):
    """(command, namespace) of argv; SystemExit on help and usage errors."""
    if argv and argv[0] in COMMANDS:
        args, extras = make_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return argv[0], args
    # no command, or arguments left over: the top-level parser reads argv,
    # and reports them as its own "unrecognized arguments"
    args = make_parser().parse_args(argv)
    return args.command, args


def run_command(argv):
    """Run one command; return its exit code.  A known command is read by
    its own parser; the top-level parser is used only when argv names no
    command, or to report an argument the command's parser left over.
    The parsers are kept (make_parser), so a command leaves no reference
    cycles for the cyclic collector.  Help and usage text is the exception:
    its help formatter points at its sections and they back at it, so that
    path collects the youngest generation, freeing them while they are few
    rather than in a full collection (about 10 ms) within a later command."""
    try:
        command, args = _parse(argv)
    except SystemExit as exc:
        gc.collect(0)
        return 2 if exc.code not in (0, None) else 0
    try:
        return COMMANDS[command][0](args)
    except Failed as exc:
        print(exc)
        return 1
    except (InputError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    """Run the command of sys.argv, flush its output and end the process at
    once: no output depends on the collection and module teardown of a
    normal interpreter exit, which os._exit skips.  A stdout closed by its
    reader (say `| head -1`) ends the command with exit code 1 and no
    traceback; any other exception escapes with its traceback, exit 1."""
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
