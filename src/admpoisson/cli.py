"""Command-line front end: check predicates, build constructions, search.

Exit codes: 0 = predicate holds / construction succeeded, 1 = predicate
fails (first witness printed), 2 = input or usage error, 3 = a sampled
search found fewer instances than --count asked for. Output is plain
text, one report per line; witness indices are printed 1-based to match
the file format's e1-style basis naming.
"""

import argparse
import sys

from .scalars import check_characteristic
from .tensors import ShapeError
from .algebras import (AdmPoissonAlgebra, PoissonAlgebra, check_adm_poisson,
                       check_poisson, polarize_raw, depolarize_raw)
from .representations import (Representation, check_representation,
                              adjoint_rep, dual_rep, semidirect_raw)
from .matched import (MatchedPairData, check_matched_pair, bowtie_raw,
                      BilinearForm, check_invariant_form, manin_double)
from .bialgebras import (dual_structure, check_adm_bialgebra,
                         PoissonComultiplicationPair, split_comultiplication,
                         merge_comultiplication, check_poisson_bialgebra)
from .yangbaxter import (check_ybe, coboundary_alpha, check_coboundary_conditions,
                         operator_form_check, cyclic_form_check)
from .ooperators import (OOperatorCandidate, check_o_operator,
                         check_rota_baxter, solution_from_o_operator,
                         PreAdmPoisson, check_pre_adm_poisson,
                         subadjacent_raw, PrePoisson, check_pre_poisson,
                         induced_pre_from_o_operator, canonical_solution)
from .fileformat import AlgebraFile, FormatError, parse_file, print_file
from . import search as searchmod


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _fmt_value(v):
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_value(x) for x in v) + "]"
    return str(v)


def _fmt_witness(report):
    name, idx, lhs, rhs = report.witness
    pos = "(" + ",".join(str(i + 1) for i in idx) + ")"
    return f"FAIL {name} at {pos}: lhs={_fmt_value(lhs)} rhs={_fmt_value(rhs)}"


def _failed(report):
    """Print the witness of a failing report; whether it failed."""
    if not report.holds:
        print(_fmt_witness(report))
    return not report.holds


def _emit(report, ok_line):
    if _failed(report):
        return 1
    print(ok_line)
    return 0


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


def _get_tensor(af, name="r"):
    return _lookup(af.tensors, "a tensor", (name,), True)


def _get_rep_family(af, *names):
    return _lookup(af.reps, "a representation family", names, False)


def _get_map(af, *names):
    return _lookup(af.maps, "a map", names, True)


def _get_comul(af, *names):
    return _lookup(af.comuls, "a comultiplication", names, len(names) == 1)


def _require_adm(af):
    star = _get_op(af, "star")
    return None if _failed(check_adm_poisson(star)) else AdmPoissonAlgebra.raw(star)


def _file_rep(af, alg):
    return Representation.raw(alg, _get_rep_family(af, "l", "L"),
                              _get_rep_family(af, "r", "R"))


def _poisson_algebra(af):
    """A (bracket, circ) pair, polarizing a single 'star' if necessary."""
    if "bracket" in af.ops or "circ" in af.ops:
        br = _get_op(af, "bracket")
        circ = _get_op(af, "circ")
    else:
        br, circ = polarize_raw(_get_op(af, "star"))
    return br, circ


def _require_poisson(af):
    br, circ = _poisson_algebra(af)
    return None if _failed(check_poisson(br, circ)) else PoissonAlgebra.raw(br, circ)


# ---------------------------------------------------------------- predicates

def _check_adm_poisson(af):
    star = _get_op(af, "star")
    n = star.n
    return _emit(check_adm_poisson(star),
                 f"OK adm-poisson (dim {n}, {n ** 3} triples checked)")


def _check_poisson(af):
    br, circ = _poisson_algebra(af)
    n = br.n
    return _emit(check_poisson(br, circ),
                 f"OK poisson (dim {n}, {n ** 3} triples checked)")


def _check_rep(af):
    alg = _require_adm(af)
    if alg is None:
        return 1
    rep = _file_rep(af, alg)
    n = alg.n
    return _emit(check_representation(rep),
                 f"OK rep (dim {n}, module dim {rep.vdim}, "
                 f"{n * n} pairs checked)")


def _matched_pair_data(af):
    if af.vdim is None:
        raise InputError("matched-pair files need both dim and vdim")
    s1 = _get_op(af, "star1")
    s2 = _get_op(af, "star2")
    if s1.n != af.dim or s2.n != af.vdim:
        raise InputError("star1 must live on dim, star2 on vdim")
    l1 = _get_rep_family(af, "l1")
    r1 = _get_rep_family(af, "r1")
    l2 = _get_rep_family(af, "l2")
    r2 = _get_rep_family(af, "r2")
    for name, fam, count, size in (("l1", l1, af.dim, af.vdim),
                                   ("r1", r1, af.dim, af.vdim),
                                   ("l2", l2, af.vdim, af.dim),
                                   ("r2", r2, af.vdim, af.dim)):
        if fam.num.shape[:2] != (count, size):
            raise InputError(f"rep {name} has the wrong shape "
                             f"(need {count} matrices of size {size}; "
                             f"declare l2/r2 with 'rep NAME vdim ei = ...')")
    p1 = AdmPoissonAlgebra.raw(s1)
    p2 = AdmPoissonAlgebra.raw(s2)
    for tag, m in (("star1", s1), ("star2", s2)):
        report = check_adm_poisson(m).tagged(tag)
        if not report.holds:
            return None, report
    return MatchedPairData(p1, p2, l1, r1, l2, r2), report


def _check_matched_pair(af):
    mp, report = _matched_pair_data(af)
    if _failed(report):
        return 1
    return _emit(check_matched_pair(mp),
                 f"OK matched-pair (dims {mp.p1.n}+{mp.p2.n}, "
                 f"6 identities checked)")


def _check_invariant_form(af):
    alg = _require_adm(af)
    if alg is None:
        return 1
    gram = _get_map(af, "form", "B")
    if gram.num.shape != (alg.n, alg.n):
        raise InputError("form matrix must be square of the algebra dimension")
    form = BilinearForm(gram, alg.p)
    return _emit(check_invariant_form(alg, form),
                 f"OK invariant-form (dim {alg.n}, "
                 f"{alg.n ** 3} triples checked)")


def _check_bialgebra(af):
    alg = _require_adm(af)
    if alg is None:
        return 1
    c = _get_comul(af, "alpha")
    return _emit(check_adm_bialgebra(alg, c),
                 f"OK bialgebra (dim {alg.n})")


def _check_poisson_bialgebra(af):
    palg = _require_poisson(af)
    if palg is None:
        return 1
    delta = _get_comul(af, "delta")
    Delta = _get_comul(af, "Delta")
    try:
        pair = PoissonComultiplicationPair(delta, Delta)
    except ValueError as exc:
        print(f"FAIL comultiplication-symmetry at (1): {exc}")
        return 1
    return _emit(check_poisson_bialgebra(palg, pair),
                 f"OK poisson-bialgebra (dim {palg.n})")


def _check_ybe_kind(kind):
    def run(af):
        r = _get_tensor(af)
        if kind == "adm_pybe":
            alg = _require_adm(af)
            if alg is None:
                return 1
            return _emit(check_ybe(alg, r, kind),
                         f"OK adm-pybe (dim {alg.n})")
        palg = _require_poisson(af)
        if palg is None:
            return 1
        return _emit(check_ybe(palg, r, kind), f"OK {kind} (dim {palg.n})")
    return run


def _check_coboundary(which):
    def run(af):
        alg = _require_adm(af)
        if alg is None:
            return 1
        r = _get_tensor(af)
        return _emit(check_coboundary_conditions(alg, r, which),
                     f"OK {which} (dim {alg.n})")
    return run


def _o_operator_candidate(af):
    if af.vdim is None:
        raise InputError("o-operator files need both dim and vdim")
    star = _get_op(af, "star")
    report = check_adm_poisson(star)
    if not report.holds:
        return None, report
    alg = AdmPoissonAlgebra.raw(star)
    rep = _file_rep(af, alg)
    report = check_representation(rep).tagged("rep")
    if not report.holds:
        return None, report
    theta = _get_map(af, "theta")
    if theta.num.shape != (alg.n, rep.vdim):
        raise InputError("theta must be a dim x vdim matrix")
    return OOperatorCandidate(alg, rep, theta), report


def _check_o_operator(af):
    cand, report = _o_operator_candidate(af)
    if _failed(report):
        return 1
    return _emit(check_o_operator(cand),
                 f"OK o-operator (dim {cand.alg.n}, module dim "
                 f"{cand.rep.vdim})")


def _check_rota_baxter(af):
    alg = _require_adm(af)
    if alg is None:
        return 1
    R = _get_map(af, "R", "theta")
    if R.num.shape != (alg.n, alg.n):
        raise InputError("Rota-Baxter map must be square of the algebra dimension")
    return _emit(check_rota_baxter(alg, R),
                 f"OK rota-baxter (dim {alg.n})")


def _check_pre_adm(af):
    succ = _get_op(af, "succ")
    prec = _get_op(af, "prec")
    pre = PreAdmPoisson.raw(succ, prec)
    return _emit(check_pre_adm_poisson(pre),
                 f"OK pre-adm (dim {succ.n}, {succ.n ** 3} triples checked)")


def _check_pre_poisson(af):
    dot = _get_op(af, "dot")
    ast = _get_op(af, "ast")
    q = PrePoisson.raw(dot, ast)
    return _emit(check_pre_poisson(q),
                 f"OK pre-poisson (dim {dot.n}, {dot.n ** 3} triples checked)")


def _check_operator_form(af):
    alg = _require_adm(af)
    if alg is None:
        return 1
    r = _get_tensor(af)
    try:
        report = operator_form_check(alg, r)
    except ValueError as exc:
        raise InputError(str(exc))
    return _emit(report, f"OK operator-form (dim {alg.n})")


def _check_cyclic_form(af):
    alg = _require_adm(af)
    if alg is None:
        return 1
    r = _get_tensor(af)
    try:
        report = cyclic_form_check(alg, r)
    except ValueError as exc:
        raise InputError(str(exc))
    return _emit(report, f"OK cyclic-form (dim {alg.n})")


PREDICATES = {
    "adm-poisson": _check_adm_poisson,
    "poisson": _check_poisson,
    "rep": _check_rep,
    "matched-pair": _check_matched_pair,
    "invariant-form": _check_invariant_form,
    "bialgebra": _check_bialgebra,
    "poisson-bialgebra": _check_poisson_bialgebra,
    "adm-pybe": _check_ybe_kind("adm_pybe"),
    "cybe": _check_ybe_kind("cybe"),
    "aybe": _check_ybe_kind("aybe"),
    "pybe": _check_ybe_kind("pybe"),
    "con1": _check_coboundary("con1"),
    "eqv1": _check_coboundary("eqv1"),
    "eqv2": _check_coboundary("eqv2"),
    "eqv3": _check_coboundary("eqv3"),
    "cosp": _check_coboundary("cosp"),
    "cosp2": _check_coboundary("cosp2"),
    "o-operator": _check_o_operator,
    "rota-baxter": _check_rota_baxter,
    "pre-adm": _check_pre_adm,
    "pre-poisson": _check_pre_poisson,
    "operator-form": _check_operator_form,
    "cyclic-form": _check_cyclic_form,
}


# -------------------------------------------------------------- constructions

def _build_polarize(af):
    br, circ = polarize_raw(_get_op(af, "star"))
    return AlgebraFile(af.p, br.n, bracket=br, circ=circ)


def _build_depolarize(af):
    br, circ = _get_op(af, "bracket"), _get_op(af, "circ")
    return AlgebraFile(af.p, br.n, star=depolarize_raw(br, circ))


def _build_semidirect(af):
    alg = _require_adm(af)
    if alg is None:
        return None
    rep = _file_rep(af, alg)
    if _failed(check_representation(rep)):
        return None
    big = semidirect_raw(alg.star, rep.l, rep.r)
    return AlgebraFile(af.p, big.n, star=big)


def _build_bowtie(af):
    mp, report = _matched_pair_data(af)
    if _failed(report) or _failed(check_matched_pair(mp)):
        return None
    big = bowtie_raw(mp)
    return AlgebraFile(af.p, big.n, star=big)


def _build_manin_double(af):
    alg = _require_adm(af)
    if alg is None:
        return None
    c = _get_comul(af, "alpha")
    dual = dual_structure(c)
    if _failed(check_adm_poisson(dual).tagged("dual")):
        return None
    double, report = manin_double(alg, AdmPoissonAlgebra.raw(dual))
    if _failed(report):
        return None
    return AlgebraFile(af.p, double.n, star=double.star)


def _build_coboundary_alpha(af):
    alg = _require_adm(af)
    if alg is None:
        return None
    r = _get_tensor(af)
    return AlgebraFile(af.p, alg.n, star=alg.star, alpha=coboundary_alpha(alg, r))


def _build_split(af):
    c = _get_comul(af, "alpha")
    pair = split_comultiplication(c)
    return AlgebraFile(af.p, c.n, delta=pair.delta, Delta=pair.Delta)


def _build_merge(af):
    delta = _get_comul(af, "delta")
    Delta = _get_comul(af, "Delta")
    try:
        pair = PoissonComultiplicationPair(delta, Delta)
    except ValueError as exc:
        raise InputError(str(exc))
    return AlgebraFile(af.p, delta.n, alpha=merge_comultiplication(pair))


def _build_solution_from_o(af):
    cand, report = _o_operator_candidate(af)
    if _failed(report) or _failed(check_o_operator(cand)):
        return None
    big, r = solution_from_o_operator(cand)
    return AlgebraFile(af.p, big.n, star=big.star, r=r)


def _build_induced_pre(af):
    cand, report = _o_operator_candidate(af)
    if _failed(report) or _failed(check_o_operator(cand)):
        return None
    pre = induced_pre_from_o_operator(cand)
    return AlgebraFile(af.p, pre.n, succ=pre.succ, prec=pre.prec)


def _pre_structure(af):
    succ = _get_op(af, "succ")
    prec = _get_op(af, "prec")
    pre = PreAdmPoisson.raw(succ, prec)
    return None if _failed(check_pre_adm_poisson(pre)) else pre


def _build_subadjacent(af):
    pre = _pre_structure(af)
    if pre is None:
        return None
    return AlgebraFile(af.p, pre.n, star=subadjacent_raw(pre.succ, pre.prec))


def _build_canonical_solution(af):
    pre = _pre_structure(af)
    if pre is None:
        return None
    big, r = canonical_solution(pre)
    return AlgebraFile(af.p, big.n, star=big.star, r=r)


def _build_dual_rep(af):
    alg = _require_adm(af)
    if alg is None:
        return None
    rep = _file_rep(af, alg)
    if _failed(check_representation(rep)):
        return None
    d = dual_rep(rep, check=False)
    return AlgebraFile(af.p, alg.n, rep.vdim, star=alg.star, l=d.l, r=d.r)


def _build_adjoint_rep(af):
    alg = _require_adm(af)
    if alg is None:
        return None
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
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        return parse_file(text)
    except FormatError as exc:
        raise InputError(f"{path}: {exc}")


def _cmd_check(args):
    af = _read(args.file)
    return PREDICATES[args.predicate](af)


def _cmd_build(args):
    af = _read(args.file)
    out = CONSTRUCTIONS[args.construction](af)
    if out is None:
        return 1
    text = print_file(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"OK {args.construction} -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_search(args):
    try:
        check_characteristic(args.field)
    except ValueError as exc:
        raise InputError(str(exc))
    algebra = None
    rep = None
    if args.algebra:
        af = _read(args.algebra)
        if af.p != args.field:
            field = "rational" if af.p == 0 else f"gf {af.p}"
            raise InputError(f"{args.algebra}: field {field} does not match "
                             f"--field {args.field}")
        algebra = _get_op(af, "star")
        if args.target == "o_operator":
            rep = (_get_rep_family(af, "l", "L"),
                   _get_rep_family(af, "r", "R"))
    try:
        spec = searchmod.SearchSpec(
            args.target, args.dim, p=args.field, count=args.count,
            seed=args.seed, nonzero_only=args.nonzero_only,
            skew=args.skew, algebra=algebra, rep=rep)
    except ValueError as exc:
        raise InputError(str(exc))
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


def make_parser():
    parser = argparse.ArgumentParser(
        prog="admpoisson",
        description="Verify and build admissible-Poisson structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify a predicate on a file")
    p_check.add_argument("predicate", choices=sorted(PREDICATES))
    p_check.add_argument("file")

    p_build = sub.add_parser("build", help="derive a structure from a file")
    p_build.add_argument("construction", choices=sorted(CONSTRUCTIONS))
    p_build.add_argument("file")
    p_build.add_argument("--out", default=None)

    p_search = sub.add_parser("search", help="search for instances")
    p_search.add_argument("target", choices=searchmod.SearchSpec.TARGETS)
    p_search.add_argument("--dim", type=int, default=1)
    p_search.add_argument("--field", type=int, default=5,
                          help="prime characteristic (not 2 or 3)")
    p_search.add_argument("--count", type=int, default=None)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--nonzero-only", action="store_true")
    p_search.add_argument("--skew", action="store_true")
    p_search.add_argument("--algebra", default=None,
                          help="file fixing the algebra (tensor/operator targets)")
    return parser


def run_command(argv):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "build":
            return _cmd_build(args)
        return _cmd_search(args)
    except (InputError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
