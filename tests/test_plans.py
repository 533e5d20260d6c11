"""Contraction plans and flat-monomial kernels evaluate each table as its
terms do.

`tensors.contract` evaluates a Terms table by its plan: the distinct
contractions of its terms, each evaluated once on operands laid out for
einsum, and each term a coefficient times a transpose of one of them.  Every
module-level table, and the residual and lhs of every Identity, is compared
with oracles.contract_by_terms (one einsum a term, as written) in every
integer evaluation type and object, over Q, GF(5) and GF(2^31 - 1), unbatched
and batch-last with one operand broadcast.  The einsum counts of the tables
are stated here, and a plan is compiled on first use, never on import.

At dims 1-3 `check_identities` and `evaluate` run the tables' kernels
(`tensors._Kernel`): each table, and some of mixed degree, is compared with
the oracle on Python ints at the largest entries each integer type is
chosen for, over Q, GF(5) and GF(10007); every check reports as the plans
do on perturbed structures; the kernels of all tables take at most 1 MB;
and a shape mismatch is raised on every call.
"""

import ast
import copy
import importlib
import json
import os
import random
import subprocess
from fractions import Fraction
import sys
from pathlib import Path

import numpy as np
import pytest

import admpoisson
from admpoisson import tensors
from admpoisson.tensors import (Exact, Identity, ShapeError, Terms, _overflow_bound,
                                check_identities, contract)
from admpoisson.algebras import ADM_POISSON, POISSON
from admpoisson.bialgebras import COALGEBRA, DEFBI, POISSON_BIALGEBRA
from admpoisson.matched import MATCH_1_3
from admpoisson.ooperators import PRE_ADM_POISSON, PRE_POISSON
from admpoisson.representations import REPRESENTATION
from oracles import contract_by_terms

SRC = str(Path(admpoisson.__file__).resolve().parent.parent)
DTYPES = [np.int8, np.int16, np.int32, np.int64, object]
FIELDS = [0, 5, 2 ** 31 - 1]


def _walk(value):
    """The Identity and Terms tables a module-level value is or holds."""
    if isinstance(value, (Identity, Terms)):
        yield value
    elif isinstance(value, (tuple, list, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _walk(v)


def module_tables():
    """(module.NAME, table) for each table reached from a name assigned at
    module level in the package; a table reached twice is listed twice."""
    found = []
    for path in sorted(Path(admpoisson.__file__).parent.glob("*.py")):
        mod = importlib.import_module(f"admpoisson.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            for target in node.targets if isinstance(node, ast.Assign) else []:
                names = ([e.id for e in target.elts] if isinstance(target, ast.Tuple)
                         else [target.id] if isinstance(target, ast.Name) else [])
                found += [(f"{path.stem}.{name}", table) for name in names
                          for table in _walk(getattr(mod, name))]
    return found


def module_sides():
    """Each module-level Terms, and the residual and lhs of each Identity."""
    return [(f"{name}:{side}", getattr(table, side)) if isinstance(table, Identity)
            else (name, table)
            for name, table in module_tables()
            for side in (("residual", "lhs") if isinstance(table, Identity) else (None,))]


SIDES = module_sides()


def operands(terms, rng, dtype, p, batch, n=None):
    """Random operands of `terms` in `dtype` whose entries keep every partial
    sum within the dtype, as cast_operands would have them, or None when
    none fit.  Joined axes have one size (2 or 3 in turn, or n); with a
    batch of 3, the first operand is broadcast (a last axis of 1) when there
    are two or more."""
    sizes = {}
    for g, group in enumerate(terms.joined):
        sizes.update((axis, n or (2, 3)[g % 2]) for axis in group)
    top = p - 1 if p else 2 ** 40
    if dtype is not object:
        limit = int(np.iinfo(dtype).max)
        fits = [m for m in (top, 9, 3, 1) if m <= top and
                _overflow_bound(terms, m, max(sizes.values()), p) <= limit]
        if not fits:
            return None
        top = fits[0]
    names = sorted(terms.ranks)
    arrays = {}
    for k, name in enumerate(names):
        shape = tuple(sizes[name, axis] for axis in range(terms.ranks[name]))
        if batch:
            shape += (1 if k == 0 and len(names) > 1 else batch,)
        low = 0 if p else -top
        values = [rng.randint(low, top) for _ in range(int(np.prod(shape)))]
        arrays[name] = np.array(values, dtype=object).reshape(shape).astype(dtype)
    return arrays


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda t: getattr(t, "__name__", "object"))
def test_each_plan_equals_the_term_by_term_sum(dtype, p):
    rng = random.Random(21000 + p % 1000 + DTYPES.index(dtype))
    compared = 0
    for name, terms in SIDES:
        for batch in (None, 3):
            arrays = operands(terms, rng, dtype, p, batch)
            if arrays is None:
                continue
            got, want = contract(terms, arrays, p), contract_by_terms(terms, arrays, p)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert (got == want).all(), (name, batch)
            compared += 1
    # GF(2^31 - 1) fits only int64 and object; narrower types fit small tables
    assert compared >= (2 * len(SIDES) if dtype in (np.int64, object) else
                        0 if p == 2 ** 31 - 1 else 4)


def swapped(terms):
    """A copy of `terms` whose plan adds its first term with the first two
    axes of that term's transpose swapped."""
    plan = [(*contraction, list(steps)) for *contraction, steps in terms.plan]
    k, axes = plan[0][-1][0]
    axes = list(axes or range(len(terms.out)))
    axes[:2] = axes[1::-1]
    plan[0][-1][0] = (k, tuple(axes))
    mutant = copy.copy(terms)
    mutant._plan = plan
    return mutant


@pytest.mark.parametrize("name, terms", [s for s in SIDES if len(s[1].out) > 1],
                         ids=lambda v: v if isinstance(v, str) else "")
def test_a_plan_with_one_transpose_swapped_fails_the_comparison(name, terms):
    arrays = operands(terms, random.Random(21100), np.int64, 10007, None, n=3)
    want = contract_by_terms(terms, arrays, 10007)
    assert (contract(terms, arrays, 10007) == want).all()
    assert not (contract(swapped(terms), arrays, 10007) == want).all()


def test_einsum_counts_are_stated_in_advance(monkeypatch):
    """The einsum calls of one evaluation by the plan, and term by term (as
    before plans)."""
    calls, real = [], np.einsum
    monkeypatch.setattr(tensors.np, "einsum", lambda *a, **k: calls.append(a[0]) or real(*a, **k))

    def count(terms, evaluate):
        arrays = operands(terms, random.Random(21200), np.int64, 5, None)
        before = len(calls)
        evaluate(terms, arrays, 5)
        return len(calls) - before

    antisymmetry, jacobi, symmetry = (POISSON[g][0] for g in range(3))
    stated = {ADM_POISSON: (2, 6), jacobi: (1, 3), antisymmetry: (1, 2), symmetry: (1, 2),
              COALGEBRA: (2, 6), **{ident: (4, 6) for ident in REPRESENTATION[0]}}
    for ident, counts in stated.items():
        assert tuple(count(ident.residual, evaluate)
                     for evaluate in (contract, contract_by_terms)) == counts, ident.name
    sides = [t.residual if isinstance(t, Identity) else t for _, t in module_tables()]
    assert [sum(count(t, evaluate) for t in sides)
            for evaluate in (contract, contract_by_terms)] == [193, 274]
    # each table object once (YBE_OPERATORS["A"] is YBE_OPERATORS["P"])
    distinct = list({id(t): t for t in sides}.values())
    assert [sum(count(t, evaluate) for t in distinct)
            for evaluate in (contract, contract_by_terms)] == [190, 271]


IMPORT_SCRIPT = """\
import gc, importlib, json, pkgutil
import admpoisson
from admpoisson.tensors import Terms
for mod in pkgutil.iter_modules(admpoisson.__path__):
    importlib.import_module(f"admpoisson.{mod.name}")
from admpoisson import tensors
terms = [t for t in gc.get_objects() if isinstance(t, Terms)]
print(json.dumps([len(terms), sum(t._plan is not None for t in terms) + len(tensors._KERNELS)]))
"""


def test_importing_every_table_compiles_no_plan():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], capture_output=True,
                          text=True, check=True, env=env)
    tables, compiled = json.loads(proc.stdout)
    assert tables >= len({id(terms) for _, terms in SIDES}) and compiled == 0
    terms = Terms("a:ijs b:skl + a:kjs b:sil", "ijkl")
    assert terms._plan is None
    assert len(terms.plan) == 1 and terms._plan is terms.plan


# ---------------------------------------------------------------------------
# flat-monomial kernels (dims 1-3)

KERNEL_FIELDS = [0, 5, 10007]
INT_DTYPES = [np.int8, np.int16, np.int32, np.int64]
# degrees 1 to 4 in one table, a letter repeated within a factor, a
# coefficient cleared by den
MIXED = [Terms("a:ijs b:skl + 2 a:ijl c:k - c:i c:j c:k c:l", "ijkl"),
         Terms("a:iis b:sjk - 1/2 a:jik + b:kji c:i", "ijk", den=2)]
TABLES = list({id(terms): terms for _, terms in SIDES}.values())
DISTINCT = TABLES + MIXED


def shapes_at(terms, n):
    return {name: (n,) * rank for name, rank in terms.ranks.items()}


def limit_of(terms, n, p, dtype):
    """The largest maxabs (at most p - 1 over GF(p)) at which `terms` is
    evaluated in `dtype` at dim n, or None when it is evaluated in a
    narrower type or wider even at 1."""
    top, lo, hi = np.iinfo(dtype).max, 0, p - 1 if p else 2 ** 62
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if _overflow_bound(terms, mid, n, p) <= top else (lo, mid - 1)
    return lo if lo and tensors._narrowest(_overflow_bound(terms, lo, n, p)) is dtype else None


@pytest.mark.parametrize("p", KERNEL_FIELDS)
@pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda t: t.__name__)
def test_each_kernel_equals_the_term_by_term_sum_at_its_type_limit(dtype, p):
    """Each table's kernel at dims 1-3, on entries at the largest maxabs
    its type is chosen for (all of them at it, and random ones up to it),
    equals the term-by-term sum on Python ints."""
    rng = random.Random(26000 + p % 1000 + INT_DTYPES.index(dtype))
    compared = 0
    for terms in DISTINCT:
        for n in (1, 2, 3):
            m = limit_of(terms, n, p, dtype)
            if m is None:
                continue
            shapes = shapes_at(terms, n)
            kernel = tensors._Kernel([terms], shapes)
            low = 0 if p else -m
            for draw in (lambda: m, lambda: rng.randint(low, m)):
                arrays = {name: np.array([draw() for _ in range(int(np.prod(shape)))],
                                         dtype=np.int64 if m < 2 ** 31 else object
                                         ).reshape(shape) for name, shape in shapes.items()}
                (got,) = kernel(arrays, m, p)
                want = contract_by_terms(terms, {k: a.astype(object)
                                                 for k, a in arrays.items()}, p)
                assert got.shape == want.shape and (got.astype(object) == want).all(), \
                    (terms.terms, n)
                compared += 1
    # entries stay below p: GF(5) reaches no type past int16, GF(10007) no int8
    unreached = (dtype, p) in {(np.int8, 10007), (np.int32, 5), (np.int64, 5)}
    assert compared == 6 * len(DISTINCT) if p == 0 else (compared > 0) != unreached


def perturbed(ranks, n, p, rng):
    """Operands at dim n: random entries (fractions over Q), zero but for
    one entry, and zero."""
    def entry():
        return rng.randrange(p) if p else Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    kinds = []
    for fill in ("dense", "one", "zero"):
        ops = {name: np.zeros((n,) * rank, dtype=object) for name, rank in ranks.items()}
        for name, a in ops.items():
            if fill == "dense":
                a.flat[:] = [entry() for _ in range(a.size)]
        if fill == "one":
            name = rng.choice(sorted(ops))
            ops[name].flat[rng.randrange(ops[name].size)] = entry() or 1
        kinds.append({name: a.tolist() for name, a in ops.items()})
    return kinds


GROUPS = [((t,),) for _, t in module_tables() if isinstance(t, Identity)] + [
    POISSON, REPRESENTATION, PRE_ADM_POISSON, PRE_POISSON, (DEFBI,), (POISSON_BIALGEBRA,),
    MATCH_1_3]


@pytest.mark.parametrize("p", KERNEL_FIELDS)
def test_kernel_checks_report_as_the_plans_do(monkeypatch, p):
    """check_identities at dims 1-3 gives the reports of the einsum plans:
    verdict, identity name, index, lhs and rhs."""
    rng = random.Random(26100 + p % 1000)
    cases = []
    for groups in GROUPS:
        ranks = {name: rank for group in groups for ident in group
                 for name, rank in ident.residual.ranks.items()}
        for n in (1, 2, 3):
            cases += [(groups, ops) for ops in perturbed(ranks, n, p, rng)]
    by_kernel = [check_identities(groups, ops, p) for groups, ops in cases]
    assert len(tensors._KERNELS) > 0
    monkeypatch.setattr(tensors, "_KERNELS", {})
    monkeypatch.setattr(tensors, "_Kernel", lambda sides, shapes: None)
    by_plan = [check_identities(groups, ops, p) for groups, ops in cases]
    for got, want in zip(by_kernel, by_plan):
        assert (got.holds, got.witness) == (want.holds, want.witness)
    assert sum(not r.holds for r in by_plan) > len(cases) / 4
    assert sum(r.holds for r in by_plan) > len(cases) / 4


def test_the_kernels_of_every_table_at_dims_1_to_3_take_at_most_1_mb():
    total = 0
    for terms in TABLES:
        for n in (1, 2, 3):
            kernel = tensors._Kernel([terms], shapes_at(terms, n))
            total += kernel.coefs.nbytes + kernel.factors.nbytes + kernel.starts.nbytes
    assert total <= 2 ** 20


def test_a_shape_mismatch_raises_on_every_call_and_compiles_nothing():
    c = Exact(np.zeros((2, 3, 2), dtype=np.int64), 1, 5)
    star = Exact(np.zeros((2, 2, 2), dtype=np.int64), 1, 5)
    act = Exact(np.zeros((2, 3, 2), dtype=np.int64), 1, 5)
    before = dict(tensors._KERNELS)
    for _ in range(3):
        with pytest.raises(ShapeError):
            check_identities(((ADM_POISSON,),), {"c": c}, 5)
        with pytest.raises(ShapeError):
            check_identities(REPRESENTATION, {"c": star, "l": act, "r": act}, 5)
    assert tensors._KERNELS == before
