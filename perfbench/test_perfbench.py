"""Tests of the benchmark itself: generator determinism, the answer checks
catching wrong verdicts, witnesses, builds and search totals, and the
tracer's self-time arithmetic.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import oracle
import refclock
import tracer
import verify

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


# ---------------------------------------------------------------- generator

def _texts(cases):
    return [(c.kind, c.name, c.text, None if c.expect is None else sorted(c.expect))
            for c in cases]


@pytest.mark.parametrize("make", [gen.cli_small_cases, gen.check_large_cases])
def test_cases_are_deterministic_per_seed(make):
    assert _texts(make(3)) == _texts(make(3))
    assert _texts(make(3)) != _texts(make(4))


def test_search_requests_are_deterministic_per_seed():
    def flat(reqs):
        return [(r.args, {k: oracle.write_doc(d) for k, d in r.files.items()}) for r in reqs]
    assert flat(gen.search_requests(3)) == flat(gen.search_requests(3))
    assert flat(gen.search_requests(3)) != flat(gen.search_requests(4))


def test_first_hit_requests_build_the_catalog():
    """search's first_hit_ms is taken over these."""
    catalog = [r for r in gen.search_requests(1) if r.catalog]
    assert len(catalog) == 3
    assert all(r.target == "adm_poisson" and r.opt("--dim") == "2" and r.opt("--field") == "5"
               for r in catalog)


def test_cli_small_covers_every_predicate_and_construction():
    cases = gen.cli_small_cases(1)
    checks = [c for c in cases if c.kind == "check"]
    assert {c.name for c in checks} == set(gen.PREDICATES)
    assert {c.name for c in cases if c.kind == "build"} == set(gen.CONSTRUCTIONS)
    assert sum(not c.valid for c in checks) * 2 == len(checks)
    assert {c.doc.f.p for c in cases} == set(gen.SMALL_FIELDS)
    assert {c.doc.dim for c in cases} == {1, 2, 3}


def test_valid_inputs_satisfy_their_identities():
    """The constructions the generator relies on, checked by the oracle on
    every basis triple."""
    for case in gen.check_large_cases(2) + gen.cli_small_cases(2):
        d = case.doc
        if case.valid and "star" in d.ops:
            assert d.f.is_zero(oracle.adm_tensor(d.f, d.ops["star"])), case.name


def test_text_round_trip():
    for case in gen.cli_small_cases(5)[:60]:
        again = oracle.read_doc(case.text)
        assert oracle.write_doc(again) == case.text


# ---------------------------------------------------------------- checker

def _first_witness(case):
    """The first basis triple at which the adm identity fails."""
    f, c = case.doc.f, case.doc.ops["star"]
    T = oracle.adm_tensor(f, c)
    n = c.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not f.is_zero(T[i, j, k]):
                    return i, j, k
    raise AssertionError("no witness")


def _adm_cases(valid):
    return [c for c in gen.cli_small_cases(1)
            if c.kind == "check" and c.name == "adm-poisson" and c.valid == valid]


def test_checker_accepts_correct_answers():
    good = _adm_cases(True)[0]
    n = good.doc.dim
    assert verify.check_verdict(good, 0, f"OK adm-poisson (dim {n}, {n ** 3} triples checked)\n")[0]
    bad = _adm_cases(False)[0]
    i, j, k = _first_witness(bad)
    line = f"FAIL adm-poisson at ({i + 1},{j + 1},{k + 1}): lhs=[0] rhs=[1]\n"
    assert verify.check_verdict(bad, 1, line)[0]


def test_checker_flags_wrong_verdicts():
    good, bad = _adm_cases(True)[0], _adm_cases(False)[0]
    assert not verify.check_verdict(good, 1, "FAIL adm-poisson at (1,1,1): lhs=[0] rhs=[1]\n")[0]
    assert not verify.check_verdict(bad, 0, "OK adm-poisson (dim 2, 8 triples checked)\n")[0]
    assert not verify.check_verdict(bad, 2, "")[0]


def test_checker_flags_a_wrong_witness():
    bad = _adm_cases(False)[0]
    f, c = bad.doc.f, bad.doc.ops["star"]
    T = oracle.adm_tensor(f, c)
    n = c.shape[0]
    zero = next((i, j, k) for i in range(n) for j in range(n) for k in range(n)
                if f.is_zero(T[i, j, k]))
    line = "FAIL adm-poisson at ({},{},{}): lhs=[0] rhs=[1]\n".format(*(x + 1 for x in zero))
    assert not verify.check_verdict(bad, 1, line)[0]
    i, j, k = _first_witness(bad)
    assert not verify.check_verdict(
        bad, 1, f"FAIL jacobi at ({i + 1},{j + 1},{k + 1}): lhs=[0] rhs=[1]\n")[0]
    for out_of_range in ((i, j, 0), (i + 1, j + 1, n + 1)):
        line = "FAIL adm-poisson at ({},{},{}): lhs=[0] rhs=[1]\n".format(*out_of_range)
        assert not verify.check_verdict(bad, 1, line)[0]


def test_checker_flags_a_wrong_build():
    case = next(c for c in gen.cli_small_cases(1)
                if c.kind == "build" and c.name == "polarize" and c.doc.dim == 2)
    f, c = case.doc.f, case.doc.ops["star"]
    ct = np.transpose(c, (1, 0, 2))
    out = oracle.Doc(f.p, 2)
    out.ops["bracket"] = f.red(f.half * (c - ct))
    out.ops["circ"] = f.red(f.half * (c + ct))
    rng = oracle.rng_for("test")
    assert verify.check_build(case, 0, oracle.write_doc(out), rng)[0]
    out.ops["circ"] = gen._perturb(f, out.ops["circ"], rng)
    assert not verify.check_build(case, 0, oracle.write_doc(out), rng)[0]


def test_checker_flags_a_wrong_search_total():
    req = next(r for r in gen.search_requests(1) if r.args[0] == "poisson")
    f = oracle.Field(5)
    zero = oracle.Doc(5, 1)
    zero.ops["bracket"], zero.ops["circ"] = f.zeros(1, 1, 1), f.zeros(1, 1, 1)
    text = "# instance 1\n" + oracle.write_doc(zero) + "\n# total 1\n"
    ok, _hits, why = verify.check_search(req, 0, text, 5)
    assert not ok and "brute force" in why
    bogus = oracle.Doc(5, 1)
    bogus.ops["bracket"], bogus.ops["circ"] = f.zeros(1, 1, 1), f.zeros(1, 1, 1)
    bogus.ops["bracket"][0, 0, 0] = 1          # not antisymmetric
    text = "# instance 1\n" + oracle.write_doc(bogus) + "\n# total 1\n"
    assert not verify.check_search(req, 0, text, 5)[0]


# ---------------------------------------------------------------- reference clock

def test_reference_factor_uses_calibrations_around_the_interval():
    clock = refclock.RefClock()
    # calibrations at t = 0, 0.5, ..., 9.5; the host runs at half speed
    # from t = 5 on, with one interrupted calibration at t = 6
    clock.starts = [0.5 * i for i in range(20)]
    clock.times = [refclock.REF_S * (1 if t < 5 else 2) for t in clock.starts]
    clock.times[12] = refclock.REF_S * 50
    assert clock.factor(1.2, 1.4) == pytest.approx(1.0)
    assert clock.factor(7.1, 7.3) == pytest.approx(0.5)
    assert clock.factor(5.7, 6.2) == pytest.approx(0.5)     # the outlier is outvoted
    # far from any calibration, the nearest one on each side still counts
    clock.starts, clock.times = [0.0, 30.0], [refclock.REF_S, refclock.REF_S * 3]
    assert clock.factor(10.0, 11.0) == pytest.approx(0.5)


def test_tick_calibrates_only_when_the_last_calibration_is_old():
    clock = refclock.RefClock()
    clock.tick()
    clock.tick()        # well within CAL_EVERY of the first
    assert len(clock.times) == 1 and clock.times[0] > 0
    clock.starts[0] -= refclock.CAL_EVERY
    clock.tick()
    assert len(clock.times) == 2


# ---------------------------------------------------------------- tracer

def test_self_times_on_a_synthetic_tree():
    # (id, parent, layer, name, t0, t1, counted_s)
    spans = [
        (0, None, "cli", "run", 0.0, 10.0, 1.0),
        (1, 0, "algebras", "a", 1.0, 4.0, 0.5),
        (2, 0, "algebras", "b", 3.0, 6.0, 0.0),    # overlaps 1 on [3, 4]
        (3, 1, "tensors", "c", 2.0, 3.0, 0.0),
    ]
    got = tracer.self_times(spans)
    assert got["cli"] == pytest.approx(10 - 5 - 1)
    assert got["algebras"] == pytest.approx((3 - 1 - 0.5) + 3)
    assert got["tensors"] == pytest.approx(1)


def test_summarize_counts_layers_and_exact_checks():
    dump = {
        "spans": [(0, None, "search", "search", 0.0, 2.0, 0.0),
                  (1, 0, "algebras", "check_adm_poisson", 0.5, 1.0, 0.25),
                  (2, 1, "algebras", "check_adm_poisson", 0.6, 0.7, 0.0),
                  (3, None, "search", "adm_catalog_indices", 3.0, 4.5, 0.0)],
        "calls": {"scalars.check_characteristic": 7, "scalars.Scalar.__mul__": 3,
                  "algebras.check_adm_poisson": 2},
        "counter_self": {"scalars": 0.25},
        "stats": {"adm_triples_total": 16, "adm_triples_evaluated": 12},
    }
    m = tracer.summarize([dump])
    assert m["search.exact_checks"] == 1
    assert m["search.catalog_s"] == pytest.approx(1.5)
    assert m["scalars.validations"] == 7 and m["scalars.arith_ops"] == 3
    assert m["scalars.calls"] == 10 and m["algebras.calls"] == 2
    assert m["algebras.self_s"] == pytest.approx(0.5 - 0.1 - 0.25 + 0.1)
    assert m["algebras.sweep_fraction"] == pytest.approx(0.75)


def test_tracer_in_a_child_process(tmp_path):
    alg = tmp_path / "a.alg"
    alg.write_text("format 1\nfield gf 5\ndim 2\nop star\nstar: e1 e1 = 1 e1\n")
    out = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(out), "--",
                           "check", "adm-poisson", str(alg)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0 and proc.stdout.startswith("OK adm-poisson")
    m = tracer.summarize([json.loads(out.read_text())])
    assert m["cli.calls"] >= 1 and m["fileformat.calls"] >= 1
    assert m["algebras.sweep_fraction"] == 1.0
    assert m["scalars.validations"] > 0 and m["scalars.arith_ops"] > 0
    assert m["fileformat.bytes_in"] == len(alg.read_text())
