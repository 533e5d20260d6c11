"""The record contract of the ten structures built on tensors.Record:
immutable, equal by value within one type, raw builds of the six checked
classes skip `verify`, and a checked build names its failing identity
1-based, also under python -O."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from admpoisson.tensors import Comultiplication, Exact, MulTensor, Record
from admpoisson.algebras import AdmPoissonAlgebra, PoissonAlgebra
from admpoisson.representations import Representation, PoissonRepresentation
from admpoisson.ooperators import OOperatorCandidate, PreAdmPoisson, PrePoisson
from admpoisson.matched import BilinearForm, MatchedPairData
from admpoisson.bialgebras import PoissonComultiplicationPair

P = 5


def op(c):
    """The dim-1 GF(5) operation e1 e1 = c e1."""
    return MulTensor(1, P, Exact([[[c]]], 1, P))


def family(c):
    """The one-matrix family [c] acting on a 1-dim module."""
    return Exact([[[c]]], 1, P)


def cases():
    """class -> (valid values, failing values and message or None)."""
    alg = AdmPoissonAlgebra(op(1))                  # e1 e1 = e1
    palg = PoissonAlgebra(op(0), op(1))
    rep = Representation(alg, family(1), family(1))
    zero = Comultiplication(1, P)
    return {
        AdmPoissonAlgebra: ((op(1),), (
            (MulTensor.from_entries(2, {(0, 0, 1): 1, (1, 1, 0): 1}, P),),
            "not an admissible-Poisson operation: it fails adm-poisson at (1,1,2)")),
        PoissonAlgebra: ((op(0), op(1)), (
            (op(1), op(1)), "not a Poisson structure: it fails antisymmetry at (1,1)")),
        Representation: ((alg, family(1), family(1)), (
            (alg, family(2), family(3)), "not a representation: it fails c2 at (1,1)")),
        PoissonRepresentation: ((palg, family(0), family(1)), (
            (palg, family(0), family(2)),
            "not a Poisson representation: it fails c2 at (1,1)")),
        PreAdmPoisson: ((op(1), op(4)), (
            (op(1), op(1)), "not a pre-structure: it fails pre1 at (1,1,1)")),
        PrePoisson: ((op(0), op(1)), (
            (op(1), op(0)), "not a pre-Poisson structure: it fails zinbiel at (1,1,1)")),
        OOperatorCandidate: ((alg, rep, Exact([[1]], 1, P)), None),
        MatchedPairData: ((alg, alg, family(0), family(0), family(0), family(0)), None),
        BilinearForm: ((Exact([[1]], 1, P), P), None),
        PoissonComultiplicationPair: ((zero, zero), None),
    }


CLASSES = list(cases())
CHECKED = [cls for cls, (_, bad) in cases().items() if bad]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    table = cases()
    values, bad = table[cls]
    rec = cls(*values)
    assert isinstance(rec, Record) and (rec.n, rec.p) == (1, P)
    for name in (cls.__slots__[0], "extra"):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(rec, name, None)
    # equal values give equal records; another type's record is never equal
    assert rec == cls(*values)
    other = CLASSES[(CLASSES.index(cls) + 1) % len(CLASSES)]
    assert rec != other(*table[other][0])
    with pytest.raises(TypeError):
        cls(*values, *values)
    if "__init__" not in vars(cls):
        # Record.__init__ is positional only
        with pytest.raises(TypeError):
            cls(**dict(zip(cls.__slots__, values)))


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_raw_never_verifies(cls, monkeypatch):
    values, (bad, _) = cases()[cls]
    called = []
    monkeypatch.setattr(cls, "verify", lambda self: called.append(self))
    assert cls.raw(*values) == cls(*values, check=False)
    cls.raw(*bad)
    assert called == []


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_checked_build_names_the_failing_identity_1_based(cls):
    values, (bad, message) = cases()[cls]
    cls(*values)
    with pytest.raises(ValueError) as err:
        cls(*bad)
    assert str(err.value) == message


def test_checked_builds_fail_under_python_O():
    """Validation is no assert: python -O raises the same messages."""
    script = ("from test_records import cases\n"
              "for cls, (values, bad) in cases().items():\n"
              "    if bad:\n"
              "        try:\n"
              "            cls(*bad[0])\n"
              "        except ValueError as exc:\n"
              "            print(exc)\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [bad[1] for _, bad in cases().values() if bad]
