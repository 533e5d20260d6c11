"""Admissible-Poisson and Poisson algebras as verified structure constants.

The single-operation axiom checked here is, on basis triples (x, y, z):

    (x*y)*z = x*(y*z) - 1/3( -x*(z*y) + z*(x*y) + y*(x*z) - y*(z*x) )

and the polarization bijection  o = (sym part), [,] = (skew part)  carries
it to the Poisson axioms (antisymmetry, Jacobi, commutativity, associativity,
Leibniz).  All checks run over basis triples only; multilinearity makes that
sufficient.
"""

from .scalars import half
from .tensors import AxiomReport, Identity, check_identities

# The defining identity at (x, y, z) = (e_i, e_j, e_k), output coordinate l.
ADM_POISSON = Identity(
    "adm-poisson", "ijk", "l",
    "c:ijs c:skl",                                  # (x*y)*z
    "c:jks c:isl + 1/3 c:kjs c:isl"                 # x*(y*z) + 1/3 x*(z*y)
    " - 1/3 c:ijs c:ksl - 1/3 c:iks c:jsl"          # - 1/3 z*(x*y) - 1/3 y*(x*z)
    " + 1/3 c:kis c:jsl")                           # + 1/3 y*(z*x)

# The Poisson axioms for a bracket b and a product o, checked in this order.
POISSON = (
    (Identity("antisymmetry", "ij", "k", "b:ijk", "- b:jik"),),
    (Identity("jacobi", "ijk", "l",
              "b:ijs b:skl + b:jks b:sil + b:kis b:sjl"),),
    (Identity("symmetry", "ij", "k", "o:ijk", "o:jik"),),
    (Identity("associativity", "ijk", "l", "o:ijs o:skl", "o:jks o:isl"),),
    (Identity("leibniz", "ijk", "l",
              "o:jks b:isl",                        # [x, y o z]
              "b:ijs o:skl + b:iks o:jsl"),),       # [x,y] o z + y o [x,z]
)


def check_adm_poisson(m):
    """Does a MulTensor satisfy the single admissible-Poisson identity?"""
    return check_identities(((ADM_POISSON,),), {"c": m.c}, m.p)


def check_poisson(bracket, circ):
    """Antisymmetry + Jacobi + symmetry + associativity + Leibniz."""
    return check_identities(POISSON, {"b": bracket.c, "o": circ.c}, bracket.p)


class AdmPoissonAlgebra:
    """A MulTensor verified against the single-operation axiom."""

    __slots__ = ("star",)

    def __init__(self, star, check=True):
        if check:
            report = check_adm_poisson(star)
            if not report.holds:
                raise ValueError(f"not an admissible-Poisson operation: {report!r}")
        object.__setattr__(self, "star", star)

    def __setattr__(self, name, value):
        raise AttributeError("AdmPoissonAlgebra is immutable")

    @classmethod
    def raw(cls, star):
        return cls(star, check=False)

    @property
    def n(self):
        return self.star.n

    @property
    def p(self):
        return self.star.p

    def __eq__(self, other):
        if not isinstance(other, AdmPoissonAlgebra):
            return NotImplemented
        return self.star == other.star


class PoissonAlgebra:
    """A (bracket, circ) pair verified against the Poisson axioms."""

    __slots__ = ("bracket", "circ")

    def __init__(self, bracket, circ, check=True):
        assert bracket.n == circ.n and bracket.p == circ.p
        if check:
            report = check_poisson(bracket, circ)
            if not report.holds:
                raise ValueError(f"not a Poisson structure: {report!r}")
        object.__setattr__(self, "bracket", bracket)
        object.__setattr__(self, "circ", circ)

    def __setattr__(self, name, value):
        raise AttributeError("PoissonAlgebra is immutable")

    @classmethod
    def raw(cls, bracket, circ):
        return cls(bracket, circ, check=False)

    @property
    def n(self):
        return self.bracket.n

    @property
    def p(self):
        return self.bracket.p

    def __eq__(self, other):
        if not isinstance(other, PoissonAlgebra):
            return NotImplemented
        return self.bracket == other.bracket and self.circ == other.circ


def polarize_raw(star):
    """(bracket, circ) = (skew part, symmetric part) of star, no validation."""
    h = half(star.p)
    opp = star.op()
    bracket = star.sub(opp).scale(h)
    circ = star.add(opp).scale(h)
    return bracket, circ


def depolarize_raw(bracket, circ):
    """star = circ + bracket, no validation."""
    return circ.add(bracket)


def polarize(a):
    bracket, circ = polarize_raw(a.star)
    return PoissonAlgebra(bracket, circ)


def depolarize(p):
    return AdmPoissonAlgebra(depolarize_raw(p.bracket, p.circ))
