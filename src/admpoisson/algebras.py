"""Admissible-Poisson and Poisson algebras as verified structure constants.

The single-operation axiom checked here is, on basis triples (x, y, z):

    (x*y)*z = x*(y*z) - 1/3( -x*(z*y) + z*(x*y) + y*(x*z) - y*(z*x) )

and the polarization bijection  o = (sym part), [,] = (skew part)  carries
it to the Poisson axioms (antisymmetry, Jacobi, commutativity, associativity,
Leibniz).  All checks run over basis triples only; multilinearity makes that
sufficient.
"""

from .tensors import AxiomReport, Identity, MulTensor, Record, check_identities

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
    return check_identities(((ADM_POISSON,),), {"c": m.exact}, m.p)


def check_poisson(bracket, circ):
    """Antisymmetry + Jacobi + symmetry + associativity + Leibniz."""
    return check_identities(POISSON, {"b": bracket.exact, "o": circ.exact}, bracket.p)


class AdmPoissonAlgebra(Record):
    """A MulTensor verified against the single-operation axiom."""

    __slots__ = ("star",)
    what = "an admissible-Poisson operation"

    def verify(self):
        return check_adm_poisson(self.star)


class PoissonAlgebra(Record):
    """A (bracket, circ) pair verified against the Poisson axioms."""

    __slots__ = ("bracket", "circ")
    what = "a Poisson structure"

    def verify(self):
        return check_poisson(self.bracket, self.circ)


def polarize(star):
    """(bracket, circ) = (skew part, symmetric part) of star."""
    c = star.exact
    opp = c.transpose(1, 0, 2)
    return MulTensor(star.n, star.p, (c - opp) / 2), MulTensor(star.n, star.p, (c + opp) / 2)


def depolarize(bracket, circ):
    """star = circ + bracket."""
    return MulTensor(circ.n, circ.p, circ.exact + bracket.exact)
