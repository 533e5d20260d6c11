"""Exact-arithmetic toolkit for finite-dimensional admissible-Poisson
algebras: axioms, representations, matched pairs, bialgebras, Yang-Baxter
equations, O-operators and pre-structures, plus a file format, a CLI and
a finite-field search.

The names below are loaded on first use (PEP 562), so that importing the
package, or running one CLI command, loads only the modules it needs."""

from importlib import import_module

# module -> the names the package exports from it
_EXPORTS = {
    "scalars": ("ScalarModeError", "check_characteristic"),
    "tensors": ("MulTensor", "Tensor3", "solve", "AxiomReport",
                "Comultiplication", "RTensor"),
    "algebras": ("AdmPoissonAlgebra", "PoissonAlgebra", "check_adm_poisson",
                 "check_poisson", "polarize", "depolarize"),
    "representations": ("Representation", "check_representation", "adjoint_rep",
                        "dual_rep", "semidirect", "PoissonRepresentation",
                        "rep_to_poisson_rep", "poisson_rep_to_rep"),
    "matched": ("MatchedPairData", "check_matched_pair", "bowtie", "BilinearForm",
                "check_invariant_form", "standard_form", "manin_pair_data", "manin_double"),
    "bialgebras": ("dual_structure", "comult_of_mul", "check_coalgebra",
                   "check_adm_bialgebra", "PoissonComultiplicationPair",
                   "split_comultiplication", "merge_comultiplication",
                   "check_poisson_bialgebra"),
    "yangbaxter": ("ybe_operator", "check_ybe", "coboundary_alpha",
                   "check_coboundary_conditions", "operator_form_check",
                   "cyclic_form_check", "coboundary_correspondence"),
    "ooperators": ("OOperatorCandidate", "check_o_operator", "check_rota_baxter",
                   "rota_baxter_as_o_operator", "solution_from_o_operator",
                   "PreAdmPoisson", "check_pre_adm_poisson", "subadjacent",
                   "pre_rep", "PrePoisson", "check_pre_poisson",
                   "pre_to_prepoisson", "prepoisson_to_pre",
                   "induced_pre_from_o_operator", "canonical_solution",
                   "compatible_pre_from_invertible_o", "pre_from_symplectic"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name, read from its module and kept here on first use."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __package__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
