"""Exact-arithmetic toolkit for finite-dimensional admissible-Poisson
algebras: axioms, representations, matched pairs, bialgebras, Yang-Baxter
equations, O-operators and pre-structures, plus a file format, a CLI and
a finite-field search."""

from .scalars import (Scalar, ScalarModeError, check_characteristic,
                      zero, one, of, half, third)
from .tensors import MulTensor, Tensor3, solve
from .algebras import (AxiomReport, AdmPoissonAlgebra, PoissonAlgebra,
                       check_adm_poisson, check_poisson, polarize, depolarize, polarize_raw, depolarize_raw)
from .representations import (Representation, check_representation,
                              adjoint_rep, dual_rep,
                              semidirect, semidirect_raw,
                              PoissonRepresentation, rep_to_poisson_rep,
                              poisson_rep_to_rep)
from .matched import (MatchedPairData, check_matched_pair, bowtie,
                      bowtie_raw, BilinearForm, check_invariant_form,
                      standard_form, manin_pair_data, manin_double)
from .bialgebras import (Comultiplication, dual_structure, comult_of_mul,
                         check_coalgebra, check_adm_bialgebra,
                         PoissonComultiplicationPair, split_comultiplication,
                         merge_comultiplication, check_poisson_bialgebra)
from .yangbaxter import (RTensor, ybe_operator, check_ybe, coboundary_alpha,
                         check_coboundary_conditions, operator_form_check,
                         cyclic_form_check, coboundary_correspondence)
from .ooperators import (OOperatorCandidate, check_o_operator,
                         check_rota_baxter, rota_baxter_as_o_operator,
                         solution_from_o_operator, PreAdmPoisson,
                         check_pre_adm_poisson,
                         subadjacent, subadjacent_raw, pre_rep,
                         PrePoisson, check_pre_poisson,
                         pre_to_prepoisson, prepoisson_to_pre,
                         induced_pre_from_o_operator, canonical_solution,
                         compatible_pre_from_invertible_o,
                         pre_from_symplectic)

__version__ = "0.1.0"
