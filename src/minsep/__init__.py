"""Minimal separable decompositions of bipartite quantum states.

Entangled states admit separable-looking decompositions once the local
operators are allowed to leave the set of density matrices.  This package
computes operator-Schmidt decompositions, evaluates the transformed-norm
cross norms that measure how small the local operator sets can be, builds
the decomposition families attaining them, certifies minimality by deletion
testing, and extracts local hidden variable models for restricted
measurements from the results.
"""

from .bases import OperatorBasis, hermitian_basis, phase_point_operators
from .core import kron, realign, unrealign
from .crossnorm import DiagonalScaling, cross_norm_value, decomposition_cost, lambda_norm
from .decompositions import (DecompositionMeta, EqualNormReport, SeparableDecomposition, attained_costs,
                             cross_norm_decomposition, equal_norm_check, equal_norm_decomposition,
                             equal_norm_weights, hermitian_decomposition, normalized_form, random_orthogonal,
                             random_unitary)
from .feasibility import (FeasibilityResult, MinimalityReport, StateSpace, deletion_minimality,
                          quantum_augmented_feasible, separable_feasible)
from .lhv import (LhvConstructionError, LhvModel, ScanReport, born_probability, build_lhv,
                  generalized_positive, lhv_probability, povm_scan)
from .schmidt import OperatorSchmidt, operator_schmidt, reconstruct
from .states import (BipartiteState, Povm, bell_state, identity_povm, magic_povm, max_entangled,
                     product_state, projective_povm, random_density, random_pure_state)
from .transport import (ConditionAReport, ConditionBReport, SchmidtMaps, TraceAlignment, build_maps,
                        build_w_basis, check_condition_a, check_condition_b, construct_alignment,
                        minimal_quantum_spaces, transported_cost, transported_decomposition)

__version__ = "0.1.0"
