"""Condition numbers of constant-rank elimination problems.

Compute, certify and empirically validate the sensitivity of solving a
system ``F(x, y, z) = c`` for an output ``y`` with a latent variable ``z``,
including Tucker tensor decomposition as a fully worked, cross-validated
problem family.
"""

from .crep import (
    CertificationError,
    ConditionReport,
    CrepDims,
    CrepPoint,
    CrepProblem,
    JacobianBlocks,
    RankCertificate,
    RankHypothesisError,
    TangentChart,
    certify_crep,
    chart_blocks,
    condition_numbers,
    condition_numbers_from_blocks,
    defining_equation_residuals,
    evaluate_blocks,
    fcre_solution_derivative,
    make_crep_point,
    solution_map_derivative,
    solution_map_derivative_minnorm,
)
from .empirical import (
    EmpiricalEstimate,
    ResolveFailure,
    ResolveResult,
    constrained_nearest_solution,
    empirical_condition,
    finite_difference_check,
    jacobian_consistency_check,
)
from .linalg import (
    InconsistentSystemError,
    RankDecision,
    complement_basis,
    default_rtol,
    kernel_basis,
    min_norm_solve,
    numerical_rank,
    orthonormalize,
    spectral_norm,
    subspace_distance,
)
from .problems import (
    SpecError,
    linearized_problem,
    matrix_factorization_problem,
    polar_problem,
    problem_from_spec,
    random_linearized_blocks,
)
from .tensor import (
    TuckerPoint,
    flatten,
    horizontal_tangent_basis,
    hosvd,
    kronecker,
    load_tensor,
    mlrank_tangent_basis,
    mlrank_tangent_blocks,
    mlrank_tangent_dim,
    multilinear_multiply,
    multilinear_rank,
    save_tensor,
    stiefel_tangent_basis,
    stiefel_tangent_dim,
    unflatten,
)
from .tucker import (
    CrossValidation,
    TuckerCrepConfig,
    build_tucker_crep,
    closed_form_kappa_core,
    closed_form_kappa_factor,
    closed_form_kappas,
    cross_validate,
    expected_kappa_all,
    random_orthogonal,
    random_stiefel,
    random_tucker_point,
    regauge,
)

__version__ = "0.1.0"
