"""Orthogonal-array states, uniformity checks, local-unitary invariants,
and theta-witness synthesis for multipartite entanglement classes."""

from .entanglement import (
    ReducedDensityMatrix,
    UNIFORMITY_TOL,
    UniformityReport,
    entropy,
    is_ame,
    is_k_uniform,
    purity,
    reduced_density,
)
from .errors import (
    ArgumentError,
    CapacityError,
    CatalogError,
    DuplicateRowError,
    Error,
    ParseError,
    SymbolRangeError,
    WitnessError,
)
from .invariants import (
    DENSE_TERM_CAP,
    FactorizationReport,
    INVARIANT_TOL,
    InvariantValue,
    PermutationSet,
    factorization_check,
    format_perms,
    invariant,
    invariant_dense,
    invariant_sparse,
    parse_perms,
    purity_perms,
)
from .oa import (
    OrthogonalArray,
    StrengthReport,
    check_strength,
    is_irredundant,
    minimal_support_condition,
    parse_oa,
    witness_condition,
)
from .states import (
    DENSE_CAP,
    NORM_TOL,
    SparseState,
    catalog_state,
    compose,
    from_iroa,
    random_local_unitary_apply,
    state_from_dict,
    state_to_dict,
)
from .witness import (
    CertificationReport,
    DEFAULT_THETA_GRID,
    Witness,
    build_permutations,
    build_system,
    find_witness,
    integral_kernel,
    split_multisets,
    theta_values,
    verify_witness,
    witness_to_dict,
)

__version__ = "0.1.0"
