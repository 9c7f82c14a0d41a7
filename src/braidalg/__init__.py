"""Exact-arithmetic toolkit for braided algebra.

Finite-dimensional bialgebras and Hopf algebras by structure constants,
Yetter-Drinfel'd modules, R-matrices, braided systems with their colored
Yang-Baxter checks, and braided (co)homology complexes, all over exact
fields (Q or F_p).
"""

from .linalg import GF, QQ, SparseMatrix, kernel_basis, kronecker, rank, rref, solve_linear
from .report import AxiomReport, CheckResult, Witness
from .tensor import (
    DimensionMismatch,
    LinMap,
    Space,
    apply_at,
    compose_chain,
    embed_at,
    evaluation,
    flip,
    identity,
    rainbow_dual,
    tensor_maps,
)
from .hopf import (
    Bialgebra,
    UAA,
    check_bialgebra,
    cyclic_group_table,
    d4_table,
    dual_bialgebra,
    group_algebra,
    monoid_algebra,
    mu_tensor_square,
    opposites,
    s3_table,
    solve_antipode,
    stock_group_table,
)
from .yd import (
    YDModule,
    YDModuleAlgebra,
    change_of_basis,
    check_yd,
    dual_yd,
    formal_unit_extend,
    left_regular_module,
    regular_yd_group_algebra,
    tensor_yd,
    unit_yd,
    yd_braiding,
)
from .rmatrix import (
    AntipodeMissingError,
    RMatrix,
    antipode_inverse_r,
    check_r,
    coaction_from_r,
    r_braiding,
    unit_r_matrix,
    verify_r_inverse,
    yd_from_r,
)
from .systems import (
    BraidedSystem,
    YDSystem,
    build_yd_system,
    check_braided_morphism,
    dual_action,
    glue,
    invertibility_report,
    precision_harness,
    random_precision_data,
    sigma_ass,
    validate_uaa_system,
    verify_cybe,
    yd_base,
)
from .homology import (
    GradedComplex,
    check_character,
    eps_characters,
    generic_differentials,
    homology_dims,
    pi_commutation_suite,
    coefficient_complex,
    verify_bicomplex,
    yd_bidifferential,
)

__version__ = "0.1.0"
