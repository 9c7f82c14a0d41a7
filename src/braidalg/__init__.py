"""Exact-arithmetic toolkit for braided algebra.

Finite-dimensional bialgebras and Hopf algebras by structure constants,
Yetter-Drinfel'd modules, R-matrices, braided systems with their colored
Yang-Baxter checks, and braided (co)homology complexes, all over exact
fields (Q or F_p).

``import braidalg`` loads no submodule: each name below, and each
submodule, is imported on first use (PEP 562), so ``braidalg.check_yd``
loads :mod:`braidalg.yd` and what it needs, not :mod:`braidalg.homology`.
"""

import importlib

_EXPORTS = {
    "linalg": "GF QQ SparseMatrix kernel_basis kronecker pivot_columns rank rref solve_linear",
    "report": "AxiomReport CheckFailed CheckResult Witness",
    "tensor": "DimensionMismatch LinMap Space apply_at compose_chain embed_at evaluation flip identity rainbow_dual "
    "tensor_maps",
    "hopf": "Bialgebra UAA check_bialgebra cyclic_group_table d4_table dual_bialgebra group_algebra monoid_algebra "
    "mu_tensor_square opposites s3_table solve_antipode stock_group_table",
    "yd": "YDModule YDModuleAlgebra adjoint_yd change_of_basis check_yd dual_yd formal_unit_extend left_regular_module "
    "regular_yd_group_algebra tensor_yd unit_yd yd_braiding",
    "rmatrix": "AntipodeMissingError RMatrix antipode_inverse_r check_r coaction_from_r r_braiding unit_r_matrix "
    "verify_r_inverse yd_from_r",
    "systems": "BraidedSystem YDSystem build_yd_system check_braided_morphism dual_action glue invertibility_report "
    "precision_harness random_precision_data sigma_ass validate_uaa_system verify_cybe yd_base yd_system",
    "homology": "GradedComplex check_character eps_characters generic_differentials homology_dims "
    "pi_commutation_suite coefficient_complex verify_bicomplex yd_bidifferential",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
