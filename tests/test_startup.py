"""What ``import braidalg`` and ``import braidalg.cli`` load, and the names the package exports.

The package resolves its exports on first use, so a CLI process does not
import ``dataclasses`` (and with it ``inspect``) or compile ``homology``
unless a command needs it.  Every name exported before the exports became
lazy still resolves, through ``braidalg.<name>`` and ``from braidalg import *``,
to its home module's object.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import braidalg

# the names ``braidalg`` exported when its __init__ imported every submodule, by home module
EXPORTED = {
    "linalg": "GF QQ SparseMatrix kernel_basis kronecker rank rref solve_linear",
    "report": "AxiomReport CheckResult Witness",
    "tensor": "DimensionMismatch LinMap Space apply_at compose_chain embed_at evaluation flip identity "
    "rainbow_dual tensor_maps",
    "hopf": "Bialgebra UAA check_bialgebra cyclic_group_table d4_table dual_bialgebra group_algebra "
    "monoid_algebra mu_tensor_square opposites s3_table solve_antipode stock_group_table",
    "yd": "YDModule YDModuleAlgebra change_of_basis check_yd dual_yd formal_unit_extend left_regular_module "
    "regular_yd_group_algebra tensor_yd unit_yd yd_braiding",
    "rmatrix": "AntipodeMissingError RMatrix antipode_inverse_r check_r coaction_from_r r_braiding "
    "unit_r_matrix verify_r_inverse yd_from_r",
    "systems": "BraidedSystem YDSystem build_yd_system check_braided_morphism dual_action glue "
    "invertibility_report precision_harness random_precision_data sigma_ass validate_uaa_system "
    "verify_cybe yd_base",
    "homology": "GradedComplex check_character eps_characters generic_differentials homology_dims "
    "pi_commutation_suite coefficient_complex verify_bicomplex yd_bidifferential",
}
HOMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


def _loaded_after(statement):
    """The modules of interest in sys.modules of a fresh interpreter after ``statement``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(braidalg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m in ('dataclasses', 'inspect') or m.startswith('braidalg'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_the_cli_imports_neither_dataclasses_nor_homology():
    loaded = _loaded_after("import braidalg.cli")
    assert "braidalg.cli" in loaded
    assert not {"dataclasses", "inspect", "braidalg.homology", "braidalg.rmatrix"} & set(loaded), loaded


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import braidalg") == ["braidalg"]


def test_each_export_resolves_to_its_home_object():
    wrong = [
        (module, name)
        for module, name in HOMES
        if getattr(braidalg, name) is not getattr(importlib.import_module(f"braidalg.{module}"), name)
    ]
    assert len(HOMES) == 77 and not wrong


def test_star_import_binds_every_export_and_submodule():
    ns = {}
    exec("from braidalg import *", ns)
    for module, name in HOMES:
        assert ns[name] is getattr(sys.modules[f"braidalg.{module}"], name)
    for module in EXPORTED:
        assert ns[module] is sys.modules[f"braidalg.{module}"]
    assert braidalg.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        braidalg.no_such_name
