"""Braided systems: multi-component Yang-Baxter structures.

The flagship construction packs a bialgebra H, a family of YD modules and
the dual H* into one system whose colored Yang-Baxter equations encode,
instance by instance, the defining axioms of the inputs.
"""

import random

from braidalg import (
    QQ,
    GF,
    build_yd_system,
    cyclic_group_table,
    flip,
    glue,
    group_algebra,
    invertibility_report,
    monoid_algebra,
    precision_harness,
    random_precision_data,
    regular_yd_group_algebra,
    s3_table,
    tensor_yd,
    verify_cybe,
    yd_base,
)

# -- the system (H, M, H*) ------------------------------------------------------

table, names = s3_table()
H = group_algebra(table, names)
M = regular_yd_group_algebra(table, names)
system = build_yd_system(H, [M], "yd")  # verifies all 10 cYBE instances
print(verify_cybe(system))

# a deliberate perturbation is caught with a witness: replace sigma_{H,M}
# by the flip (a real change here, since the adjoint action of S3 is
# nontrivial)
perturbed = system.with_sigma(1, 2, flip(system.space(1), system.space(2), QQ))
bad = verify_cybe(perturbed)["cYBE(1,2,3)"]
print("\nperturbed mixed instance:", bad)

# -- invertibility encodes the antipode --------------------------------------------

# sigma_{H,H*} is invertible exactly when H has an antipode
inv = invertibility_report(build_yd_system(H, [], "yd"))
print("\nkS3: sigma_{H,H*} rank", inv[(1, 2)]["rank"], "of", inv[(1, 2)]["size"])
mon = monoid_algebra([[0, 1], [1, 1]])
inv = invertibility_report(build_yd_system(mon, [], "yd"))
print("monoid: sigma_{H,H*} rank", inv[(1, 2)]["rank"], "of", inv[(1, 2)]["size"])

# -- each mixed instance is one axiom ------------------------------------------------

# random structure maps over F5 (unit constraints built in): the cYBE
# instance booleans track the axiom booleans row by row
Z2 = group_algebra(*cyclic_group_table(2), field=GF(5))
rng = random.Random(1)
alg = random_precision_data(Z2, 2, rng)
rows = precision_harness(alg, yd_base(Z2))
print()
for row in rows:
    print(f"row {row['row']:28s} cYBE={row['cybe']!s:5s} axiom={row['axiom']!s:5s}")

# -- gluing consecutive components ----------------------------------------------------

# merging the two middle modules of (H, M1, M2, H*) produces the rank-3
# system of the twisted tensor-product module: H acts by
# (lam1 (x) lam2) o (Id (x) c (x) Id) o (Delta_op (x) Id) and coacts by
# (Id (x) mu) o (Id (x) c (x) Id) o (delta1 (x) delta2), both formed by
# tensor.on_tensor.  A YD module algebra is one whose mu is a YD map out of
# tensor_yd(alg, alg, "twisted"); check_yd's yd_alg_lam_mu and
# yd_alg_delta_mu state exactly that, through the same on_tensor
Z2q = group_algebra(*cyclic_group_table(2))
m = regular_yd_group_algebra(*cyclic_group_table(2))
four = build_yd_system(Z2q, [m, m], "yd")
three = glue(four, 2, 3)
print("\nglued system rank:", three.rank, "| cYBE:", verify_cybe(three).passed)
tw = tensor_yd(m, m, "twisted")
print("block component is M1 (x) M2 with the twisted structures:", tw.space.dim == three.space(2).dim)
