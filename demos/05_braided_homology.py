"""Braided homology: differentials from braidings and characters.

Two independent constructions produce the same differentials: a generic
engine that braids a factor across the others and evaluates a character,
and hand-expanded structure-constant formulas on T(H) (x) M (x) T(H*).
Four bidifferential structures extend them to coefficients in N*.
"""

from braidalg import (
    build_yd_system,
    cyclic_group_table,
    eps_characters,
    generic_differentials,
    group_algebra,
    homology_dims,
    pi_commutation_suite,
    regular_yd_group_algebra,
    coefficient_complex,
    unit_yd,
    verify_bicomplex,
    yd_bidifferential,
)

table, names = cyclic_group_table(2)
H = group_algebra(table, names)
M = regular_yd_group_algebra(table, names)
N = unit_yd(H)

# -- the same differentials, two ways --------------------------------------------

system = build_yd_system(H, [M], "yd")
char_h, char_dual = eps_characters(system)
generic = generic_differentials(system, char_dual, char_h, 4)
explicit = yd_bidifferential(H, M, 3)
agree = all(
    generic.d_blocks[(n, 1, m), (n, 1, m - 1)] == explicit.d_blocks[(n, m), (n, m - 1)]
    for n in range(4)
    for m in range(1, 4 - n)
)
print("generic engine == Sweedler expansion on all shared components:", agree)

# -- four bidifferentials with coefficients ----------------------------------------

for line in (1, 2, 3, 4):
    cx = coefficient_complex(H, M, N, line, 4)
    print(f"line {line}: identities", verify_bicomplex(cx).passed)

# the four contraction maps commute pairwise
print(pi_commutation_suite(H, M, N, 3))

# -- homology dimensions -------------------------------------------------------------

cx = coefficient_complex(H, M, N, 4, 4)
for which in ("d", "d_prime", "total"):
    res = homology_dims(cx, which)
    dims = [row["homology_dim"] for row in res["rows"]]
    print(f"homology dims ({which}):", dims, "| window Euler identity:", res["euler_identity_holds"])
