"""R-matrices, weak and strong, and the coactions they induce.

An element R of H (x) H turns H-modules into YD modules via
delta_R(m) = (r2 . m) (x) r1; the weak axioms are exactly what that
construction needs, and the induced braiding coincides with the YD one.
"""

from fractions import Fraction

from braidalg import (
    QQ,
    RMatrix,
    antipode_inverse_r,
    check_r,
    check_yd,
    cyclic_group_table,
    dual_bialgebra,
    flip,
    group_algebra,
    left_regular_module,
    r_braiding,
    s3_table,
    unit_r_matrix,
    verify_r_inverse,
    yd_from_r,
)

# -- the unit R-matrix ----------------------------------------------------------

# R = 1 (x) 1 is weak and strong precisely on cocommutative bialgebras:
# axiom 3 degenerates to Delta = Delta_op.
H = group_algebra(*s3_table())
r = unit_r_matrix(H)
print("kS3, R = 1 (x) 1:")
print("  weak:  ", check_r(r, "weak").passed)
print("  strong:", check_r(r, "strong").passed)

H_dual = dual_bialgebra(H)
rep = check_r(unit_r_matrix(H_dual), "weak")
print("dual(kS3) is not cocommutative; axiom 3 witness:", rep["weak_3_R_delta"].witness)

# -- a genuinely nontrivial R-matrix ----------------------------------------------

# on kZ/2 (char 0): R = (1(x)1 + 1(x)g + g(x)1 - g(x)g)/2
Z2 = group_algebra(*cyclic_group_table(2))
half = Fraction(1, 2)
r2 = RMatrix.from_coefficients(Z2, [half, half, half, -half])
print("\nkZ/2 triangular structure:")
print("  strong:     ", check_r(r2, "strong").passed)
print("  quantum YBE:", check_r(r2, "quantum_ybe").passed)

# the antipode inverts any weak R-matrix: R^{-1} = (s (x) Id) R
r2 = antipode_inverse_r(r2)
print("  inverse law:", verify_r_inverse(r2))

# -- module + R-matrix = YD module -------------------------------------------------

mod = left_regular_module(Z2)
ydm = yd_from_r(mod, r2)
print("\ninduced YD module passes:", check_yd(ydm, "yd").passed)

# its braiding is not the flip: r_braiding builds c_R as the YD braiding of
# the induced coaction delta_R, and its inverse from R^{-1} the same way
c, c_inv = r_braiding(mod, mod, r2)
print("braiding differs from the flip:", c.matrix != flip(mod.space, mod.space, QQ).matrix)
print("two-sided inverse found:", c_inv is not None)
