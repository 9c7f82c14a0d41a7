"""Yetter-Drinfel'd modules and the braidings they generate.

A YD module couples a left action with a right coaction; the induced map
c(m (x) n) = n_(0) (x) n_(1).m solves the Yang-Baxter equation on the
nose, and is invertible whenever the base has an antipode.
"""

from braidalg import (
    QQ,
    check_yd,
    compose_chain,
    dual_yd,
    formal_unit_extend,
    group_algebra,
    identity,
    regular_yd_group_algebra,
    s3_table,
    tensor_yd,
    yd_braiding,
)

table, names = s3_table()

# -- kG as a YD module over itself ------------------------------------------

# grading by group elements, adjoint action g.h = g h g^{-1}
M = regular_yd_group_algebra(table, names)
print(check_yd(M, "yd"))

# -- the braiding and the Yang-Baxter equation ---------------------------------

c, c_inv = yd_braiding(M, M, "standard")
# on group elements: h (x) g  |->  g (x) g h g^{-1}
i12, i13, i23 = names.index("(12)"), names.index("(13)"), names.index("(23)")
# terms() lists c as (output basis tuple, input basis tuple, coefficient)
print("\nc((13) (x) (12)) hits (12) (x) (23):", ((i12, i23), (i13, i12), QQ.one) in c.terms())

idm = identity([M.space], QQ)
lhs = compose_chain([c.tensor(idm), idm.tensor(c), c.tensor(idm)])
rhs = compose_chain([idm.tensor(c), c.tensor(idm), idm.tensor(c)])
print("Yang-Baxter on all 216 basis triples:", lhs.matrix == rhs.matrix)
print("antipode-built inverse verified:", c_inv is not None)

# -- two monoidal structures on YD modules --------------------------------------

# the comultiplication can enter the tensor action straight or twisted;
# both give YD modules again
for variant in ("standard", "twisted"):
    mm = tensor_yd(M, M, variant)
    print(f"tensor product ({variant}) passes:", check_yd(mm, "yd").passed)

# -- dualising and adjoining units -----------------------------------------------

# N* is a YD module over the dual bialgebra, via the order-reversing duals
M_dual = dual_yd(M)
print("\ndual module over H* passes:", check_yd(M_dual, "yd").passed)

# adjoining a formal unit equips any YD module with a (trivial) compatible
# multiplication: a YD module algebra
ext = formal_unit_extend(M)
print("formal-unit extension passes the module-algebra axioms:", check_yd(ext, "yd_algebra").passed)
