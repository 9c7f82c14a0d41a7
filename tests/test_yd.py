"""Yetter-Drinfel'd modules: axioms, braidings, tensor products and duals."""

import itertools
import random

import pytest

from braidalg.hopf import (
    Bialgebra,
    cyclic_group_table,
    dual_bialgebra,
    group_algebra,
    monoid_algebra,
    s3_table,
    stock_group_table,
)
from braidalg.linalg import GF, QQ, SparseMatrix, inverse as matrix_inverse
from braidalg.systems import random_precision_data
from braidalg.tensor import LinMap, Space, compose_chain, flip, from_terms, identity
from braidalg.yd import (
    YDModule,
    YDModuleAlgebra,
    _fixed_maps,
    adjoint_yd,
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

S3_TABLE, S3_NAMES = s3_table()
Z2_TABLE, Z2_NAMES = cyclic_group_table(2)
Z3_TABLE, Z3_NAMES = cyclic_group_table(3)


def perm_elements():
    return sorted(itertools.permutations(range(3)))


def test_trivial_yd_module_passes():
    b = group_algebra(S3_TABLE, S3_NAMES)
    assert check_yd(unit_yd(b), "yd").passed


def test_unit_yd_coaction_is_the_unit():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    u = unit_yd(b)
    # delta(1) = 1 (x) e
    assert u.delta.matrix.get(0, 0) == QQ.one and len(u.delta.matrix.entries) == 1


def test_regular_yd_passes_and_abelian_action_is_trivial():
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    assert check_yd(m, "yd").passed
    # lam(g (x) h) = h for abelian groups
    for g in range(2):
        for h in range(2):
            assert m.lam.matrix.get(h, g * 2 + h) == QQ.one


def test_regular_yd_s3_conjugation_oracle():
    m = regular_yd_group_algebra(S3_TABLE, S3_NAMES)
    assert check_yd(m, "yd").passed
    elems = perm_elements()
    # independent conjugation oracle on permutations
    for gi, g in enumerate(elems):
        ginv = tuple(g.index(x) for x in range(3))
        for hi, h in enumerate(elems):
            conj = tuple(g[h[ginv[x]]] for x in range(3))
            ci = elems.index(conj)
            assert m.lam.matrix.get(ci, gi * 6 + hi) == QQ.one
    # the specific value (13).(12) = (23)
    i13, i12, i23 = S3_NAMES.index("(13)"), S3_NAMES.index("(12)"), S3_NAMES.index("(23)")
    assert m.lam.matrix.get(i23, i13 * 6 + i12) == QQ.one


def test_regular_yd_grading_axiom_all_pairs():
    # g . M_h lands in M_{g h g^-1}: the action matrix column of (g, h) is
    # supported on the conjugated index alone, for all 36 pairs
    m = regular_yd_group_algebra(S3_TABLE, S3_NAMES)
    elems = perm_elements()
    for gi, g in enumerate(elems):
        ginv = tuple(g.index(x) for x in range(3))
        for hi, h in enumerate(elems):
            conj = elems.index(tuple(g[h[ginv[x]]] for x in range(3)))
            col = [m.lam.matrix.get(r, gi * 6 + hi) for r in range(6)]
            assert [r for r, v in enumerate(col) if v != QQ.zero] == [conj]


def conjugation_yd(table, names, field):
    """The reference kG YD module read off the group table: g.h = g h g^-1, delta(h) = h (x) h."""
    b = group_algebra(table, names, field)
    n = len(table)
    e = table[0].index(0)  # 0 * e = 0
    inv = [table[g].index(e) for g in range(n)]
    H = b.space
    M = Space(n, H.label + "_yd", H.basis_names)
    conjugates = (((table[table[g][h]][inv[g]],), (g, h), field.one) for g in range(n) for h in range(n))
    lam = from_terms((H, M), (M,), conjugates, field)
    delta = from_terms((M,), (M, H), (((h, h), (h,), field.one) for h in range(n)), field)
    return YDModule(b, M, lam, delta)


def relabelled(table, names, rng):
    """The same group with element a renamed perm[a], perm drawn from rng."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out, out_names = [[0] * n for _ in range(n)], [None] * n
    for a in range(n):
        out_names[perm[a]] = names[a]
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out, out_names


def assert_same_module(m, ref):
    assert m.space == ref.space
    for got, want in ((m.lam, ref.lam), (m.delta, ref.delta)):
        assert (got.domain, got.codomain, got.matrix) == (want.domain, want.codomain, want.matrix)


FIELDS = pytest.mark.parametrize("field", [QQ, GF(5), GF(3)], ids=["Q", "F5", "F3"])


@FIELDS
@pytest.mark.parametrize("group", ["S3", "D4", "Z4"])
def test_adjoint_yd_of_a_group_algebra_is_table_conjugation(group, field):
    ref = conjugation_yd(*stock_group_table(group), field)
    assert_same_module(adjoint_yd(ref.base), ref)
    assert_same_module(regular_yd_group_algebra(*stock_group_table(group), field=field), ref)


def test_adjoint_yd_is_table_conjugation_on_relabelled_tables():
    for seed in range(6):
        rng = random.Random(seed)
        table, names = relabelled(*stock_group_table(("S3", "D4", "Z4")[seed % 3]), rng)
        ref = conjugation_yd(table, names, (QQ, GF(5), GF(3))[seed % 3])
        assert_same_module(adjoint_yd(ref.base), ref)


def test_adjoint_yd_solves_an_antipode_that_is_not_stored():
    b = group_algebra(S3_TABLE, S3_NAMES)
    bare = Bialgebra(b.space, b.mu, b.nu, b.delta, b.eps)
    assert_same_module(adjoint_yd(bare), adjoint_yd(b))


@FIELDS
@pytest.mark.parametrize("group", ["S3", "D4", "Z4"])
def test_adjoint_yd_of_a_dual_group_algebra_acts_by_the_counit(group, field):
    # k^G is commutative, so h.m = h_(2) m S^-1(h_(1)) = eps(h) m
    b = dual_bialgebra(group_algebra(*stock_group_table(group), field=field))
    m = adjoint_yd(b)
    assert check_yd(m, "yd").passed
    assert m.lam.matrix == b.eps.tensor(identity([m.space], field)).matrix
    assert m.delta.matrix == b.delta.matrix


def test_adjoint_yd_needs_an_invertible_antipode():
    mon = monoid_algebra([[0, 1], [1, 1]], names=("1", "e"))
    with pytest.raises(ValueError, match="no antipode"):
        adjoint_yd(mon)
    with pytest.raises(ValueError, match="no antipode"):
        regular_yd_group_algebra(mon)
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    zero = LinMap((b.space,), (b.space,), SparseMatrix(QQ, 2, 2, {}))
    with pytest.raises(ValueError, match="singular"):
        adjoint_yd(Bialgebra(b.space, b.mu, b.nu, b.delta, b.eps, zero))


def test_left_multiplication_with_grading_fails_yd():
    b = group_algebra(S3_TABLE, S3_NAMES)
    m = regular_yd_group_algebra(S3_TABLE, S3_NAMES)
    bad = YDModule(b, m.space, LinMap(m.lam.domain, m.lam.codomain, b.mu.matrix), m.delta)
    rep = check_yd(bad, "yd")
    assert rep["action_associativity"].passed and rep["coaction_coassociativity"].passed
    fail = rep["yd_compatibility"]
    assert not fail.passed and fail.witness is not None


def test_yd_braiding_group_values():
    # c(h (x) g) = g (x) g h g^-1 on all 36 basis pairs
    m = regular_yd_group_algebra(S3_TABLE, S3_NAMES)
    c, c_inv = yd_braiding(m, m, "standard")
    elems = perm_elements()
    for hi, h in enumerate(elems):
        for gi, g in enumerate(elems):
            ginv = tuple(g.index(x) for x in range(3))
            conj = elems.index(tuple(g[h[ginv[x]]] for x in range(3)))
            col = hi * 6 + gi
            assert c.matrix.get(gi * 6 + conj, col) == QQ.one
            assert sum(1 for (r, cc) in c.matrix.entries if cc == col) == 1
    # exact two-sided inverse
    assert c_inv is not None
    assert (c_inv.compose(c)).matrix == SparseMatrix.identity(QQ, 36)
    assert (c.compose(c_inv)).matrix == SparseMatrix.identity(QQ, 36)


def test_trivial_braiding_is_flip():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    u1, u2 = unit_yd(b), unit_yd(b)
    c, _ = yd_braiding(u1, u2, "standard")
    assert c.matrix == SparseMatrix.identity(QQ, 1)


def test_ybe_for_all_shipped_modules():
    for table, names in (Z2_TABLE, Z2_NAMES), (Z3_TABLE, Z3_NAMES), (S3_TABLE, S3_NAMES):
        m = regular_yd_group_algebra(table, names)
        for variant in ("standard", "ring"):
            c, c_inv = yd_braiding(m, m, variant)
            idm = identity([m.space], QQ)
            lhs = compose_chain([c.tensor(idm), idm.tensor(c), c.tensor(idm)])
            rhs = compose_chain([idm.tensor(c), c.tensor(idm), idm.tensor(c)])
            assert lhs.matrix == rhs.matrix, (names, variant)
            assert c_inv is not None


def test_tensor_yd_both_variants_pass():
    m2 = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    assert check_yd(tensor_yd(m2, m2, "standard"), "yd").passed
    m3 = regular_yd_group_algebra(S3_TABLE, S3_NAMES)
    assert check_yd(tensor_yd(m3, m3, "twisted"), "yd").passed


def test_tensor_with_unit_reduces_to_module():
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    u = unit_yd(m.base)
    t = tensor_yd(m, u, "standard")
    assert t.lam.matrix == m.lam.matrix and t.delta.matrix == m.delta.matrix
    t = tensor_yd(u, m, "twisted")
    assert t.lam.matrix == m.lam.matrix and t.delta.matrix == m.delta.matrix


def test_braiding_hexagons_on_tensor_products():
    """c_{V,W(x)U} = (Id (x) c_{V,U}) o (c_{V,W} (x) Id) and its mirror,
    with the standard tensor-product YD structure."""
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    u = formal_unit_extend(m)  # 3-dim module for variety
    for v, w, x in ((m, m, u), (m, u, m), (u, m, m)):
        wu = tensor_yd(w, x, "standard")
        lhs, _ = yd_braiding(v, wu, "standard")
        c_vw, _ = yd_braiding(v, w, "standard")
        c_vx, _ = yd_braiding(v, x, "standard")
        idw = identity([w.space], QQ)
        idx = identity([x.space], QQ)
        rhs = compose_chain([idw.tensor(c_vx), c_vw.tensor(idx)])
        assert lhs.matrix == rhs.matrix
        vw = tensor_yd(v, w, "standard")
        lhs2, _ = yd_braiding(vw, x, "standard")
        c_wx, _ = yd_braiding(w, x, "standard")
        idv = identity([v.space], QQ)
        rhs2 = compose_chain([c_vx.tensor(idw), idv.tensor(c_wx)])
        assert lhs2.matrix == rhs2.matrix


def test_check_yd_verdicts_do_not_depend_on_earlier_calls():
    """One module space over bases with equal spaces but a different mu or Delta: every level's report,
    witnesses included, is the same in either call order as with nothing built before it."""
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=GF(5))
    m = formal_unit_extend(regular_yd_group_algebra(b))
    bases = [
        b,
        Bialgebra(b.space, b.mu.scale(2), b.nu, b.delta, b.eps, b.antipode),
        Bialgebra(b.space, b.mu, b.nu, b.delta.scale(2), b.eps, b.antipode),
    ]
    levels = ("module", "comodule", "yd", "yd_algebra")

    def reports(base):
        rebased = YDModuleAlgebra(base, m.space, m.lam, m.delta, mu=m.mu, nu=m.nu)
        return [str(check_yd(rebased, level)) for level in levels]

    def clear():
        _fixed_maps.cache_clear()

    fresh = []
    for base in bases:
        clear()
        fresh.append(reports(base))
    assert fresh[0] != fresh[1] and fresh[0] != fresh[2] and fresh[1] != fresh[2]
    for order in ([0, 1, 2], [2, 1, 0]):
        clear()
        assert [reports(bases[t]) for t in order + order] == [fresh[t] for t in order + order]


def test_formal_unit_extension():
    u = unit_yd(group_algebra(Z2_TABLE, Z2_NAMES))
    ext = formal_unit_extend(u)
    assert ext.space.dim == 2
    assert check_yd(ext, "yd_algebra").passed
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    ext = formal_unit_extend(m)
    assert ext.space.dim == 3
    assert check_yd(ext, "yd_algebra").passed
    # products of two non-unit vectors vanish
    for a in range(1, 3):
        for b in range(1, 3):
            col = a * 3 + b
            assert all(c != col for (_r, c) in ext.mu.matrix.entries)


def test_yd_algebra_axioms_are_mu_and_delta_as_maps_out_of_the_twisted_tensor_product():
    """lam o (Id (x) mu) = mu o lam_{M (x) M} and delta o mu = (mu (x) Id) o delta_{M (x) M}, with
    M (x) M the module tensor_yd(alg, alg, "twisted") builds, are the checker's two YD-algebra axioms."""
    F5 = GF(5)
    rng = random.Random(16)
    seen = set()
    for table, names in ((Z2_TABLE, Z2_NAMES), (S3_TABLE, S3_NAMES)):
        b = group_algebra(table, names, field=F5)
        reg = regular_yd_group_algebra(b)
        M = reg.space
        # kG with its own product is a YD module algebra for the adjoint action and grading
        kg = YDModuleAlgebra(
            b, M, reg.lam, reg.delta, mu=LinMap((M, M), (M,), b.mu.matrix), nu=LinMap((), (M,), b.nu.matrix)
        )
        algs = [kg, formal_unit_extend(unit_yd(b)), formal_unit_extend(reg)]
        algs += [random_precision_data(b, dim, rng) for dim in (1, 2, 3) for _ in range(16)]
        id_H = identity([b.space], F5)
        for alg in algs:
            rep = check_yd(alg, "yd_algebra")
            tw = tensor_yd(alg, alg, "twisted")
            lam_mu = alg.lam.compose(id_H.tensor(alg.mu)).matrix == alg.mu.compose(tw.lam).matrix
            delta_mu = alg.delta.compose(alg.mu).matrix == alg.mu.tensor(id_H).compose(tw.delta).matrix
            assert rep["yd_alg_lam_mu"].passed == lam_mu
            assert rep["yd_alg_delta_mu"].passed == delta_mu
            seen |= {("lam", lam_mu), ("delta", delta_mu)}
    assert len(seen) == 4


def test_dual_yd():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    du = dual_yd(unit_yd(b))
    assert check_yd(du, "yd").passed
    # trivial module dualises to the trivial module over H*
    dual = dual_bialgebra(b)
    assert du.lam.matrix == dual.eps.matrix and du.delta.matrix == dual.nu.matrix
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    assert check_yd(dual_yd(m), "yd").passed
    m3 = regular_yd_group_algebra(Z3_TABLE, Z3_NAMES)
    dd = dual_yd(dual_yd(m3))
    assert dd.lam.matrix == m3.lam.matrix and dd.delta.matrix == m3.delta.matrix


def test_dual_yd_requires_coaction():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    with pytest.raises(ValueError):
        dual_yd(left_regular_module(b))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_yd_braiding_inverses_equal_the_hand_written_composites(field):
    kg = group_algebra(S3_TABLE, S3_NAMES, field)
    dual = dual_bialgebra(kg)
    for b, mods in ((kg, [adjoint_yd(kg), unit_yd(kg)]), (dual, [adjoint_yd(dual), dual_yd(adjoint_yd(kg))])):
        s = b.antipode
        for m, n in itertools.product(mods, repeat=2):
            M, N = m.space, n.space
            id_M, id_N = identity([M], field), identity([N], field)
            # n (x) m |-> s(n_(1)).m (x) n_(0), and n (x) m |-> m_(0) (x) s(m_(1)).n
            standard = compose_chain(
                [flip(N, M, field), id_N.tensor(m.lam), id_N.tensor(s).tensor(id_M), n.delta.tensor(id_M)]
            )
            ring = compose_chain(
                [id_M.tensor(n.lam), id_M.tensor(s).tensor(id_N), m.delta.tensor(id_N), flip(N, M, field)]
            )
            for variant, ref in (("standard", standard), ("ring", ring)):
                c, c_inv = yd_braiding(m, n, variant)
                assert (c_inv.domain, c_inv.codomain, c_inv.matrix) == (ref.domain, ref.codomain, ref.matrix)
                assert (c_inv.domain, c_inv.codomain) == (c.codomain, c.domain)


@pytest.mark.parametrize("variant", ["standard", "ring"])
def test_yd_braiding_builds_its_inverse_from_a_solved_antipode(variant):
    # kZ3 with its stored antipode dropped: the inverse comes from solve_antipode, as in adjoint_yd
    b = group_algebra(Z3_TABLE, Z3_NAMES)
    bare = Bialgebra(b.space, b.mu, b.nu, b.delta, b.eps, None)
    m, stored = adjoint_yd(bare), adjoint_yd(b)
    c, c_inv = yd_braiding(m, m, variant)
    want, want_inv = yd_braiding(stored, stored, variant)
    assert c_inv is not None and want_inv is not None
    assert (c.matrix, c_inv.matrix) == (want.matrix, want_inv.matrix)


def test_yd_braiding_needs_same_base():
    m2 = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    m3 = regular_yd_group_algebra(Z3_TABLE, Z3_NAMES)
    with pytest.raises(ValueError):
        yd_braiding(m2, m3)


def _random_grading(rng, F, dim):
    """A valid kZ/2-comodule on F^dim: projections onto a random splitting."""
    while True:
        rows = [[rng.randrange(5) for _ in range(dim)] for _ in range(dim)]
        p = SparseMatrix.from_rows(F, rows)
        p_inv = matrix_inverse(p)
        if p_inv is not None:
            break
    k = rng.randrange(dim + 1)
    proj0 = SparseMatrix(F, dim, dim, {(i, i): F.one for i in range(k)})
    pe = p @ proj0 @ p_inv
    return pe  # projection onto M_e; M_g part is 1 - pe


def _random_involution(rng, F, dim):
    while True:
        rows = [[rng.randrange(5) for _ in range(dim)] for _ in range(dim)]
        p = SparseMatrix.from_rows(F, rows)
        p_inv = matrix_inverse(p)
        if p_inv is not None:
            break
    signs = [F.one if rng.randrange(2) else F.reduce(-1) for _ in range(dim)]
    diag = SparseMatrix(F, dim, dim, {(i, i): s for i, s in enumerate(signs)})
    return p @ diag @ p_inv


def test_random_valid_module_comodule_yd_iff_braiding_instance():
    """For valid module+comodule data, the YD axiom holds exactly when the
    mixed braiding instance on H (x) M (x) H* does (cross-validated with
    the precision harness)."""
    from braidalg.systems import cybe_instance, yd_base, yd_system
    from braidalg.yd import YDModuleAlgebra

    F = GF(5)
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=F)
    base = yd_base(b)
    rng = random.Random(77)
    dim = 2
    hits = {True: 0, False: 0}
    for _ in range(25):
        M = Space(dim, "V")
        inv = _random_involution(rng, F, dim)
        lam_ent = {}
        for a in range(dim):
            for bb in range(dim):
                if a == bb:
                    lam_ent[(bb, 0 * dim + a)] = F.one
                v = inv.get(bb, a)
                if F.reduce(v):
                    lam_ent[(bb, 1 * dim + a)] = v
        lam = LinMap((b.space, M), (M,), SparseMatrix(F, dim, 2 * dim, lam_ent))
        pe = _random_grading(rng, F, dim)
        delta_ent = {}
        for a in range(dim):
            for bb in range(dim):
                v0 = pe.get(bb, a)
                if F.reduce(v0):
                    delta_ent[(bb * 2 + 0, a)] = v0
                v1 = F.reduce((F.one if a == bb else F.zero) - v0)
                if F.reduce(v1):
                    delta_ent[(bb * 2 + 1, a)] = v1
        delta = LinMap((M,), (M, b.space), SparseMatrix(F, dim * 2, dim, delta_ent))
        m = YDModule(b, M, lam, delta)
        rep = check_yd(m, "yd")
        assert rep["action_associativity"].passed and rep["coaction_coassociativity"].passed
        mu = LinMap((M, M), (M,), SparseMatrix(F, dim, dim * dim))
        nu = LinMap((), (M,), SparseMatrix(F, dim, 1, {(0, 0): F.one}))
        sys = yd_system(base, [YDModuleAlgebra(b, M, lam, delta, mu=mu, nu=nu)], "ydalg")
        lhs, rhs = cybe_instance(sys, 1, 2, 3)
        assert rep.passed == (lhs.matrix == rhs.matrix)
        hits[rep.passed] += 1
    assert hits[True] > 0 and hits[False] > 0


def test_change_of_basis_preserves_yd():
    F = GF(5)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES, field=F)
    p = SparseMatrix.from_rows(F, [[1, 2], [1, 3]])
    assert check_yd(change_of_basis(m, p), "yd").passed


def test_higher_dim_trivial_module_braids_to_flip():
    # lam = eps (x) id, delta = id (x) nu on a 2-dim space: the braiding
    # collapses to the flip
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    M = Space(2, "T", ("t0", "t1"))
    lam_ent = {}
    for i in range(2):
        e = b.eps.matrix.get(0, i)
        for a in range(2):
            lam_ent[(a, i * 2 + a)] = e
    lam = LinMap((b.space, M), (M,), SparseMatrix(QQ, 2, 4, lam_ent))
    delta_ent = {(a * 2 + 0, a): QQ.one for a in range(2)}
    delta = LinMap((M,), (M, b.space), SparseMatrix(QQ, 4, 2, delta_ent))
    triv2 = YDModule(b, M, lam, delta)
    assert check_yd(triv2, "yd").passed
    c, c_inv = yd_braiding(triv2, triv2, "standard")
    assert c.matrix == flip(M, M, QQ).matrix
    c, _ = yd_braiding(triv2, triv2, "ring")
    assert c.matrix == flip(M, M, QQ).matrix


def test_ybe_for_derived_modules():
    # tensor products and duals of YD modules are braided objects too
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    candidates = [
        tensor_yd(m, m, "standard"),
        tensor_yd(m, m, "twisted"),
        dual_yd(m),
        formal_unit_extend(m),
    ]
    for mod in candidates:
        assert check_yd(mod, "yd").passed
        c, _ = yd_braiding(mod, mod, "standard")
        f = mod.field
        idm = identity([mod.space], f)
        lhs = compose_chain([c.tensor(idm), idm.tensor(c), c.tensor(idm)])
        rhs = compose_chain([idm.tensor(c), c.tensor(idm), idm.tensor(c)])
        assert lhs.matrix == rhs.matrix
