"""Weak/strong R-matrices, the induced coaction and the R-braiding."""

import random
from fractions import Fraction

import pytest

from braidalg.hopf import (
    Bialgebra,
    cyclic_group_table,
    dual_bialgebra,
    group_algebra,
    monoid_algebra,
    mu_tensor_square,
    on_tensor,
    s3_table,
)
from braidalg.linalg import GF, QQ, SparseMatrix, inverse as matrix_inverse, kernel_basis
from braidalg.rmatrix import (
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
from braidalg.systems import random_precision_data
from braidalg.tensor import LinMap, compose_chain, flip, identity
from braidalg.yd import (
    YDModule,
    check_yd,
    is_two_sided_inverse,
    left_regular_module,
    regular_yd_group_algebra,
    ring_braiding,
    tensor_yd,
    unit_yd,
    yd_braiding,
)

S3_TABLE, S3_NAMES = s3_table()
Z2_TABLE, Z2_NAMES = cyclic_group_table(2)


def kS3():
    return group_algebra(S3_TABLE, S3_NAMES)


def radford_r(b):
    """The nontrivial triangular structure on kZ/2 (char != 2):
    R = (1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g) / 2."""
    h = Fraction(1, 2)
    return RMatrix.from_coefficients(b, [h, h, h, -h])


def test_unit_r_on_cocommutative_is_weak_and_strong():
    r = unit_r_matrix(kS3())
    assert check_r(r, "weak").passed
    assert check_r(r, "strong").passed


def test_unit_r_axiom3_fails_on_noncocommutative():
    rd = unit_r_matrix(dual_bialgebra(kS3()))
    rep = check_r(rd, "weak")
    assert rep["weak_1_delta_R"].passed and rep["weak_2_eps_R"].passed
    assert not rep["weak_3_R_delta"].passed
    assert rep["weak_3_R_delta"].witness is not None


def test_unit_r_quantum_ybe_on_any_bialgebra():
    for b in (kS3(), dual_bialgebra(kS3()), monoid_algebra([[0, 1], [1, 1]])):
        rep = check_r(unit_r_matrix(b), "quantum_ybe")
        assert rep["quantum_ybe"].passed


def test_radford_r_is_strong_and_quantum():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    r = radford_r(b)
    assert check_r(r, "weak").passed
    assert check_r(r, "strong").passed
    assert check_r(r, "quantum_ybe").passed


def test_coaction_from_unit_r_is_trivial():
    b = kS3()
    mod = left_regular_module(b)
    r = unit_r_matrix(b)
    delta_r = coaction_from_r(mod, r)
    # delta_R(m) = m (x) 1
    for (row, col), v in delta_r.matrix.entries.items():
        m_out, h_out = divmod(row, 6)
        assert m_out == col and h_out == 0 and v == QQ.one
    assert check_yd(yd_from_r(mod, r), "yd").passed


def test_coaction_from_radford_r_gives_nontrivial_yd():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    mod = left_regular_module(b)
    ydm = yd_from_r(mod, radford_r(b))
    assert check_yd(ydm, "yd").passed
    assert ydm.delta.matrix != coaction_from_r(mod, unit_r_matrix(b)).matrix


def test_non_weak_r_breaks_the_induced_yd():
    b = kS3()
    mod = left_regular_module(b)
    bad = RMatrix.from_coefficients(b, [QQ.one if i == 7 else QQ.zero for i in range(36)])
    assert not check_r(bad, "weak").passed
    assert not check_yd(yd_from_r(mod, bad), "yd").passed


def test_r_braiding_unit_r_is_flip_and_matches_yd():
    b = kS3()
    mod = left_regular_module(b)
    r = unit_r_matrix(b)
    c, c_inv = r_braiding(mod, mod, r)
    assert c.matrix == flip(mod.space, mod.space, QQ).matrix
    assert c.matrix == yd_braiding(yd_from_r(mod, r), yd_from_r(mod, r))[0].matrix
    assert c_inv is not None


def _same_map(x, y):
    return x.matrix == y.matrix and x.domain == y.domain and x.codomain == y.codomain


def _algebra_inverse(b, vector):
    """R^-1 in the algebra H (x) H, as a k -> H (x) H map, or None when R is not invertible."""
    left = mu_tensor_square(b).compose(vector.tensor(identity([b.space, b.space], b.field)))
    inv = matrix_inverse(left.matrix)
    if inv is None:
        return None
    one = b.nu.tensor(b.nu)
    return LinMap(one.domain, one.codomain, inv @ one.matrix)


def _oracle_cases(b, rng, rand, modules, radford=None):
    """(R, M, N): the unit R, Radford's R on kZ/2, and 20 random R that are not weak R-matrices,
    each with its inverse in H (x) H when it has one and a random vector otherwise."""
    d = b.dim
    vectors = [unit_r_matrix(b).vector]
    if radford is not None:
        vectors.append(RMatrix.from_coefficients(b, radford).vector)
    randoms = 0
    while randoms < 20:
        r = RMatrix.from_coefficients(b, [rand() for _ in range(d * d)])
        if not check_r(r, "weak").passed:
            vectors.append(r.vector)
            randoms += 1
    for vector in vectors:
        inverse = _algebra_inverse(b, vector)
        if inverse is None:
            inverse = RMatrix.from_coefficients(b, [rand() for _ in range(d * d)]).vector
        m, n = rng.choice(modules), rng.choice(modules)
        yield RMatrix(b, vector, inverse), m, n


@pytest.mark.parametrize("field_name", ["Z2/F5", "S3/Q"])
def test_r_braiding_and_coaction_equal_the_old_formulas(field_name):
    """delta_R = c o (Id (x) lam) o (R (x) Id), c_R = c o (lam_M (x) lam_N) o (Id (x) c (x) Id) o (R (x) Id)
    and c_R^-1 = (lam_M (x) lam_N) o (Id (x) c (x) Id) o (R^-1 (x) c), written out here as the
    formulas rmatrix used before it built them as YD braidings: the same maps, spaces included,
    for the unit R, Radford's R and 20 random R that are not weak R-matrices."""
    rng = random.Random(7)
    radford = None
    if field_name == "Z2/F5":
        F = GF(5)
        b = group_algebra(Z2_TABLE, Z2_NAMES, field=F)
        modules = [left_regular_module(b)] + [random_precision_data(b, 2, rng) for _ in range(3)]
        modules = [YDModule(b, m.space, m.lam) for m in modules]
        radford = [3, 3, 3, 2]  # (1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g) / 2

        def rand():
            return rng.randrange(5)

    else:
        F = QQ
        b = kS3()
        modules = [left_regular_module(b), regular_yd_group_algebra(S3_TABLE, S3_NAMES), unit_yd(b)]

        def rand():
            return Fraction(rng.randrange(-2, 3))

    inverses = 0
    for r, m, n in _oracle_cases(b, rng, rand, modules, radford):
        H, M, N = b.space, m.space, n.space
        old_delta = compose_chain([flip(H, M, F), identity([H], F).tensor(m.lam), r.vector.tensor(identity([M], F))])
        assert _same_map(coaction_from_r(m, r), old_delta)
        c, c_inv = r_braiding(m, n, r)
        old_c = flip(M, N, F).compose(on_tensor(m.lam, n.lam, r.vector.tensor(identity([M, N], F))))
        assert _same_map(c, old_c)
        old_inv = on_tensor(m.lam, n.lam, r.inverse.tensor(flip(N, M, F)))
        assert _same_map(ring_braiding(ring_braiding(r.inverse, n.lam, F), m.lam, F), old_inv)
        assert (c_inv is not None) == is_two_sided_inverse(old_c, old_inv)
        if c_inv is not None:
            assert _same_map(c_inv, old_inv)
            inverses += 1
    assert inverses


def test_r_braiding_does_not_depend_on_the_antipode():
    """Radford's R on the regular module, and 20 random R, not weak R-matrices, on random data, whose
    induced modules are not YD modules (kZ/2 over F_5): c_R and its verified inverse are the same
    maps with and without the base's antipode."""
    F = GF(5)
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=F)
    bare = Bialgebra(b.space, b.mu, b.nu, b.delta, b.eps)
    rng = random.Random(2)
    radford = [3, 3, 3, 2]  # (1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g) / 2, its own inverse
    cases = [(radford, radford)] + [([rng.randrange(5) for _ in range(4)] for _ in range(2)) for _ in range(20)]
    non_weak = inverses = 0
    for vector, inverse in cases:
        m = left_regular_module(b) if vector is radford else random_precision_data(b, 2, rng)
        out = []
        for base in (b, bare):
            r = RMatrix.from_coefficients(base, vector, inverse)
            c, c_inv = r_braiding(YDModule(base, m.space, m.lam), YDModule(base, m.space, m.lam), r)
            out.append((c.matrix, None if c_inv is None else c_inv.matrix))
        assert out[0] == out[1]
        non_weak += not check_r(r, "weak").passed
        inverses += out[0][1] is not None
    assert non_weak == 20 and inverses >= 1, (non_weak, inverses)


def test_r_braiding_ybe_for_kZ3():
    t3, n3 = cyclic_group_table(3)
    b = group_algebra(t3, n3)
    mod = left_regular_module(b)
    c, _ = r_braiding(mod, mod, unit_r_matrix(b))
    idm = identity([mod.space], QQ)
    lhs = compose_chain([c.tensor(idm), idm.tensor(c), c.tensor(idm)])
    rhs = compose_chain([idm.tensor(c), c.tensor(idm), idm.tensor(c)])
    assert lhs.matrix == rhs.matrix


def test_r_braiding_radford_invertible_nonflip():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    r = antipode_inverse_r(radford_r(b))
    mod = left_regular_module(b)
    c, c_inv = r_braiding(mod, mod, r)
    assert c.matrix != flip(mod.space, mod.space, QQ).matrix
    assert c_inv is not None


def test_antipode_inverse_r():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    r = antipode_inverse_r(RMatrix(b, b.nu.tensor(b.nu)))
    assert r.inverse.matrix == b.nu.tensor(b.nu).matrix
    assert verify_r_inverse(r)
    r2 = antipode_inverse_r(radford_r(b))
    assert verify_r_inverse(r2)
    with pytest.raises(AntipodeMissingError):
        antipode_inverse_r(unit_r_matrix(monoid_algebra([[0, 1], [1, 1]])))


def _module_morphisms(m, n):
    """Basis of H-module morphisms M -> N via the kernel of the linear
    intertwining condition."""
    b = m.base
    f = b.field
    dH, dM, dN = b.dim, m.dim, n.dim
    # unknowns F[r, c] (dN x dM); rows of the system: (i, out, a)
    ent = {}
    for i in range(dH):
        for a in range(dM):
            for out in range(dN):
                row = (i * dN + out) * dM + a
                # (F o lam_M)[out, (i,a)] = sum_b F[out,b] lamM[b, (i,a)]
                for bb in range(dM):
                    v = m.lam.matrix.get(bb, i * dM + a)
                    if f.reduce(v):
                        key = (row, out * dM + bb)
                        ent[key] = f.reduce(ent.get(key, f.zero) + v)
                # -(lam_N o (Id (x) F))[out, (i,a)] = -sum_c lamN[out,(i,c)] F[c,a]
                for c in range(dN):
                    v = n.lam.matrix.get(out, i * dN + c)
                    if f.reduce(v):
                        key = (row, c * dM + a)
                        ent[key] = f.reduce(ent.get(key, f.zero) - v)
    system = SparseMatrix(f, dH * dN * dM, dN * dM, ent)
    out = []
    for vec in kernel_basis(system):
        fm = {}
        for r in range(dN):
            for c in range(dM):
                v = vec[r * dM + c]
                if f.reduce(v):
                    fm[(r, c)] = v
        out.append(LinMap((m.space,), (n.space,), SparseMatrix(f, dN, dM, fm)))
    return out


def test_module_morphisms_intertwine_induced_coactions():
    """Every H-module morphism automatically respects the R-induced
    coactions, for a weak R."""
    F = GF(5)
    b = group_algebra(S3_TABLE, S3_NAMES, field=F)
    r = unit_r_matrix(b)
    mod = left_regular_module(b)
    triv = YDModule(b, left_regular_module(b).space, LinMap(mod.lam.domain, mod.lam.codomain, mod.lam.matrix))
    morphisms = _module_morphisms(mod, mod)
    assert len(morphisms) >= 2
    ydm = yd_from_r(mod, r)
    id_H = identity([b.space], F)
    for fm in morphisms:
        lhs = fm.tensor(id_H).compose(ydm.delta)
        rhs = ydm.delta.compose(fm)
        assert lhs.matrix == rhs.matrix


def test_invertible_weak_r_axiom2_follows_from_axiom1():
    """Whenever the stored inverse verifies, axiom 2 never fails alone."""
    b2 = group_algebra(Z2_TABLE, Z2_NAMES)
    candidates = [antipode_inverse_r(unit_r_matrix(b2)), antipode_inverse_r(radford_r(b2))]
    b3 = group_algebra(*cyclic_group_table(3))
    candidates.append(antipode_inverse_r(unit_r_matrix(b3)))
    for r in candidates:
        assert verify_r_inverse(r)
        rep = check_r(r, "weak")
        if rep["weak_1_delta_R"].passed:
            assert rep["weak_2_eps_R"].passed


def test_strong_r_monoidality_of_induced_coactions():
    """For a strong R, the standard tensor YD structure of two induced
    modules equals the induced structure of the tensor module."""
    for b, r in (
        (kS3(), unit_r_matrix(kS3())),
        (group_algebra(Z2_TABLE, Z2_NAMES), radford_r(group_algebra(Z2_TABLE, Z2_NAMES))),
    ):
        assert check_r(r, "strong").passed
        mod = left_regular_module(b)
        ydm = yd_from_r(mod, r)
        t = tensor_yd(ydm, ydm, "standard")
        tensor_module = YDModule(b, t.space, t.lam, None)
        induced = yd_from_r(tensor_module, r)
        assert t.delta.matrix == induced.delta.matrix
