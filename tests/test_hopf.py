"""Bialgebra/Hopf axiom checkers, duals, opposites, antipode solving."""

import itertools

import pytest

from braidalg.hopf import (
    Bialgebra,
    check_bialgebra,
    cycle_name,
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
from braidalg.linalg import GF, QQ, SparseMatrix
from braidalg.tensor import LinMap, identity

S3_TABLE, S3_NAMES = s3_table()
Z2_TABLE, Z2_NAMES = cyclic_group_table(2)


def kS3(field=QQ):
    return group_algebra(S3_TABLE, names=S3_NAMES, field=field)


def kZ2(field=QQ):
    return group_algebra(Z2_TABLE, names=Z2_NAMES, field=field)


def idempotent_monoid():
    return monoid_algebra([[0, 1], [1, 1]], names=("1", "e"))


def shipped_examples():
    yield kZ2()
    yield group_algebra(*cyclic_group_table(3))
    yield kS3()
    yield group_algebra(*d4_table())
    yield idempotent_monoid()
    yield group_algebra(*cyclic_group_table(1))


def test_ground_field_is_a_hopf_algebra():
    b = group_algebra(*cyclic_group_table(1))
    assert b.dim == 1
    assert check_bialgebra(b, "hopf").passed


def test_s3_all_hopf_checks_pass():
    assert check_bialgebra(kS3(), "hopf").passed


def test_perturbed_multiplication_fails_with_witness():
    b = kS3()
    # swap one structure constant: make e.(12) land on (13) instead
    ent = dict(b.mu.matrix.entries)
    i12, i13 = S3_NAMES.index("(12)"), S3_NAMES.index("(13)")
    col = 0 * 6 + i12
    del ent[(i12, col)]
    ent[(i13, col)] = QQ.one
    bad = Bialgebra(b.space, LinMap(b.mu.domain, b.mu.codomain, SparseMatrix(QQ, 6, 36, ent)), b.nu, b.delta, b.eps)
    rep = check_bialgebra(bad, "algebra")
    assert not rep.passed
    fail = rep.first_failure()
    assert fail.name in ("associativity", "unit_left", "unit_right")
    assert fail.witness is not None and len(fail.witness.domain_index) in (1, 3)


def test_solve_antipode_group_inverse():
    b = kS3()
    s = solve_antipode(b)
    assert s is not None
    inv_oracle = {}
    for i, p in enumerate(sorted(itertools.permutations(range(3)))):
        q = tuple(p.index(x) for x in range(3))
        inv_oracle[i] = sorted(itertools.permutations(range(3))).index(q)
    for i in range(6):
        for j in range(6):
            assert s.matrix.get(j, i) == (QQ.one if inv_oracle[i] == j else QQ.zero)


def test_solve_antipode_trivial_and_monoid():
    b1 = group_algebra(*cyclic_group_table(1))
    s = solve_antipode(b1)
    assert s is not None and s.matrix == SparseMatrix.identity(QQ, 1)
    assert solve_antipode(idempotent_monoid()) is None


def test_hopf_level_reports_antipode_missing_distinctly():
    rep = check_bialgebra(idempotent_monoid(), "hopf")
    assert not rep["antipode_present"].passed
    assert "antipode_left" not in rep
    # a wrong antipode reports the identity failure instead: for kZ/3 the
    # identity map is not the inversion s(g) = g^2
    b = group_algebra(*cyclic_group_table(3))
    bad = Bialgebra(b.space, b.mu, b.nu, b.delta, b.eps, identity([b.space], QQ))
    rep = check_bialgebra(bad, "hopf")
    assert rep["antipode_present"].passed
    assert not rep["antipode_left"].passed


def test_dual_of_ground_field():
    b = group_algebra(*cyclic_group_table(1))
    d = dual_bialgebra(b)
    assert d.dim == 1 and check_bialgebra(d, "hopf").passed


def test_dual_multiplication_pairing_oracle_kZ2():
    """(l1 l2)(h) = l1(h_(2)) l2(h_(1)) on all basis tuples for kZ/2."""
    b = kZ2()
    d = dual_bialgebra(b)
    dim = 2
    for j1 in range(dim):
        for j2 in range(dim):
            for h in range(dim):
                # oracle: sum over Delta(e_h) = sum_{a,b} comul[h][a][b] l1(e_b) l2(e_a)
                oracle = QQ.zero
                for (row, col), v in b.delta.matrix.entries.items():
                    if col != h:
                        continue
                    a, bb = divmod(row, dim)
                    oracle += v * (QQ.one if bb == j1 else QQ.zero) * (QQ.one if a == j2 else QQ.zero)
                got = d.mu.matrix.get(h, j1 * dim + j2)
                assert got == oracle


def test_double_dual_is_identity_for_kS3():
    b = kS3()
    dd = dual_bialgebra(dual_bialgebra(b))
    assert dd.mu.matrix == b.mu.matrix
    assert dd.nu.matrix == b.nu.matrix
    assert dd.delta.matrix == b.delta.matrix
    assert dd.eps.matrix == b.eps.matrix
    assert dd.antipode.matrix == b.antipode.matrix


def test_opposites():
    b = kS3()
    d = dual_bialgebra(b)
    # dual of a cocommutative algebra is commutative
    mu_op, _ = opposites(d)
    assert mu_op.matrix == d.mu.matrix
    # group algebras are cocommutative
    _, delta_op = opposites(b)
    assert delta_op.matrix == b.delta.matrix
    # kS3 is not commutative: witness pair of non-commuting transpositions
    mu_op, _ = opposites(b)
    assert mu_op.matrix != b.mu.matrix
    i12, i13 = S3_NAMES.index("(12)"), S3_NAMES.index("(13)")
    col = i12 * 6 + i13
    cols_differ = [
        r for r in range(6) if b.mu.matrix.get(r, col) != mu_op.matrix.get(r, col)
    ]
    assert cols_differ


def test_mu_tensor_square():
    b = kZ2()
    mu2 = mu_tensor_square(b)
    # (1 (x) 1) . (x (x) y) = x (x) y
    for x in range(2):
        for y in range(2):
            col = ((0 * 2 + 0) * 2 + x) * 2 + y
            assert mu2.matrix.get(x * 2 + y, col) == QQ.one
    # (g (x) g).(g (x) g) = e (x) e
    col = ((1 * 2 + 1) * 2 + 1) * 2 + 1
    assert mu2.matrix.get(0 * 2 + 0, col) == QQ.one
    # associativity of mu_{HxH} on all basis triples
    HH = mu2.codomain
    id_HH = identity(HH, QQ)
    lhs = mu2.compose(mu2.tensor(id_HH))
    rhs = mu2.compose(id_HH.tensor(mu2))
    assert lhs.matrix == rhs.matrix


def test_group_algebra_validation_errors():
    with pytest.raises(ValueError, match="associative"):
        group_algebra([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="identity"):
        monoid_algebra([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="inverse"):
        group_algebra([[0, 1], [1, 1]])


def test_monoid_algebra_cases():
    # group table input agrees with group_algebra minus the antipode
    g = group_algebra(Z2_TABLE)
    m = monoid_algebra(Z2_TABLE)
    assert m.mu.matrix == g.mu.matrix and m.delta.matrix == g.delta.matrix and m.antipode is None
    mon = idempotent_monoid()
    assert check_bialgebra(mon, "bialgebra").passed


def test_shipped_examples_pass_their_levels_and_duals():
    for b in shipped_examples():
        level = "hopf" if b.antipode is not None else "bialgebra"
        assert check_bialgebra(b, level).passed, b
        assert check_bialgebra(dual_bialgebra(b), level).passed, b


def test_stock_tables():
    t, names = stock_group_table("Z6")
    assert len(t) == 6 and names[0] == "e"
    t, _ = stock_group_table("D4")
    assert len(t) == 8
    assert cycle_name((0, 1, 2)) == "e"
    assert cycle_name((1, 0, 2)) == "(12)"
    assert cycle_name((1, 2, 0)) == "(123)"
    with pytest.raises(ValueError):
        stock_group_table("Q8")


def test_d4_is_a_nonabelian_hopf_algebra():
    b = group_algebra(*d4_table(), field=GF(7))
    assert check_bialgebra(b, "hopf").passed
    mu_op, _ = opposites(b)
    assert mu_op.matrix != b.mu.matrix


def test_antipode_solution_passes_hopf_level():
    for b in (kZ2(), kS3(), group_algebra(*cyclic_group_table(3))):
        s = solve_antipode(b)
        assert s is not None
        with_s = Bialgebra(b.space, b.mu, b.nu, b.delta, b.eps, s)
        assert check_bialgebra(with_s, "hopf").passed
