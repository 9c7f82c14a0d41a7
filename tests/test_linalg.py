"""Exact field arithmetic and sparse linear algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidalg.linalg import (
    GF,
    QQ,
    FieldError,
    SparseMatrix,
    inverse,
    is_prime,
    kernel_basis,
    kronecker,
    rank,
    rref,
    solve_linear,
)


def mat(field, rows):
    return SparseMatrix.from_rows(field, [[field.from_int(x) for x in row] for row in rows])


def test_field_axioms_on_random_triples():
    rng = random.Random(2024)
    for field, sample in (
        (QQ, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
        (GF(5), lambda: rng.randrange(5)),
        (GF(2**31 - 1), lambda: rng.randrange(2**31 - 1)),
    ):
        for _ in range(50):
            a, b, c = sample(), sample(), sample()
            assert field.add(a, b) == field.add(b, a)
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            assert field.add(a, field.neg(a)) == field.zero
            if not field.is_zero(a):
                assert field.mul(a, field.inv(a)) == field.one


def test_fraction_parsing_and_canonical_form():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.parse("-3") == Fraction(-3)
    assert QQ.to_json(Fraction(-1, 2)) == "-1/2"
    with pytest.raises(FieldError):
        QQ.parse("1/0")
    with pytest.raises(FieldError):
        QQ.parse("x")
    assert GF(5).parse(7) == 2
    assert GF(5).parse("-1") == 4
    with pytest.raises(FieldError):
        GF(4)


def test_is_prime():
    assert [p for p in range(60) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 - 2)


def test_rref_identity_and_zero():
    ident = SparseMatrix.identity(QQ, 2)
    r, rk = rref(ident)
    assert r == ident and rk == 2
    zero = SparseMatrix.zeros(QQ, 3, 4)
    r, rk = rref(zero)
    assert r == zero and rk == 0


def test_rref_rank_one():
    # [[1,2],[2,4]] row-reduces to [[1,2],[0,0]]: rank 1
    m = mat(QQ, [[1, 2], [2, 4]])
    r, rk = rref(m)
    assert rk == 1
    assert r == mat(QQ, [[1, 2], [0, 0]])


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        m = mat(QQ, [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)])
        r1, _ = rref(m)
        r2, _ = rref(r1)
        assert r1 == r2


def test_kernel_basis():
    assert kernel_basis(SparseMatrix.identity(QQ, 3)) == []
    basis = kernel_basis(SparseMatrix.zeros(QQ, 2, 3))
    assert len(basis) == 3
    m = mat(QQ, [[1, 2], [2, 4]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    # m v = 0 by substitution
    for i in range(2):
        assert sum(m.get(i, j) * v[j] for j in range(2)) == 0
    # spans the same line as (-2, 1)
    assert v[0] * 1 == v[1] * -2


def test_solve_linear():
    ident = SparseMatrix.identity(QQ, 3)
    b = [Fraction(1), Fraction(2), Fraction(3)]
    assert solve_linear(ident, b) == b
    zero = SparseMatrix.zeros(QQ, 2, 2)
    assert solve_linear(zero, [Fraction(1), Fraction(0)]) is None
    m = mat(QQ, [[1, 2], [2, 4]])
    x = solve_linear(m, [Fraction(1), Fraction(2)])
    assert x is not None
    for i in range(2):
        assert sum(m.get(i, j) * x[j] for j in range(2)) == [Fraction(1), Fraction(2)][i]


def test_kronecker_index_convention():
    a = mat(QQ, [[1, 2], [3, 4]])
    b = mat(QQ, [[0, 5], [6, 7], [8, 9]])
    k = kronecker(a, b)
    assert k.n_rows == 6 and k.n_cols == 4
    for i in range(2):
        for j in range(2):
            for kk in range(3):
                for l in range(2):
                    assert k.get(i * 3 + kk, j * 2 + l) == a.get(i, j) * b.get(kk, l)
    # identity factors
    assert kronecker(SparseMatrix.identity(QQ, 2), SparseMatrix.identity(QQ, 3)) == SparseMatrix.identity(QQ, 6)
    one = SparseMatrix.identity(QQ, 1)
    assert kronecker(a, one) == a


def test_kronecker_rank_multiplicative_over_F5():
    rng = random.Random(11)
    F = GF(5)
    for _ in range(10):
        a = SparseMatrix.from_rows(F, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        b = SparseMatrix.from_rows(F, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        assert rank(kronecker(a, b)) == rank(a) * rank(b)


def test_kronecker_associative():
    rng = random.Random(3)
    F = GF(7)
    a = SparseMatrix.from_rows(F, [[rng.randrange(7) for _ in range(2)] for _ in range(2)])
    b = SparseMatrix.from_rows(F, [[rng.randrange(7) for _ in range(3)] for _ in range(2)])
    c = SparseMatrix.from_rows(F, [[rng.randrange(7) for _ in range(2)] for _ in range(3)])
    assert kronecker(kronecker(a, b), c) == kronecker(a, kronecker(b, c))


def test_rank_transpose_and_nullity():
    rng = random.Random(5)
    for _ in range(15):
        m = mat(QQ, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)])
        assert rank(m) == rank(m.transpose())
        assert rank(m) + len(kernel_basis(m)) == m.n_cols


def test_inverse():
    m = mat(QQ, [[1, 2], [3, 5]])
    mi = inverse(m)
    assert mi @ m == SparseMatrix.identity(QQ, 2)
    assert m @ mi == SparseMatrix.identity(QQ, 2)
    assert inverse(mat(QQ, [[1, 2], [2, 4]])) is None


# -- field discipline ----------------------------------------------------------


def test_prime_field_entries_are_canonical_at_construction():
    F = GF(5)
    five = SparseMatrix(F, 1, 1, {(0, 0): 5})
    assert five.is_zero()
    assert rank(five) == 0
    seven, two = SparseMatrix.from_rows(F, [[7]]), SparseMatrix(F, 1, 1, {(0, 0): 2})
    assert seven == two
    assert hash(seven) == hash(two)
    assert SparseMatrix(F, 1, 2, {(0, 0): -1, (0, 1): 12}).entries == {(0, 0): 4, (0, 1): 2}


def test_prime_field_is_zero_reduces_raw_ints():
    F = GF(5)
    assert F.is_zero(5) and F.is_zero(-10) and F.is_zero(0)
    assert not F.is_zero(7)


def test_matmul_and_kronecker_refuse_mixed_fields():
    q, f = SparseMatrix.identity(QQ, 1), SparseMatrix.identity(GF(5), 1)
    with pytest.raises(ValueError, match="field mismatch"):
        q @ f
    with pytest.raises(ValueError, match="field mismatch"):
        kronecker(f, q)
    assert q @ SparseMatrix.identity(QQ, 1) == q
    assert kronecker(f, SparseMatrix.identity(GF(5), 1)) == f


# -- properties of the elimination kernel against a dense reference -------------

PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)
FIELDS = (QQ, GF(2), GF(5), GF(2**61 - 1))


def reference_rref(field, n_cols, dense):
    """Textbook dense Gauss-Jordan with exact Fraction / mod-p arithmetic: (rref rows, rank)."""
    if field.kind == "Fp":
        p = field.p
        rows = [[v % p for v in row] for row in dense]
        norm, sub = (lambda v, lead: v * pow(lead, -1, p) % p), (lambda a, b, c: (a - b * c) % p)
    else:
        rows = [[Fraction(v) for v in row] for row in dense]
        norm, sub = (lambda v, lead: v / lead), (lambda a, b, c: a - b * c)
    r = 0
    for col in range(n_cols):
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        lead = rows[r][col]
        rows[r] = [norm(v, lead) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [sub(a, factor, b) for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows, r


def scalars(field):
    if field.kind == "Q":
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    # unreduced representatives, negative ones included
    return st.integers(-3 * field.p, 3 * field.p)


@st.composite
def sparse_matrices(draw, field=None, square=False):
    field = draw(st.sampled_from(FIELDS)) if field is None else field
    n_rows = draw(st.integers(0, 6))
    n_cols = n_rows if square else draw(st.integers(0, 7))
    cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
    nonzero = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    raw = {rc: draw(scalars(field)) for rc in nonzero}
    dense = [[raw.get((r, c), 0) for c in range(n_cols)] for r in range(n_rows)]
    return SparseMatrix(field, n_rows, n_cols, raw), dense


def mat_vec(m, x):
    f = m.field
    out = [f.zero] * m.n_rows
    for (r, c), v in m.entries.items():
        out[r] = f.add(out[r], f.mul(v, x[c]))
    return out


@PROPERTY_SETTINGS
@given(sparse_matrices())
def test_rank_and_rref_match_dense_reference(case):
    m, dense = case
    ref_rows, ref_rank = reference_rref(m.field, m.n_cols, dense)
    assert rank(m) == ref_rank
    r, rk = rref(m)
    assert rk == ref_rank
    ref_ent = {(i, j): v for i, row in enumerate(ref_rows) for j, v in enumerate(row)}
    assert r == SparseMatrix(m.field, m.n_rows, m.n_cols, ref_ent)


@PROPERTY_SETTINGS
@given(sparse_matrices())
def test_rank_transpose_kernel_and_idempotent_rref(case):
    m, _ = case
    basis = kernel_basis(m)
    assert rank(m) == rank(m.transpose()) == m.n_cols - len(basis)
    for v in basis:
        assert all(m.field.is_zero(x) for x in mat_vec(m, v))
    r1, _ = rref(m)
    assert rref(r1)[0] == r1


@PROPERTY_SETTINGS
@given(sparse_matrices(square=True))
def test_inverse_of_full_rank_matrices(case):
    m, _ = case
    inv = inverse(m)
    if rank(m) < m.n_rows:
        assert inv is None
    else:
        assert inv @ m == SparseMatrix.identity(m.field, m.n_rows)


@PROPERTY_SETTINGS
@given(sparse_matrices(), st.data())
def test_solve_linear_solves_consistent_systems(case, data):
    m, _ = case
    x0 = [data.draw(scalars(m.field)) for _ in range(m.n_cols)]
    if m.field.kind == "Fp":
        x0 = [v % m.field.p for v in x0]
    b = mat_vec(m, x0)
    x = solve_linear(m, b)
    assert x is not None
    assert mat_vec(m, x) == b
