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
    pivot_columns,
    rank,
    rref,
    solve_linear,
)


def mat(field, rows):
    return SparseMatrix.from_rows(field, rows)


def test_field_axioms_on_random_triples():
    rng = random.Random(2024)
    for field, sample in (
        (QQ, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
        (GF(5), lambda: rng.randrange(5)),
        (GF(2**31 - 1), lambda: rng.randrange(2**31 - 1)),
    ):
        r = field.reduce
        for _ in range(50):
            a, b, c = sample(), sample(), sample()
            # reduce commutes with +, * and negation, so reducing once after plain arithmetic is exact
            assert r(r(a) + r(b)) == r(a + b) == r(b + a)
            assert r(r(a) * r(b)) == r(a * b) == r(b * a)
            assert r(-r(a)) == r(-a)
            assert r(r(a + b) + c) == r(a + r(b + c))
            assert r(r(a * b) * c) == r(a * r(b * c))
            assert r(a * r(b + c)) == r(r(a * b) + r(a * c))
            assert r(a + r(-a)) == field.zero
            if r(a):
                assert r(a * (Fraction(1, a) if field.p is None else pow(a, -1, field.p))) == field.one


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
    zero = SparseMatrix(QQ, 3, 4)
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
    basis = kernel_basis(SparseMatrix(QQ, 2, 3))
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
    zero = SparseMatrix(QQ, 2, 2)
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
    assert F.reduce(5) == F.reduce(-10) == F.reduce(0) == 0
    assert F.reduce(7) == 2


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
        out[r] = f.reduce(out[r] + v * x[c])
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
    # pivot columns are the leading columns of the reduced rows; skipped rows are left out, ints off the rows ignored
    leads = lambda rows: {next(j for j, v in enumerate(row) if v) for row in rows if any(row)}
    assert pivot_columns(m) == leads(ref_rows)
    skip = {i for i in range(-1, m.n_rows + 2) if i % 2}
    kept = [row for i, row in enumerate(dense) if i not in skip]
    assert pivot_columns(m, skip) == leads(reference_rref(m.field, m.n_cols, kept)[0])


@PROPERTY_SETTINGS
@given(sparse_matrices())
def test_rank_transpose_kernel_and_idempotent_rref(case):
    m, _ = case
    basis = kernel_basis(m)
    assert rank(m) == rank(m.transpose()) == m.n_cols - len(basis)
    for v in basis:
        assert all(not m.field.reduce(x) for x in mat_vec(m, v))
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


# -- canonical scalars -------------------------------------------------------------


def q_scalars():
    """Rationals as ints, as integral Fractions such as Fraction(4, 2) and as proper Fractions."""
    return st.one_of(
        st.integers(-6, 6),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
        st.sampled_from([Fraction(4, 2), Fraction(-3, 1), Fraction(0, 3)]),
    )


def assert_canonical(field, values):
    """Over Q an int or a non-integral Fraction (never a float or bool); over F_p an int in [0, p)."""
    for v in values:
        if field.kind == "Q":
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)
        else:
            assert type(v) is int and 0 <= v < field.p, repr(v)


@st.composite
def canonical_cases(draw):
    """A field and matrices a, b (n x k), c (k x m), sq (k x k), x (k x 1) and a scalar s."""
    field = draw(st.sampled_from(FIELDS))
    values = q_scalars() if field.kind == "Q" else scalars(field)
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))

    def matrix(rows, cols):
        if not rows or not cols:
            return SparseMatrix(field, rows, cols)
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        return SparseMatrix(field, rows, cols, draw(st.dictionaries(cells, values, max_size=10)))

    a, b, c, sq, x = matrix(n, k), matrix(n, k), matrix(k, m), matrix(k, k), matrix(k, 1)
    return field, a, b, c, sq, x, draw(values)


@PROPERTY_SETTINGS
@given(canonical_cases())
def test_every_stored_scalar_is_canonical_after_each_operation(case):
    f, a, b, c, sq, x, s = case
    products = [a, b, c, a @ c, a + b, a - b, -a, a.scale(s), kronecker(a, c), a.transpose(), rref(a)[0]]
    inv = inverse(sq)
    if inv is not None:
        products.append(inv)
    for m in products:
        assert_canonical(f, m.entries.values())
    ax = a @ x
    sol = solve_linear(a, [ax.get(r, 0) for r in range(a.n_rows)])
    assert sol is not None
    assert_canonical(f, [v for vec in kernel_basis(a) + [sol] for v in vec])
    assert_canonical(f, [v for row in a.rref_data().values() for v in row.values()])


def assert_as_constructed(m):
    """m is what the validating constructor makes of its own entries, none of them zero."""
    assert m == SparseMatrix(m.field, m.n_rows, m.n_cols, m.entries)
    assert all(m.entries.values())
    assert_canonical(m.field, m.entries.values())


@PROPERTY_SETTINGS
@given(canonical_cases())
def test_products_are_built_as_the_constructor_builds_them(case):
    """``@``, ``kronecker`` and ``identity`` skip the constructor's bounds check, not its canonical form."""
    f, a, b, c, sq, x, s = case
    for m in (a @ c, sq @ sq, a @ x, kronecker(a, c), kronecker(c, x), SparseMatrix.identity(f, a.n_rows)):
        assert_as_constructed(m)


@pytest.mark.parametrize(
    "f, a, b, product",
    [
        # Fractions whose products and sums are integers
        (QQ, [[Fraction(1, 2), Fraction(2, 3)]], [[Fraction(4, 1)], [Fraction(3, 2)]], [[3]]),
        (QQ, [[Fraction(2, 3), Fraction(-2, 3)]], [[Fraction(3, 2)], [Fraction(3, 2)]], [[0]]),
        # sums that cancel to 0 mod p
        (GF(5), [[1, 2], [3, 4]], [[3, 1], [1, 2]], [[0, 0], [3, 1]]),
        (GF(5), [[2, 3]], [[1], [1]], [[0]]),
    ],
)
def test_products_reduce_integral_fractions_and_drop_cancelled_sums(f, a, b, product):
    a, b = mat(f, a), mat(f, b)
    assert a @ b == mat(f, product)
    for m in (a @ b, kronecker(a, b), kronecker(b, a)):
        assert_as_constructed(m)


@PROPERTY_SETTINGS
@given(q_scalars(), q_scalars())
def test_rational_field_operations_return_canonical_scalars(a, b):
    got = [QQ.reduce(a + b), QQ.reduce(a - b), QQ.reduce(a * b), QQ.reduce(-a)]
    assert got == [a + b, a - b, a * b, -a]
    assert_canonical(QQ, got + [QQ.zero, QQ.one, QQ.reduce(-7)])
    if a:
        assert QQ.reduce(Fraction(1, a)) == 1 / Fraction(a)
        assert_canonical(QQ, [QQ.reduce(Fraction(1, a))])


@pytest.mark.parametrize(
    "text", ["1_000", " 3", "+3", "-0", "1e3", "1.5", "0x10", "--3", "", "4/2", "3/6", "1/0", "x"]
)
def test_rational_parse_accepts_exactly_what_fraction_accepts(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(FieldError):
            QQ.parse(text)
    else:
        got = QQ.parse(text)
        assert got == expected
        assert_canonical(QQ, [got])


def test_rational_parse_refuses_an_exponent_past_the_int_digit_limit():
    # a numerator or denominator of more than 4300 digits (Python's default limit on int strings) could
    # not be written back, so it is a malformed rational; 1e10000000 (a 33-Mbit numerator) is refused
    # before it is built
    assert QQ.parse("1e2") == 100 and QQ.parse("1.5") == Fraction(3, 2) and QQ.parse("-6/4") == Fraction(-3, 2)
    assert QQ.parse("1e4299") == 10**4299 and QQ.parse("1E-4299") == Fraction(1, 10**4299)
    assert QQ.parse("0.001e4302") == 10**4299 and QQ.parse("-" + "9" * 4300) == 1 - 10**4300
    for text in ("1e4300", "1E-4300", "2.5E-4301", "1e10000000", "1e" + "9" * 5000, "1/" + "1" + "0" * 4300):
        with pytest.raises(FieldError, match="malformed rational"):
            QQ.parse(text)


def test_rational_parse_reads_a_zero_mantissa_under_any_exponent():
    # 0 times a power of ten is 0 however long the exponent; 10**exp is never built, so a nine-digit
    # exponent returns at once and a 5000-digit one (past the int digit limit) still parses
    zeros = ("0e4301", "0e5000", "-0e5000", "0e-5000", "0.0e99999", "0e999999999", "0e" + "9" * 5000, "0E+1_0")
    for text in zeros:
        got = QQ.parse(text)
        assert got == 0 and type(got) is int
    for text in ("0e", "0eabc", "0e 5", "0e--5", "0/1e5", "e5", "1e5000", "1e-5000"):
        with pytest.raises(FieldError, match="malformed rational"):
            QQ.parse(text)
    with pytest.raises(FieldError, match="malformed F_5 scalar"):
        GF(5).parse("0e5")


# -- the product laws every sigma composite relies on ---------------------------


def matrices(field, rows, cols):
    """Random rows x cols matrices, one raw scalar per cell (zero or unreduced among them)."""
    values = q_scalars() if field.kind == "Q" else scalars(field)
    cells = st.lists(values, min_size=rows * cols, max_size=rows * cols)
    return cells.map(lambda vs: SparseMatrix(field, rows, cols, {divmod(t, cols): v for t, v in enumerate(vs)}))


PRODUCT_FIELDS = st.sampled_from((QQ, GF(5)))
SIDES = st.integers(1, 3)


@PROPERTY_SETTINGS
@given(PRODUCT_FIELDS, st.lists(SIDES, min_size=4, max_size=4), st.data())
def test_matmul_is_associative(f, dims, data):
    a, b, c = (data.draw(matrices(f, r, k)) for r, k in zip(dims, dims[1:]))
    assert (a @ b) @ c == a @ (b @ c)


@PROPERTY_SETTINGS
@given(PRODUCT_FIELDS, st.lists(SIDES, min_size=6, max_size=6), st.data())
def test_kronecker_is_associative_on_random_shapes(f, dims, data):
    a, b, c = (data.draw(matrices(f, dims[2 * t], dims[2 * t + 1])) for t in range(3))
    assert kronecker(kronecker(a, b), c) == kronecker(a, kronecker(b, c))


@PROPERTY_SETTINGS
@given(PRODUCT_FIELDS, st.lists(SIDES, min_size=6, max_size=6), st.data())
def test_mixed_product_of_kronecker_and_matmul(f, dims, data):
    """(A (x) B) @ (C (x) D) = (A @ C) (x) (B @ D) for A: n x k, C: k x l, B: p x q, D: q x r."""
    n, k, l, p, q, r = dims
    a, c, b, d = (data.draw(matrices(f, *shape)) for shape in ((n, k), (k, l), (p, q), (q, r)))
    assert kronecker(a, b) @ kronecker(c, d) == kronecker(a @ c, b @ d)
