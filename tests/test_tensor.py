"""Tensor-factor bookkeeping: basis-tuple terms, flips, embeddings, on_tensor, rainbow duality, evaluation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import braidalg.tensor as tensor_module
from braidalg.linalg import GF, QQ, SparseMatrix
from braidalg.tensor import (
    DimensionMismatch,
    LinMap,
    Space,
    apply_at,
    basis,
    compose_chain,
    decode,
    embed_at,
    evaluation,
    flip,
    from_terms,
    identity,
    on_tensor,
    permutation_map,
    prod_dim,
    rainbow_dual,
    tensor_maps,
)

F5 = GF(5)


def rand_map(rng, dom, cod, field=F5):
    ent = {}
    for r in range(cod.dim):
        for c in range(dom.dim):
            v = rng.randrange(5)
            if v:
                ent[(r, c)] = v
    return LinMap((dom,), (cod,), SparseMatrix(field, cod.dim, dom.dim, ent))


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_from_terms_sums_repeated_terms_and_drops_cancelled_ones(field):
    V, W = Space(2, "V"), Space(3, "W")
    half = Fraction(1, 2) if field.p is None else pow(2, -1, field.p)
    terms = [
        ((2,), (1, 0), half),
        ((2,), (1, 0), half),  # adds up to 1
        ((0,), (0, 1), 3),
        ((0,), (0, 1), field.reduce(-3)),  # cancels
        ((1,), (1, 1), 4),
    ]
    f = from_terms((V, V), (W,), terms, field)
    assert f.matrix.entries == {(2, 2): field.one, (1, 3): 4}
    assert sorted(f.terms()) == [((1,), (1, 1), 4), ((2,), (1, 0), field.one)]
    assert from_terms((V, V), (W,), terms[2:4], field).is_zero()


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_from_terms_inverts_terms_on_random_maps(field):
    rng = random.Random(17)
    A, B, C = Space(2, "A"), Space(3, "B"), Space(1, "C")
    shapes = [((), (A,)), ((A,), ()), ((A, B), (B,)), ((B,), (A, C, B)), ((), ()), ((A, B, C), (B, A))]
    for dom, cod in shapes:
        rows, cols = prod_dim(cod), prod_dim(dom)
        ent = {(r, c): rng.randrange(-3, 4) for r in range(rows) for c in range(cols) if rng.randrange(2)}
        f = LinMap(dom, cod, SparseMatrix(field, rows, cols, ent))
        assert from_terms(f.domain, f.codomain, f.terms(), field) == f
        assert all(len(out) == len(cod) and len(inp) == len(dom) for out, inp, _ in f.terms())


def test_decode_inverts_the_linear_index():
    spaces = (Space(2, "A"), Space(3, "B"), Space(4, "C"))
    for index, t in enumerate(basis(spaces)):
        assert decode(index, spaces) == t
        # from_terms places the basis tuple t at the same linear index
        assert from_terms((), spaces, [(t, (), QQ.one)], QQ).matrix.entries == {(index, 0): QQ.one}
    assert decode(23, spaces) == (1, 2, 3)  # 1 * 12 + 2 * 4 + 3: the left factor is major
    assert decode(0, ()) == ()


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_terms_and_columns_read_each_entry_as_decode_does(field):
    rng = random.Random(32)
    A, B, C = Space(2, "A"), Space(3, "B"), Space(1, "C")

    def factors(n):
        return tuple(rng.choice((A, B, C)) for _ in range(n))

    shapes = [((), (A,)), ((A,), ())]  # the shapes of a unit nu and a counit eps
    shapes += [(factors(p), factors(q)) for p in range(4) for q in range(4) for _ in range(2)]
    for dom, cod in shapes:
        f = random_map(rng, dom, cod, field)
        oracle = [(decode(r, cod), decode(c, dom), v) for (r, c), v in f.matrix.entries.items()]
        assert f.terms() == oracle
        grouped = {}
        for out, inp, v in oracle:
            grouped.setdefault(inp, []).append((*out, v))
        assert f.columns() == grouped and list(f.columns()) == list(grouped)
        assert basis(dom) is basis(dom) and basis(cod) is basis(tuple(cod))


def test_permutation_map_on_three_factors():
    spaces = (Space(2, "A"), Space(3, "B"), Space(4, "C"))
    for order in itertools.permutations(range(3)):
        p = permutation_map(spaces, order, F5)
        assert [s.label for s in p.codomain] == [spaces[t].label for t in order]
        expected = {(tuple(x[t] for t in order), x, F5.one) for x in basis(spaces)}
        assert set(p.terms()) == expected and len(p.terms()) == 24
        back = permutation_map(p.codomain, tuple(order.index(t) for t in range(3)), F5)
        assert back.compose(p) == identity(spaces, F5)


def weight_permutation_oracle(spaces, order, field):
    """permutation_map's former construction: input factor order[t] carries output factor t's stride,
    and the row of each column is the sum of its factors' indices times their weights."""
    spaces = tuple(spaces)
    cod = tuple(spaces[t] for t in order)
    strides, w = [], 1
    for s in reversed(cod):
        strides.insert(0, w)
        w *= s.dim
    weights = [0] * len(spaces)
    for t, w in zip(order, strides):
        weights[t] = w
    rows = [0]
    for s, w in zip(spaces, weights):
        rows = [r + x for r in rows for x in range(0, w * s.dim, w)]
    ent = {(r, col): field.one for col, r in enumerate(rows)}
    return LinMap(spaces, cod, SparseMatrix(field, len(rows), len(rows), ent))


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_permutation_map_equals_the_weight_construction(field):
    factors = (Space(2, "A"), Space(3, "B"), Space(1, "C"), Space(4, "D"))
    for n in range(1, 5):
        spaces = factors[:n]
        for order in itertools.permutations(range(n)):
            got, want = permutation_map(spaces, order, field), weight_permutation_oracle(spaces, order, field)
            assert (got.domain, got.codomain, got.matrix.entries) == (want.domain, want.codomain, want.matrix.entries)
    for v, w in itertools.permutations(factors, 2):
        got, want = flip(v, w, field), weight_permutation_oracle((v, w), (1, 0), field)
        assert (got.domain, got.codomain, got.matrix.entries) == (want.domain, want.codomain, want.matrix.entries)


def test_compose_chain_and_tensor():
    V = Space(3, "V")
    idv = identity([V], QQ)
    assert compose_chain([idv, idv]) == idv
    f = LinMap((V,), (V,), SparseMatrix.from_rows(QQ, [[(i * j) % 3 for j in range(3)] for i in range(3)]))
    one = LinMap((), (), SparseMatrix.identity(QQ, 1))
    assert tensor_maps([f, one]).matrix == f.matrix


def test_flip_cases():
    V1 = Space(1, "V1")
    W = Space(4, "W")
    assert flip(V1, W, QQ).matrix == SparseMatrix.identity(QQ, 4)
    V = Space(2, "V")
    c = flip(V, V, QQ)
    # e_0 (x) e_1 -> e_1 (x) e_0
    assert c.matrix.get(1 * 2 + 0, 0 * 2 + 1) == QQ.one
    V3, W4 = Space(3, "V"), Space(4, "W")
    assert compose_chain([flip(W4, V3, QQ), flip(V3, W4, QQ)]).matrix == SparseMatrix.identity(QQ, 12)


def test_flip_naturality():
    rng = random.Random(9)
    V, Vp, W, Wp = Space(2, "V"), Space(3, "V'"), Space(2, "W"), Space(2, "W'")
    for _ in range(5):
        f = rand_map(rng, V, Vp)
        g = rand_map(rng, W, Wp)
        lhs = flip(Vp, Wp, F5).compose(f.tensor(g))
        rhs = g.tensor(f).compose(flip(V, W, F5))
        assert lhs.matrix == rhs.matrix


def test_embed_at():
    H = Space(2, "H")
    ctx = (H, H, H)
    idh = identity([H], QQ)
    assert embed_at(idh, 2, ctx, QQ).matrix == SparseMatrix.identity(QQ, 8)
    f = LinMap((H,), (H,), SparseMatrix.from_rows(QQ, [[QQ.one, QQ.one], [QQ.zero, QQ.one]]))
    assert embed_at(f, 1, (H,), QQ) == f
    # embed a multiplication-shaped map at slot 1 of (H,H,H) == kronecker(mu, id)
    mu = LinMap(
        (H, H),
        (H,),
        SparseMatrix(QQ, 2, 4, {(0, 0): QQ.one, (1, 1): QQ.one, (1, 2): QQ.one, (0, 3): QQ.one}),
    )
    emb = embed_at(mu, 1, ctx, QQ)
    assert emb.matrix == mu.matrix.kronecker(SparseMatrix.identity(QQ, 2))


def test_embed_disjoint_slots_commute():
    rng = random.Random(1)
    V = Space(2, "V")
    ctx = (V, V, V, V)
    f = rand_map(rng, V, V)
    g = rand_map(rng, V, V)
    a = embed_at(f, 1, ctx, F5)
    b = embed_at(g, 3, ctx, F5)
    assert a.compose(b).matrix == b.compose(a).matrix


def test_embed_errors():
    V, W = Space(2, "V"), Space(3, "W")
    f = identity([V], QQ)
    with pytest.raises(DimensionMismatch):
        embed_at(f, 1, (W, W), QQ)
    with pytest.raises(DimensionMismatch):
        embed_at(f, 3, (V, V), QQ)
    with pytest.raises(DimensionMismatch):
        identity([V], QQ).compose(identity([W], QQ))


@st.composite
def apply_at_cases(draw):
    """(phi, i, m): m's codomain is left (x) phi's domain (x) right, each part 0-2 factors of dim 1-3,
    so phi may be nu-like (no domain factor) or eps-like (no codomain factor), and so may m."""
    f = draw(st.sampled_from((QQ, F5)))
    values = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)) if f is QQ else st.integers(-10, 10)

    def spaces(name):
        return tuple(Space(draw(st.integers(1, 3)), f"{name}{t}") for t in range(draw(st.integers(0, 2))))

    def linmap(dom, cod):
        rows, cols = prod_dim(cod), prod_dim(dom)
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        return LinMap(dom, cod, SparseMatrix(f, rows, cols, draw(st.dictionaries(cells, values, max_size=12))))

    left, slot, right = spaces("L"), spaces("A"), spaces("R")
    phi = linmap(slot, spaces("B"))
    return phi, len(left) + 1, linmap(spaces("D"), left + slot + right), left, right


@settings(max_examples=80, derandomize=True, deadline=None)
@given(apply_at_cases())
def test_apply_at_is_the_identity_padded_map_composed_after(case):
    phi, i, m, left, right = case
    f = phi.field
    got = apply_at(phi, i, m)
    assert got == tensor_maps([identity(left, f), phi, identity(right, f)]).compose(m)
    assert got.domain == m.domain and got.codomain == left + phi.codomain + right
    assert all(got.matrix.entries.values())
    assert got.matrix == SparseMatrix(f, got.matrix.n_rows, got.matrix.n_cols, got.matrix.entries)
    ctx = left + phi.domain + right
    assert embed_at(phi, i, ctx, f) == apply_at(phi, i, identity(ctx, f))


def test_apply_at_errors():
    V, W = Space(2, "V"), Space(3, "W")
    phi = identity([V], QQ)
    for i, ctx in ((1, (W, W)), (2, (V, W)), (0, (V, V)), (3, (V, V))):
        with pytest.raises(DimensionMismatch):
            apply_at(phi, i, identity(ctx, QQ))
    nu = LinMap((), (V,), SparseMatrix(QQ, 2, 1, {(0, 0): 1}))
    with pytest.raises(DimensionMismatch):
        apply_at(nu, 4, identity((V, V), QQ))
    assert apply_at(nu, 3, identity((V, V), QQ)).codomain == (V, V, V)
    with pytest.raises(ValueError, match="field mismatch"):
        apply_at(phi, 1, identity((V,), F5))


def middle_swap_oracle(f, g, x=None):
    """(f (x) g) o permutation_map(A1+B1+A2+B2, order) o x: on_tensor as a product with the swap's matrix."""
    (a1, a2), (b1, b2) = ((h.domain[: len(h.domain) // 2], h.domain[len(h.domain) // 2 :]) for h in (f, g))
    i, j, k = len(a1), len(a1) + len(b1), len(a1) + len(b1) + len(a2)
    order = (*range(i), *range(j, k), *range(i, j), *range(k, k + len(b2)))
    swap = permutation_map(a1 + b1 + a2 + b2, order, f.field)
    return f.tensor(g).compose(swap if x is None else swap.compose(x))


def random_map(rng, dom, cod, field):
    """A map with about half its entries nonzero, over Q with fractions among them."""
    values = (0, 0, 1, 2, -1, Fraction(1, 3), Fraction(-5, 2)) if field.p is None else (0, 0, 1, 2, 3, 4)
    return from_terms(dom, cod, ((o, i, rng.choice(values)) for o in basis(cod) for i in basis(dom)), field)


H2, M3, N2, K1 = Space(2, "H"), Space(3, "M"), Space(2, "N"), Space(1, "k")
# (f's domain, f's codomain, g's domain, g's codomain), each domain split in half by on_tensor
ON_TENSOR_SHAPES = [
    ((H2, H2), (H2,), (H2, H2), (H2,)),  # mu (x) mu: the product of H (x) H
    ((H2, H2, H2, H2), (H2, H2), (H2, H2), (H2,)),  # mu_{H (x) H} (x) mu: check_r's mu^(x)3
    ((H2, M3), (M3,), (H2, N2), (N2,)),  # lam (x) lam: the action on M (x) N
    ((M3, N2), (M3, N2), (H2, H2), (H2,)),  # Id (x) mu: the coaction of M (x) N
    ((), (H2,), (M3, N2), (K1, M3)),  # an empty first map's domain
    ((H2, M3, N2, K1), (), (N2, H2), (M3, M3)),  # unequal halves, codomain k
]


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("shape", range(len(ON_TENSOR_SHAPES)))
def test_on_tensor_equals_the_middle_swap_product(field, shape):
    fd, fc, gd, gc = ON_TENSOR_SHAPES[shape]
    rng = random.Random(f"on_tensor {shape} {field!r}")
    for _ in range(3):
        f, g = random_map(rng, fd, fc, field), random_map(rng, gd, gc, field)
        got, want = on_tensor(f, g), middle_swap_oracle(f, g)
        assert (got.domain, got.codomain, got.matrix) == (want.domain, want.codomain, want.matrix)
        x = random_map(rng, (N2, K1), got.domain, field)
        got, want = on_tensor(f, g, x), middle_swap_oracle(f, g, x)
        assert (got.domain, got.codomain, got.matrix) == (want.domain, want.codomain, want.matrix)


def test_on_tensor_builds_neither_a_permutation_nor_a_kronecker_product(monkeypatch):
    rng = random.Random(28)
    f, g = random_map(rng, (H2, H2, H2, H2), (H2, H2), F5), random_map(rng, (H2, H2), (H2,), F5)
    x = random_map(rng, (M3,), (H2,) * 6, F5)
    want_x, want = middle_swap_oracle(f, g, x), middle_swap_oracle(f, g)

    def refuse(*args, **kwargs):
        raise AssertionError("on_tensor built a permutation or a Kronecker product")

    monkeypatch.setattr(tensor_module, "permutation_map", refuse)
    monkeypatch.setattr(SparseMatrix, "kronecker", refuse)
    assert on_tensor(f, g, x).matrix == want_x.matrix and on_tensor(f, g).matrix == want.matrix


def test_on_tensor_errors_in_order():
    mu = random_map(random.Random(1), (H2, H2), (H2,), QQ)
    mu5 = random_map(random.Random(1), (H2, H2), (H2,), F5)
    lam = random_map(random.Random(2), (H2, M3, N2), (M3,), QQ)
    # an odd-length domain first (f's before g's), then a field mismatch, then the composition with x
    with pytest.raises(ValueError, match="even length, got 3 factors"):
        on_tensor(lam, mu5)
    with pytest.raises(ValueError, match="even length, got 3 factors"):
        on_tensor(mu, lam)
    with pytest.raises(ValueError, match="field mismatch"):
        on_tensor(mu, mu5, identity((M3,), QQ))
    with pytest.raises(DimensionMismatch, match="cannot compose"):
        on_tensor(mu, mu, identity((M3,), QQ))
    with pytest.raises(ValueError, match="field mismatch") as err:
        on_tensor(mu, mu, identity((H2,) * 4, F5))
    assert not isinstance(err.value, DimensionMismatch)


def test_rainbow_dual_identity_and_involution():
    V, W = Space(2, "V"), Space(3, "W")
    d = rainbow_dual(identity([V, W], QQ))
    assert d.matrix == SparseMatrix.identity(QQ, 6)
    assert [s.label for s in d.domain] == ["W*", "V*"]
    rng = random.Random(4)
    f = rand_map(rng, V, W)
    assert rainbow_dual(rainbow_dual(f)) == f


def test_rainbow_dual_contravariant():
    rng = random.Random(12)
    U, V, W = Space(2, "U"), Space(3, "V"), Space(2, "W")
    f = rand_map(rng, U, V)
    g = rand_map(rng, V, W)
    assert rainbow_dual(g.compose(f)) == rainbow_dual(f).compose(rainbow_dual(g))


def test_rainbow_dual_pairing_oracle_on_two_factors():
    """<rainbow_dual(f)(b2* (x) b1*), a1 (x) a2> = <b*, f(a1 (x) a2)> with the
    reversed pairing, checked entry by entry on random maps."""
    rng = random.Random(21)
    A1, A2, B1, B2 = Space(2, "A1"), Space(2, "A2"), Space(2, "B1"), Space(2, "B2")
    ent = {
        (r, c): rng.randrange(5)
        for r in range(4)
        for c in range(4)
        if rng.randrange(3)
    }
    f = LinMap((A1, A2), (B1, B2), SparseMatrix(F5, 4, 4, ent))
    g = rainbow_dual(f)
    for b1 in range(2):
        for b2 in range(2):
            for a1 in range(2):
                for a2 in range(2):
                    # column of g is (b2, b1) reversed; row is (a2, a1)
                    assert g.matrix.get(a2 * 2 + a1, b2 * 2 + b1) == f.matrix.get(b1 * 2 + b2, a1 * 2 + a2)


def test_evaluation():
    V1 = Space(1, "V")
    evl, evr = evaluation(V1, QQ)
    assert evl.matrix == SparseMatrix.identity(QQ, 1)
    V = Space(3, "V")
    evl, evr = evaluation(V, QQ)
    for i in range(3):
        for j in range(3):
            expected = QQ.one if i == j else QQ.zero
            assert evl.matrix.get(0, i * 3 + j) == expected
            assert evr.matrix.get(0, i * 3 + j) == expected


def test_evaluation_adjointness():
    rng = random.Random(33)
    V, W = Space(2, "V"), Space(3, "W")
    for _ in range(5):
        f = rand_map(rng, V, W)
        ev_v, _ = evaluation(V, F5)
        ev_w, _ = evaluation(W, F5)
        lhs = ev_v.compose(rainbow_dual(f).tensor(identity([V], F5)))
        rhs = ev_w.compose(identity([W.dual()], F5).tensor(f))
        assert lhs.matrix == rhs.matrix


def test_space_validation():
    with pytest.raises(ValueError):
        Space(0, "bad")
    with pytest.raises(ValueError):
        Space(2, "bad", ("x", "x"))
    s = Space(2, "V", ("a", "b"))
    assert s.dual().basis_names == ("a*", "b*")
