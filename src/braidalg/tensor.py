"""Spaces, linear maps with tensor-factor bookkeeping, flips, on_tensor and duality.

A LinMap records ordered lists of tensor factors for its domain and
codomain next to its sparse matrix.  Basis indices of a tensor product are
linearised with the left factor as major index, matching the Kronecker
convention of :mod:`braidalg.linalg`.  This module is the one place that
converts between basis tuples (one index per factor) and linear indices:
maps are built from basis-tuple terms with :func:`from_terms` and read back
through the shared :func:`basis` tuples by :meth:`LinMap.terms` (a term list)
and :meth:`LinMap.columns` (a table by input); :func:`decode` splits one index.

Dualisation follows the order-reversing ("rainbow") pairing

    <l_1 (x) ... (x) l_k, h_1 (x) ... (x) h_k> = prod_t l_t(h_{k+1-t}),

so the dual of f: A1 (x) ... (x) Ap -> B1 (x) ... (x) Bq is a map
Bq* (x) ... (x) B1* -> Ap* (x) ... (x) A1*.
"""

from __future__ import annotations

import functools
import itertools
from operator import mul

from .linalg import SparseMatrix


class DimensionMismatch(ValueError):
    """Composition/embedding attempted between incompatible factor lists."""


class Space:
    """An immutable space, equal to another of the same dim, label and basis names."""

    def __init__(self, dim, label, basis_names=None):
        if dim < 1:
            raise ValueError(f"space {label!r} needs dim >= 1")
        if basis_names is not None:
            if len(basis_names) != dim:
                raise ValueError(f"{label!r}: {len(basis_names)} names for dim {dim}")
            if len(set(basis_names)) != dim:
                raise ValueError(f"{label!r}: basis names not distinct")
        init = object.__setattr__
        init(self, "dim", dim)
        init(self, "label", label)
        init(self, "basis_names", basis_names)
        init(self, "_hash", hash((dim, label, basis_names)))

    def __setattr__(self, name, value):
        raise AttributeError(f"Space is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Space:
            return NotImplemented
        return self is other or (self.dim, self.label, self.basis_names) == (other.dim, other.label, other.basis_names)

    def __hash__(self):
        return self._hash

    def dual(self):
        names = None
        if self.basis_names is not None:
            names = tuple(n + "*" for n in self.basis_names)
        return Space(self.dim, self.label + "*", names)

    def name(self, i):
        if self.basis_names is not None:
            return self.basis_names[i]
        return f"{self.label}[{i}]"

    def __repr__(self):
        return f"Space({self.label}, dim={self.dim})"


def prod_dim(spaces):
    d = 1
    for s in spaces:
        d *= s.dim
    return d


def _strides(spaces):
    """Weight of each factor's index in the linear index (left factor major)."""
    out, w = [], 1
    for s in reversed(spaces):
        out.append(w)
        w *= s.dim
    return out[::-1]


@functools.cache
def basis(spaces):
    """The basis tuples of a tensor product by linear index, cached per factor tuple like ``flip``: ``LinMap.terms``
    and ``columns`` index it, where a ``decode`` per entry measured 2.3x slower on the harness's sigma tables."""
    return tuple(itertools.product(*(range(s.dim) for s in spaces)))


def decode(index, spaces):
    """The basis tuple at a linear index of a tensor product (left factor major)."""
    out = []
    for s in reversed(spaces):
        index, i = divmod(index, s.dim)
        out.append(i)
    return tuple(reversed(out))


def from_terms(domain, codomain, terms, field):
    """The map f with f(input tuple) = sum of coefficient * output tuple over ``terms``.

    ``terms`` yields (output tuple, input tuple, coefficient), one basis index
    per factor.  Coefficients of a repeated pair add up; the SparseMatrix
    constructor canonicalises the sums and drops the zeros.
    """
    domain, codomain = tuple(domain), tuple(codomain)
    rows, cols = _strides(codomain), _strides(domain)
    ent = {}
    for out, inp, v in terms:
        key = (sum(map(mul, out, rows)), sum(map(mul, inp, cols)))
        ent[key] = ent.get(key, 0) + v
    return LinMap(domain, codomain, SparseMatrix(field, prod_dim(codomain), prod_dim(domain), ent))


def from_cube(domain, codomain, cube, field):
    """The map whose cube [a1]..[ap][b1]..[bq] (the coefficient of output tuple b
    in the image of input tuple a), flattened row-major, is ``cube``."""
    domain, codomain = tuple(domain), tuple(codomain)
    n = prod_dim(codomain)
    ent = {(k % n, k // n): v for k, v in enumerate(cube) if v}
    return LinMap(domain, codomain, SparseMatrix(field, n, prod_dim(domain), ent))


class LinMap:
    """Linear map between tensor products of finite-dimensional spaces."""

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain, codomain, matrix):
        domain = tuple(domain)
        codomain = tuple(codomain)
        if matrix.n_rows != prod_dim(codomain) or matrix.n_cols != prod_dim(domain):
            raise DimensionMismatch(
                f"matrix {matrix.n_rows}x{matrix.n_cols} does not fit "
                f"{[s.label for s in codomain]} <- {[s.label for s in domain]}"
            )
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    @classmethod
    def _of(cls, domain, codomain, matrix):
        """A map whose matrix already fits the factor tuples (a product of maps that fit theirs)."""
        f = cls.__new__(cls)
        f.domain = domain
        f.codomain = codomain
        f.matrix = matrix
        return f

    @property
    def field(self):
        return self.matrix.field

    def __eq__(self, other):
        return (
            isinstance(other, LinMap)
            and [s.dim for s in self.domain] == [s.dim for s in other.domain]
            and [s.dim for s in self.codomain] == [s.dim for s in other.codomain]
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash(self.matrix)

    def is_zero(self):
        return self.matrix.is_zero()

    def terms(self):
        """The nonzero entries as (output tuple, input tuple, coefficient); see from_terms."""
        rows, cols = basis(self.codomain), basis(self.domain)
        return [(rows[r], cols[c], v) for (r, c), v in self.matrix.entries.items()]

    def columns(self):
        """{input tuple: [(*output tuple, coefficient), ...]}: the nonzero entries by input, in entry order."""
        rows, cols = basis(self.codomain), basis(self.domain)
        table = {}
        for (r, c), v in self.matrix.entries.items():
            table.setdefault(cols[c], []).append((*rows[r], v))
        return table

    def __repr__(self):
        dom = "(x)".join(s.label for s in self.domain) or "k"
        cod = "(x)".join(s.label for s in self.codomain) or "k"
        return f"LinMap({dom} -> {cod}, nnz={len(self.matrix.entries)})"

    # -- algebra -------------------------------------------------------

    def compose(self, other):
        """self after other.  Factor-dimension products must match."""
        if self.matrix.n_cols != other.matrix.n_rows:
            raise DimensionMismatch(
                f"cannot compose: domain {[s.label for s in self.domain]} "
                f"!= codomain {[s.label for s in other.codomain]} (dim products differ)"
            )
        return LinMap._of(other.domain, self.codomain, self.matrix @ other.matrix)

    def scale(self, a):
        return LinMap(self.domain, self.codomain, self.matrix.scale(a))

    def tensor(self, other):
        return LinMap._of(
            self.domain + other.domain,
            self.codomain + other.codomain,
            self.matrix.kronecker(other.matrix),
        )


def identity(spaces, field):
    spaces = tuple(spaces)
    return LinMap._of(spaces, spaces, SparseMatrix.identity(field, prod_dim(spaces)))


def compose_chain(maps):
    """Composition maps[0] o maps[1] o ... (the last map acts first)."""
    if not maps:
        raise ValueError("compose_chain of no maps")
    out = maps[-1]
    for f in reversed(maps[:-1]):
        out = f.compose(out)
    return out


def tensor_maps(maps):
    if not maps:
        raise ValueError("tensor_maps of no maps")
    out = maps[0]
    for f in maps[1:]:
        out = out.tensor(f)
    return out


def permutation_map(spaces, order, field):
    """Map reordering tensor factors: output factor t is input factor order[t]."""
    spaces = tuple(spaces)
    if sorted(order) != list(range(len(spaces))):
        raise ValueError(f"not a permutation: {order}")
    cod = tuple(spaces[t] for t in order)
    return from_terms(spaces, cod, ((tuple(x[t] for t in order), x, field.one) for x in basis(spaces)), field)


@functools.cache
def flip(v, w, field):
    """The symmetry c(v (x) w) = w (x) v.

    Built once per (v, w, field) and shared by every caller: nothing in the
    package mutates a map's ``entries``, and the number of space pairs a
    process meets bounds the cache.
    """
    return permutation_map((v, w), (1, 0), field)


def apply_at(phi, i, m):
    """(Id^(i-1) (x) phi (x) Id^(rest)) o m: phi acts on factors i.. of m's codomain (i is 1-based).

    Computed on m's entries without building the Kronecker product: each
    row index of m splits into (left, slot, right), and the slot's column of
    phi replaces the slot.
    """
    context = m.codomain
    l = len(phi.domain)
    if i < 1 or i - 1 + l > len(context):
        raise DimensionMismatch(f"slot {i}..{i + l - 1} outside context of length {len(context)}")
    slot = context[i - 1 : i - 1 + l]
    if [s.dim for s in slot] != [s.dim for s in phi.domain]:
        raise DimensionMismatch(
            f"context factors {[s.label for s in slot]} do not match "
            f"map domain {[s.label for s in phi.domain]}"
        )
    m.matrix._check_same_field(phi.matrix)
    right = prod_dim(context[i - 1 + l :])
    block, out_block = phi.matrix.n_cols * right, phi.matrix.n_rows * right
    columns = {}
    for (o, x), v in phi.matrix.entries.items():
        columns.setdefault(x, []).append((o * right, v))
    acc = {}
    for (r, c), a in m.matrix.entries.items():
        left, rest = divmod(r, block)
        x, rest = divmod(rest, right)
        base = left * out_block + rest
        for o, b in columns.get(x, ()):
            key = (base + o, c)
            acc[key] = acc.get(key, 0) + a * b
    codomain = context[: i - 1] + phi.codomain + context[i - 1 + l :]
    matrix = SparseMatrix._from_sums(m.field, m.matrix.n_rows // block * out_block, m.matrix.n_cols, acc)
    return LinMap._of(m.domain, codomain, matrix)


def embed_at(phi, i, context, field):
    """Id^(i-1) (x) phi (x) Id^(rest) on the given context (i is 1-based): apply_at on the identity."""
    return apply_at(phi, i, identity(context, field))


def on_tensor(f, g, x=None):
    """(f (x) g) o (Id (x) c (x) Id) o x, or without x the map (f (x) g) o (Id (x) c (x) Id).

    f acts on A1 (x) A2 and g on B1 (x) B2, each domain split in half, so
    the result reads its input as (A1 (x) B1) (x) (A2 (x) B2).  Products f,
    g give the product of the tensor product algebra, actions give the
    action of H (x) H on M (x) N, and f = Id, g = mu on x = delta (x) delta
    give the coaction of M (x) N.  The swap acts on x first, as in
    ``compose_chain``.
    """
    for h in (f, g):
        if len(h.domain) % 2:
            raise ValueError(f"on_tensor needs a domain of even length, got {len(h.domain)} factors")
    (a1, a2), (b1, b2) = ((h.domain[: len(h.domain) // 2], h.domain[len(h.domain) // 2 :]) for h in (f, g))
    f.matrix._check_same_field(g.matrix)
    n_a2, n_b1, n_b2 = prod_dim(a2), prod_dim(b1), prod_dim(b2)
    # the Kronecker product with its columns shuffled: f's entry (i, (a1, a2)) times g's (k, (b1, b2)) sits at
    # row i * rows(g) + k, column (a1, b1, a2, b2) = (a1 |B1 A2 B2| + a2 |B2|) + (b1 |A2 B2| + b2)
    rg = g.matrix.n_rows
    fe = [(i * rg, (c // n_a2 * n_b1 * n_a2 + c % n_a2) * n_b2, a) for (i, c), a in f.matrix.entries.items()]
    ge = [(k, c // n_b2 * n_a2 * n_b2 + c % n_b2, b) for (k, c), b in g.matrix.entries.items()]
    ent = {(r + k, c + d): a * b for r, c, a in fe for k, d, b in ge}
    matrix = SparseMatrix._from_sums(f.field, f.matrix.n_rows * rg, f.matrix.n_cols * g.matrix.n_cols, ent)
    out = LinMap._of(a1 + b1 + a2 + b2, f.codomain + g.codomain, matrix)
    return out if x is None else out.compose(x)


def rainbow_dual(f):
    """Dual map under the order-reversing pairing.

    Reverses factor order on both sides and swaps them: the result maps
    Bq* (x) ... (x) B1* to Ap* (x) ... (x) A1*, with G[rev(a), rev(b)] = F[b, a].
    """
    dom = tuple(s.dual() for s in reversed(f.codomain))
    cod = tuple(s.dual() for s in reversed(f.domain))
    return from_terms(dom, cod, ((inp[::-1], out[::-1], v) for out, inp, v in f.terms()), f.field)


def evaluation(v, field):
    """The two evaluation maps (V* (x) V -> k, V (x) V* -> k)."""
    vd = v.dual()
    terms = [((), (i, i), field.one) for i in range(v.dim)]
    return from_terms((vd, v), (), terms, field), from_terms((v, vd), (), terms, field)
