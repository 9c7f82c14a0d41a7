"""Spaces, linear maps with tensor-factor bookkeeping, flips and duality.

A LinMap records ordered lists of tensor factors for its domain and
codomain next to its sparse matrix.  Basis indices of a tensor product are
linearised with the left factor as major index, matching the Kronecker
convention of :mod:`braidalg.linalg`.

Dualisation follows the order-reversing ("rainbow") pairing

    <l_1 (x) ... (x) l_k, h_1 (x) ... (x) h_k> = prod_t l_t(h_{k+1-t}),

so the dual of f: A1 (x) ... (x) Ap -> B1 (x) ... (x) Bq is a map
Bq* (x) ... (x) B1* -> Ap* (x) ... (x) A1*.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import SparseMatrix


class DimensionMismatch(ValueError):
    """Composition/embedding attempted between incompatible factor lists."""


@dataclass(frozen=True)
class Space:
    dim: int
    label: str
    basis_names: tuple | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"space {self.label!r} needs dim >= 1")
        if self.basis_names is not None:
            if len(self.basis_names) != self.dim:
                raise ValueError(f"{self.label!r}: {len(self.basis_names)} names for dim {self.dim}")
            if len(set(self.basis_names)) != self.dim:
                raise ValueError(f"{self.label!r}: basis names not distinct")

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

    def __repr__(self):
        dom = "(x)".join(s.label for s in self.domain) or "k"
        cod = "(x)".join(s.label for s in self.codomain) or "k"
        return f"LinMap({dom} -> {cod}, nnz={len(self.matrix.entries)})"

    # -- algebra -------------------------------------------------------

    def compose(self, other):
        """self after other.  Factor-dimension products must match."""
        if prod_dim(self.domain) != prod_dim(other.codomain):
            raise DimensionMismatch(
                f"cannot compose: domain {[s.label for s in self.domain]} "
                f"!= codomain {[s.label for s in other.codomain]} (dim products differ)"
            )
        return LinMap(other.domain, self.codomain, self.matrix @ other.matrix)

    def __add__(self, other):
        return LinMap(self.domain, self.codomain, self.matrix + other.matrix)

    def __sub__(self, other):
        return LinMap(self.domain, self.codomain, self.matrix - other.matrix)

    def __neg__(self):
        return LinMap(self.domain, self.codomain, -self.matrix)

    def scale(self, a):
        return LinMap(self.domain, self.codomain, self.matrix.scale(a))

    def tensor(self, other):
        return LinMap(
            self.domain + other.domain,
            self.codomain + other.codomain,
            self.matrix.kronecker(other.matrix),
        )


def identity(spaces, field):
    spaces = tuple(spaces)
    return LinMap(spaces, spaces, SparseMatrix.identity(field, prod_dim(spaces)))


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


def _linearize(indices, dims):
    idx = 0
    for i, d in zip(indices, dims):
        idx = idx * d + i
    return idx


def permutation_map(spaces, order, field):
    """Map reordering tensor factors: output factor t is input factor order[t]."""
    spaces = tuple(spaces)
    if sorted(order) != list(range(len(spaces))):
        raise ValueError(f"not a permutation: {order}")
    dims = [s.dim for s in spaces]
    cod = tuple(spaces[t] for t in order)
    cod_dims = [s.dim for s in cod]
    ent = {}
    total = prod_dim(spaces)
    for col in range(total):
        rem, multi = col, []
        for d in reversed(dims):
            multi.append(rem % d)
            rem //= d
        multi.reverse()
        row = _linearize([multi[t] for t in order], cod_dims)
        ent[(row, col)] = field.one
    return LinMap(spaces, cod, SparseMatrix(field, total, total, ent))


def flip(v, w, field):
    """The symmetry c(v (x) w) = w (x) v."""
    return permutation_map((v, w), (1, 0), field)


def embed_at(phi, i, context, field):
    """Id^(i-1) (x) phi (x) Id^(rest) on the given context (i is 1-based)."""
    context = tuple(context)
    l = len(phi.domain)
    if i < 1 or i - 1 + l > len(context):
        raise DimensionMismatch(f"slot {i}..{i + l - 1} outside context of length {len(context)}")
    slot = context[i - 1 : i - 1 + l]
    if [s.dim for s in slot] != [s.dim for s in phi.domain]:
        raise DimensionMismatch(
            f"context factors {[s.label for s in slot]} do not match "
            f"map domain {[s.label for s in phi.domain]}"
        )
    parts = []
    if i > 1:
        parts.append(identity(context[: i - 1], field))
    parts.append(phi)
    if i - 1 + l < len(context):
        parts.append(identity(context[i - 1 + l :], field))
    return tensor_maps(parts)


def _reversal(spaces, field):
    n = len(spaces)
    return permutation_map(spaces, tuple(range(n - 1, -1, -1)), field)


def rainbow_dual(f):
    """Dual map under the order-reversing pairing.

    Reverses factor order on both sides, then transposes: the result maps
    Bq* (x) ... (x) B1* to Ap* (x) ... (x) A1*.
    """
    field = f.field
    rev_dom = _reversal(f.domain, field)  # A1..Ap -> Ap..A1
    rev_cod = _reversal(f.codomain, field)  # B1..Bq -> Bq..B1
    dom = tuple(s.dual() for s in reversed(f.codomain))
    cod = tuple(s.dual() for s in reversed(f.domain))
    # G[rev(a), rev(b)] = F[b, a]
    matrix = rev_dom.matrix @ f.matrix.transpose() @ rev_cod.matrix.transpose()
    return LinMap(dom, cod, matrix)


def evaluation(v, field):
    """The two evaluation maps (V* (x) V -> k, V (x) V* -> k)."""
    d = v.dim
    vd = v.dual()
    ent = {(0, i * d + i): field.one for i in range(d)}
    ev_left = LinMap((vd, v), (), SparseMatrix(field, 1, d * d, ent))
    ev_right = LinMap((v, vd), (), SparseMatrix(field, 1, d * d, dict(ent)))
    return ev_left, ev_right
