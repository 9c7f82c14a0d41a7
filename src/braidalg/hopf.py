"""Bialgebras and Hopf algebras from structure constants.

Structure-constant conventions (d = dim, basis e_0..e_{d-1}):

    mul[i][j][k]    coefficient of e_k in e_i e_j
    unit[k]         coefficient of e_k in 1
    comul[i][j][k]  coefficient of e_j (x) e_k in Delta(e_i)
    counit[i]       eps(e_i)
    antipode[i][j]  coefficient of e_j in s(e_i)

The dual bialgebra is formed with the order-reversing pairing, so the
multiplication on H* is (l1 l2)(h) = l1(h_(2)) l2(h_(1)).
"""

from __future__ import annotations

import itertools

from .linalg import QQ, solve_linear
from .report import AxiomReport
from .tensor import (
    Space,
    apply_at,
    basis,
    from_terms,
    identity,
    on_tensor,
    permutation_map,
    rainbow_dual,
)


class UAA:
    """A unital associative algebra presented by its two structure maps."""

    def __init__(self, space, mu, nu):
        self.space = space
        self.mu = mu
        self.nu = nu


class Bialgebra(UAA):
    """A UAA with a compatible comultiplication and counit, and optionally an antipode."""

    def __init__(self, space, mu, nu, delta, eps, antipode=None):
        super().__init__(space, mu, nu)
        self.delta = delta
        self.eps = eps
        self.antipode = antipode

    @property
    def field(self):
        return self.mu.field

    @property
    def dim(self):
        return self.space.dim

    def same_structure(self, other):
        return (
            self.dim == other.dim
            and self.field == other.field
            and self.mu.matrix == other.mu.matrix
            and self.nu.matrix == other.nu.matrix
            and self.delta.matrix == other.delta.matrix
            and self.eps.matrix == other.eps.matrix
        )

    def find_antipode(self):
        """The stored antipode, else the one ``solve_antipode`` finds; None when there is none."""
        return self.antipode if self.antipode is not None else solve_antipode(self)

    def __repr__(self):
        return f"Bialgebra({self.space.label}, dim={self.dim}, antipode={'yes' if self.antipode else 'no'})"


def check_bialgebra(b, level="bialgebra"):
    """Verify the axioms of the requested level by exact matrix identities.

    level is one of "algebra", "coalgebra", "bialgebra", "hopf".
    """
    if level not in ("algebra", "coalgebra", "bialgebra", "hopf"):
        raise ValueError(f"unknown level {level!r}")
    f = b.field
    H = b.space
    rep = AxiomReport(f"{level} axioms for {H.label}")
    id_H = identity([H], f)
    mu, nu, delta, eps = b.mu, b.nu, b.delta, b.eps

    if level in ("algebra", "bialgebra", "hopf"):
        rep.compare("associativity", mu.compose(mu.tensor(id_H)), mu.compose(id_H.tensor(mu)))
        rep.compare("unit_left", mu.compose(nu.tensor(id_H)), id_H)
        rep.compare("unit_right", mu.compose(id_H.tensor(nu)), id_H)
    if level in ("coalgebra", "bialgebra", "hopf"):
        rep.compare("coassociativity", apply_at(delta, 1, delta), apply_at(delta, 2, delta))
        rep.compare("counit_left", apply_at(eps, 1, delta), id_H)
        rep.compare("counit_right", apply_at(eps, 2, delta), id_H)
    if level in ("bialgebra", "hopf"):
        rep.compare("bialg_delta_mu", delta.compose(mu), on_tensor(mu, mu, delta.tensor(delta)))
        rep.compare("bialg_delta_nu", delta.compose(nu), nu.tensor(nu))
        rep.compare("bialg_eps_mu", eps.compose(mu), eps.tensor(eps))
        rep.compare("bialg_eps_nu", eps.compose(nu), identity((), f))
    if level == "hopf":
        if b.antipode is None:
            rep.add("antipode_present", False)
        else:
            rep.add("antipode_present", True)
            nu_eps = nu.compose(eps)
            rep.compare("antipode_left", mu.compose(apply_at(b.antipode, 1, delta)), nu_eps)
            rep.compare("antipode_right", mu.compose(apply_at(b.antipode, 2, delta)), nu_eps)
    return rep


def solve_antipode(b):
    """Solve the antipode equation; None if no two-sided antipode exists.

    The linear system comes from the left half of the antipode equation
    mu o (s (x) Id) o Delta = nu o eps; any solution is then verified
    against the right half (a one-sided convolution inverse need not be
    two-sided).
    """
    f = b.field
    H = b.space
    # unknown (c, a) is s[c, a], the coefficient of e_c in s(e_a); equation (i, j) is the
    # coefficient of e_i in mu (s (x) Id) Delta(e_j) = sum s[c, a] Delta[a, bb; j] mu[i; c, bb]
    mu_terms = b.mu.terms()
    terms = (
        ((i, j), (c, a), dv * mv)
        for (a, bb), (j,), dv in b.delta.terms()
        for (i,), (c, b2), mv in mu_terms
        if b2 == bb
    )
    system = from_terms((H, H), (H, H), terms, f)
    nu_eps = b.nu.compose(b.eps).matrix
    x = solve_linear(system.matrix, [nu_eps.get(i, j) for i, j in basis((H, H))])
    if x is None:
        return None
    s = from_terms((H,), (H,), (((c,), (a,), v) for (c, a), v in zip(basis((H, H)), x)), f)
    if b.mu.compose(apply_at(s, 2, b.delta)).matrix != nu_eps:
        return None
    return s


def opposites(b):
    """The twisted structures (mu o c, c o Delta)."""
    c = permutation_map((b.space, b.space), (1, 0), b.field)
    return b.mu.compose(c), c.compose(b.delta)


def mu_tensor_square(b):
    """mu_{H (x) H} = (mu (x) mu) o (Id (x) c (x) Id)."""
    return on_tensor(b.mu, b.mu)


def dual_bialgebra(b):
    """The dual bialgebra on H* under the order-reversing pairing."""
    return Bialgebra(
        space=b.space.dual(),
        mu=rainbow_dual(b.delta),
        nu=rainbow_dual(b.eps),
        delta=rainbow_dual(b.mu),
        eps=rainbow_dual(b.nu),
        antipode=rainbow_dual(b.antipode) if b.antipode is not None else None,
    )


# -- group and monoid algebras ------------------------------------------


def _find_identity(table):
    n = len(table)
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            return e
    return None


def _validate_table(table, need_inverses):
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise ValueError(f"row {i} is not a permutation-ranged row of length {n}")
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise ValueError(f"not associative: witness triple {(a, b, c)}")
    e = _find_identity(table)
    if e is None:
        raise ValueError("no two-sided identity element")
    inv = None
    if need_inverses:
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == e and table[b][a] == e:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValueError(f"element {a} has no two-sided inverse")
    return e, inv


def _grouplike_bialgebra(table, e, field, names):
    """mu(g (x) h) = gh, nu = e, Delta(g) = g (x) g, eps(g) = 1 on the basis of a monoid table."""
    n = len(table)
    space = Space(n, "H", tuple(names) if names else None)
    one = field.one
    products = (((table[i][j],), (i, j), one) for i in range(n) for j in range(n))
    mu = from_terms((space, space), (space,), products, field)
    nu = from_terms((), (space,), [((e,), (), one)], field)
    delta = from_terms((space,), (space, space), (((i, i), (i,), one) for i in range(n)), field)
    eps = from_terms((space,), (), (((), (i,), one) for i in range(n)), field)
    return space, mu, nu, delta, eps


def group_algebra(table, names=None, field=QQ):
    """Hopf algebra kG of a finite group given by its multiplication table."""
    e, inv = _validate_table(table, need_inverses=True)
    space, mu, nu, delta, eps = _grouplike_bialgebra(table, e, field, names)
    antipode = from_terms((space,), (space,), (((inv[i],), (i,), field.one) for i in range(len(table))), field)
    return Bialgebra(space, mu, nu, delta, eps, antipode)


def monoid_algebra(table, names=None, field=QQ):
    """Bialgebra of a finite monoid; carries no antipode field."""
    e, _ = _validate_table(table, need_inverses=False)
    return Bialgebra(*_grouplike_bialgebra(table, e, field, names), antipode=None)


# -- stock tables ---------------------------------------------------------


def cycle_name(perm):
    """Cycle-notation name of a permutation tuple, 1-based labels."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + "".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "e"


def permutation_group_table(perms):
    """Multiplication table of a set of permutations closed under o.

    Product convention: (p * q)(x) = p(q(x)).
    """
    elems = sorted(set(perms))
    index = {p: i for i, p in enumerate(elems)}
    table = []
    for p in elems:
        row = []
        for q in elems:
            pq = tuple(p[q[x]] for x in range(len(p)))
            if pq not in index:
                raise ValueError("permutation set not closed under composition")
            row.append(index[pq])
        table.append(row)
    names = [cycle_name(p) for p in elems]
    return table, names


def cyclic_group_table(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return table, names


def s3_table():
    return permutation_group_table(list(itertools.permutations(range(3))))


def d4_table():
    r = (1, 2, 3, 0)
    s = (3, 2, 1, 0)
    elems = {(0, 1, 2, 3)}
    frontier = [(0, 1, 2, 3)]
    while frontier:
        p = frontier.pop()
        for g in (r, s):
            q = tuple(g[p[x]] for x in range(4))
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    return permutation_group_table(sorted(elems))


def stock_group_table(name):
    """Tables for the generator CLI: Zn, S3, D4."""
    if name.upper() == "S3":
        return s3_table()
    if name.upper() == "D4":
        return d4_table()
    if name[:1] in ("z", "Z") and name[1:].isdigit() and int(name[1:]) >= 1:
        return cyclic_group_table(int(name[1:]))
    raise ValueError(f"unknown group name {name!r} (expected Zn, S3 or D4)")
