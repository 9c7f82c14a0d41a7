"""Braided systems: colored Yang-Baxter checks and the YD-system builders.

A rank-r braided system is an ordered family V_1..V_r with maps
sigma_{i,j}: V_i (x) V_j -> V_j (x) V_i for i <= j satisfying, on every
V_i (x) V_j (x) V_k with i <= j <= k,

    (s_{j,k} (x) Id) o (Id (x) s_{i,k}) o (s_{i,j} (x) Id)
  = (Id (x) s_{i,j}) o (s_{i,k} (x) Id) o (Id (x) s_{j,k}).

Indices are 1-based throughout, matching the usual notation.

The central construction takes a finite-dimensional bialgebra H and YD
modules (or YD module algebras) M_1..M_r and produces the rank r+2 system
(H, M_1, ..., M_r, H*) with

    sigma_{H,H}   = mu (x) nu              (h1 (x) h2 -> h1 h2 (x) 1)
    sigma_{H*,H*} = nu* (x) mu*            (l1 (x) l2 -> eps (x) l1 l2)
    sigma_{M,M}   = Id   [variant "yd"]  or  nu_M (x) mu_M  [variant "ydalg"]
    sigma_{X,Y}   = c o (Id (x) lam_Y) o (delta_X (x) Id)  otherwise,

where H is a comodule over itself via Delta and H* is an H-module via
(h.l)(x) = l(x h).
"""

from __future__ import annotations

from dataclasses import dataclass

from .hopf import Bialgebra, UAA, check_bialgebra, dual_bialgebra
from .linalg import SparseMatrix, inverse as matrix_inverse, rank as matrix_rank
from .report import AxiomReport
from .tensor import LinMap, Space, compose_chain, embed_at, flip, identity
from .yd import YDModule, YDModuleAlgebra, check_yd, tensor_space


@dataclass
class BraidedSystem:
    """Ordered components plus sigma_{i,j} for 1 <= i <= j <= rank."""

    components: tuple
    sigma: dict
    field: object

    @property
    def rank(self):
        return len(self.components)

    def space(self, i):
        return self.components[i - 1]

    def with_sigma(self, i, j, new_sigma):
        """Copy with one braiding component replaced (no cYBE re-check)."""
        sig = dict(self.sigma)
        sig[(i, j)] = new_sigma
        return BraidedSystem(self.components, sig, self.field)

    def triples(self):
        r = self.rank
        return [(i, j, k) for i in range(1, r + 1) for j in range(i, r + 1) for k in range(j, r + 1)]

    def __repr__(self):
        labels = ",".join(s.label for s in self.components)
        return f"BraidedSystem({labels})"


def cybe_instance(s, i, j, k):
    """(lhs, rhs) of the colored YBE on V_i (x) V_j (x) V_k."""
    f = s.field
    Vi, Vj, Vk = s.space(i), s.space(j), s.space(k)
    id_i, id_j, id_k = identity([Vi], f), identity([Vj], f), identity([Vk], f)
    s_ij, s_ik, s_jk = s.sigma[(i, j)], s.sigma[(i, k)], s.sigma[(j, k)]
    lhs = compose_chain([s_jk.tensor(id_i), id_j.tensor(s_ik), s_ij.tensor(id_k)])
    rhs = compose_chain([id_k.tensor(s_ij), s_ik.tensor(id_j), id_i.tensor(s_jk)])
    return lhs, rhs


def verify_cybe(s):
    """One exact check per triple i <= j <= k; witness on first failure."""
    rep = AxiomReport(f"cYBE for {s!r}")
    for i, j, k in s.triples():
        lhs, rhs = cybe_instance(s, i, j, k)
        rep.compare(f"cYBE({i},{j},{k})", lhs, rhs)
    return rep


def check_braided_morphism(fs, src, dst):
    """(f_j (x) f_i) o sigma_{i,j} = xi_{i,j} o (f_i (x) f_j) for all i <= j."""
    if src.rank != dst.rank:
        raise ValueError(f"rank mismatch: {src.rank} vs {dst.rank}")
    if len(fs) != src.rank:
        raise ValueError(f"need {src.rank} maps, got {len(fs)}")
    rep = AxiomReport("braided morphism")
    for i in range(1, src.rank + 1):
        for j in range(i, src.rank + 1):
            lhs = fs[j - 1].tensor(fs[i - 1]).compose(src.sigma[(i, j)])
            rhs = dst.sigma[(i, j)].compose(fs[i - 1].tensor(fs[j - 1]))
            rep.compare(f"respects_sigma({i},{j})", lhs, rhs)
    return rep


def sigma_ass(uaa, side="left"):
    """Associativity braiding of a UAA: left x(x)y -> 1(x)xy, right -> xy(x)1."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    if side == "left":
        return uaa.nu.tensor(uaa.mu)
    return uaa.mu.tensor(uaa.nu)


# -- the (H, M_1..M_r, H*) system -----------------------------------------


def dual_action(b, dual=None):
    """The H-action on H*: (h.l)(x) = l(x h), i.e. (ev (x) Id) o (Id (x) Delta*)."""
    f = b.field
    if dual is None:
        dual = dual_bialgebra(b)
    H, Hs = b.space, dual.space
    d = b.dim
    # ev: H (x) H* -> k
    ev_ent = {(0, i * d + i): f.one for i in range(d)}
    ev = LinMap((H, Hs), (), SparseMatrix(f, 1, d * d, ev_ent))
    return ev.tensor(identity([Hs], f)).compose(identity([H], f).tensor(dual.delta))


def ring_braiding(delta_x, lam_y, f):
    """c o (Id (x) lam_Y) o (delta_X (x) Id): X (x) Y -> Y (x) X."""
    X = delta_x.domain[0]
    Y = lam_y.codomain[0]
    return compose_chain([flip(X, Y, f), identity([X], f).tensor(lam_y), delta_x.tensor(identity([Y], f))])


@dataclass
class YDSystem(BraidedSystem):
    """Braided system produced by build_yd_system, keeping its ingredients."""

    bialgebra: Bialgebra = None
    dual: Bialgebra = None
    modules: tuple = ()
    variant: str = "yd"


def build_yd_system(h, mods, variant="yd", h_side="right", dual_side="left", mod_side="left", check=True):
    """The rank r+2 braided system (H, M_1..M_r, H*).

    variant "yd" takes plain YD modules and uses identity diagonals on them;
    variant "ydalg" takes YD module algebras and uses their associativity
    braidings.  Inputs are validated first; the assembled system is
    cYBE-verified before being returned.
    """
    if variant not in ("yd", "ydalg"):
        raise ValueError(f"unknown variant {variant!r}")
    f = h.field
    if check:
        rep = check_bialgebra(h, "bialgebra")
        if not rep.passed:
            raise ValueError(f"base bialgebra fails axioms: {rep.first_failure()}")
        for m in mods:
            mrep = check_yd(m, "yd_algebra" if variant == "ydalg" else "yd")
            if not mrep.passed:
                raise ValueError(f"module fails axioms: {mrep.first_failure()}")
    if variant == "ydalg" and not all(isinstance(m, YDModuleAlgebra) for m in mods):
        raise TypeError("variant 'ydalg' needs YDModuleAlgebra inputs")

    dual = dual_bialgebra(h)
    lam_dual = dual_action(h, dual)
    yds = [m.yd if isinstance(m, YDModuleAlgebra) else m for m in mods]
    r = len(yds)
    components = (h.space,) + tuple(m.space for m in yds) + (dual.space,)
    n = r + 2
    sigma = {}
    # coactions indexed like components (H coacts on itself via Delta)
    coaction = {1: h.delta}
    action = {n: lam_dual}
    for t, m in enumerate(yds, start=2):
        coaction[t] = m.delta
        action[t] = m.lam
    # diagonals
    sigma[(1, 1)] = sigma_ass(h.as_uaa(), h_side)
    sigma[(n, n)] = sigma_ass(dual.as_uaa(), dual_side)
    for t, m in enumerate(mods, start=2):
        if variant == "yd":
            sp = yds[t - 2].space
            sigma[(t, t)] = identity([sp, sp], f)
        else:
            sigma[(t, t)] = sigma_ass(UAA(m.space, m.mu, m.nu), mod_side)
    # off-diagonals: the rotated YD braiding built from delta_i and lam_j
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lam_j = action.get(j)
            delta_i = coaction.get(i)
            if lam_j is None or delta_i is None:
                raise AssertionError("missing structure for off-diagonal braiding")
            sigma[(i, j)] = ring_braiding(delta_i, lam_j, f)
    sys = YDSystem(components, sigma, f, bialgebra=h, dual=dual, modules=tuple(mods), variant=variant)
    if check:
        rep = verify_cybe(sys)
        if not rep.passed:
            raise AssertionError(f"constructed system fails cYBE: {rep.first_failure()}")
    return sys


def invertibility_report(s):
    """Per-component rank table; exact inverse matrices where they exist."""
    out = {}
    for (i, j), sig in sorted(s.sigma.items()):
        rk = matrix_rank(sig.matrix)
        full = rk == sig.matrix.n_rows == sig.matrix.n_cols
        inv = None
        if full:
            inv_m = matrix_inverse(sig.matrix)
            inv = LinMap(sig.codomain, sig.domain, inv_m)
        out[(i, j)] = {
            "labels": (s.space(i).label, s.space(j).label),
            "rank": rk,
            "size": sig.matrix.n_rows,
            "invertible": full,
            "inverse": inv,
        }
    return out


# -- braided systems of UAAs (naturality <-> cYBE) -------------------------


def _unit_naturality(xi, uaa_i, uaa_j, f):
    id_i = identity([uaa_i.space], f)
    id_j = identity([uaa_j.space], f)
    ok_i = xi.compose(uaa_i.nu.tensor(id_j)).matrix == id_j.tensor(uaa_i.nu).matrix
    ok_j = xi.compose(id_i.tensor(uaa_j.nu)).matrix == uaa_j.nu.tensor(id_i).matrix
    return ok_i, ok_j


def _mu_naturality(xi, uaa_i, uaa_j, f):
    id_i = identity([uaa_i.space], f)
    id_j = identity([uaa_j.space], f)
    lhs_i = xi.compose(uaa_i.mu.tensor(id_j))
    rhs_i = compose_chain([id_j.tensor(uaa_i.mu), xi.tensor(id_i), id_i.tensor(xi)])
    lhs_j = xi.compose(id_i.tensor(uaa_j.mu))
    rhs_j = compose_chain([uaa_j.mu.tensor(id_i), id_j.tensor(xi), xi.tensor(id_j)])
    return lhs_i.matrix == rhs_i.matrix, lhs_j.matrix == rhs_j.matrix


def validate_uaa_system(uaas, xi):
    """Check the naturality + mixed-cYBE package and build the full system.

    xi maps pairs (i, j), i < j (1-based) to braidings V_i (x) V_j ->
    V_j (x) V_i natural with respect to the units (a hard precondition).
    The diagonal is completed with nu_i (x) mu_i; the equivalence between
    "all diagonal-completed cYBE instances hold" and "each xi is natural
    with respect to the multiplications and the strict-triple cYBE holds"
    is asserted and reported.
    """
    f = uaas[0].mu.field
    r = len(uaas)
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            ok_i, ok_j = _unit_naturality(xi[(i, j)], uaas[i - 1], uaas[j - 1], f)
            if not (ok_i and ok_j):
                raise ValueError(f"xi({i},{j}) is not natural with respect to the units")
    rep = AxiomReport("braided system of UAAs")
    condition2 = True
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            ok_i, ok_j = _mu_naturality(xi[(i, j)], uaas[i - 1], uaas[j - 1], f)
            rep.add(f"mu_naturality({i},{j})_left", ok_i)
            rep.add(f"mu_naturality({i},{j})_right", ok_j)
            condition2 = condition2 and ok_i and ok_j
    sigma = dict(xi)
    for i in range(1, r + 1):
        sigma[(i, i)] = sigma_ass(uaas[i - 1], "left")
    sys = BraidedSystem(tuple(u.space for u in uaas), sigma, f)
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            for k in range(j + 1, r + 1):
                lhs, rhs = cybe_instance(sys, i, j, k)
                ok = lhs.matrix == rhs.matrix
                rep.add(f"strict_cYBE({i},{j},{k})", ok)
                condition2 = condition2 and ok
    full = verify_cybe(sys)
    rep.add("full_cybe", full.passed, None if full.passed else full.first_failure().witness)
    rep.add("equivalence_cond2_iff_cybe", condition2 == full.passed)
    if condition2 != full.passed:
        raise AssertionError("naturality/cYBE equivalence violated (internal error)")
    return rep, sys


# -- gluing -----------------------------------------------------------------


def glue(s, lo, hi, check=True):
    """Replace consecutive components lo..hi by their tensor product.

    The glued block gets the identity diagonal braiding; mixed braidings
    thread through the block factor by factor.  The result is cYBE-verified.
    """
    r = s.rank
    if not (1 <= lo <= hi <= r):
        raise ValueError(f"invalid glue range {lo}..{hi} for rank {r}")
    f = s.field
    block_spaces = [s.space(t) for t in range(lo, hi + 1)]
    block = block_spaces[0]
    for sp in block_spaces[1:]:
        block = tensor_space(block, sp)

    old_new = {}
    new_components = []
    for t in range(1, lo):
        new_components.append(s.space(t))
        old_new[t] = t
    new_components.append(block)
    block_idx = lo
    for t in range(hi + 1, r + 1):
        new_components.append(s.space(t))
        old_new[t] = t - (hi - lo)

    sigma = {}
    for (i, j), sig in s.sigma.items():
        if i in old_new and j in old_new:
            sigma[(old_new[i], old_new[j])] = sig
    sigma[(block_idx, block_idx)] = identity([block, block], f)
    for a in range(1, lo):
        # V_a threads left-to-right through the block
        ctx = [s.space(a)] + block_spaces
        comp = identity(ctx, f)
        pos = 1
        for t in range(lo, hi + 1):
            step = embed_at(s.sigma[(a, t)], pos, ctx, f)
            ctx[pos - 1], ctx[pos] = ctx[pos], ctx[pos - 1]
            comp = step.compose(comp)
            pos += 1
        sigma[(old_new[a], block_idx)] = LinMap((s.space(a), block), (block, s.space(a)), comp.matrix)
    for bpos in range(hi + 1, r + 1):
        # V_b threads right-to-left through the block
        ctx = block_spaces + [s.space(bpos)]
        comp = identity(ctx, f)
        pos = hi - lo + 1
        for t in range(hi, lo - 1, -1):
            step = embed_at(s.sigma[(t, bpos)], pos, ctx, f)
            ctx[pos - 1], ctx[pos] = ctx[pos], ctx[pos - 1]
            comp = step.compose(comp)
            pos -= 1
        sigma[(block_idx, old_new[bpos])] = LinMap((block, s.space(bpos)), (s.space(bpos), block), comp.matrix)

    out = BraidedSystem(tuple(new_components), sigma, f)
    if check:
        rep = verify_cybe(out)
        if not rep.passed:
            raise AssertionError(f"glued system fails cYBE: {rep.first_failure()}")
    return out


# -- the precision harness ---------------------------------------------------


PRECISION_ROWS = (
    ("yd_compatibility", (1, 2, 3)),
    ("action_associativity", (1, 1, 2)),
    ("coaction_coassociativity", (2, 3, 3)),
    ("action_respects_mu", (1, 2, 2)),
    ("coaction_respects_mu", (2, 2, 3)),
    ("mu_associativity", (2, 2, 2)),
)

# row -> (the check_yd check stating its axiom, the check_yd checks its side condition needs)
_PRECISION_CHECKS = {
    "yd_compatibility": ("yd_compatibility", ()),
    "action_associativity": ("action_associativity", ("action_unit",)),
    "coaction_coassociativity": ("coaction_coassociativity", ("coaction_counit",)),
    "action_respects_mu": ("yd_alg_lam_mu", ("yd_alg_lam_nu",)),
    "coaction_respects_mu": ("yd_alg_delta_mu", ("yd_alg_delta_nu",)),
    "mu_associativity": ("uaa_associativity", ("uaa_unit_left", "uaa_unit_right")),
}


def precision_sigmas(h, v, lam, delta, mu, nu):
    """The r=1 braiding components for arbitrary (lam, delta, mu, nu) on V.

    No axioms are assumed; this feeds the equivalence harness.
    """
    f = h.field
    dual = dual_bialgebra(h)
    lam_dual = dual_action(h, dual)
    sigma = {
        (1, 1): sigma_ass(h.as_uaa(), "right"),
        (2, 2): nu.tensor(mu),
        (3, 3): sigma_ass(dual.as_uaa(), "left"),
        (1, 2): ring_braiding(h.delta, lam, f),
        (1, 3): ring_braiding(h.delta, lam_dual, f),
        (2, 3): ring_braiding(delta, lam_dual, f),
    }
    return BraidedSystem((h.space, v, dual.space), sigma, f)


def precision_harness(h, v, lam, delta, mu, nu):
    """Row-by-row equivalence "cYBE instance <=> structure axiom".

    For each of the six rows the report carries three booleans: the side
    condition, the cYBE instance, and the axiom.  Axioms and side
    conditions are read from one ``check_yd(..., "yd_algebra")`` report.
    Whenever the side condition is met the last two are asserted equal.
    """
    sys = precision_sigmas(h, v, lam, delta, mu, nu)
    axioms = check_yd(YDModuleAlgebra(YDModule(h, v, lam, delta), mu, nu), "yd_algebra")
    passed = {c.name: c.passed for c in axioms.checks}
    rep = AxiomReport("precision harness (cYBE <=> axiom)")
    rows = []
    for name, triple in PRECISION_ROWS:
        axiom, side = _PRECISION_CHECKS[name]
        lhs, rhs = cybe_instance(sys, *triple)
        cybe_ok = lhs.matrix == rhs.matrix
        side_ok = all(passed[c] for c in side)
        ax_ok = passed[axiom]
        rows.append({"row": name, "triple": triple, "side": side_ok, "cybe": cybe_ok, "axiom": ax_ok})
        rep.add(f"{name}_side", side_ok)
        rep.add(f"{name}_equivalence", (not side_ok) or (cybe_ok == ax_ok))
    return rep, rows


def random_precision_data(h, dim_v, rng):
    """Random (lam, delta, mu, nu) on a dim_v space, side conditions enforced.

    Needs the unit of H to be a basis vector with eps(unit) = 1 (true for
    group algebras); the side conditions of the six rows are then linear
    slice constraints which are imposed by construction.
    """
    f = h.field
    dH = h.dim
    unit_idx = None
    nu_cols = [(r, v) for (r, c), v in h.nu.matrix.entries.items()]
    if len(nu_cols) == 1 and nu_cols[0][1] == f.one:
        unit_idx = nu_cols[0][0]
    if unit_idx is None or h.eps.matrix.get(0, unit_idx) != f.one:
        raise ValueError("precision sampling needs nu = a basis vector with eps(nu) = 1")
    if f.kind != "Fp":
        raise ValueError("precision sampling is defined over F_p")
    p = f.p
    v = Space(dim_v, "V", tuple(f"v{i}" for i in range(dim_v)))

    def rand():
        return rng.randrange(p)

    # nu_V = v0
    nu_ent = {(0, 0): f.one}
    nu = LinMap((), (v,), SparseMatrix(f, dim_v, 1, nu_ent))
    # mu random with v0 a two-sided unit
    mu_ent = {}
    for a in range(dim_v):
        for b in range(dim_v):
            for c in range(dim_v):
                if a == 0:
                    val = f.one if b == c else f.zero
                elif b == 0:
                    val = f.one if a == c else f.zero
                else:
                    val = rand()
                if not f.is_zero(val):
                    mu_ent[(c, a * dim_v + b)] = val
    mu = LinMap((v, v), (v,), SparseMatrix(f, dim_v, dim_v * dim_v, mu_ent))
    # lam random with lam(unit (x) .) = Id and lam(h (x) v0) = eps(h) v0
    lam_ent = {}
    for i in range(dH):
        for a in range(dim_v):
            for b in range(dim_v):
                if i == unit_idx:
                    val = f.one if a == b else f.zero
                elif a == 0:
                    val = h.eps.matrix.get(0, i) if b == 0 else f.zero
                else:
                    val = rand()
                if not f.is_zero(val):
                    lam_ent[(b, i * dim_v + a)] = val
    lam = LinMap((h.space, v), (v,), SparseMatrix(f, dim_v, dH * dim_v, lam_ent))
    # delta with (Id (x) eps) delta = Id and delta(v0) = v0 (x) 1_H
    eps_row = [h.eps.matrix.get(0, i) for i in range(dH)]
    if f.is_zero(eps_row[unit_idx]):
        raise ValueError("eps(unit) vanishes")
    delta_ent = {}
    for a in range(dim_v):
        for b in range(dim_v):
            if a == 0:
                if b == 0:
                    delta_ent[(b * dH + unit_idx, a)] = f.one
                continue
            acc = f.zero  # sum_i coeff_i * eps(e_i) must be delta_{ab}
            coeffs = {}
            for i in range(dH):
                if i == unit_idx:
                    continue
                val = rand()
                coeffs[i] = val
                acc = f.add(acc, f.mul(val, eps_row[i]))
            target = f.one if a == b else f.zero
            coeffs[unit_idx] = f.mul(f.sub(target, acc), f.inv(eps_row[unit_idx]))
            for i, val in coeffs.items():
                if not f.is_zero(val):
                    delta_ent[(b * dH + i, a)] = val
    delta = LinMap((v,), (v, h.space), SparseMatrix(f, dim_v * dH, dim_v, delta_ent))
    return v, lam, delta, mu, nu
