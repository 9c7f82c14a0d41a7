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

from .hopf import check_bialgebra, dual_bialgebra
from .linalg import SparseMatrix, inverse as matrix_inverse, rank as matrix_rank
from .report import AxiomReport, CheckFailed
from .tensor import DimensionMismatch, LinMap, Space, apply_at, compose_chain, evaluation, from_terms, identity
from .yd import YDModuleAlgebra, check_yd, ring_braiding, tensor_space


class BraidedSystem:
    """Ordered components plus sigma_{i,j} for 1 <= i <= j <= rank."""

    def __init__(self, components, sigma, field):
        self.components = components
        self.sigma = sigma
        self.field = field

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


def _column_tables(s, pairs):
    """{(i, j): sigma_{i,j} of s as its ``LinMap.columns`` table {(a, b): [(b', a', v), ...]}}.

    Checks what a product with each sigma_{i,j} would: its factor dims are
    those of V_i (x) V_j -> V_j (x) V_i, and its field is the system's.
    """
    tables = {}
    for i, j in pairs:
        sig, vi, vj = s.sigma[(i, j)], s.space(i), s.space(j)
        if [x.dim for x in sig.domain] != [vi.dim, vj.dim] or [x.dim for x in sig.codomain] != [vj.dim, vi.dim]:
            raise DimensionMismatch(f"sigma({i},{j}) does not map {vi.label}(x){vj.label} to {vj.label}(x){vi.label}")
        if sig.field != s.field:
            raise ValueError(f"field mismatch: {s.field!r} and {sig.field!r}")
        tables[i, j] = sig.columns()
    return tables


def _cybe_sides(s, tables, i, j, k):
    """cybe_instance on column tables holding sigma_{i,j}, sigma_{i,k} and sigma_{j,k}.

    Both sides are evaluated on basis tuples: each domain column (a, b, c)
    goes through the three braidings' tables, and the products are summed
    straight into the entries of V_i (x) V_j (x) V_k -> V_k (x) V_j (x) V_i.
    """
    t_ij, t_ik, t_jk = tables[i, j], tables[i, k], tables[j, k]
    di, dj, dk = s.space(i).dim, s.space(j).dim, s.space(k).dim
    lhs, rhs = {}, {}
    # lhs: s_ij on (a, b), then s_ik on (a', c), then s_jk on (b', c')
    for (a, b), first in t_ij.items():
        for c in range(dk):
            col = (a * dj + b) * dk + c
            for b1, a1, u in first:
                for c1, a2, v in t_ik.get((a1, c), ()):
                    uv = u * v
                    for c2, b2, w in t_jk.get((b1, c1), ()):
                        key = ((c2 * dj + b2) * di + a2, col)
                        lhs[key] = lhs.get(key, 0) + uv * w
    # rhs: s_jk on (b, c), then s_ik on (a, c'), then s_ij on (a', b')
    for (b, c), first in t_jk.items():
        for a in range(di):
            col = (a * dj + b) * dk + c
            for c1, b1, u in first:
                for c2, a1, v in t_ik.get((a, c1), ()):
                    uv = u * v
                    for b2, a2, w in t_ij.get((a1, b1), ()):
                        key = ((c2 * dj + b2) * di + a2, col)
                        rhs[key] = rhs.get(key, 0) + uv * w
    dom = (s.space(i), s.space(j), s.space(k))
    n = di * dj * dk
    return tuple(LinMap._of(dom, dom[::-1], SparseMatrix._from_sums(s.field, n, n, side)) for side in (lhs, rhs))


def cybe_instance(s, i, j, k):
    """(lhs, rhs) of the colored YBE on V_i (x) V_j (x) V_k."""
    return _cybe_sides(s, _column_tables(s, [(i, j), (i, k), (j, k)]), i, j, k)


def verify_cybe(s):
    """One exact check per triple i <= j <= k; witness on first failure."""
    rep = AxiomReport(f"cYBE for {s!r}")
    tables = _column_tables(s, s.sigma)
    for i, j, k in s.triples():
        lhs, rhs = _cybe_sides(s, tables, i, j, k)
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
    """Associativity braiding of a UAA (any object with mu and nu, such as a YD
    module algebra): left x(x)y -> 1(x)xy, right -> xy(x)1."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    if side == "left":
        return uaa.nu.tensor(uaa.mu)
    return uaa.mu.tensor(uaa.nu)


# -- the (H, M_1..M_r, H*) system -----------------------------------------


def dual_action(b, dual):
    """The H-action on H* = dual: (h.l)(x) = l(x h), i.e. (ev (x) Id) o (Id (x) Delta*)."""
    f = b.field
    ev = evaluation(b.space, f)[1]  # H (x) H* -> k
    return apply_at(ev, 1, identity([b.space], f).tensor(dual.delta))


class YDSystem(BraidedSystem):
    """Braided system (H, M_1..M_r, H*), keeping H, H* and the H-action on H*."""

    def __init__(self, components, sigma, field, bialgebra, dual, lam_dual):
        super().__init__(components, sigma, field)
        self.bialgebra = bialgebra
        self.dual = dual
        self.lam_dual = lam_dual


def yd_base(h):
    """The unchecked rank-2 system (H, H*) of h, whose sigma_{H,H*} is invertible exactly when h has an antipode.

    ``yd_system`` inserts modules between its two components; a caller
    building many systems over one h builds it once.
    """
    dual = dual_bialgebra(h)
    lam_dual = dual_action(h, dual)
    sigma = {(1, 1): sigma_ass(h, "right"), (2, 2): sigma_ass(dual, "left")}
    sigma[1, 2] = ring_braiding(h.delta, lam_dual, h.field)
    return YDSystem((h.space, dual.space), sigma, h.field, h, dual, lam_dual)


def yd_system(base, mods, variant):
    """The system (H, M_1..M_r, H*) with sigma_{i,j} as in the module docstring, for ``base = yd_base(h)``.

    ``mods`` are YD modules (variant "yd") or YD module algebras (variant
    "ydalg"); no axioms are assumed and nothing is checked.
    """
    h = base.bialgebra
    f = h.field
    n = len(mods) + 2
    coaction = [h.delta] + [m.delta for m in mods]  # of components 1..n-1 (H coacts on itself via Delta)
    action = [m.lam for m in mods] + [base.lam_dual]  # of components 2..n
    sigma = {(1, 1): base.sigma[1, 1], (n, n): base.sigma[2, 2], (1, n): base.sigma[1, 2]}
    for t, m in enumerate(mods, start=2):
        sigma[(t, t)] = identity([m.space, m.space], f) if variant == "yd" else sigma_ass(m, "left")
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if (i, j) != (1, n):
                sigma[(i, j)] = ring_braiding(coaction[i - 1], action[j - 2], f)
    components = (base.space(1), *(m.space for m in mods), base.space(2))
    return YDSystem(components, sigma, f, h, base.dual, base.lam_dual)


def build_yd_system(h, mods, variant="yd"):
    """The rank r+2 braided system (H, M_1..M_r, H*).

    variant "yd" takes plain YD modules and uses identity diagonals on them;
    variant "ydalg" takes YD module algebras and uses their associativity
    braidings.  Inputs are validated first; the assembled ``yd_system`` is
    cYBE-verified before being returned.
    """
    if variant not in ("yd", "ydalg"):
        raise ValueError(f"unknown variant {variant!r}")
    check_bialgebra(h, "bialgebra").require("base bialgebra fails axioms")
    for m in {id(m): m for m in mods}.values():  # a module repeated in mods is checked once
        # the "yd_algebra" level raises TypeError on a module that is not a YDModuleAlgebra
        check_yd(m, "yd_algebra" if variant == "ydalg" else "yd").require("module fails axioms")
    sys = yd_system(yd_base(h), mods, variant)
    verify_cybe(sys).require("constructed system fails cYBE")
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
    ids = [identity([u.space], f) for u in uaas]
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    rep = AxiomReport("braided system of UAAs")
    for i, j in pairs:
        x, a, b, id_i, id_j = xi[(i, j)], uaas[i - 1], uaas[j - 1], ids[i - 1], ids[j - 1]
        units = AxiomReport()
        units.compare("unit_naturality_left", x.compose(a.nu.tensor(id_j)), id_j.tensor(a.nu))
        units.compare("unit_naturality_right", x.compose(id_i.tensor(b.nu)), b.nu.tensor(id_i))
        units.require(f"xi({i},{j}) is not natural with respect to the units")
        left = compose_chain([id_j.tensor(a.mu), x.tensor(id_i), id_i.tensor(x)])
        rep.compare(f"mu_naturality({i},{j})_left", x.compose(a.mu.tensor(id_j)), left)
        right = compose_chain([b.mu.tensor(id_i), id_j.tensor(x), x.tensor(id_j)])
        rep.compare(f"mu_naturality({i},{j})_right", x.compose(id_i.tensor(b.mu)), right)
    sigma = dict(xi)
    for i in range(1, r + 1):
        sigma[(i, i)] = sigma_ass(uaas[i - 1], "left")
    sys = BraidedSystem(tuple(u.space for u in uaas), sigma, f)
    full = verify_cybe(sys)
    for i, j in pairs:
        for k in range(j + 1, r + 1):
            rep.add(f"strict_cYBE({i},{j},{k})", full[f"cYBE({i},{j},{k})"].passed)
    # condition (2): every check so far, the mu-naturalities and the strict triples
    condition2 = rep.passed
    rep.add("full_cybe", full.passed, None if full.passed else full.first_failure().witness)
    rep.add("equivalence_cond2_iff_cybe", condition2 == full.passed)
    if condition2 != full.passed:
        raise CheckFailed("naturality/cYBE equivalence violated (internal error)")
    return rep, sys


# -- gluing -----------------------------------------------------------------


def braid_factor(s, types, i, front):
    """Braid factor i (1-based) of V_types[0] (x) V_types[1] (x) ... to the
    front (or to the back), one sigma per crossing.

    Returns the composite map; its codomain lists the braided factors.
    """
    types = list(types)
    comp = identity([s.space(t) for t in types], s.field)
    for t in range(i - 1, 0, -1) if front else range(i, len(types)):
        comp = apply_at(s.sigma[(types[t - 1], types[t])], t, comp)
        types[t - 1], types[t] = types[t], types[t - 1]
    return comp


def glue(s, lo, hi):
    """Replace consecutive components lo..hi by their tensor product.

    The glued block gets the identity diagonal braiding; mixed braidings
    thread through the block factor by factor.  The result is cYBE-verified.
    """
    r = s.rank
    if not (1 <= lo <= hi <= r):
        raise ValueError(f"invalid glue range {lo}..{hi} for rank {r}")
    f = s.field
    span = list(range(lo, hi + 1))
    block = s.space(lo)
    for t in span[1:]:
        block = tensor_space(block, s.space(t))

    # the block takes index lo; an index past it moves down by hi - lo
    shift = hi - lo
    sigma = {
        (i - shift * (i > hi), j - shift * (j > hi)): sig
        for (i, j), sig in s.sigma.items()
        if i not in span and j not in span
    }
    sigma[(lo, lo)] = identity([block, block], f)
    for a in range(1, lo):
        # V_a threads left-to-right through the block
        comp = braid_factor(s, [a] + span, 1, front=False)
        sigma[(a, lo)] = LinMap((s.space(a), block), (block, s.space(a)), comp.matrix)
    for b in range(hi + 1, r + 1):
        # V_b threads right-to-left through the block
        comp = braid_factor(s, span + [b], len(span) + 1, front=True)
        sigma[(lo, b - shift)] = LinMap((block, s.space(b)), (s.space(b), block), comp.matrix)

    out = BraidedSystem((*s.components[: lo - 1], block, *s.components[hi:]), sigma, f)
    verify_cybe(out).require("glued system fails cYBE")
    return out


# -- the precision harness ---------------------------------------------------


# (row, its cYBE triple, the check_yd check stating its axiom, the check_yd checks its side condition needs)
PRECISION_ROWS = (
    ("yd_compatibility", (1, 2, 3), "yd_compatibility", ()),
    ("action_associativity", (1, 1, 2), "action_associativity", ("action_unit",)),
    ("coaction_coassociativity", (2, 3, 3), "coaction_coassociativity", ("coaction_counit",)),
    ("action_respects_mu", (1, 2, 2), "yd_alg_lam_mu", ("yd_alg_lam_nu",)),
    ("coaction_respects_mu", (2, 2, 3), "yd_alg_delta_mu", ("yd_alg_delta_nu",)),
    ("mu_associativity", (2, 2, 2), "uaa_associativity", ("uaa_unit_left", "uaa_unit_right")),
)


def precision_harness(alg, base):
    """Row-by-row equivalence "cYBE instance <=> structure axiom", one dict per row.

    Each of the six rows carries three booleans: the side condition
    (``"side"``), the cYBE instance (``"cybe"``) and the axiom
    (``"axiom"``).  Axioms and side conditions are read from one
    ``check_yd(alg, "yd_algebra")`` report.  The row's ``"equivalence"``
    holds when the side condition fails or the last two agree.
    The cYBE instances are those of ``yd_system(base, [alg], "ydalg")``,
    the system ``build_yd_system`` builds and checks from the candidate YD
    module algebra ``alg``; ``base`` is ``yd_base(alg.base)``, built once
    for every candidate.
    """
    sys = yd_system(base, [alg], "ydalg")
    tables = _column_tables(sys, sys.sigma)
    axioms = check_yd(alg, "yd_algebra")
    passed = {c.name: c.passed for c in axioms.checks}
    rows = []
    for name, triple, axiom, side in PRECISION_ROWS:
        lhs, rhs = _cybe_sides(sys, tables, *triple)
        cybe_ok = lhs.matrix == rhs.matrix
        side_ok = all(passed[c] for c in side)
        ax_ok = passed[axiom]
        held = (not side_ok) or (cybe_ok == ax_ok)
        rows.append(
            {"row": name, "triple": triple, "side": side_ok, "cybe": cybe_ok, "axiom": ax_ok, "equivalence": held}
        )
    return rows


def random_precision_data(h, dim_v, rng):
    """A candidate YD module algebra over h on a dim_v space with random
    (lam, delta, mu, nu), side conditions enforced.

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

    one = f.one
    # nu_V = v0
    nu = from_terms((), (v,), [((0,), (), one)], f)
    # mu random with v0 a two-sided unit
    mu_terms = [((x,), (0, x), one) for x in range(dim_v)] + [((x,), (x, 0), one) for x in range(1, dim_v)]
    mu_terms += [((c,), (a, b), rand()) for a in range(1, dim_v) for b in range(1, dim_v) for c in range(dim_v)]
    mu = from_terms((v, v), (v,), mu_terms, f)
    # lam random with lam(unit (x) .) = Id and lam(h (x) v0) = eps(h) v0
    others = [i for i in range(dH) if i != unit_idx]
    lam_terms = [((a,), (unit_idx, a), one) for a in range(dim_v)]
    lam_terms += [((0,), (i, 0), h.eps.matrix.get(0, i)) for i in others]
    lam_terms += [((b,), (i, a), rand()) for i in others for a in range(1, dim_v) for b in range(dim_v)]
    lam = from_terms((h.space, v), (v,), lam_terms, f)
    # delta with (Id (x) eps) delta = Id and delta(v0) = v0 (x) 1_H
    delta_terms = [((0, unit_idx), (0,), one)]
    for a in range(1, dim_v):
        for b in range(dim_v):
            coeffs = {i: rand() for i in others}
            # sum_i coeff_i * eps(e_i) must be delta_{ab}, and eps(unit) = 1
            coeffs[unit_idx] = int(a == b) - sum(val * h.eps.matrix.get(0, i) for i, val in coeffs.items())
            delta_terms += [((b, i), (a,), val) for i, val in coeffs.items()]
    delta = from_terms((v,), (v, h.space), delta_terms, f)
    return YDModuleAlgebra(h, v, lam, delta, mu=mu, nu=nu)
