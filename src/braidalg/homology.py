"""Braided characters, multi-braided differentials and homology dimensions.

Two independent routes to the same differentials are implemented:

* a generic engine for any braided system with a pair of braided
  characters: on a degree-n ordered tensor product the left differential
  is the signed sum over i of "braid factor i to the front with the
  negative braiding, then apply the character", the right differential the
  mirror image with an extra global sign (-1)^(n-1);

* hand-coded Sweedler expansions on T(H) (x) M (x) T(H*) [(x) N*]: the
  bar and cobar parts merge neighbours, and four contraction maps pair a
  dual factor against comultiplication legs.  These feed the four
  bidifferential lines

      1.  d_bar                     | (-1)^n d_cob
      2.  d_bar + (-1)^n piH        | (-1)^n d_cob + (-1)^n Hspi
      3.  d_bar + Hpi               | (-1)^n d_cob + (-1)^(n+m) piHs
      4.  both of the above combined,

  signs taken on the source component H^(x)n (x) M (x) (H*)^(x)m (x) N*.

Complexes are truncated at a caller-supplied total degree; differentials
never raise the degree, so every reported number is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .linalg import SparseMatrix, rank as matrix_rank
from .report import AxiomReport
from .systems import BraidedSystem, YDSystem
from .tensor import LinMap, embed_at, identity
from .yd import check_yd


class InsufficientTruncationError(ValueError):
    pass


@dataclass
class BraidedCharacter:
    system: BraidedSystem
    zeta: tuple  # LinMap V_i -> k, one per component

    def component(self, i):
        return self.zeta[i - 1]


def zero_character_map(space, f):
    return LinMap((space,), (), SparseMatrix(f, 1, space.dim))


def check_character(c):
    """(zeta_j (x) zeta_i) o sigma_{i,j} = zeta_i (x) zeta_j for all i <= j."""
    s = c.system
    rep = AxiomReport("braided character")
    for i in range(1, s.rank + 1):
        if c.zeta[i - 1].domain[0].dim != s.space(i).dim:
            raise ValueError(f"character component {i} has wrong dimension")
    for i in range(1, s.rank + 1):
        for j in range(i, s.rank + 1):
            zi, zj = c.component(i), c.component(j)
            rep.compare(f"char({i},{j})", zj.tensor(zi).compose(s.sigma[(i, j)]), zi.tensor(zj))
    return rep


def eps_characters(s):
    """The two characters of a (H, M_1..M_r, H*) system: eps_H and eps_{H*}.

    eps_H lives on the H component with zeros elsewhere; eps_{H*} = nu_H*
    (evaluation at 1) on the H* component with zeros elsewhere.
    """
    if not isinstance(s, YDSystem):
        raise TypeError("eps_characters needs a system built by build_yd_system")
    f = s.field
    n = s.rank
    zeros = [zero_character_map(s.space(i), f) for i in range(1, n + 1)]
    z_h = list(zeros)
    z_h[0] = LinMap((s.space(1),), (), s.bialgebra.eps.matrix)
    z_hs = list(zeros)
    z_hs[n - 1] = LinMap((s.space(n),), (), s.dual.eps.matrix)
    char_h = BraidedCharacter(s, tuple(z_h))
    char_hs = BraidedCharacter(s, tuple(z_hs))
    for ch in (char_h, char_hs):
        rep = check_character(ch)
        if not rep.passed:
            raise AssertionError(f"built-in character failed: {rep.first_failure()}")
    return char_h, char_hs


# -- graded complexes --------------------------------------------------------


class GradedComplex:
    """Multidegree-indexed spaces with two families of degree -1 matrices.

    ``dims`` maps a degree tuple to the component dimension; blocks map
    (src, dst) degree pairs to matrices.  Total degree is the tuple sum.
    The blocks are fixed at construction: ``rank`` remembers each assembled
    rank, and ``bicomplex_report`` holds the ``verify_bicomplex`` report of
    a complex built by one of the constructors below (None otherwise).
    """

    def __init__(self, field, dims, d_blocks, dprime_blocks, max_total, meta=None):
        self.field = field
        self.dims = dict(dims)
        self.d_blocks = dict(d_blocks)
        self.dprime_blocks = dict(dprime_blocks)
        self.max_total = max_total
        self.meta = meta or {}
        self.bicomplex_report = None
        self._ranks = {}

    def degrees_at(self, k):
        return sorted(deg for deg in self.dims if sum(deg) == k)

    def chain_dim(self, k):
        return sum(self.dims[deg] for deg in self.degrees_at(k))

    def block(self, which, src, dst):
        blocks = self.d_blocks if which == "d" else self.dprime_blocks
        mat = blocks.get((src, dst))
        if mat is None:
            return SparseMatrix.zeros(self.field, self.dims.get(dst, 0), self.dims[src])
        return mat

    def assemble(self, which, k):
        """The total-degree matrix C_k -> C_{k-1} for which in d|d_prime|total."""
        if which == "total":
            a = self.assemble("d", k)
            b = self.assemble("d_prime", k)
            return a + b
        srcs = self.degrees_at(k)
        dsts = self.degrees_at(k - 1)
        col_off, off = {}, 0
        for deg in srcs:
            col_off[deg] = off
            off += self.dims[deg]
        n_cols = off
        row_off, off = {}, 0
        for deg in dsts:
            row_off[deg] = off
            off += self.dims[deg]
        n_rows = off
        blocks = self.d_blocks if which == "d" else self.dprime_blocks
        ent = {}
        for (src, dst), mat in blocks.items():
            if src in col_off and dst in row_off:
                ro, co = row_off[dst], col_off[src]
                for (r, c), v in mat.entries.items():
                    ent[(ro + r, co + c)] = v
        return SparseMatrix(self.field, n_rows, n_cols, ent)

    def rank(self, which, k):
        """rank of assemble(which, k), computed at most once; 0 outside 1..max_total."""
        if not 1 <= k <= self.max_total:
            return 0
        key = (which, k)
        if key not in self._ranks:
            self._ranks[key] = matrix_rank(self.assemble(which, k))
        return self._ranks[key]


def verify_bicomplex(c):
    """d^2 = 0, d'^2 = 0, dd' + d'd = 0 at every composable truncation degree."""
    rep = AxiomReport("bidifferential identities")
    for k in range(2, c.max_total + 1):
        d_k = c.assemble("d", k)
        d_k1 = c.assemble("d", k - 1)
        dp_k = c.assemble("d_prime", k)
        dp_k1 = c.assemble("d_prime", k - 1)
        rep.add(f"d_squared@{k}", (d_k1 @ d_k).is_zero())
        rep.add(f"d_prime_squared@{k}", (dp_k1 @ dp_k).is_zero())
        rep.add(f"anticommute@{k}", (d_k1 @ dp_k + dp_k1 @ d_k).is_zero())
    return rep


def _verify_or_raise(c):
    rep = c.bicomplex_report = verify_bicomplex(c)
    if not rep.passed:
        raise AssertionError(f"bidifferential identities fail: {rep.first_failure().name}")
    return c


def homology_dims(c, which="d", cohomology=False, up_to=None):
    """Exact homology dimensions for total degrees 0..max_total-1.

    dim H_k = dim ker(d_k) - rank(d_{k+1}); with cohomology=True the
    coboundaries are the transposes, of the same ranks (degrees are
    reported against the same k).  The Euler identity for a truncation
    window reads

        sum (-1)^k dim H_k = sum (-1)^k dim C_k - (-1)^(K) rank(d_{K+1})

    with K = max_total - 1; the trailing rank term accounts for the
    boundary of the window and vanishes for complexes truncated to zero.
    """
    if which not in ("d", "d_prime", "total"):
        raise ValueError(f"unknown differential choice {which!r}")
    top = c.max_total - 1
    if up_to is None:
        up_to = top
    if up_to > top:
        raise InsufficientTruncationError(
            f"degree {up_to} requested but truncation supports only <= {top}"
        )
    rows = []
    for k in range(0, up_to + 1):
        dim_ck = c.chain_dim(k)
        rank_in, rank_out = c.rank(which, k), c.rank(which, k + 1)
        h = dim_ck - rank_in - rank_out
        # the coboundary out of degree k is the transpose of d_{k+1}
        rank_d = rank_out if cohomology else rank_in
        rows.append({"degree": k, "chain_dim": dim_ck, "rank_d": rank_d, "homology_dim": h})
    boundary_rank = c.rank(which, up_to + 1)
    euler_h = sum((-1) ** r["degree"] * r["homology_dim"] for r in rows)
    euler_c = sum((-1) ** r["degree"] * r["chain_dim"] for r in rows)
    euler_ok = euler_h == euler_c - ((-1) ** up_to) * boundary_rank
    return {
        "which": which,
        "cohomology": bool(cohomology),
        "rows": rows,
        "euler_homology": euler_h,
        "euler_chain": euler_c,
        "boundary_rank": boundary_rank,
        "euler_identity_holds": euler_ok,
    }


# -- generic multi-braided differentials -------------------------------------


def _multidegrees(r, max_total):
    for total in range(max_total + 1):
        for cuts in itertools.combinations(range(total + r - 1), r - 1):
            deg = []
            prev = -1
            for cut in cuts:
                deg.append(cut - prev - 1)
                prev = cut
            deg.append(total + r - 1 - prev - 1)
            yield tuple(deg)


def _component_types(deg):
    types = []
    for t, mult in enumerate(deg, start=1):
        types.extend([t] * mult)
    return types


def generic_differentials(s, zeta, xi, max_total_degree):
    """The two multi-braided differentials of a braided system with characters.

    Degree-n components are the ordered tensor products; the i-th summand
    of the left differential braids factor i leftwards (one sign -1 per
    crossing) and applies the zeta-character; the right differential is
    the mirror image with the global sign (-1)^(n-1).
    """
    for ch in (zeta, xi):
        rep = check_character(ch)
        if not rep.passed:
            raise ValueError(f"invalid braided character: {rep.first_failure()}")
    f = s.field
    r = s.rank
    dims = {}
    spaces_of = {}
    for deg in _multidegrees(r, max_total_degree):
        types = _component_types(deg)
        spaces = [s.space(t) for t in types]
        d = 1
        for sp in spaces:
            d *= sp.dim
        dims[deg] = d
        spaces_of[deg] = (types, spaces)

    d_blocks, dp_blocks = {}, {}

    def add_block(blocks, src, dst, mat):
        key = (src, dst)
        if key in blocks:
            blocks[key] = blocks[key] + mat
        else:
            blocks[key] = mat

    minus_one = f.neg(f.one)
    for deg, (types, spaces) in spaces_of.items():
        n = len(types)
        if n == 0:
            continue
        for i in range(1, n + 1):
            ki = types[i - 1]
            tgt = tuple(m - (1 if t == ki - 1 else 0) for t, m in enumerate(deg))
            # left differential: braid factor i to the front, apply zeta
            if not zeta.component(ki).is_zero():
                ctx = list(spaces)
                comp = identity(ctx, f)
                sign = f.one
                for t in range(i - 1, 0, -1):
                    sig = s.sigma[(types[t - 1], ki)]
                    comp = embed_at(sig, t, ctx, f).compose(comp)
                    ctx[t - 1], ctx[t] = ctx[t], ctx[t - 1]
                    sign = f.mul(sign, minus_one)
                front = zeta.component(ki)
                if len(ctx) > 1:
                    front = front.tensor(identity(ctx[1:], f))
                add_block(d_blocks, deg, tgt, front.compose(comp).scale(sign).matrix)
            # right differential: braid factor i to the back, apply xi
            if not xi.component(ki).is_zero():
                ctx = list(spaces)
                comp = identity(ctx, f)
                sign = minus_one if (n - 1) % 2 else f.one
                for t in range(i, n):
                    sig = s.sigma[(ki, types[t])]
                    comp = embed_at(sig, t, ctx, f).compose(comp)
                    ctx[t - 1], ctx[t] = ctx[t], ctx[t - 1]
                    sign = f.mul(sign, minus_one)
                back = xi.component(ki)
                if len(ctx) > 1:
                    back = identity(ctx[:-1], f).tensor(back)
                add_block(dp_blocks, deg, tgt, back.compose(comp).scale(sign).matrix)

    cx = GradedComplex(f, dims, d_blocks, dp_blocks, max_total_degree, meta={"kind": "generic"})
    return _verify_or_raise(cx)


# -- hand-coded Sweedler differentials ---------------------------------------


class _SweedlerOps:
    """Structure-constant expansions on T(H) (x) M (x) T(H*) [(x) N*].

    Component bases are tuples (i_1..i_n, a, j_1..j_m[, beta]) linearised
    with the left factor major.  All maps are assembled by explicit loops
    over structure constants; no braiding machinery is involved, which
    keeps this path independent of the generic engine.
    """

    def __init__(self, h, m, n_mod=None):
        self.h = h
        self.m = m
        self.n_mod = n_mod
        f = self.f = h.field
        d = self.dH = h.dim
        self.dM = m.dim
        self.dN = n_mod.dim if n_mod is not None else None
        # Delta(e_i) legs
        self.comul = [[] for _ in range(d)]
        for (row, i), v in h.delta.matrix.entries.items():
            self.comul[i].append((row // d, row % d, v))
        # products of basis vectors
        self.mul = {}
        for (k, col), v in h.mu.matrix.entries.items():
            self.mul.setdefault((col // d, col % d), []).append((k, v))
        # dual products: mu_{H*}(e*_{j1} e*_{j2}) = sum_i comul[i][j2][j1] e*_i
        self.dmul = {}
        for i in range(d):
            for (a, b, v) in self.comul[i]:
                self.dmul.setdefault((b, a), []).append((i, v))
        # dual comultiplication: Delta_{H*}(e*_j) = sum <e*_j, e_v e_u> e*_u (x) e*_v
        self.ddelta = [[] for _ in range(d)]
        for (vv, uu), terms in self.mul.items():
            for (j, c) in terms:
                self.ddelta[j].append((uu, vv, c))
        self.unit_vec = {k: v for (k, _z), v in h.nu.matrix.entries.items()}
        self.counit = [h.eps.matrix.get(0, i) for i in range(d)]
        self.dual_unit_vec = {i: self.counit[i] for i in range(d) if not f.is_zero(self.counit[i])}
        # action/coaction of M
        self.actM = {}
        for (b, col), v in m.lam.matrix.entries.items():
            self.actM.setdefault((col // self.dM, col % self.dM), []).append((b, v))
        self.coactM = [[] for _ in range(self.dM)]
        for (row, a), v in m.delta.matrix.entries.items():
            self.coactM[a].append((row // d, row % d, v))
        if n_mod is not None:
            dN = self.dN
            actN = {}
            for (b, col), v in n_mod.lam.matrix.entries.items():
                actN.setdefault((col // dN, col % dN), []).append((b, v))
            coactN = [[] for _ in range(dN)]
            for (row, a), v in n_mod.delta.matrix.entries.items():
                coactN[a].append((row // d, row % d, v))
            # delta_{N*}(e*_beta) = sum actN[i][alpha][beta] e*_alpha (x) e*_i
            self.delta_Nstar = [[] for _ in range(dN)]
            for (i, alpha), terms in actN.items():
                for (beta, v) in terms:
                    self.delta_Nstar[beta].append((alpha, i, v))
            # lam_{N*}(e*_j (x) e*_beta) = sum coactN[alpha][beta][j] e*_alpha
            self.lam_Nstar = {}
            for alpha in range(dN):
                for (beta, j, v) in coactN[alpha]:
                    self.lam_Nstar.setdefault((j, beta), []).append((alpha, v))

    # product of H basis vectors, as {basis: coeff}; empty product = unit
    def h_product(self, idxs):
        f = self.f
        acc = dict(self.unit_vec) if not idxs else {idxs[0]: f.one}
        for i in idxs[1:]:
            new = {}
            for x, cx in acc.items():
                for (k, ck) in self.mul.get((x, i), ()):
                    s = f.add(new.get(k, f.zero), f.mul(cx, ck))
                    if f.is_zero(s):
                        new.pop(k, None)
                    else:
                        new[k] = s
            acc = new
        return acc

    def dual_product(self, idxs):
        f = self.f
        acc = dict(self.dual_unit_vec) if not idxs else {idxs[0]: f.one}
        for j in idxs[1:]:
            new = {}
            for x, cx in acc.items():
                for (k, ck) in self.dmul.get((x, j), ()):
                    s = f.add(new.get(k, f.zero), f.mul(cx, ck))
                    if f.is_zero(s):
                        new.pop(k, None)
                    else:
                        new[k] = s
            acc = new
        return acc

    # -- component enumeration ------------------------------------------

    def comp_dims(self, n, mm):
        dims = [self.dH] * n + [self.dM] + [self.dH] * mm
        if self.dN is not None:
            dims.append(self.dN)
        return dims

    def comp_dim(self, n, mm):
        d = 1
        for x in self.comp_dims(n, mm):
            d *= x
        return d

    def tuples(self, n, mm):
        return itertools.product(*[range(x) for x in self.comp_dims(n, mm)])

    @staticmethod
    def lin(tup, dims):
        idx = 0
        for i, d in zip(tup, dims):
            idx = idx * d + i
        return idx

    def split(self, tup, n, mm):
        hs = tup[:n]
        a = tup[n]
        ls = tup[n + 1 : n + 1 + mm]
        beta = tup[n + 1 + mm] if self.dN is not None else None
        return hs, a, ls, beta

    def _assemble(self, n, mm, tgt_n, tgt_m, gen):
        """Build a block matrix from a generator of (in_tuple, out_tuple, coeff)."""
        f = self.f
        src_dims = self.comp_dims(n, mm)
        dst_dims = self.comp_dims(tgt_n, tgt_m)
        n_rows = self.comp_dim(tgt_n, tgt_m)
        n_cols = self.comp_dim(n, mm)
        ent = {}
        for tin, tout, coeff in gen:
            if f.is_zero(coeff):
                continue
            key = (self.lin(tout, dst_dims), self.lin(tin, src_dims))
            s = f.add(ent.get(key, f.zero), coeff)
            if f.is_zero(s):
                ent.pop(key, None)
            else:
                ent[key] = s
        return SparseMatrix(f, n_rows, n_cols, ent)

    # -- the six primitive maps ------------------------------------------

    def bar(self, n, mm):
        """sum_t (-1)^t (merge h_t h_{t+1}); zero for n < 2."""
        f = self.f

        def gen():
            for tup in self.tuples(n, mm):
                hs, a, ls, beta = self.split(tup, n, mm)
                for t in range(n - 1):
                    sign = f.neg(f.one) if (t + 1) % 2 else f.one
                    for (k, c) in self.mul.get((hs[t], hs[t + 1]), ()):
                        out = hs[:t] + (k,) + hs[t + 2 :] + (a,) + ls
                        if beta is not None:
                            out = out + (beta,)
                        yield tup, out, f.mul(sign, c)

        return self._assemble(n, mm, n - 1, mm, gen())

    def cob(self, n, mm):
        """sum_t (-1)^t (merge l_t l_{t+1}); zero for m < 2."""
        f = self.f

        def gen():
            for tup in self.tuples(n, mm):
                hs, a, ls, beta = self.split(tup, n, mm)
                for t in range(mm - 1):
                    sign = f.neg(f.one) if (t + 1) % 2 else f.one
                    for (k, c) in self.dmul.get((ls[t], ls[t + 1]), ()):
                        out = hs + (a,) + ls[:t] + (k,) + ls[t + 2 :]
                        if beta is not None:
                            out = out + (beta,)
                        yield tup, out, f.mul(sign, c)

        return self._assemble(n, mm, n, mm - 1, gen())

    def hspi(self, n, mm):
        """Contract l_1 against <l_1, h_1(2)...h_n(2).a_(1)>; keeps first legs."""
        f = self.f

        def gen():
            if mm < 1:
                return
            for tup in self.tuples(n, mm):
                hs, a, ls, beta = self.split(tup, n, mm)
                for legs in itertools.product(*[self.comul[i] for i in hs]):
                    c_h = f.one
                    for (_p, _q, cv) in legs:
                        c_h = f.mul(c_h, cv)
                    for (a0, w, cm) in self.coactM[a]:
                        prod = self.h_product([q for (_p, q, _c) in legs] + [w])
                        c_pair = prod.get(ls[0])
                        if c_pair is None:
                            continue
                        out = tuple(p for (p, _q, _c) in legs) + (a0,) + ls[1:]
                        if beta is not None:
                            out = out + (beta,)
                        yield tup, out, f.mul(f.mul(c_h, cm), c_pair)

        return self._assemble(n, mm, n, mm - 1, gen())

    def pih(self, n, mm):
        """Contract h_n against <l_1(1)...l_m(1), h_n(1)>, act by h_n(2) on M."""
        f = self.f

        def gen():
            if n < 1:
                return
            for tup in self.tuples(n, mm):
                hs, a, ls, beta = self.split(tup, n, mm)
                for legs in itertools.product(*[self.ddelta[j] for j in ls]):
                    c_l = f.one
                    for (_u, _v, cv) in legs:
                        c_l = f.mul(c_l, cv)
                    prod = self.dual_product([u for (u, _v, _c) in legs])
                    for (x, y, cn) in self.comul[hs[n - 1]]:
                        c_pair = prod.get(x)
                        if c_pair is None:
                            continue
                        for (b_out, ca) in self.actM.get((y, a), ()):
                            out = hs[: n - 1] + (b_out,) + tuple(v for (_u, v, _c) in legs)
                            if beta is not None:
                                out = out + (beta,)
                            yield tup, out, f.mul(f.mul(c_l, cn), f.mul(c_pair, ca))

        return self._assemble(n, mm, n - 1, mm, gen())

    def hpi(self, n, mm):
        """Contract h_1 against <l_1(2)...l_m(2).b_(1), h_1>; needs the N* leg."""
        f = self.f
        if self.dN is None:
            raise ValueError("this contraction needs the dual coefficient module")

        def gen():
            if n < 1:
                return
            for tup in self.tuples(n, mm):
                hs, a, ls, beta = self.split(tup, n, mm)
                for legs in itertools.product(*[self.ddelta[j] for j in ls]):
                    c_l = f.one
                    for (_u, _v, cv) in legs:
                        c_l = f.mul(c_l, cv)
                    for (alpha, iN, cb) in self.delta_Nstar[beta]:
                        prod = self.dual_product([v for (_u, v, _c) in legs] + [iN])
                        c_pair = prod.get(hs[0])
                        if c_pair is None:
                            continue
                        out = hs[1:] + (a,) + tuple(u for (u, _v, _c) in legs) + (alpha,)
                        yield tup, out, f.mul(f.mul(c_l, cb), c_pair)

        return self._assemble(n, mm, n - 1, mm, gen())

    def pihs(self, n, mm):
        """Contract l_m against <l_m(1), h_1(1)...h_n(1)>, act by l_m(2) on N*."""
        f = self.f
        if self.dN is None:
            raise ValueError("this contraction needs the dual coefficient module")

        def gen():
            if mm < 1:
                return
            for tup in self.tuples(n, mm):
                hs, a, ls, beta = self.split(tup, n, mm)
                for legs in itertools.product(*[self.comul[i] for i in hs]):
                    c_h = f.one
                    for (_p, _q, cv) in legs:
                        c_h = f.mul(c_h, cv)
                    prod = self.h_product([p for (p, _q, _c) in legs])
                    for (u, v, cm) in self.ddelta[ls[mm - 1]]:
                        c_pair = prod.get(u)
                        if c_pair is None:
                            continue
                        for (alpha, cl) in self.lam_Nstar.get((v, beta), ()):
                            out = tuple(q for (_p, q, _c) in legs) + (a,) + ls[: mm - 1] + (alpha,)
                            yield tup, out, f.mul(f.mul(c_h, cm), f.mul(c_pair, cl))

        return self._assemble(n, mm, n, mm - 1, gen())


def _sign_pow(f, exponent):
    return f.neg(f.one) if exponent % 2 else f.one


def _bidegrees(max_total):
    return [(n, m) for n in range(max_total + 1) for m in range(max_total + 1 - n)]


def yd_bidifferential(h, m, max_total_degree, check_inputs=True):
    """The explicit Sweedler bidifferential on T(H) (x) M (x) T(H*).

    d lowers the dual degree m, d' lowers the algebra degree n; on the
    (n, m) component

        d  = (-1)^(n+1) (d_cob + contraction of l_1)
        d' = (-1)^(n+1) (contraction of h_n) - d_bar.
    """
    if check_inputs:
        rep = check_yd(m, "yd")
        if not rep.passed:
            raise ValueError(f"module fails YD axioms: {rep.first_failure()}")
    ops = _SweedlerOps(h, m, None)
    f = h.field
    dims = {}
    d_blocks, dp_blocks = {}, {}
    for (n, mm) in _bidegrees(max_total_degree):
        dims[(n, mm)] = ops.comp_dim(n, mm)
    for (n, mm) in _bidegrees(max_total_degree):
        sgn = _sign_pow(f, n + 1)
        if mm >= 1:
            mat = ops.cob(n, mm) + ops.hspi(n, mm)
            d_blocks[((n, mm), (n, mm - 1))] = mat.scale(sgn)
        if n >= 1:
            mat = ops.pih(n, mm).scale(sgn) - ops.bar(n, mm)
            dp_blocks[((n, mm), (n - 1, mm))] = mat
    cx = GradedComplex(f, dims, d_blocks, dp_blocks, max_total_degree, meta={"kind": "yd_bidifferential"})
    return _verify_or_raise(cx)


COMPLEX_LINES = (1, 2, 3, 4)


def coefficient_complex(h, m, n_mod, line, max_total_degree, check_inputs=True):
    """One of the four bidifferential structures on T(H) (x) M (x) T(H*) (x) N*.

    d is the left column (lowers n), d' the right column (lowers m); the
    four contractions enter with the printed signs, taken at the source
    component.
    """
    if line not in COMPLEX_LINES:
        raise ValueError(f"line must be 1..4, got {line!r}")
    if check_inputs:
        for mod, tag in ((m, "M"), (n_mod, "N")):
            rep = check_yd(mod, "yd")
            if not rep.passed:
                raise ValueError(f"module {tag} fails YD axioms: {rep.first_failure()}")
    ops = _SweedlerOps(h, m, n_mod)
    f = h.field
    dims = {}
    d_blocks, dp_blocks = {}, {}
    for (n, mm) in _bidegrees(max_total_degree):
        dims[(n, mm)] = ops.comp_dim(n, mm)
    for (n, mm) in _bidegrees(max_total_degree):
        sgn_n = _sign_pow(f, n)
        sgn_nm = _sign_pow(f, n + mm)
        if n >= 1:
            mat = ops.bar(n, mm)
            if line in (2, 4):
                mat = mat + ops.pih(n, mm).scale(sgn_n)
            if line in (3, 4):
                mat = mat + ops.hpi(n, mm)
            d_blocks[((n, mm), (n - 1, mm))] = mat
        if mm >= 1:
            mat = ops.cob(n, mm).scale(sgn_n)
            if line in (2, 4):
                mat = mat + ops.hspi(n, mm).scale(sgn_n)
            if line in (3, 4):
                mat = mat + ops.pihs(n, mm).scale(sgn_nm)
            dp_blocks[((n, mm), (n, mm - 1))] = mat
    cx = GradedComplex(
        f, dims, d_blocks, dp_blocks, max_total_degree, meta={"kind": "coefficient", "line": line}
    )
    return _verify_or_raise(cx)


def pi_maps(h, m, n_mod, max_total_degree):
    """The four contraction maps as block families, unsigned."""
    ops = _SweedlerOps(h, m, n_mod)
    fams = {"hspi": {}, "pihs": {}, "pih": {}, "hpi": {}}
    for (n, mm) in _bidegrees(max_total_degree):
        if mm >= 1:
            fams["hspi"][((n, mm), (n, mm - 1))] = ops.hspi(n, mm)
            fams["pihs"][((n, mm), (n, mm - 1))] = ops.pihs(n, mm)
        if n >= 1:
            fams["pih"][((n, mm), (n - 1, mm))] = ops.pih(n, mm)
            fams["hpi"][((n, mm), (n - 1, mm))] = ops.hpi(n, mm)
    return fams


def pi_commutation_suite(h, m, n_mod, max_total_degree):
    """All six unordered pairs of contraction maps commute degreewise."""
    fams = pi_maps(h, m, n_mod, max_total_degree)

    def apply_block(fam, src):
        for (s, t), mat in fams[fam].items():
            if s == src:
                return t, mat
        return None, None

    rep = AxiomReport("pairwise commutation of the contraction maps")
    names = sorted(fams)
    for a_i in range(len(names)):
        for b_i in range(a_i + 1, len(names)):
            a, b = names[a_i], names[b_i]
            ok = True
            witness_deg = None
            for (n, mm) in _bidegrees(max_total_degree):
                mid_b, mat_b = apply_block(b, (n, mm))
                mid_a, mat_a = apply_block(a, (n, mm))
                if mid_b is None or mid_a is None:
                    continue
                _, mat_a2 = apply_block(a, mid_b)
                _, mat_b2 = apply_block(b, mid_a)
                if mat_a2 is None or mat_b2 is None:
                    continue
                if (mat_a2 @ mat_b) != (mat_b2 @ mat_a):
                    ok = False
                    witness_deg = (n, mm)
                    break
            rep.add(f"commute({a},{b})" + ("" if ok else f"@{witness_deg}"), ok)
    return rep
