"""Braided characters, multi-braided differentials and homology dimensions.

Two independent routes to the same differentials are implemented:

* a generic engine for any braided system with a pair of braided
  characters: on a degree-n ordered tensor product the left differential
  is the signed sum over i of "braid factor i to the front with the
  negative braiding, then apply the character", the right differential the
  mirror image with an extra global sign (-1)^(n-1);

* hand-coded Sweedler expansions on T(H) (x) M (x) T(H*) (x) N*: the
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
import math
from dataclasses import dataclass

from .linalg import SparseMatrix, rank as matrix_rank
from .report import AxiomReport
from .systems import BraidedSystem, YDSystem, braid_factor
from .tensor import LinMap, identity
from .yd import check_yd, unit_yd


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
    types_of = {deg: _component_types(deg) for deg in _multidegrees(r, max_total_degree)}
    dims = {deg: math.prod(s.space(t).dim for t in types) for deg, types in types_of.items()}

    d_blocks, dp_blocks = {}, {}

    def add_block(blocks, src, dst, mat):
        key = (src, dst)
        if key in blocks:
            blocks[key] = blocks[key] + mat
        else:
            blocks[key] = mat

    for deg, types in types_of.items():
        for i, ki in enumerate(types, start=1):
            tgt = tuple(m - (1 if t == ki - 1 else 0) for t, m in enumerate(deg))
            # (-1)^(i-1) on both sides: i-1 crossings to the front; (-1)^(n-1) times n-i to the back
            sign = _sign_pow(f, i - 1)
            # left differential: braid factor i to the front, apply zeta
            if not zeta.component(ki).is_zero():
                comp, ctx = braid_factor(s, types, i, front=True)
                front = zeta.component(ki).tensor(identity(ctx[1:], f))
                add_block(d_blocks, deg, tgt, front.compose(comp).scale(sign).matrix)
            # right differential: braid factor i to the back, apply xi
            if not xi.component(ki).is_zero():
                comp, ctx = braid_factor(s, types, i, front=False)
                back = identity(ctx[:-1], f).tensor(xi.component(ki))
                add_block(dp_blocks, deg, tgt, back.compose(comp).scale(sign).matrix)

    cx = GradedComplex(f, dims, d_blocks, dp_blocks, max_total_degree, meta={"kind": "generic"})
    return _verify_or_raise(cx)


# -- hand-coded Sweedler differentials ---------------------------------------


def _by_input_pair(mat, d):
    """{(x, y): [(out, coeff), ...]} for a map A (x) B -> C with dim B = d."""
    table = {}
    for (k, col), v in mat.entries.items():
        table.setdefault(divmod(col, d), []).append((k, v))
    return table


def _by_input(mat, n_in, d):
    """[[(x, y, coeff), ...] per input basis vector] for a map A -> B (x) C with dim C = d."""
    table = [[] for _ in range(n_in)]
    for (row, i), v in mat.entries.items():
        table[i].append((*divmod(row, d), v))
    return table


class _SweedlerOps:
    """Structure-constant expansions on T(H) (x) M (x) T(H*) (x) N*.

    Component bases are tuples (i_1..i_n, a, j_1..j_m, beta) linearised
    with the left factor major.  All maps are assembled by explicit loops
    over structure constants; no braiding machinery is involved, which
    keeps this path independent of the generic engine.
    """

    def __init__(self, h, m, n_mod):
        f = self.f = h.field
        d = self.dH = h.dim
        self.dM = m.dim
        dN = self.dN = n_mod.dim
        self.comul = _by_input(h.delta.matrix, d, d)  # Delta(e_i) legs
        self.mul = _by_input_pair(h.mu.matrix, d)
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
        counit = [h.eps.matrix.get(0, i) for i in range(d)]
        self.dual_unit_vec = {i: c for i, c in enumerate(counit) if not f.is_zero(c)}
        self.actM = _by_input_pair(m.lam.matrix, self.dM)
        self.coactM = _by_input(m.delta.matrix, self.dM, d)
        actN = _by_input_pair(n_mod.lam.matrix, dN)
        coactN = _by_input(n_mod.delta.matrix, dN, d)
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
        self._memo = {}

    def product(self, idxs, dual=False):
        """e_i1 ... e_ik in H (in H* if dual) as {basis: coeff}; the empty product is the unit."""
        key = ("product", dual, idxs)
        if key not in self._memo:
            f = self.f
            if len(idxs) < 2:
                acc = {idxs[0]: f.one} if idxs else (self.dual_unit_vec if dual else self.unit_vec)
            else:
                acc = {}
                mul = self.dmul if dual else self.mul
                for x, cx in self.product(idxs[:-1], dual).items():
                    for (k, ck) in mul.get((x, idxs[-1]), ()):
                        s = f.add(acc.get(k, f.zero), f.mul(cx, ck))
                        if f.is_zero(s):
                            acc.pop(k, None)
                        else:
                            acc[k] = s
            self._memo[key] = acc
        return self._memo[key]

    def legs(self, idxs, dual=False):
        """[(first legs, second legs, coeff)] of Delta(e_i1) (x) ... (x) Delta(e_ik) in H (in H* if dual)."""
        key = ("legs", dual, idxs)
        if key not in self._memo:
            f = self.f
            table = self.ddelta if dual else self.comul
            out = []
            for legs in itertools.product(*[table[i] for i in idxs]):
                c = f.one
                for (_x, _y, cv) in legs:
                    c = f.mul(c, cv)
                out.append((tuple(x for (x, _y, _c) in legs), tuple(y for (_x, y, _c) in legs), c))
            self._memo[key] = out
        return self._memo[key]

    def comp_dims(self, n, mm):
        return [self.dH] * n + [self.dM] + [self.dH] * mm + [self.dN]

    def comp_dim(self, n, mm):
        return math.prod(self.comp_dims(n, mm))

    def _assemble(self, n, mm, tgt_n, tgt_m, term):
        """The block (n, mm) -> (tgt_n, tgt_m) whose column at basis tuple
        (hs, a, ls, beta) sums the (out_tuple, coeff) pairs of term(hs, a, ls, beta)."""
        f = self.f
        src_dims = self.comp_dims(n, mm)
        dst_dims = self.comp_dims(tgt_n, tgt_m)
        ent = {}
        for col, tup in enumerate(itertools.product(*[range(x) for x in src_dims])):
            for out, coeff in term(tup[:n], tup[n], tup[n + 1 : n + 1 + mm], tup[-1]):
                if f.is_zero(coeff):
                    continue
                row = 0
                for i, d in zip(out, dst_dims):
                    row = row * d + i
                s = f.add(ent.get((row, col), f.zero), coeff)
                if f.is_zero(s):
                    ent.pop((row, col), None)
                else:
                    ent[(row, col)] = s
        return SparseMatrix(f, math.prod(dst_dims), math.prod(src_dims), ent)

    # -- the six primitive maps ------------------------------------------

    def bar(self, n, mm):
        """sum_t (-1)^t (merge h_t h_{t+1}); zero for n < 2."""
        f = self.f

        def term(hs, a, ls, beta):
            for t in range(n - 1):
                sign = _sign_pow(f, t + 1)
                for (k, c) in self.mul.get((hs[t], hs[t + 1]), ()):
                    yield hs[:t] + (k,) + hs[t + 2 :] + (a,) + ls + (beta,), f.mul(sign, c)

        return self._assemble(n, mm, n - 1, mm, term)

    def cob(self, n, mm):
        """sum_t (-1)^t (merge l_t l_{t+1}); zero for m < 2."""
        f = self.f

        def term(hs, a, ls, beta):
            for t in range(mm - 1):
                sign = _sign_pow(f, t + 1)
                for (k, c) in self.dmul.get((ls[t], ls[t + 1]), ()):
                    yield hs + (a,) + ls[:t] + (k,) + ls[t + 2 :] + (beta,), f.mul(sign, c)

        return self._assemble(n, mm, n, mm - 1, term)

    def hspi(self, n, mm):
        """Contract l_1 against <l_1, h_1(2)...h_n(2).a_(1)>; keeps first legs."""
        f = self.f

        def term(hs, a, ls, beta):
            for (ps, qs, c_h) in self.legs(hs):
                for (a0, w, cm) in self.coactM[a]:
                    c_pair = self.product(qs + (w,)).get(ls[0])
                    if c_pair is not None:
                        yield ps + (a0,) + ls[1:] + (beta,), f.mul(f.mul(c_h, cm), c_pair)

        return self._assemble(n, mm, n, mm - 1, term)

    def pih(self, n, mm):
        """Contract h_n against <l_1(1)...l_m(1), h_n(1)>, act by h_n(2) on M."""
        f = self.f

        def term(hs, a, ls, beta):
            for (us, vs, c_l) in self.legs(ls, dual=True):
                prod = self.product(us, dual=True)
                for (x, y, cn) in self.comul[hs[-1]]:
                    c_pair = prod.get(x)
                    if c_pair is None:
                        continue
                    for (b_out, ca) in self.actM.get((y, a), ()):
                        yield hs[:-1] + (b_out,) + vs + (beta,), f.mul(f.mul(c_l, cn), f.mul(c_pair, ca))

        return self._assemble(n, mm, n - 1, mm, term)

    def hpi(self, n, mm):
        """Contract h_1 against <l_1(2)...l_m(2).b_(1), h_1>."""
        f = self.f

        def term(hs, a, ls, beta):
            for (us, vs, c_l) in self.legs(ls, dual=True):
                for (alpha, iN, cb) in self.delta_Nstar[beta]:
                    c_pair = self.product(vs + (iN,), dual=True).get(hs[0])
                    if c_pair is not None:
                        yield hs[1:] + (a,) + us + (alpha,), f.mul(f.mul(c_l, cb), c_pair)

        return self._assemble(n, mm, n - 1, mm, term)

    def pihs(self, n, mm):
        """Contract l_m against <l_m(1), h_1(1)...h_n(1)>, act by l_m(2) on N*."""
        f = self.f

        def term(hs, a, ls, beta):
            for (ps, qs, c_h) in self.legs(hs):
                prod = self.product(ps)
                for (u, v, cm) in self.ddelta[ls[-1]]:
                    c_pair = prod.get(u)
                    if c_pair is None:
                        continue
                    for (alpha, cl) in self.lam_Nstar.get((v, beta), ()):
                        yield qs + (a,) + ls[:-1] + (alpha,), f.mul(f.mul(c_h, cm), f.mul(c_pair, cl))

        return self._assemble(n, mm, n, mm - 1, term)


def _sign_pow(f, exponent):
    return f.neg(f.one) if exponent % 2 else f.one


def _bidegrees(max_total):
    return [(n, m) for n in range(max_total + 1) for m in range(max_total + 1 - n)]


def yd_bidifferential(h, m, max_total_degree, check_inputs=True):
    """The explicit Sweedler bidifferential on T(H) (x) M (x) T(H*).

    It is line 2 with N = k, its differentials swapped and negated: d
    lowers the dual degree m, d' lowers the algebra degree n, and on the
    (n, m) component

        d  = (-1)^(n+1) (d_cob + contraction of l_1)
        d' = (-1)^(n+1) (contraction of h_n) - d_bar.
    """
    if check_inputs:
        rep = check_yd(m, "yd")
        if not rep.passed:
            raise ValueError(f"module fails YD axioms: {rep.first_failure()}")
    line2 = coefficient_complex(h, m, unit_yd(h), 2, max_total_degree, check_inputs=False)
    d_blocks = {key: -mat for key, mat in line2.dprime_blocks.items()}
    dp_blocks = {key: -mat for key, mat in line2.d_blocks.items()}
    cx = GradedComplex(
        h.field, line2.dims, d_blocks, dp_blocks, max_total_degree, meta={"kind": "yd_bidifferential"}
    )
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
    # family -> {source degree: (target degree, matrix)}
    by_src = {
        fam: {src: (dst, mat) for (src, dst), mat in blocks.items()}
        for fam, blocks in pi_maps(h, m, n_mod, max_total_degree).items()
    }
    rep = AxiomReport("pairwise commutation of the contraction maps")
    for a, b in itertools.combinations(sorted(by_src), 2):
        witness_deg = None
        for deg in _bidegrees(max_total_degree):
            if deg not in by_src[a] or deg not in by_src[b]:
                continue
            (mid_a, mat_a), (mid_b, mat_b) = by_src[a][deg], by_src[b][deg]
            if mid_b not in by_src[a] or mid_a not in by_src[b]:
                continue
            if by_src[a][mid_b][1] @ mat_b != by_src[b][mid_a][1] @ mat_a:
                witness_deg = deg
                break
        ok = witness_deg is None
        rep.add(f"commute({a},{b})" + ("" if ok else f"@{witness_deg}"), ok)
    return rep
