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
import operator

from .linalg import SparseMatrix, pivot_columns, rank as matrix_rank
from .report import AxiomReport
from .systems import BraidedSystem, YDSystem, braid_factor, check_braided_morphism
from .tensor import LinMap, Space, apply_at, identity
from .yd import check_yd, unit_yd


def zero_character_map(space, f):
    return LinMap((space,), (), SparseMatrix(f, 1, space.dim))


def check_character(s, zeta):
    """A braided character of s is a tuple zeta of maps V_i -> k, one per component: a
    braided morphism into the trivial system (k, ..., k) with identity braidings.  A
    tuple of the wrong length or shape raises ValueError.
    """
    if len(zeta) != s.rank:
        raise ValueError(f"a character of a rank-{s.rank} system needs {s.rank} maps, got {len(zeta)}")
    for i, z in enumerate(zeta, start=1):
        if (z.matrix.n_rows, z.matrix.n_cols) != (1, s.space(i).dim):
            raise ValueError(f"character component {i} is not a map V_{i} -> k")
    k = Space(1, "k")
    trivial = BraidedSystem((k,) * s.rank, dict.fromkeys(s.sigma, identity([k, k], s.field)), s.field)
    return check_braided_morphism(zeta, s, trivial)


def eps_characters(s):
    """The two characters of a (H, M_1..M_r, H*) system: eps_H and eps_{H*}.

    eps_H lives on the H component with zeros elsewhere; eps_{H*} = nu_H*
    (evaluation at 1) on the H* component with zeros elsewhere.
    """
    if not isinstance(s, YDSystem):
        raise TypeError("eps_characters needs a system built by build_yd_system")
    f = s.field
    n = s.rank
    zeros = tuple(zero_character_map(s.space(i), f) for i in range(1, n + 1))
    char_h = (LinMap((s.space(1),), (), s.bialgebra.eps.matrix),) + zeros[1:]
    char_hs = zeros[:-1] + (LinMap((s.space(n),), (), s.dual.eps.matrix),)
    for ch in (char_h, char_hs):
        check_character(s, ch).require("built-in character failed")
    return char_h, char_hs


# -- graded complexes --------------------------------------------------------


class GradedComplex:
    """Multidegree-indexed spaces with two families of degree -1 matrices.

    ``dims`` maps a degree tuple to the component dimension; blocks map
    (src, dst) degree pairs to matrices.  Total degree is the tuple sum.
    ``by_source[which]`` lists each source's (dst, block) pairs, keeping the
    blocks between components of ``dims`` that lower the total degree by one.
    The blocks are fixed at construction, which verifies them:
    ``bicomplex_report`` holds the ``verify_bicomplex`` report of every
    complex, built by hand or by a constructor below, and ``rank`` remembers
    each rank.  ``line`` is the bidifferential line of a ``coefficient_complex``.
    """

    def __init__(self, field, dims, d_blocks, dprime_blocks, max_total, line=None):
        self.field = field
        self.dims = dict(dims)
        self.d_blocks = dict(d_blocks)
        self.dprime_blocks = dict(dprime_blocks)
        self.max_total = max_total
        self.line = line
        self._ranks, self._pivot_sets = {}, {}
        self.by_source = {"d": {}, "d_prime": {}}
        for which, blocks in (("d", self.d_blocks), ("d_prime", self.dprime_blocks)):
            for (src, dst), mat in blocks.items():
                if src in self.dims and dst in self.dims and sum(dst) == sum(src) - 1:
                    self.by_source[which].setdefault(src, []).append((dst, mat))
        self.bicomplex_report = verify_bicomplex(self)

    def degrees_at(self, k):
        return sorted(deg for deg in self.dims if sum(deg) == k)

    def chain_dim(self, k):
        return sum(self.dims[deg] for deg in self.degrees_at(k))

    def _blocks_at(self, which, k):
        """[(src, dst, block, its column and row offsets in C_k -> C_{k-1})] of d, d_prime or both (total)."""
        fams = ("d", "d_prime") if which == "total" else (which,)
        col_off, row_off = (_offsets(self.dims, self.degrees_at(j)) for j in (k, k - 1))
        pairs = [(s, t, mat) for fam in fams for s in col_off for t, mat in self.by_source[fam].get(s, ())]
        return [(s, t, mat, col_off[s], row_off[t]) for s, t, mat in pairs]

    def assemble(self, which, k):
        """The total-degree matrix C_k -> C_{k-1} for which in d|d_prime|total: the sum of its blocks."""
        ent = {}
        for _, _, mat, co, ro in self._blocks_at(which, k):
            for (r, c), v in mat.entries.items():
                key = (ro + r, co + c)
                ent[key] = ent.get(key, 0) + v
        return SparseMatrix(self.field, self.chain_dim(k - 1), self.chain_dim(k), ent)

    def rank(self, which, k):
        """rank of assemble(which, k), computed at most once; 0 outside 1..max_total.

        Blocks that pair sources and targets one to one assemble to their
        direct sum, so they are ranked one by one instead.  When
        ``bicomplex_report`` has passed (d_{k-1} o d_k = 0), d_k is ranked
        on the rows outside Q_{k-1}, the pivot columns of d_{k-1}: these
        columns are independent, so deleting their coordinates is injective
        on ker d_{k-1}, which holds im d_k.  When it fails, d_k is ranked in
        full.
        """
        if not 1 <= k <= self.max_total:
            return 0
        if self.bicomplex_report.passed:
            return len(self._pivots(which, k))
        if (which, k) not in self._ranks:
            self._ranks[which, k] = sum(matrix_rank(mat) for mat, _, _ in self._matrices(which, k))
        return self._ranks[which, k]

    def _pivots(self, which, k):
        """Q_k as offsets in C_k: each matrix of d_k ranked on its rows outside Q_{k-1} shifted by its row offset."""
        if (which, k) not in self._pivot_sets:
            below = self._pivots(which, k - 1) if k > 1 else ()
            self._pivot_sets[which, k] = {
                co + c for m, co, ro in self._matrices(which, k) for c in pivot_columns(m, {q - ro for q in below})
            }
        return self._pivot_sets[which, k]

    def _matrices(self, which, k):
        """d_k as [(matrix, column offset, row offset)]: its blocks if one to one (a direct sum), else assembled."""
        blocks = self._blocks_at(which, k)
        if len({s for s, *_ in blocks}) == len({t for _, t, *_ in blocks}) == len(blocks):
            return [(mat, co, ro) for _, _, mat, co, ro in blocks]
        return [(self.assemble(which, k), 0, 0)]


def _offsets(dims, degs):
    """{degree: offset of its component in the direct sum over degs, in order}."""
    out, off = {}, 0
    for deg in degs:
        out[deg] = off
        off += dims[deg]
    return out


def verify_bicomplex(c):
    """d^2 = 0, d'^2 = 0, dd' + d'd = 0 at every composable truncation degree.

    Checked on the blocks: an identity holds at total degree k when, for
    every source of degree k and every target, the products of blocks
    summed over the middle degree vanish.
    """
    rep = AxiomReport("bidifferential identities")
    for k in range(2, c.max_total + 1):
        rep.add(f"d_squared@{k}", _composites_vanish(c, k, ("d", "d")))
        rep.add(f"d_prime_squared@{k}", _composites_vanish(c, k, ("d_prime", "d_prime")))
        rep.add(f"anticommute@{k}", _composites_vanish(c, k, ("d_prime", "d"), ("d", "d_prime")))
    return rep


def _composites_vanish(c, k, *pairs):
    """Whether the sum over (first, second) in pairs of second o first is zero on total degree k."""
    for src in c.degrees_at(k):
        sums = {}
        for first, second in pairs:
            for mid, a in c.by_source[first].get(src, ()):
                for dst, b in c.by_source[second].get(mid, ()):
                    prod = b @ a
                    sums[dst] = sums[dst] + prod if dst in sums else prod
        if not all(s.is_zero() for s in sums.values()):
            return False
    return True


def _verify_or_raise(c):
    c.bicomplex_report.require("bidifferential identities fail")
    return c


def homology_dims(c, which="d"):
    """Exact homology dimensions for total degrees 0..max_total-1.

    Each row holds degree k, chain_dim = dim C_k and homology_dim = dim H_k =
    dim ker(d_k) - rank(d_{k+1}) for d = ``which``; read its ranks from
    ``c.rank(which, k)``.  Over a field the cohomology of the transposed complex
    has the same dimensions (a transpose has the same rank).  The Euler
    identity for a truncation window reads

        sum (-1)^k dim H_k = sum (-1)^k dim C_k - (-1)^(K) rank(d_{K+1})

    with K = max_total - 1; the trailing rank term accounts for the
    boundary of the window and vanishes for complexes truncated to zero.
    """
    if which not in ("d", "d_prime", "total"):
        raise ValueError(f"unknown differential choice {which!r}")
    top = c.max_total - 1
    rows = []
    for k in range(0, top + 1):
        dim_ck = c.chain_dim(k)
        h = dim_ck - c.rank(which, k) - c.rank(which, k + 1)
        rows.append({"degree": k, "chain_dim": dim_ck, "homology_dim": h})
    boundary_rank = c.rank(which, top + 1)
    euler_h = sum((-1) ** r["degree"] * r["homology_dim"] for r in rows)
    euler_c = sum((-1) ** r["degree"] * r["chain_dim"] for r in rows)
    euler_ok = euler_h == euler_c - ((-1) ** top) * boundary_rank
    return {
        "which": which,
        "rows": rows,
        "euler_homology": euler_h,
        "euler_chain": euler_c,
        "boundary_rank": boundary_rank,
        "euler_identity_holds": euler_ok,
    }


# -- generic multi-braided differentials -------------------------------------


def _multidegrees(r, max_total):
    """Every r-tuple of degrees with sum at most max_total, by total, lexicographic within a total."""
    degs = [()]
    for _ in range(r):
        degs = [deg + (m,) for deg in degs for m in range(max_total + 1 - sum(deg))]
    return sorted(degs, key=sum)


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
        check_character(s, ch).require("invalid braided character")
    types_of = {deg: _component_types(deg) for deg in _multidegrees(s.rank, max_total_degree)}
    dims = {deg: math.prod(s.space(t).dim for t in types) for deg, types in types_of.items()}

    d_blocks, dp_blocks = {}, {}
    for deg, types in types_of.items():
        for i, ki in enumerate(types, start=1):
            key = (deg, tuple(m - (1 if t == ki - 1 else 0) for t, m in enumerate(deg)))
            # (-1)^(i-1) on both sides: i-1 crossings to the front; (-1)^(n-1) times n-i to the back
            sign = -1 if (i - 1) % 2 else 1
            # left differential: braid factor i to the front, apply zeta; right: to the back, apply xi
            for blocks, ch, front, slot in ((d_blocks, zeta, True, 1), (dp_blocks, xi, False, len(types))):
                if not ch[ki - 1].is_zero():
                    mat = apply_at(ch[ki - 1], slot, braid_factor(s, types, i, front=front)).scale(sign).matrix
                    blocks[key] = blocks[key] + mat if key in blocks else mat

    return _verify_or_raise(GradedComplex(s.field, dims, d_blocks, dp_blocks, max_total_degree))


# -- hand-coded Sweedler differentials ---------------------------------------


def _dual(table):
    """The ``LinMap.columns`` table of the order-reversing dual f*: inputs and outputs swap, each tuple reversed.

    The coefficient of e*_rev(a) in f*(e*_rev(b)) is that of e_b in f(e_a), the rule of
    ``tensor.rainbow_dual``, restated so that no H* table is shared with the generic engine (which reads H*
    from ``dual_bialgebra``); ``columns`` only decodes indices and states no pairing, so the two stay independent.
    """
    out = {}
    for inp, terms in table.items():
        for *o, v in terms:
            out.setdefault(tuple(o[::-1]), []).append((*inp[::-1], v))
    return out


class _SweedlerOps:
    """Structure-constant expansions on T(H) (x) M (x) T(H*) (x) N*.

    Component bases are tuples (h_1..h_n, a, l_1..l_m, beta) linearised
    with the left factor major.  Each map returns its list of pieces
    (reads, writes, core), a given sign folded into the cores: the core
    takes the values of the source factors at positions ``reads`` and
    returns (outputs, coeff) pairs, the outputs landing on the target
    positions ``writes``; every other factor passes through unchanged and
    in order.  ``block`` hands the pieces of one or more maps to
    ``_assemble``, which evaluates a core once per value of the factors it
    reads and tiles the result over the pass-through factors.  The four
    contractions read their comultiplication legs through ``fold``.  Everything
    is index arithmetic over the ``LinMap.columns`` tables of the structure maps
    and their ``_dual``s; no braiding machinery is involved, which keeps this
    path independent of the generic engine.
    """

    def __init__(self, h, m, n_mod):
        self.f, self.dH, self.dM, self.dN = h.field, h.dim, m.dim, n_mod.dim
        self.comul, self.mul = h.delta.columns(), h.mu.columns()
        self.dmul, self.ddelta = _dual(self.comul), _dual(self.mul)
        self.unit, self.dual_unit = h.nu.columns().get((), ()), _dual(h.eps.columns()).get((), ())  # 1_{H*} = eps_H
        self.actM, self.coactM = m.lam.columns(), m.delta.columns()
        self.delta_Nstar, self.lam_Nstar = _dual(n_mod.lam.columns()), _dual(n_mod.delta.columns())
        self._memo = {}

    def _once(self, key, build, *args):
        """build(*args), computed once per key."""
        if key not in self._memo:
            self._memo[key] = build(*args)
        return self._memo[key]

    def fold(self, idxs, dual=False, keep=0):
        """Delta(e_i1) (x) ... (x) Delta(e_ik) in H (in H* if dual) as {product: {kept legs: coeff}}.

        The legs on side ``keep`` (0 first, 1 second) stay a tuple, the others
        are multiplied into a running product factor by factor, and a term is
        dropped once its coefficient vanishes (over k^G, d_a d_b = 0 unless
        a = b).  The empty fold is the unit.
        """
        return self._once(("fold", dual, keep, idxs), self._fold, idxs, dual, keep)

    def _fold(self, idxs, dual, keep):
        f = self.f
        if not idxs:
            return {x: {(): c} for x, c in (self.dual_unit if dual else self.unit)}
        mul = self.dmul if dual else self.mul
        acc = {}
        for x, kept in self.fold(idxs[:-1], dual, keep).items():
            for legs in (self.ddelta if dual else self.comul).get(idxs[-1:], ()):
                for y, c_y in mul.get((x, legs[1 - keep]), ()):
                    c_step, row = legs[2] * c_y, acc.setdefault(y, {})
                    for ks, c in kept.items():
                        key = ks + (legs[keep],)
                        row[key] = row.get(key, 0) + c * c_step
        acc = {y: {ks: r for ks, c in row.items() if (r := f.reduce(c))} for y, row in acc.items()}
        return {y: row for y, row in acc.items() if row}

    def _pairing_core(self, coact, dual, sign):
        """Core (i_1..i_k, o, x) -> [(first legs + (o',), sign coeff)]: <e_x, second legs . w>, (o', w) in coact[o]."""
        mul = self.dmul if dual else self.mul

        def build(idxs, o):
            table = {}
            for y, kept in self.fold(idxs, dual, 0).items():
                for (o_out, w, c) in coact.get((o,), ()):
                    for x, c_w in mul.get((y, w), ()):
                        c_w *= sign * c
                        table.setdefault(x, []).extend((ps + (o_out,), c_h * c_w) for ps, c_h in kept.items())
            return table

        return lambda vals: self._once(("pairing", dual, sign, vals[:-1]), build, vals[:-2], vals[-2]).get(vals[-1], ())

    def _acting_core(self, coprod, act, dual, sign):
        """Core (i_1..i_k, j, b) -> [(second legs + (b',), sign coeff)]: <first legs, j(1)>, j(2) acting on b."""
        coprod = {j: terms for (j,), terms in coprod.items()}  # int keys: this lookup runs once per value

        def core(vals):
            paired = self.fold(vals[:-2], dual, 1)
            return [
                (qs + (b_out,), sign * c * cj * ca)
                for (x, y, cj) in coprod[vals[-2]]
                for (qs, c) in paired.get(x, {}).items()
                for (b_out, ca) in act.get((y, vals[-1]), ())
            ]

        return core

    def comp_dims(self, n, mm):
        return [self.dH] * n + [self.dM] + [self.dH] * mm + [self.dN]

    def block(self, src, dst, pieces):
        """The matrix src -> dst (bidegrees) of a sum of pieces."""
        return _assemble(self.f, self.comp_dims(*src), self.comp_dims(*dst), pieces)

    # -- the six primitive maps, as pieces --------------------------------

    def bar(self, n, mm):
        """sum_t (-1)^t (merge h_t h_{t+1}); no pieces for n < 2."""
        return [_merge(self.mul, t, t, 1) for t in range(n - 1)]

    def cob(self, n, mm, sign=1):
        """sign sum_t (-1)^t (merge l_t l_{t+1}); no pieces for m < 2."""
        return [_merge(self.dmul, n + 1 + t, t, sign) for t in range(mm - 1)]

    def hspi(self, n, mm, sign=1):
        """Contract l_1 against <l_1, h_1(2)...h_n(2).a_(1)>; keeps first legs."""
        core = self._pairing_core(self.coactM, False, sign)  # reads (h_1..h_n, a, l_1)
        return [(range(n + 2), range(n + 1), core)]

    def pih(self, n, mm, sign=1):
        """Contract h_n against <l_1(1)...l_m(1), h_n(1)>, act by h_n(2) on M."""
        core = self._acting_core(self.comul, self.actM, True, sign)  # reads (l_1..l_m, h_n, a)
        return [((*range(n + 1, n + mm + 1), n - 1, n), (*range(n, n + mm), n - 1), core)]

    def hpi(self, n, mm):
        """Contract h_1 against <l_1(2)...l_m(2).b_(1), h_1>."""
        core = self._pairing_core(self.delta_Nstar, True, 1)  # reads (l_1..l_m, beta, h_1)
        return [((*range(n + 1, n + mm + 2), 0), range(n, n + mm + 1), core)]

    def pihs(self, n, mm, sign=1):
        """Contract l_m against <l_m(1), h_1(1)...h_n(1)>, act by l_m(2) on N*."""
        core = self._acting_core(self.ddelta, self.lam_Nstar, False, sign)  # reads (h_1..h_n, l_m, beta)
        return [((*range(n), n + mm, n + mm + 1), (*range(n), n + mm), core)]


def _assemble(f, src_dims, dst_dims, pieces):
    """The matrix src_dims -> dst_dims of a sum of pieces (reads, writes, core), see _SweedlerOps.

    Each core runs once per value of the factors it reads, and its entries
    are tiled over the (row, col) offsets of the pass-through factors.
    Plain + and * accumulate; the constructor reduces, canonicalises and
    drops zeros.
    """
    src_stride, dst_stride = ([math.prod(ds[p + 1 :]) for p in range(len(ds))] for ds in (src_dims, dst_dims))
    ent = {}
    for reads, writes, core in pieces:
        col_strides, row_strides = [src_stride[p] for p in reads], [dst_stride[q] for q in writes]
        core_ent = {}
        for vals in itertools.product(*[range(src_dims[p]) for p in reads]):
            col = sum(map(operator.mul, vals, col_strides))
            for outs, c in core(vals):
                key = (sum(map(operator.mul, outs, row_strides)), col)
                core_ent[key] = core_ent.get(key, 0) + c
        # pass-through factors keep their order: the i-th one not read lands on the i-th one not written
        passed = [p for p in range(len(src_dims)) if p not in reads]
        kept = [q for q in range(len(dst_dims)) if q not in writes]
        offsets = [(0, 0)]
        for p, q in zip(passed, kept):
            steps = [(v * dst_stride[q], v * src_stride[p]) for v in range(src_dims[p])]
            offsets = [(ro + dr, co + dc) for ro, co in offsets for dr, dc in steps]
        for ro, co in offsets:
            for (r, c), v in core_ent.items():
                key = (ro + r, co + c)
                ent[key] = ent.get(key, 0) + v
    return SparseMatrix(f, math.prod(dst_dims), math.prod(src_dims), ent)


def _merge(mul, pos, t, sign):
    """The piece sign (-1)^(t+1) mul on the factors at pos and pos + 1 (bar and cobar)."""
    sign = sign if t % 2 else -sign
    return (pos, pos + 1), (pos,), lambda xy: [((k,), sign * c) for (k, c) in mul.get(xy, ())]


def _bidegrees(max_total):
    return [(n, m) for n in range(max_total + 1) for m in range(max_total + 1 - n)]


def yd_bidifferential(h, m, max_total_degree):
    """The explicit Sweedler bidifferential on T(H) (x) M (x) T(H*).

    It is line 2 with N = k, its differentials swapped and negated: d
    lowers the dual degree m, d' lowers the algebra degree n, and on the
    (n, m) component

        d  = (-1)^(n+1) (d_cob + contraction of l_1)
        d' = (-1)^(n+1) (contraction of h_n) - d_bar.
    """
    check_yd(m, "yd").require("module fails YD axioms")
    dims, line_d, line_dp = _line_blocks(h, m, unit_yd(h), 2, max_total_degree)
    d_blocks = {key: -mat for key, mat in line_dp.items()}
    dp_blocks = {key: -mat for key, mat in line_d.items()}
    return _verify_or_raise(GradedComplex(h.field, dims, d_blocks, dp_blocks, max_total_degree))


COMPLEX_LINES = (1, 2, 3, 4)


def _line_blocks(h, m, n_mod, line, max_total_degree):
    """(dims, d blocks, d' blocks) of ``coefficient_complex``, with no check of its inputs or result."""
    ops = _SweedlerOps(h, m, n_mod)
    dims = {deg: math.prod(ops.comp_dims(*deg)) for deg in _bidegrees(max_total_degree)}
    d_blocks, dp_blocks = {}, {}
    for (n, mm) in _bidegrees(max_total_degree):
        sgn_n = -1 if n % 2 else 1
        sgn_nm = -1 if (n + mm) % 2 else 1
        if n >= 1:
            pieces = ops.bar(n, mm)
            if line in (2, 4):
                pieces += ops.pih(n, mm, sgn_n)
            if line in (3, 4):
                pieces += ops.hpi(n, mm)
            d_blocks[((n, mm), (n - 1, mm))] = ops.block((n, mm), (n - 1, mm), pieces)
        if mm >= 1:
            pieces = ops.cob(n, mm, sgn_n)
            if line in (2, 4):
                pieces += ops.hspi(n, mm, sgn_n)
            if line in (3, 4):
                pieces += ops.pihs(n, mm, sgn_nm)
            dp_blocks[((n, mm), (n, mm - 1))] = ops.block((n, mm), (n, mm - 1), pieces)
    return dims, d_blocks, dp_blocks


def coefficient_complex(h, m, n_mod, line, max_total_degree):
    """One of the four bidifferential structures on T(H) (x) M (x) T(H*) (x) N*.

    d is the left column (lowers n), d' the right column (lowers m); the
    four contractions enter with the printed signs, taken at the source
    component.
    """
    if line not in COMPLEX_LINES:
        raise ValueError(f"line must be 1..4, got {line!r}")
    for mod, tag in ((m, "M"), (n_mod, "N")):
        check_yd(mod, "yd").require(f"module {tag} fails YD axioms")
    blocks = _line_blocks(h, m, n_mod, line, max_total_degree)
    return _verify_or_raise(GradedComplex(h.field, *blocks, max_total_degree, line=line))


def pi_maps(h, m, n_mod, max_total_degree):
    """The four contraction maps as block families, unsigned."""
    ops = _SweedlerOps(h, m, n_mod)
    fams = {"hspi": {}, "pihs": {}, "pih": {}, "hpi": {}}
    for src in _bidegrees(max_total_degree):
        n, mm = src
        if mm >= 1:
            dst = (n, mm - 1)
            fams["hspi"][(src, dst)] = ops.block(src, dst, ops.hspi(n, mm))
            fams["pihs"][(src, dst)] = ops.block(src, dst, ops.pihs(n, mm))
        if n >= 1:
            dst = (n - 1, mm)
            fams["pih"][(src, dst)] = ops.block(src, dst, ops.pih(n, mm))
            fams["hpi"][(src, dst)] = ops.block(src, dst, ops.hpi(n, mm))
    return fams


def pi_commutation_suite(h, m, n_mod, max_total_degree):
    """All six unordered pairs of contraction maps commute degreewise."""
    # family -> {source degree: (target degree, matrix)}
    by_src = {
        fam: {src: (dst, mat) for (src, dst), mat in blocks.items()}
        for fam, blocks in pi_maps(h, m, n_mod, max_total_degree).items()
    }
    rep = AxiomReport("pairwise commutation of the contraction maps")
    for a, b in [(a, b) for a in sorted(by_src) for b in sorted(by_src) if a < b]:
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
