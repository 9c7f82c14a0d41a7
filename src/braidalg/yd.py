"""Yetter-Drinfel'd modules: axioms, braidings, tensor products, duals.

Everything is left-module / right-comodule: an action lam: H (x) M -> M and
a coaction delta: M -> M (x) H subject to the compatibility

    (Id (x) mu) o (delta (x) Id) o c_{H,M} o (Id (x) lam) o (Delta (x) Id)
  = (lam (x) mu) o (Id (x) c_{H,M} (x) Id) o (Delta (x) delta).

Sweedler shorthand used in comments: Delta(h) = h_(1) (x) h_(2) and
delta(m) = m_(0) (x) m_(1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .hopf import Bialgebra, opposites
from .linalg import SparseMatrix, inverse as matrix_inverse
from .report import AxiomReport
from .tensor import LinMap, Space, compose_chain, flip, identity, rainbow_dual


@dataclass
class YDModule:
    """Candidate YD module; delta may be None for a plain H-module."""

    base: Bialgebra
    space: Space
    lam: LinMap
    delta: LinMap | None = None

    @property
    def field(self):
        return self.base.field

    @property
    def dim(self):
        return self.space.dim

    def __repr__(self):
        return f"YDModule({self.space.label}, dim={self.dim} over {self.base.space.label})"


@dataclass
class YDModuleAlgebra:
    yd: YDModule
    mu: LinMap
    nu: LinMap

    @property
    def base(self):
        return self.yd.base

    @property
    def space(self):
        return self.yd.space

    @property
    def field(self):
        return self.yd.field


def check_yd(m, level="yd"):
    """Exact verification of module / comodule / YD / YD-algebra axioms."""
    if level not in ("module", "comodule", "yd", "yd_algebra"):
        raise ValueError(f"unknown level {level!r}")
    if level == "yd_algebra" and not isinstance(m, YDModuleAlgebra):
        raise TypeError("yd_algebra level needs a YDModuleAlgebra")
    yd = m.yd if isinstance(m, YDModuleAlgebra) else m
    b = yd.base
    f = yd.field
    H, M = b.space, yd.space
    id_H = identity([H], f)
    id_M = identity([M], f)
    rep = AxiomReport(f"{level} axioms for {M.label}")

    if level in ("module", "yd", "yd_algebra"):
        lam = yd.lam
        rep.compare("action_associativity", lam.compose(b.mu.tensor(id_M)), lam.compose(id_H.tensor(lam)))
        rep.compare("action_unit", lam.compose(b.nu.tensor(id_M)), id_M)
    if level in ("comodule", "yd", "yd_algebra"):
        delta = yd.delta
        if delta is None:
            rep.add("coaction_present", False)
            return rep
        rep.compare(
            "coaction_coassociativity",
            delta.tensor(id_H).compose(delta),
            id_M.tensor(b.delta).compose(delta),
        )
        rep.compare("coaction_counit", id_M.tensor(b.eps).compose(delta), id_M)
    if level in ("yd", "yd_algebra"):
        c_HM = flip(H, M, f)
        lhs = compose_chain(
            [id_M.tensor(b.mu), yd.delta.tensor(id_H), c_HM, id_H.tensor(yd.lam), b.delta.tensor(id_M)]
        )
        rhs = compose_chain(
            [yd.lam.tensor(b.mu), id_H.tensor(c_HM).tensor(id_H), b.delta.tensor(yd.delta)]
        )
        rep.compare("yd_compatibility", lhs, rhs)
    if level == "yd_algebra":
        mu, nu = m.mu, m.nu
        lam, delta = yd.lam, yd.delta
        rep.compare("uaa_associativity", mu.compose(mu.tensor(id_M)), mu.compose(id_M.tensor(mu)))
        rep.compare("uaa_unit_left", mu.compose(nu.tensor(id_M)), id_M)
        rep.compare("uaa_unit_right", mu.compose(id_M.tensor(nu)), id_M)
        # delta o mu = (mu (x) mu_H) o (Id (x) c (x) Id) o (delta (x) delta)
        rep.compare(
            "yd_alg_delta_mu",
            delta.compose(mu),
            compose_chain([mu.tensor(b.mu), id_M.tensor(c_HM).tensor(id_H), delta.tensor(delta)]),
        )
        # lam o (Id (x) mu) = mu o (lam (x) lam) o (Id (x) c (x) Id) o (Delta_op (x) Id (x) Id)
        _, delta_op = opposites(b)
        rep.compare(
            "yd_alg_lam_mu",
            lam.compose(id_H.tensor(mu)),
            compose_chain(
                [mu, lam.tensor(lam), id_H.tensor(c_HM).tensor(id_M), delta_op.tensor(id_M).tensor(id_M)]
            ),
        )
        rep.compare("yd_alg_delta_nu", delta.compose(nu), nu.tensor(b.nu))
        rep.compare("yd_alg_lam_nu", lam.compose(id_H.tensor(nu)), b.eps.tensor(nu))
    return rep


# -- stock modules --------------------------------------------------------


def unit_yd(b):
    """The 1-dimensional trivial YD module: lam = eps, delta = nu."""
    M = Space(1, "I", ("1",))
    lam = LinMap((b.space, M), (M,), b.eps.matrix)
    delta = LinMap((M,), (M, b.space), b.nu.matrix)
    return YDModule(b, M, lam, delta)


def left_regular_module(b):
    """H acting on itself by left multiplication (no coaction)."""
    M = Space(b.dim, b.space.label + "_reg", b.space.basis_names)
    lam = LinMap((b.space, M), (M,), b.mu.matrix)
    return YDModule(b, M, lam, None)


def regular_yd_group_algebra(table_or_bialgebra, names=None, field=None):
    """kG as a YD module over itself: adjoint action, grading coaction.

    Accepts either a group multiplication table (a group algebra base is
    built) or a group-algebra bialgebra.
    """
    from .hopf import _validate_table, group_algebra, group_table_from_bialgebra
    from .linalg import QQ

    if isinstance(table_or_bialgebra, Bialgebra):
        b = table_or_bialgebra
        table = group_table_from_bialgebra(b)
    else:
        table = table_or_bialgebra
        b = group_algebra(table, names=names, field=field or QQ)
    f = b.field
    n = b.dim
    _, inv = _validate_table(table, need_inverses=True)
    M = Space(n, b.space.label + "_yd", b.space.basis_names)
    # lam(g (x) h) = g h g^-1
    lam_ent = {}
    for g in range(n):
        for h in range(n):
            lam_ent[(table[table[g][h]][inv[g]], g * n + h)] = f.one
    lam = LinMap((b.space, M), (M,), SparseMatrix(f, n, n * n, lam_ent))
    # delta(h) = h (x) h
    delta = LinMap((M,), (M, b.space), SparseMatrix(f, n * n, n, {(h * n + h, h): f.one for h in range(n)}))
    return YDModule(b, M, lam, delta)


# -- braidings -------------------------------------------------------------


def _check_two_sided_inverse(c, c_inv):
    f = c.field
    left = c_inv.compose(c)
    right = c.compose(c_inv)
    return (
        left.matrix == SparseMatrix.identity(f, left.matrix.n_rows)
        and right.matrix == SparseMatrix.identity(f, right.matrix.n_rows)
    )


def yd_braiding(m, n, variant="standard"):
    """The YD braiding c_{M,N}: M (x) N -> N (x) M, plus a verified inverse.

    variant "standard":  m (x) n |-> n_(0) (x) n_(1).m
    variant "ring":      m (x) n |-> m_(1).n (x) m_(0)   (the pi-rotated form)

    When the base carries an antipode the inverse is built from it and
    verified two-sided by multiplication; otherwise None is returned for it.
    """
    if variant not in ("standard", "ring"):
        raise ValueError(f"unknown variant {variant!r}")
    if not m.base.same_structure(n.base):
        raise ValueError("yd_braiding needs modules over the same bialgebra")
    b = m.base
    f = m.field
    M, N = m.space, n.space
    id_M, id_N = identity([M], f), identity([N], f)
    if variant == "standard":
        c = compose_chain([id_N.tensor(m.lam), n.delta.tensor(id_M), flip(M, N, f)])
    else:
        c = compose_chain([flip(M, N, f), id_M.tensor(n.lam), m.delta.tensor(id_N)])
    c_inv = None
    if b.antipode is not None:
        s = b.antipode
        if variant == "standard":
            # n (x) m |-> s(n_(1)).m (x) n_(0)
            c_inv = compose_chain(
                [flip(N, M, f), id_N.tensor(m.lam), id_N.tensor(s).tensor(id_M), n.delta.tensor(id_M)]
            )
        else:
            # n (x) m |-> m_(0) (x) s(m_(1)).n
            c_inv = compose_chain(
                [id_M.tensor(n.lam), id_M.tensor(s).tensor(id_N), m.delta.tensor(id_N), flip(N, M, f)]
            )
        if not _check_two_sided_inverse(c, c_inv):
            raise ArithmeticError("antipode-built inverse failed the two-sided check")
    return c, c_inv


# -- tensor products --------------------------------------------------------


def tensor_space(m_space, n_space):
    names = None
    if m_space.basis_names is not None and n_space.basis_names is not None:
        names = tuple(a + "." + b for a in m_space.basis_names for b in n_space.basis_names)
    return Space(m_space.dim * n_space.dim, f"{m_space.label}(x){n_space.label}", names)


def tensor_yd(m, n, variant="standard"):
    """YD structure on M (x) N.

    variant "standard": module structure via Delta, comodule via mu_op.
    variant "twisted":  module structure via Delta_op, comodule via mu.
    """
    if variant not in ("standard", "twisted"):
        raise ValueError(f"unknown variant {variant!r}")
    if not m.base.same_structure(n.base):
        raise ValueError("tensor_yd needs modules over the same bialgebra")
    b = m.base
    f = m.field
    H, M, N = b.space, m.space, n.space
    id_H = identity([H], f)
    id_M, id_N = identity([M], f), identity([N], f)
    mu_op, delta_op = opposites(b)
    comult = b.delta if variant == "standard" else delta_op
    mult = mu_op if variant == "standard" else b.mu
    lam = compose_chain(
        [m.lam.tensor(n.lam), id_H.tensor(flip(H, M, f)).tensor(id_N), comult.tensor(id_M).tensor(id_N)]
    )
    delta = compose_chain(
        [id_M.tensor(id_N).tensor(mult), id_M.tensor(flip(H, N, f)).tensor(id_H), m.delta.tensor(n.delta)]
    )
    MN = tensor_space(M, N)
    lam = LinMap((H, MN), (MN,), lam.matrix)
    delta = LinMap((MN,), (MN, H), delta.matrix)
    return YDModule(b, MN, lam, delta)


def formal_unit_extend(m):
    """Adjoin a formal unit: M~ = k (+) M with the trivial UAA structure.

    The unit is basis vector 0; products of two non-unit vectors vanish.
    """
    b = m.base
    f = m.field
    d = m.dim
    names = tuple(["1"] + [m.space.name(i) for i in range(d)])
    if len(set(names)) != d + 1:
        names = tuple(["1"] + [f"{m.space.name(i)}~" for i in range(d)])
    Mt = Space(d + 1, m.space.label + "~", names)
    H = b.space
    dH = b.dim
    lam_ent = {}
    # lam~(h (x) 1) = eps(h) 1 ; lam~(h (x) m) = lam(h (x) m)
    for i in range(dH):
        v = b.eps.matrix.get(0, i)
        if not f.is_zero(v):
            lam_ent[(0, i * (d + 1) + 0)] = v
    for (bb, col), v in m.lam.matrix.entries.items():
        i, a = divmod(col, d)
        lam_ent[(bb + 1, i * (d + 1) + (a + 1))] = v
    lam = LinMap((H, Mt), (Mt,), SparseMatrix(f, d + 1, dH * (d + 1), lam_ent))
    delta_ent = {}
    # delta~(1) = 1 (x) 1_H ; delta~(m) = delta(m)
    for k in range(dH):
        v = b.nu.matrix.get(k, 0)
        if not f.is_zero(v):
            delta_ent[(0 * dH + k, 0)] = v
    for (row, a), v in m.delta.matrix.entries.items():
        bb, i = divmod(row, dH)
        delta_ent[((bb + 1) * dH + i, a + 1)] = v
    delta = LinMap((Mt,), (Mt, H), SparseMatrix(f, (d + 1) * dH, d + 1, delta_ent))
    # trivial multiplication: unit acts as identity, M.M = 0
    mu_ent = {}
    for x in range(d + 1):
        mu_ent[(x, 0 * (d + 1) + x)] = f.one
        if x != 0:
            mu_ent[(x, x * (d + 1) + 0)] = f.one
    mu = LinMap((Mt, Mt), (Mt,), SparseMatrix(f, d + 1, (d + 1) * (d + 1), mu_ent))
    nu = LinMap((), (Mt,), SparseMatrix(f, d + 1, 1, {(0, 0): f.one}))
    return YDModuleAlgebra(YDModule(b, Mt, lam, delta), mu, nu)


def dual_yd(n):
    """The dual module N* over the dual bialgebra H*.

    Action and coaction are the order-reversing duals of the original
    coaction and action.
    """
    from .hopf import dual_bialgebra

    if n.delta is None:
        raise ValueError("dual_yd needs a full YD module (coaction present)")
    dual_base = dual_bialgebra(n.base)
    lam = rainbow_dual(n.delta)  # H* (x) N* -> N*
    delta = rainbow_dual(n.lam)  # N* -> N* (x) H*
    Ns = n.space.dual()
    lam = LinMap((dual_base.space, Ns), (Ns,), lam.matrix)
    delta = LinMap((Ns,), (Ns, dual_base.space), delta.matrix)
    return YDModule(dual_base, Ns, lam, delta)


def change_of_basis(m, p):
    """Transport the YD structure along an invertible matrix p on M."""
    f = m.field
    p_inv = matrix_inverse(p)
    if p_inv is None:
        raise ValueError("change of basis matrix is singular")
    P = LinMap((m.space,), (m.space,), p)
    P_inv = LinMap((m.space,), (m.space,), p_inv)
    id_H = identity([m.base.space], f)
    lam = compose_chain([P, m.lam, id_H.tensor(P_inv)])
    delta = compose_chain([P.tensor(id_H), m.delta, P_inv])
    return YDModule(m.base, m.space, lam, delta)
