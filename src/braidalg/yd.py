"""Yetter-Drinfel'd modules: axioms, braidings, tensor products, duals.

Everything is left-module / right-comodule: an action lam: H (x) M -> M and
a coaction delta: M -> M (x) H subject to the compatibility

    (Id (x) mu) o (delta (x) Id) o c_{H,M} o (Id (x) lam) o (Delta (x) Id)
  = (lam (x) mu) o (Id (x) c_{H,M} (x) Id) o (Delta (x) delta).

Sweedler shorthand used in comments: Delta(h) = h_(1) (x) h_(2) and
delta(m) = m_(0) (x) m_(1).
"""

from __future__ import annotations

import functools

from .hopf import Bialgebra, dual_bialgebra, group_algebra, opposites
from .linalg import QQ, SparseMatrix, inverse as matrix_inverse
from .report import AxiomReport, CheckFailed
from .tensor import (
    LinMap, Space, apply_at, compose_chain, flip, from_terms, identity, on_tensor, permutation_map, rainbow_dual
)


class YDModule:
    """Candidate YD module; delta may be None for a plain H-module."""

    def __init__(self, base, space, lam, delta=None):
        self.base = base
        self.space = space
        self.lam = lam
        self.delta = delta

    @property
    def field(self):
        return self.base.field

    @property
    def dim(self):
        return self.space.dim

    def __repr__(self):
        return f"YDModule({self.space.label}, dim={self.dim} over {self.base.space.label})"


class YDModuleAlgebra(YDModule):
    """A YD module with a compatible unital multiplication mu: M (x) M -> M, nu: k -> M."""

    def __init__(self, base, space, lam, delta=None, *, mu, nu):
        super().__init__(base, space, lam, delta)
        self.mu = mu
        self.nu = nu


@functools.cache
def _fixed_maps(mu, nu, delta, eps, H, M):
    """The maps of check_yd that depend only on H's structure maps and M's space.

    (id_H, id_M, mu (x) id_M, nu (x) id_M, id_M (x) Delta, id_M (x) eps,
    id_M (x) mu, Delta (x) id_M, c_{H,M}, Delta_op (x) id_{M (x) M}) with
    Delta_op = c_{H,H} o Delta.  Keyed by value (a LinMap hashes by its
    matrix) and shared like ``tensor.flip``: nothing in the package mutates
    a map's ``entries``, and the (bialgebra, module space) pairs a process
    checks bound the cache.
    """
    f = mu.field
    id_H, id_M = identity([H], f), identity([M], f)
    return (
        id_H,
        id_M,
        mu.tensor(id_M),
        nu.tensor(id_M),
        id_M.tensor(delta),
        id_M.tensor(eps),
        id_M.tensor(mu),
        delta.tensor(id_M),
        flip(H, M, f),
        flip(H, H, f).compose(delta).tensor(identity([M, M], f)),
    )


def check_yd(m, level="yd"):
    """Exact verification of module / comodule / YD / YD-algebra axioms."""
    if level not in ("module", "comodule", "yd", "yd_algebra"):
        raise ValueError(f"unknown level {level!r}")
    if level == "yd_algebra" and not isinstance(m, YDModuleAlgebra):
        raise TypeError("yd_algebra level needs a YDModuleAlgebra")
    b = m.base
    id_H, id_M, mu_M, nu_M, M_delta, M_eps, M_mu, delta_M, c_HM, delta_op_MM = _fixed_maps(
        b.mu, b.nu, b.delta, b.eps, b.space, m.space
    )
    lam, delta = m.lam, m.delta
    rep = AxiomReport(f"{level} axioms for {m.space.label}")

    if level in ("module", "yd", "yd_algebra"):
        H_lam = id_H.tensor(lam)
        rep.compare("action_associativity", lam.compose(mu_M), lam.compose(H_lam))
        rep.compare("action_unit", lam.compose(nu_M), id_M)
    if level in ("comodule", "yd", "yd_algebra"):
        if delta is None:
            rep.add("coaction_present", False)
            return rep
        # the coaction statements compose the cached padded maps: on the few-entry maps of the
        # precision harness that is faster than apply_at
        delta_H = delta.tensor(id_H)
        rep.compare("coaction_coassociativity", delta_H.compose(delta), M_delta.compose(delta))
        rep.compare("coaction_counit", M_eps.compose(delta), id_M)
    if level in ("yd", "yd_algebra"):
        lhs = compose_chain([M_mu, delta_H, c_HM, H_lam, delta_M])
        rep.compare("yd_compatibility", lhs, on_tensor(lam, b.mu, b.delta.tensor(delta)))
    if level == "yd_algebra":
        mu, nu = m.mu, m.nu
        rep.compare("uaa_associativity", mu.compose(mu.tensor(id_M)), mu.compose(id_M.tensor(mu)))
        rep.compare("uaa_unit_left", mu.compose(nu.tensor(id_M)), id_M)
        rep.compare("uaa_unit_right", mu.compose(id_M.tensor(nu)), id_M)
        # delta o mu = (mu (x) mu_H) o (Id (x) c (x) Id) o (delta (x) delta)
        rep.compare("yd_alg_delta_mu", delta.compose(mu), on_tensor(mu, b.mu, delta.tensor(delta)))
        # lam o (Id (x) mu) = mu o (lam (x) lam) o (Id (x) c (x) Id) o (Delta_op (x) Id (x) Id)
        rep.compare("yd_alg_lam_mu", lam.compose(id_H.tensor(mu)), mu.compose(on_tensor(lam, lam, delta_op_MM)))
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


def adjoint_yd(h):
    """H as a YD module over itself: h.m = h_(2) m S^-1(h_(1)), delta = Delta.

    S is the stored antipode, or the solved one when none is stored; a
    ValueError says when H has no antipode or S is singular.
    """
    s = h.find_antipode()
    if s is None:
        raise ValueError(f"{h.space.label} has no antipode")
    s_inv = matrix_inverse(s.matrix)
    if s_inv is None:
        raise ValueError(f"the antipode of {h.space.label} is singular")
    f = h.field
    H = h.space
    M = Space(h.dim, H.label + "_yd", H.basis_names)
    # h (x) m |-> h_(1) (x) h_(2) (x) m |-> h_(2) (x) m (x) h_(1) |-> h_(2) m S^-1(h_(1))
    twist = permutation_map((H, H, H), (1, 2, 0), f)
    lam = compose_chain([h.mu, h.mu.tensor(LinMap((H,), (H,), s_inv)), twist, h.delta.tensor(identity([H], f))])
    return YDModule(h, M, LinMap((H, M), (M,), lam.matrix), LinMap((M,), (M, H), h.delta.matrix))


def regular_yd_group_algebra(table_or_bialgebra, names=None, field=QQ):
    """kG as a YD module over itself (conjugation action, grading coaction): the
    adjoint_yd of a group algebra, given as a bialgebra or by its group table."""
    b = table_or_bialgebra
    if not isinstance(b, Bialgebra):
        b = group_algebra(b, names=names, field=field)
    return adjoint_yd(b)


# -- braidings -------------------------------------------------------------


def is_two_sided_inverse(c, c_inv):
    """Whether c_inv o c and c o c_inv are both identities."""
    f = c.field
    left = c_inv.compose(c)
    right = c.compose(c_inv)
    return (
        left.matrix == SparseMatrix.identity(f, left.matrix.n_rows)
        and right.matrix == SparseMatrix.identity(f, right.matrix.n_rows)
    )


def ring_braiding(delta, lam_y, f):
    """c o (Id (x) lam_Y) o (delta (x) Id): D (x) Y -> Y (x) X for any delta: D -> X (x) H.

    With D = X a coaction this is the braiding x (x) y |-> x_(1).y (x) x_(0);
    with D = k and delta = R: k -> H (x) H it is the coaction
    y |-> R_2.y (x) R_1 that R induces on Y.
    """
    X = delta.codomain[0]
    Y = lam_y.codomain[0]
    return flip(X, Y, f).compose(apply_at(lam_y, 2, delta.tensor(identity([Y], f))))


def standard_braiding(lam_x, delta_y, f):
    """(Id (x) lam_X) o (delta_Y (x) Id) o c: X (x) Y -> Y (x) X, x (x) y |-> y_(0) (x) y_(1).x."""
    X = lam_x.codomain[0]
    Y = delta_y.domain[0]
    return apply_at(lam_x, 2, apply_at(delta_y, 1, flip(X, Y, f)))


def yd_braiding(m, n, variant="standard"):
    """The YD braiding c_{M,N}: M (x) N -> N (x) M, plus a verified inverse.

    variant "standard":  m (x) n |-> n_(0) (x) n_(1).m
    variant "ring":      m (x) n |-> m_(1).n (x) m_(0)   (the pi-rotated form)

    With an antipode of the base (``Bialgebra.find_antipode``) the inverse is
    built from it and verified two-sided by multiplication; otherwise it is None.
    """
    if variant not in ("standard", "ring"):
        raise ValueError(f"unknown variant {variant!r}")
    if not m.base.same_structure(n.base):
        raise ValueError("yd_braiding needs modules over the same bialgebra")
    f = m.field
    if variant == "standard":
        c = standard_braiding(m.lam, n.delta, f)
    else:
        c = ring_braiding(m.delta, n.lam, f)
    s = m.base.find_antipode()
    c_inv = None
    if s is not None:
        # the mirrored braiding, with the coaction twisted to x |-> x_(0) (x) s(x_(1))
        if variant == "standard":
            c_inv = ring_braiding(apply_at(s, 2, n.delta), m.lam, f)  # n (x) m |-> s(n_(1)).m (x) n_(0)
        else:
            c_inv = standard_braiding(n.lam, apply_at(s, 2, m.delta), f)  # n (x) m |-> m_(0) (x) s(m_(1)).n
        if not is_two_sided_inverse(c, c_inv):
            raise CheckFailed("antipode-built inverse failed the two-sided check")
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
    id_MN = identity([M, N], f)
    mu_op, delta_op = opposites(b)
    comult = b.delta if variant == "standard" else delta_op
    mult = mu_op if variant == "standard" else b.mu
    lam = on_tensor(m.lam, n.lam, comult.tensor(id_MN))
    delta = on_tensor(id_MN, mult, m.delta.tensor(n.delta))
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
    # lam~(h (x) 1) = eps(h) 1 ; lam~(h (x) m) = lam(h (x) m)
    lam_terms = [((0,), (i, 0), v) for _, (i,), v in b.eps.terms()]
    lam_terms += [((a + 1,), (i, c + 1), v) for (a,), (i, c), v in m.lam.terms()]
    lam = from_terms((H, Mt), (Mt,), lam_terms, f)
    # delta~(1) = 1 (x) 1_H ; delta~(m) = delta(m)
    delta_terms = [((0, k), (0,), v) for (k,), _, v in b.nu.terms()]
    delta_terms += [((a + 1, i), (c + 1,), v) for (a, i), (c,), v in m.delta.terms()]
    delta = from_terms((Mt,), (Mt, H), delta_terms, f)
    # trivial multiplication: unit acts as identity, M.M = 0
    mu_terms = [((x,), (0, x), f.one) for x in range(d + 1)] + [((x,), (x, 0), f.one) for x in range(1, d + 1)]
    mu = from_terms((Mt, Mt), (Mt,), mu_terms, f)
    nu = from_terms((), (Mt,), [((0,), (), f.one)], f)
    return YDModuleAlgebra(b, Mt, lam, delta, mu=mu, nu=nu)


def dual_yd(n):
    """The dual module N* over the dual bialgebra H*.

    Action and coaction are the order-reversing duals of the original
    coaction and action.
    """
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
