"""Weak and strong R-matrices, the induced coaction, and R-braidings.

An R-matrix is an element R of H (x) H, stored as a map k -> H (x) H.  The
weak axioms are

    1. (Delta (x) Id) o R = (Id (x) Id (x) mu) o c2 o (R (x) R)
    2. (eps (x) Id) o R = nu
    3. mu_{HxH} o (R (x) Delta) = mu_{HxH} o (Delta_op (x) R)

with c2 = Id (x) c (x) Id; a strong R-matrix additionally satisfies

    1'. (Id (x) Delta) o R = (mu_op (x) Id (x) Id) o c2 o (R (x) R)
    2'. (Id (x) eps) o R = nu.

Axiom 3 is the only one tying R to both halves of the bialgebra; the weak
level intentionally does not require the bialgebra compatibility itself.
"""

from __future__ import annotations

from .hopf import check_bialgebra, mu_tensor_square, opposites
from .linalg import SparseMatrix
from .report import AxiomReport, CheckFailed
from .tensor import LinMap, apply_at, flip, identity, on_tensor
from .yd import YDModule, is_two_sided_inverse, ring_braiding, standard_braiding


class AntipodeMissingError(ValueError):
    pass


class RMatrix:
    def __init__(self, base, vector, inverse=None):
        self.base = base
        self.vector = vector  # k -> H (x) H
        self.inverse = inverse

    @property
    def field(self):
        return self.base.field

    @staticmethod
    def from_coefficients(base, coeffs, inverse=None):
        """Build from a length dim^2 coefficient list (left-major index)."""
        d = base.dim

        def vec(cs):
            if len(cs) != d * d:
                raise ValueError(f"R vector needs {d * d} coefficients, got {len(cs)}")
            ent = {(i, 0): v for i, v in enumerate(cs)}
            return LinMap((), (base.space, base.space), SparseMatrix(base.field, d * d, 1, ent))

        return RMatrix(base, vec(coeffs), vec(inverse) if inverse is not None else None)


def unit_r_matrix(base):
    """R = nu (x) nu, an R-matrix for every bialgebra."""
    return RMatrix(base, base.nu.tensor(base.nu), base.nu.tensor(base.nu))


def check_r(r, level="weak"):
    """Exact verification of weak / strong / quantum-YBE axioms.

    The base's prerequisite axioms (UAA+coUAA for weak, full bialgebra for
    strong and quantum_ybe) are re-verified and included in the report.
    """
    if level not in ("weak", "strong", "quantum_ybe"):
        raise ValueError(f"unknown level {level!r}")
    b = r.base
    f = b.field
    H = b.space
    rep = AxiomReport(f"{level} R-matrix axioms over {H.label}")

    if level == "weak":
        pre = AxiomReport()
        pre.merge(check_bialgebra(b, "algebra"))
        pre.merge(check_bialgebra(b, "coalgebra"))
    else:
        pre = check_bialgebra(b, "bialgebra")
    rep.add("base_prerequisites", pre.passed, pre.first_failure().witness if not pre.passed else None)

    R = r.vector
    id_HH = identity([H, H], f)
    mu_op, delta_op = opposites(b)
    if level in ("weak", "strong"):
        rep.compare("weak_1_delta_R", apply_at(b.delta, 1, R), on_tensor(id_HH, b.mu, R.tensor(R)))
        rep.compare("weak_2_eps_R", apply_at(b.eps, 1, R), b.nu)
        mu2 = mu_tensor_square(b)
        rep.compare(
            "weak_3_R_delta",
            mu2.compose(R.tensor(b.delta)),
            mu2.compose(delta_op.tensor(R)),
        )
    if level == "strong":
        rep.compare("strong_1_R_delta", apply_at(b.delta, 2, R), on_tensor(mu_op, id_HH, R.tensor(R)))
        rep.compare("strong_2_R_eps", apply_at(b.eps, 2, R), b.nu)
    if level == "quantum_ybe":
        # R12 = R (x) nu, R23 = nu (x) R, R13 = (Id (x) c) o R12; * is the
        # componentwise product on H^(x)3.
        r12 = R.tensor(b.nu)
        r23 = b.nu.tensor(R)
        r13 = apply_at(flip(H, H, f), 2, r12)
        mu3 = on_tensor(mu_tensor_square(b), b.mu)

        def star(x, y):
            return mu3.compose(x.tensor(y))

        lhs = star(star(r23, r13), r12)
        rhs = star(star(r12, r13), r23)
        rep.compare("quantum_ybe", lhs, rhs)
    return rep


def coaction_from_r(module, r):
    """delta_R(m) = R_2.m (x) R_1, the coaction induced by R: the ring_braiding of R: k -> H (x) H."""
    if not module.base.same_structure(r.base):
        raise ValueError("module and R-matrix live over different bialgebras")
    return ring_braiding(r.vector, module.lam, module.field)


def yd_from_r(module, r):
    """The YD module (M, lam, delta_R)."""
    return YDModule(module.base, module.space, module.lam, coaction_from_r(module, r))


def r_braiding(m, n, r):
    """c_R: M (x) N -> N (x) M, m (x) n |-> R_2.n (x) R_1.m, plus a verified inverse.

    c_R is the YD braiding m (x) n |-> n_(0) (x) n_(1).m of the coaction
    delta_R that R induces on N, so it needs neither YD modules nor an
    antipode.  The inverse n (x) m |-> R^-1_1.m (x) R^-1_2.n is built the
    same way from ``r.inverse`` and kept only when it passes the two-sided
    check; it is None when R carries no inverse.
    """
    if not m.base.same_structure(r.base):
        raise ValueError("module and R-matrix live over different bialgebras")
    f = r.field
    c = standard_braiding(m.lam, coaction_from_r(n, r), f)
    c_inv = None
    if r.inverse is not None:
        c_inv = ring_braiding(ring_braiding(r.inverse, n.lam, f), m.lam, f)
        if not is_two_sided_inverse(c, c_inv):
            c_inv = None
    return c, c_inv


def verify_r_inverse(r):
    """Exact check of mu_{HxH} o (R (x) R^-1) = mu_{HxH} o (R^-1 (x) R) = nu (x) nu."""
    if r.inverse is None:
        return False
    b = r.base
    mu2 = mu_tensor_square(b)
    target = b.nu.tensor(b.nu)
    return (
        mu2.compose(r.vector.tensor(r.inverse)).matrix == target.matrix
        and mu2.compose(r.inverse.tensor(r.vector)).matrix == target.matrix
    )


def antipode_inverse_r(r):
    """Fill in R^-1 = (s (x) Id) o R, verifying the inverse law exactly.

    Raises AntipodeMissingError when the base has no antipode (stored or
    solvable), CheckFailed when verification fails.
    """
    b = r.base
    s = b.find_antipode()
    if s is None:
        raise AntipodeMissingError(f"no antipode on {b.space.label}")
    inv = apply_at(s, 1, r.vector)
    out = RMatrix(b, r.vector, inv)
    if not verify_r_inverse(out):
        raise CheckFailed("(s (x) Id) o R failed the two-sided inverse law")
    return out
