"""Axiom reports and tensor-product structure maps pinned by digest.

Every ``check_bialgebra``, ``check_yd`` and ``check_r`` level is run on
passing inputs and on inputs with mu, Delta or eps scaled by 2, and
``check_r`` also on random R vectors over kZ/2 (F_5).  The full text of each
report, failure witnesses included, goes into one sha256 digest per case
family, next to the matrices ``tensor_yd`` (both variants) and
``r_braiding`` build.  The digests were recorded before the middle swaps
``Id (x) c (x) Id`` of these checks were routed through ``tensor.on_tensor``.
"""

import hashlib
import random
from fractions import Fraction

from braidalg.hopf import (
    Bialgebra,
    check_bialgebra,
    cyclic_group_table,
    dual_bialgebra,
    group_algebra,
    monoid_algebra,
    s3_table,
)
from braidalg.linalg import GF, QQ
from braidalg.rmatrix import RMatrix, check_r, r_braiding, unit_r_matrix
from braidalg.systems import random_precision_data
from braidalg.yd import (
    YDModule,
    YDModuleAlgebra,
    check_yd,
    dual_yd,
    formal_unit_extend,
    left_regular_module,
    regular_yd_group_algebra,
    tensor_yd,
    unit_yd,
)

F5 = GF(5)


def _bases():
    kz2 = group_algebra(*cyclic_group_table(2), field=F5)
    ks3 = group_algebra(*s3_table(), field=QQ)
    ks3_f5 = group_algebra(*s3_table(), field=F5)
    return {
        "kZ2/F5": kz2,
        "kS3/Q": ks3,
        "kS3/F5": ks3_f5,
        "kS3*/Q": dual_bialgebra(ks3),
        "monoid/Q": monoid_algebra([[0, 1], [1, 1]], names=("1", "e")),
    }


def _perturbed(b):
    """b itself, then b with mu, Delta or eps scaled by 2."""
    return [
        ("", b),
        ("mu*2", Bialgebra(b.space, b.mu.scale(2), b.nu, b.delta, b.eps, b.antipode)),
        ("delta*2", Bialgebra(b.space, b.mu, b.nu, b.delta.scale(2), b.eps, b.antipode)),
        ("eps*2", Bialgebra(b.space, b.mu, b.nu, b.delta, b.eps.scale(2), b.antipode)),
    ]


def _rebased(m, base):
    """m, with the same maps, over another base."""
    if isinstance(m, YDModuleAlgebra):
        return YDModuleAlgebra(base, m.space, m.lam, m.delta, mu=m.mu, nu=m.nu)
    return YDModule(base, m.space, m.lam, m.delta)


def _show(lm):
    dom = ",".join(s.label for s in lm.domain)
    cod = ",".join(s.label for s in lm.codomain)
    return f"{dom} -> {cod}: {sorted(lm.matrix.entries.items())}"


def _bialgebra_texts(bases):
    for name, b in bases.items():
        for tag, pb in _perturbed(b):
            for level in ("algebra", "coalgebra", "bialgebra", "hopf"):
                yield f"bialgebra {name}", f"{name} {tag} {level}\n{check_bialgebra(pb, level)}"


def _yd_modules(bases):
    rng = random.Random(3)
    out = {}
    for name in ("kZ2/F5", "kS3/F5", "kS3/Q"):
        b = bases[name]
        reg = regular_yd_group_algebra(b)
        mods = [unit_yd(b), reg, left_regular_module(b), formal_unit_extend(reg), formal_unit_extend(unit_yd(b))]
        if b.field == F5:
            mods += [random_precision_data(b, d, rng) for d in (2, 2, 3)]
        out[name] = mods
    out["kS3*/Q"] = [dual_yd(regular_yd_group_algebra(bases["kS3/Q"]))]
    return out


def _yd_texts(bases):
    for name, mods in _yd_modules(bases).items():
        for t, m in enumerate(mods):
            for tag, pb in _perturbed(m.base):
                pm = _rebased(m, pb)
                for level in ("module", "comodule", "yd", "yd_algebra"):
                    if level == "yd_algebra" and not isinstance(m, YDModuleAlgebra):
                        continue
                    yield f"yd {name}", f"{name} #{t} {tag} {level}\n{check_yd(pm, level)}"


def _random_r_vectors(b, rng, count):
    d2 = b.dim * b.dim
    return [
        RMatrix.from_coefficients(b, [rng.randrange(5) for _ in range(d2)], [rng.randrange(5) for _ in range(d2)])
        for _ in range(count)
    ]


def _r_matrices(bases):
    rng = random.Random(5)
    kz2 = bases["kZ2/F5"]
    kz2_q = group_algebra(*cyclic_group_table(2))
    h = Fraction(1, 2)
    radford = RMatrix.from_coefficients(kz2_q, [h, h, h, -h], [h, h, h, -h])
    return {
        "unit": [unit_r_matrix(bases[n]) for n in ("kZ2/F5", "kS3/Q", "kS3*/Q")],
        "radford": [radford],
        "random kZ2/F5": _random_r_vectors(kz2, rng, 12),
        "random kS3/F5": _random_r_vectors(bases["kS3/F5"], rng, 1),
        "perturbed": [unit_r_matrix(pb) for _, pb in _perturbed(kz2)[1:]]
        + [RMatrix(pb, radford.vector) for _, pb in _perturbed(kz2_q)[1:]],
    }


def _r_texts(bases):
    for family, rs in _r_matrices(bases).items():
        for t, r in enumerate(rs):
            for level in ("weak", "strong", "quantum_ybe"):
                yield f"r {family}", f"#{t} {level}\n{check_r(r, level)}"


def _tensor_yd_texts(bases):
    rng = random.Random(7)
    kz2, ks3 = bases["kZ2/F5"], bases["kS3/Q"]
    pairs = [
        (regular_yd_group_algebra(kz2), regular_yd_group_algebra(kz2)),
        (random_precision_data(kz2, 2, rng), random_precision_data(kz2, 3, rng)),
        (regular_yd_group_algebra(ks3), unit_yd(ks3)),
        (regular_yd_group_algebra(ks3), regular_yd_group_algebra(ks3)),
        (random_precision_data(bases["kS3/F5"], 2, rng), regular_yd_group_algebra(bases["kS3/F5"])),
    ]
    for t, (m, n) in enumerate(pairs):
        for variant in ("standard", "twisted"):
            mn = tensor_yd(m, n, variant)
            yield "tensor_yd", f"#{t} {variant}\n{_show(mn.lam)}\n{_show(mn.delta)}"


def _r_braiding_texts(bases):
    rs = _r_matrices(bases)
    cases = [(r, left_regular_module(r.base)) for r in rs["unit"] + rs["radford"]]
    # the base drops its antipode, as when the digest was recorded; c_R does not
    # depend on it (tests/test_rmatrix.py)
    rng = random.Random(11)
    b = bases["kZ2/F5"]
    kz2 = Bialgebra(b.space, b.mu, b.nu, b.delta, b.eps)
    cases += [
        (RMatrix(kz2, r.vector, r.inverse), random_precision_data(kz2, 2, rng)) for r in rs["random kZ2/F5"]
    ]
    for t, (r, m) in enumerate(cases):
        c, c_inv = r_braiding(m, m, r)
        inv = "None" if c_inv is None else _show(c_inv)
        yield "r_braiding", f"#{t}\n{_show(c)}\n{inv}"


def _digests():
    bases = _bases()
    texts = {}
    for gen in (_bialgebra_texts, _yd_texts, _r_texts, _tensor_yd_texts, _r_braiding_texts):
        for family, text in gen(bases):
            texts.setdefault(family, []).append(text)
    return {family: hashlib.sha256("\n\n".join(ts).encode()).hexdigest() for family, ts in texts.items()}, texts


PINNED = {
    "bialgebra kS3*/Q": "c342e7963be4c6ac4e6436eda1d62e9ce2e9ccab2493ac5fe28047784f160f49",
    "bialgebra kS3/F5": "dff94dcd5c3af780c1a188680208ca41479bd97fcb5d9ecfd7738ab9b996691e",
    "bialgebra kS3/Q": "d51dd4b588376cff621b9b793b3c3fb7d9d2e474a386803ffc6fcee50c5b32e0",
    "bialgebra kZ2/F5": "22db737d9d8225460b3624104d70a12c23d1fa62bc0b066783180dd827dfa423",
    "bialgebra monoid/Q": "63fd707e9e05954992ef8fbb28df4678162f4e59ca2e2e3a9a4b119e21ab3a62",
    "r perturbed": "246f448a32e26e48f657765364502a2b995e23f47f40aba38db3e139b3a432ab",
    "r radford": "049daa2e5cb21b993dfb05c007e2d628f978f84c96b4dabb12b1834fd2d39422",
    "r random kS3/F5": "ef97f76281363044394df4cda216a744dab5a4627a748c956e15429bab8dbdae",
    "r random kZ2/F5": "e9009b9f0b58e65c5537c1d62305583eb868507aa13a52fc6a1fd0b28fcbef19",
    "r unit": "d88ff67658f1c2faa0415d331325b7ba93f75ae3f77752dfc8b752bf7dd5ff8f",
    "r_braiding": "0736ec042836265bbb697b62620bd249607294653785b737db2eec8cc9e2df1f",
    "tensor_yd": "3e4790fb7b1c651ad44b00bfe8fa899c66ee8e30e756ab665c78de9e4b1b6e97",
    "yd kS3*/Q": "dda643e1bb8498809e65c445870f980772563b1ce598acecfc53dfb1f68545d2",
    "yd kS3/F5": "397d8b5d377b456a9e3b746be3737b836c2dad6dcdcc242007caae1c3b691f87",
    "yd kS3/Q": "75021711e05d4615db89127b08374a6da6afec29b8cd1abec58f0a6f58842d78",
    "yd kZ2/F5": "1c2b751ed7fd718cef515bf82ff2a34b83509050c5148c7f936098acb83449a2",
}


def test_reports_and_structure_maps_are_pinned():
    digests, texts = _digests()
    # the pins cover passing and failing checks, with witnesses
    joined = "\n".join(t for ts in texts.values() for t in ts)
    assert "PASS yd_alg_lam_mu" in joined and "FAIL yd_alg_lam_mu @" in joined
    assert "FAIL bialg_delta_mu @" in joined and "FAIL yd_compatibility @" in joined
    assert "FAIL weak_1_delta_R @" in joined and "PASS strong_1_R_delta" in joined
    assert "FAIL quantum_ybe @" in joined and "PASS quantum_ybe" in joined
    assert digests == PINNED
