"""Braided systems: cYBE checks, YD-system builders, gluing, harnesses."""

import hashlib
import random
import re
from fractions import Fraction

import pytest

from braidalg.hopf import UAA, cyclic_group_table, dual_bialgebra, group_algebra, monoid_algebra, s3_table
from braidalg.linalg import GF, QQ, SparseMatrix
from braidalg.systems import (
    BraidedSystem,
    PRECISION_ROWS,
    build_yd_system,
    check_braided_morphism,
    cybe_instance,
    dual_action,
    glue,
    invertibility_report,
    precision_harness,
    random_precision_data,
    ring_braiding,
    sigma_ass,
    validate_uaa_system,
    verify_cybe,
    yd_base,
    yd_system,
)
from braidalg.report import AxiomReport, CheckFailed
from braidalg.tensor import (
    DimensionMismatch,
    LinMap,
    Space,
    apply_at,
    basis,
    compose_chain,
    flip,
    from_terms,
    identity,
)
from braidalg.yd import (
    YDModuleAlgebra,
    check_yd,
    formal_unit_extend,
    regular_yd_group_algebra,
    tensor_yd,
    unit_yd,
)

S3_TABLE, S3_NAMES = s3_table()
Z2_TABLE, Z2_NAMES = cyclic_group_table(2)
Z3_TABLE, Z3_NAMES = cyclic_group_table(3)


def test_rank_one_identity_system():
    M = Space(3, "M")
    s = BraidedSystem((M,), {(1, 1): identity([M, M], QQ)}, QQ)
    rep = verify_cybe(s)
    assert rep.passed and len(rep.checks) == 1


def test_build_yd_system_instance_count_and_pass():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    s = build_yd_system(b, [m], "yd")
    rep = verify_cybe(s)
    assert rep.passed and len(rep.checks) == 10


def test_rank_0_system_encodes_the_bialgebra():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    s = build_yd_system(b, [], "yd")
    assert s.rank == 2 and verify_cybe(s).passed
    # also for a bialgebra with no antipode
    mon = monoid_algebra([[0, 1], [1, 1]])
    assert verify_cybe(build_yd_system(mon, [], "yd")).passed


@pytest.mark.parametrize("variant", ["yd", "ydalg"])
def test_yd_base_is_the_system_of_h_and_its_dual(variant):
    """yd_base(h) is the unchecked rank-2 system (H, H*); yd_system inserts no module into it."""
    for h in (group_algebra(S3_TABLE, S3_NAMES), monoid_algebra([[0, 1], [1, 1]])):
        base = yd_base(h)
        assert base.components == (h.space, base.dual.space) and base.bialgebra is h
        assert sorted(base.sigma) == [(1, 1), (1, 2), (2, 2)]
        s = yd_system(base, [], variant)
        assert s.sigma == yd_base(h).sigma and s.components == base.components


def test_sigma_component_formulas():
    b = group_algebra(S3_TABLE, S3_NAMES)
    m = regular_yd_group_algebra(S3_TABLE, S3_NAMES)
    s = build_yd_system(b, [m], "yd")
    # sigma_{H,H}(h1 (x) h2) = h1 h2 (x) 1 and sigma_{M,M} = id
    assert s.sigma[(1, 1)].matrix == b.mu.tensor(b.nu).matrix
    assert s.sigma[(2, 2)].matrix == SparseMatrix.identity(QQ, 36)
    # sigma_{H,M}(h (x) m) = h_(2) m (x) h_(1): for grouplike h this is
    # (h m h^-1) (x) h; check all 36 pairs against the Sweedler expansion
    d = 6
    for h in range(d):
        for mm in range(d):
            col = h * d + mm
            expected = {}
            for (row, c2), v in b.delta.matrix.entries.items():
                if c2 != h:
                    continue
                h1, h2 = divmod(row, d)
                for bb in range(d):
                    av = m.lam.matrix.get(bb, h2 * d + mm)
                    if QQ.reduce(av):
                        key = bb * d + h1
                        expected[key] = expected.get(key, QQ.zero) + v * av
            for row in range(d * d):
                assert s.sigma[(1, 2)].matrix.get(row, col) == expected.get(row, QQ.zero)


def test_flip_perturbation_detected_on_s3():
    # with a nonabelian group the adjoint action is nontrivial, so replacing
    # sigma_{H,M} by the flip is a real perturbation and the mixed instance
    # on H (x) M (x) H* must fail
    b = group_algebra(S3_TABLE, S3_NAMES)
    m = regular_yd_group_algebra(S3_TABLE, S3_NAMES)
    s = build_yd_system(b, [m], "yd")
    pert = s.with_sigma(1, 2, flip(s.space(1), s.space(2), QQ))
    rep = verify_cybe(pert)
    bad = rep["cYBE(1,2,3)"]
    assert not bad.passed and bad.witness is not None


def _padded_instance(s, i, j, k):
    """The colored YBE sides as products of padded maps: the oracle for cybe_instance."""
    f = s.field
    s_ij, s_ik, s_jk = s.sigma[(i, j)], s.sigma[(i, k)], s.sigma[(j, k)]
    lhs = apply_at(s_jk, 1, apply_at(s_ik, 2, s_ij.tensor(identity([s.space(k)], f))))
    rhs = apply_at(s_ij, 2, apply_at(s_ik, 1, identity([s.space(i)], f).tensor(s_jk)))
    return lhs, rhs


def _random_system(rng, field, rank):
    """Components of dims 1..3 and sparse random braidings (scalars with non-trivial denominators over Q)."""
    comps = tuple(Space(rng.randint(1, 3), f"V{t}") for t in range(1, rank + 1))

    def scalar():
        if field.p is None:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randrange(field.p)

    sigma = {}
    for i in range(1, rank + 1):
        for j in range(i, rank + 1):
            vi, vj = comps[i - 1], comps[j - 1]
            pairs = [(out, inp) for out in basis((vj, vi)) for inp in basis((vi, vj))]
            terms = [(out, inp, scalar()) for out, inp in pairs if rng.random() < 0.4]
            sigma[(i, j)] = from_terms((vi, vj), (vj, vi), terms, field)
    return BraidedSystem(comps, sigma, field)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_cybe_instance_matches_the_padded_products(field):
    """On every triple i <= j <= k of random systems (mostly failing cYBE) and of YD systems (passing),
    cybe_instance gives the matrices and factor dims of the padded-product formula, and verify_cybe the
    same report, witnesses included."""
    rng = random.Random(2024)
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=field)
    systems = [_random_system(rng, field, rng.randint(2, 4)) for _ in range(12)]
    systems += [build_yd_system(b, [m], "yd") for m in (unit_yd(b), regular_yd_group_algebra(b))]
    seen = set()
    for s in systems:
        oracle = AxiomReport(f"cYBE for {s!r}")
        for i, j, k in s.triples():
            got, want = cybe_instance(s, i, j, k), _padded_instance(s, i, j, k)
            for g, w in zip(got, want):
                assert g.matrix == w.matrix
                assert [v.dim for v in g.domain] == [v.dim for v in w.domain]
                assert [v.dim for v in g.codomain] == [v.dim for v in w.codomain]
            seen.add(oracle.compare(f"cYBE({i},{j},{k})", *want))
        assert str(verify_cybe(s)) == str(oracle)
    assert seen == {True, False}


def test_cybe_instance_keeps_shape_and_field_checks():
    """A braiding of the wrong factor dims raises DimensionMismatch, one over another field ValueError."""
    V, W = Space(2, "V"), Space(3, "W")
    good = {(1, 1): identity([V, V], QQ), (1, 2): flip(V, W, QQ), (2, 2): identity([W, W], QQ)}
    s = BraidedSystem((V, W), good, QQ)
    assert verify_cybe(s).passed
    wrong_dims = s.with_sigma(1, 2, identity([V, V], QQ))
    other_field = s.with_sigma(1, 2, flip(V, W, GF(5)))
    for triple in ((1, 1, 2), (1, 2, 2)):
        with pytest.raises(DimensionMismatch):
            cybe_instance(wrong_dims, *triple)
        with pytest.raises(ValueError, match="field mismatch"):
            cybe_instance(other_field, *triple)
    with pytest.raises(DimensionMismatch):
        verify_cybe(wrong_dims)
    with pytest.raises(ValueError, match="field mismatch"):
        verify_cybe(other_field)


def test_braided_morphism_identity_family():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    s = build_yd_system(b, [m], "yd")
    fs = [identity([s.space(i)], QQ) for i in range(1, 4)]
    assert check_braided_morphism(fs, s, s).passed


def _class_function_endomorphism(ext, values):
    """diag(1, values...) on a formal-unit extension (unit fixed)."""
    f = ext.field
    d = ext.space.dim
    ent = {(0, 0): f.one}
    for i, v in enumerate(values, start=1):
        ent[(i, i)] = v
    return LinMap((ext.space,), (ext.space,), SparseMatrix(f, d, d, ent))


def test_braided_morphism_from_yd_algebra_morphism():
    # f scalar on conjugacy classes and grading-preserving is a YD module
    # algebra endomorphism of the formal-unit extension; (Id, f, Id) is a
    # braided morphism
    b = group_algebra(S3_TABLE, S3_NAMES)
    m = regular_yd_group_algebra(S3_TABLE, S3_NAMES)
    ext = formal_unit_extend(m)
    s = build_yd_system(b, [ext], "ydalg")
    # conjugacy classes of S3: {e}, {transpositions}, {3-cycles}
    classes = {"e": 2, "(12)": 3, "(13)": 3, "(23)": 3, "(123)": 5, "(132)": 5}
    values = [classes[name] for name in S3_NAMES]
    f = _class_function_endomorphism(ext, values)
    fs = [identity([s.space(1)], QQ), f, identity([s.space(3)], QQ)]
    assert check_braided_morphism(fs, s, s).passed


def test_braided_morphism_breaking_h_linearity_fails_on_HM():
    b = group_algebra(S3_TABLE, S3_NAMES)
    m = regular_yd_group_algebra(S3_TABLE, S3_NAMES)
    ext = formal_unit_extend(m)
    s = build_yd_system(b, [ext], "ydalg")
    # distinct values on conjugate transpositions: grading-preserving but
    # not equivariant for the adjoint action
    bad = {"e": 1, "(12)": 2, "(13)": 1, "(23)": 1, "(123)": 1, "(132)": 1}
    f = _class_function_endomorphism(ext, [bad[name] for name in S3_NAMES])
    fs = [identity([s.space(1)], QQ), f, identity([s.space(3)], QQ)]
    rep = check_braided_morphism(fs, s, s)
    assert not rep["respects_sigma(1,2)"].passed


def test_braided_morphism_breaking_grading_fails_on_MHstar():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    ext = formal_unit_extend(m)
    s = build_yd_system(b, [ext], "ydalg")
    # swap the two graded basis vectors: H-linear (trivial action) but not
    # a comodule morphism
    f = LinMap(
        (ext.space,),
        (ext.space,),
        SparseMatrix(QQ, 3, 3, {(0, 0): QQ.one, (1, 2): QQ.one, (2, 1): QQ.one}),
    )
    fs = [identity([s.space(1)], QQ), f, identity([s.space(3)], QQ)]
    rep = check_braided_morphism(fs, s, s)
    assert rep["respects_sigma(1,2)"].passed
    assert not rep["respects_sigma(2,3)"].passed


def test_sigma_ass_cases():
    b1 = group_algebra(*cyclic_group_table(1))
    assert sigma_ass(b1, "left").matrix == SparseMatrix.identity(QQ, 1)
    b2 = group_algebra(Z2_TABLE, Z2_NAMES)
    left = sigma_ass(b2, "left")
    # g (x) g -> e (x) e
    assert left.matrix.get(0 * 2 + 0, 1 * 2 + 1) == QQ.one
    right = sigma_ass(b2, "right")
    assert right.matrix.get(0 * 2 + 0, 1 * 2 + 1) == QQ.one  # g.g (x) 1 = e (x) e
    # YBE for the associativity braiding of kS3
    bs = group_algebra(S3_TABLE, S3_NAMES)
    sig = sigma_ass(bs, "left")
    idh = identity([bs.space], QQ)
    lhs = compose_chain([sig.tensor(idh), idh.tensor(sig), sig.tensor(idh)])
    rhs = compose_chain([idh.tensor(sig), sig.tensor(idh), idh.tensor(sig)])
    assert lhs.matrix == rhs.matrix


def test_invertibility_weak_antipode_duality_both_directions():
    from braidalg.hopf import solve_antipode

    cases = [
        group_algebra(Z2_TABLE, Z2_NAMES),
        group_algebra(Z3_TABLE, Z3_NAMES),
        group_algebra(S3_TABLE, S3_NAMES),
        dual_bialgebra(group_algebra(S3_TABLE, S3_NAMES)),
        monoid_algebra([[0, 1], [1, 1]]),
    ]
    for b in cases:
        s = build_yd_system(b, [], "yd")
        inv = invertibility_report(s)
        has_antipode = solve_antipode(b) is not None
        assert inv[(1, 2)]["invertible"] == has_antipode, b
    # sigma_{H,H} = mu (x) nu is never invertible for dim >= 2
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    inv = invertibility_report(build_yd_system(b, [], "yd"))
    assert not inv[(1, 1)]["invertible"] and inv[(1, 1)]["rank"] <= 2


def test_invertibility_report_inverse_matrices_are_exact():
    b = group_algebra(S3_TABLE, S3_NAMES)
    s = build_yd_system(b, [], "yd")
    inv = invertibility_report(s)
    entry = inv[(1, 2)]
    assert entry["invertible"]
    sig = s.sigma[(1, 2)]
    prod = entry["inverse"].matrix @ sig.matrix
    assert prod == SparseMatrix.identity(QQ, sig.matrix.n_cols)


def test_validate_uaa_system_trivial_and_hhstar():
    K = Space(1, "k")
    mu_k = LinMap((K, K), (K,), SparseMatrix.identity(QQ, 1))
    nu_k = LinMap((), (K,), SparseMatrix.identity(QQ, 1))
    rep, _ = validate_uaa_system([UAA(K, mu_k, nu_k), UAA(K, mu_k, nu_k)], {(1, 2): identity([K, K], QQ)})
    assert rep.passed
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    s = build_yd_system(b, [], "yd")
    d = dual_bialgebra(b)
    rep, _ = validate_uaa_system([b, d], {(1, 2): s.sigma[(1, 2)]})
    assert rep.passed


def test_validate_uaa_system_equivalence_on_non_natural_xi():
    # unit-natural but not mu-natural: both condition (2) and the full cYBE
    # must fail together
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    d = dual_bialgebra(b)
    two = 2
    neg = -1
    ent = {
        # e (x) l -> l (x) e   (forced by unit naturality)
        (0 * 2 + 0, 0 * 2 + 0): QQ.one,
        (1 * 2 + 0, 0 * 2 + 1): QQ.one,
        # g (x) e* -> 2 e* (x) g - g* (x) g
        (0 * 2 + 1, 1 * 2 + 0): two,
        (1 * 2 + 1, 1 * 2 + 0): neg,
        # g (x) g* -> -e* (x) g + 2 g* (x) g
        (0 * 2 + 1, 1 * 2 + 1): neg,
        (1 * 2 + 1, 1 * 2 + 1): two,
    }
    xi = LinMap((b.space, d.space), (d.space, b.space), SparseMatrix(QQ, 4, 4, ent))
    rep, _ = validate_uaa_system([b, d], {(1, 2): xi})
    assert not rep["mu_naturality(1,2)_left"].passed or not rep["mu_naturality(1,2)_right"].passed
    # g (x) g (x) e*: xi o (mu (x) id) gives e* (x) e once; the other side 5 e* (x) e - 4 g* (x) e
    assert str(rep["mu_naturality(1,2)_left"]) == (
        "FAIL mu_naturality(1,2)_left @ input basis (1, 1, 0) / output basis (0, 0): lhs=1 rhs=5"
    )
    assert str(rep["mu_naturality(1,2)_right"]) == (
        "FAIL mu_naturality(1,2)_right @ input basis (1, 0, 0) / output basis (0, 1): lhs=2 rhs=4"
    )
    assert not rep["full_cybe"].passed
    assert rep["equivalence_cond2_iff_cybe"].passed


def test_validate_uaa_system_records_the_strict_triples_at_rank_three():
    # three copies of kZ/2 over Q, xi the flip on every pair; then xi(1,3) scales g (x) g by 2,
    # which keeps it natural for the units but not for mu
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    c = flip(b.space, b.space, QQ)
    xi = {(i, j): c for i in range(1, 4) for j in range(i + 1, 4)}
    rep, s = validate_uaa_system([b, b, b], xi)
    mu_checks = [f"mu_naturality({i},{j})_{side}" for i, j in ((1, 2), (1, 3), (2, 3)) for side in ("left", "right")]
    names = mu_checks + ["strict_cYBE(1,2,3)", "full_cybe", "equivalence_cond2_iff_cybe"]
    assert [c.name for c in rep.checks] == names and rep.passed
    assert s.rank == 3 and s.sigma[(2, 2)].matrix == sigma_ass(b, "left").matrix
    ent = dict(c.matrix.entries)
    ent[(3, 3)] = 2
    xi[(1, 3)] = LinMap(c.domain, c.codomain, SparseMatrix(QQ, 4, 4, ent))
    rep, _ = validate_uaa_system([b, b, b], xi)
    assert [c.name for c in rep.checks if not c.passed] == [
        "mu_naturality(1,3)_left",
        "mu_naturality(1,3)_right",
        "full_cybe",
    ]
    assert str(rep["full_cybe"]) == "FAIL full_cybe @ input basis (1, 1, 1) / output basis (1, 0, 0): lhs=1 rhs=4"
    assert rep["strict_cYBE(1,2,3)"].passed and rep["equivalence_cond2_iff_cybe"].passed


def test_validate_uaa_system_rejects_non_unit_natural_xi():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    d = dual_bialgebra(b)
    bad = LinMap((b.space, d.space), (d.space, b.space), SparseMatrix(QQ, 4, 4))
    message = (
        "xi(1,2) is not natural with respect to the units: "
        "FAIL unit_naturality_left @ input basis (0,) / output basis (0, 0): lhs=0 rhs=1"
    )
    with pytest.raises(CheckFailed, match=re.escape(message)):
        validate_uaa_system([b, d], {(1, 2): bad})


def test_glue_matches_twisted_tensor_structures():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    s = build_yd_system(b, [m, m], "yd")
    g = glue(s, 2, 3)
    assert g.rank == 3 and verify_cybe(g).passed
    tw = tensor_yd(m, m, "twisted")
    assert check_yd(tw, "yd").passed  # the gluing certifies this structure
    assert g.sigma[(1, 2)].matrix == ring_braiding(b.delta, tw.lam, QQ).matrix
    assert g.sigma[(2, 3)].matrix == ring_braiding(tw.delta, dual_action(b, dual_bialgebra(b)), QQ).matrix


def test_glue_single_component_is_degenerate():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    s = build_yd_system(b, [m], "yd")
    g = glue(s, 2, 2)
    assert g.rank == 3
    assert g.sigma[(2, 2)].matrix == SparseMatrix.identity(QQ, 4)
    assert verify_cybe(g).passed


def test_glue_three_component_block():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    u = unit_yd(b)
    s = build_yd_system(b, [m, u, m], "yd")
    g = glue(s, 2, 4)
    assert g.rank == 3 and verify_cybe(g).passed


def test_glue_range_validation():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    s = build_yd_system(b, [], "yd")
    with pytest.raises(ValueError):
        glue(s, 2, 3)


def test_build_yd_system_validates_inputs():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    from braidalg.yd import YDModule

    bad = YDModule(b, m.space, LinMap(m.lam.domain, m.lam.codomain, b.mu.matrix), m.delta)
    with pytest.raises(CheckFailed, match="module fails"):
        build_yd_system(b, [bad], "yd")
    with pytest.raises(TypeError):
        build_yd_system(b, [m], "ydalg")


def test_yd_and_ydalg_variants_agree_off_diagonal():
    F = GF(5)
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=F)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES, field=F)
    ext = formal_unit_extend(m)
    sa = build_yd_system(b, [ext], "ydalg")
    sy = build_yd_system(b, [ext], "yd")
    for (i, j) in sa.sigma:
        if i != j:
            assert sa.sigma[(i, j)].matrix == sy.sigma[(i, j)].matrix
    # and the YDAlg diagonal satisfies the YBE on its own
    sig = sa.sigma[(2, 2)]
    idm = identity([ext.space], F)
    lhs = compose_chain([sig.tensor(idm), idm.tensor(sig), sig.tensor(idm)])
    rhs = compose_chain([idm.tensor(sig), sig.tensor(idm), idm.tensor(sig)])
    assert lhs.matrix == rhs.matrix


def test_precision_harness_valid_inputs_all_rows_true():
    F = GF(5)
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=F)
    ext = formal_unit_extend(regular_yd_group_algebra(Z2_TABLE, Z2_NAMES, field=F))
    rows = precision_harness(ext, yd_base(b))
    assert all(r["side"] and r["equivalence"] for r in rows)
    assert all(r["side"] and r["cybe"] and r["axiom"] for r in rows)


def _with_map(alg, target, new):
    """The YD module algebra alg with its map ``target`` (lam, delta or mu) replaced by new."""
    maps = {"lam": alg.lam, "delta": alg.delta, "mu": alg.mu, target: new}
    return YDModuleAlgebra(alg.base, alg.space, maps["lam"], maps["delta"], mu=maps["mu"], nu=alg.nu)


# On k (+) M for the regular kZ/2 module over F_5: H basis e, g (indices 0, 1);
# V basis v0 (the formal unit), v1, v2.  Each case adds 1 to one entry.
@pytest.mark.parametrize(
    "target, entry, failing",
    [
        ("lam", (2, 0 * 3 + 1), {"action_associativity"}),  # lam(e (x) v1) += v2
        ("lam", (1, 1 * 3 + 0), {"action_respects_mu"}),  # lam(g (x) v0) += v1
        ("delta", (2 * 2 + 0, 1), {"coaction_coassociativity"}),  # delta(v1) += v2 (x) e
        ("delta", (1 * 2 + 0, 0), {"coaction_coassociativity", "coaction_respects_mu"}),  # delta(v0) += v1 (x) e
        ("mu", (2, 1 * 3 + 0), {"mu_associativity"}),  # mu(v1 (x) v0) += v2
    ],
)
def test_precision_harness_side_conditions_read_their_axioms(target, entry, failing):
    F = GF(5)
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=F)
    ext = formal_unit_extend(regular_yd_group_algebra(Z2_TABLE, Z2_NAMES, field=F))
    m = getattr(ext, target)
    bump = SparseMatrix(F, m.matrix.n_rows, m.matrix.n_cols, {entry: F.one})
    alg = _with_map(ext, target, LinMap(m.domain, m.codomain, m.matrix + bump))
    rows = precision_harness(alg, yd_base(b))
    assert {r["row"] for r in rows if not r["side"]} == failing
    assert {r["row"] for r in rows if r["equivalence"]} == {name for name, *_ in PRECISION_ROWS}


def test_precision_harness_random_equivalence():
    F = GF(5)
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=F)
    base = yd_base(b)
    rng = random.Random(42)
    seen_false = {name: False for name, *_ in PRECISION_ROWS}
    seen_true = {name: False for name, *_ in PRECISION_ROWS}
    for _ in range(30):
        rows = precision_harness(random_precision_data(b, 2, rng), base)
        for r in rows:
            assert r["side"]
            assert r["cybe"] == r["axiom"]
            seen_false[r["row"]] |= not r["axiom"]
            seen_true[r["row"]] |= r["axiom"]
    # with dim 3 the associativity row also exercises its false branch
    for _ in range(10):
        rows = precision_harness(random_precision_data(b, 3, rng), base)
        for r in rows:
            assert r["cybe"] == r["axiom"]
            seen_false[r["row"]] |= not r["axiom"]
    assert all(seen_true.values())
    assert all(seen_false.values()), seen_false


def test_precision_harness_checks_the_system_build_yd_system_builds():
    """Each row's cybe flag equals the same triple's cYBE check on the
    "ydalg" system yd_system assembles from the same data, the one
    build_yd_system checks and returns; the data fails axioms, and every
    other trial a side condition may fail too."""
    F = GF(5)
    rng = random.Random(13)
    seen = set()
    cases = ((Z2_TABLE, Z2_NAMES, 2, 12), (Z2_TABLE, Z2_NAMES, 3, 6), (S3_TABLE, S3_NAMES, 2, 4))
    for table, names, dim, trials in cases:
        b = group_algebra(table, names, field=F)
        base = yd_base(b)
        for trial in range(trials):
            alg = random_precision_data(b, dim, rng)
            if trial % 2:
                target = rng.choice(("lam", "delta", "mu"))
                m = getattr(alg, target)
                shape = (m.matrix.n_rows, m.matrix.n_cols)
                bump = SparseMatrix(F, *shape, {(rng.randrange(shape[0]), rng.randrange(shape[1])): 1})
                alg = _with_map(alg, target, LinMap(m.domain, m.codomain, m.matrix + bump))
            rows = precision_harness(alg, base)
            built = verify_cybe(yd_system(base, [alg], "ydalg"))
            for r in rows:
                assert r["cybe"] == built["cYBE({},{},{})".format(*r["triple"])].passed, (b.dim, dim, trial, r)
                seen.add((r["cybe"], r["side"]))
    # both flags, and an axiom failing with its side condition met
    assert {(True, True), (False, True)} <= seen, seen
    assert any(not side for _cybe, side in seen), seen


def test_precision_sampling_needs_prime_field():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    with pytest.raises(ValueError):
        random_precision_data(b, 2, random.Random(0))


@pytest.mark.parametrize(
    "group, dim, seed, digest",
    [
        ("Z2", 2, 1, "61fcd0ed5d82366e54ad61367cc26f0c269b6b9106b38035ef9feea70ca05de5"),
        ("Z2", 2, 7, "0ff41a1935b91c03fef2b0e87a0fa9453bbad5b551e527d2622113923bd52ecc"),
        ("S3", 3, 99, "544869cb70dc2390d662e5deb3c0cf564a5071dee7fe7c54c93b07cc79e7a8f3"),
    ],
)
def test_precision_sampling_is_pinned_per_seed(group, dim, seed, digest):
    """A seed gives the same (lam, delta, mu, nu) in every version: SHA-256
    of each map's shape and sorted entries, in that order, over F_5."""
    table, names = {"Z2": (Z2_TABLE, Z2_NAMES), "S3": (S3_TABLE, S3_NAMES)}[group]
    b = group_algebra(table, names, field=GF(5))
    alg = random_precision_data(b, dim, random.Random(seed))
    maps = (alg.lam, alg.delta, alg.mu, alg.nu)
    h = hashlib.sha256()
    for m in maps:
        h.update(repr((m.matrix.n_rows, m.matrix.n_cols, sorted(m.matrix.entries.items()))).encode())
    assert h.hexdigest() == digest


def test_sigma_dual_components_sweedler_oracle():
    """sigma_{H,H*}(h (x) l) = l_(1)(h_(2)) l_(2) (x) h_(1) and
    sigma_{M,H*}(m (x) l) = l_(1)(m_(1)) l_(2) (x) m_(0), with the dual
    comultiplication expanded by hand: Delta_{H*}(e*_j) = sum over products
    e_v e_u = e_j of e*_u (x) e*_v."""
    b = group_algebra(S3_TABLE, S3_NAMES)
    m = regular_yd_group_algebra(S3_TABLE, S3_NAMES)
    s = build_yd_system(b, [m], "yd")
    d = 6
    # hand expansion of Delta_{H*} from the group table
    ddelta = {j: [] for j in range(d)}
    for v in range(d):
        for u in range(d):
            ddelta[S3_TABLE[v][u]].append((u, v))
    # sigma_{H,H*}: h grouplike, so = <l_(1), h> l_(2) (x) h
    sig = s.sigma[(1, 3)]
    for h in range(d):
        for j in range(d):
            col = h * d + j
            expected = {}
            for (u, v) in ddelta[j]:
                if u == h:
                    expected[v * d + h] = QQ.one
            for row in range(d * d):
                assert sig.matrix.get(row, col) == expected.get(row, QQ.zero)
    # sigma_{M,H*}: m graded by its own index k: = <l_(1), k> l_(2) (x) m_k
    sig = s.sigma[(2, 3)]
    for k in range(d):
        for j in range(d):
            col = k * d + j
            expected = {}
            for (u, v) in ddelta[j]:
                if u == k:
                    expected[v * d + k] = QQ.one
            for row in range(d * d):
                assert sig.matrix.get(row, col) == expected.get(row, QQ.zero)


def test_mixed_sigma_inverses_match_antipode_formula():
    """For a Hopf base the off-diagonal braidings invert via
    (Id (x) lam_j) o (Id (x) s (x) Id) o (delta_i (x) Id) o c."""
    from braidalg.systems import dual_action
    from braidalg.hopf import dual_bialgebra

    b = group_algebra(S3_TABLE, S3_NAMES)
    m = regular_yd_group_algebra(S3_TABLE, S3_NAMES)
    s = build_yd_system(b, [m], "yd")
    dual = dual_bialgebra(b)
    lam_dual = dual_action(b, dual)
    structures = {
        1: (b.delta, None),
        2: (m.delta, m.lam),
        3: (None, lam_dual),
    }
    idmaps = {t: identity([s.space(t)], QQ) for t in (1, 2, 3)}
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        delta_i = structures[i][0]
        lam_j = structures[j][1]
        inv = compose_chain(
            [
                idmaps[i].tensor(lam_j),
                idmaps[i].tensor(b.antipode).tensor(idmaps[j]),
                delta_i.tensor(idmaps[j]),
                flip(s.space(j), s.space(i), QQ),
            ]
        )
        prod = inv.compose(s.sigma[(i, j)])
        assert prod.matrix == SparseMatrix.identity(QQ, prod.matrix.n_cols), (i, j)
        prod = s.sigma[(i, j)].compose(inv)
        assert prod.matrix == SparseMatrix.identity(QQ, prod.matrix.n_cols), (i, j)


def test_hhstar_system_encodes_the_bialgebra_axiom():
    """With a UAA+coUAA pair that is NOT a bialgebra (multiplicative mu,
    primitive Delta on dim 2), exactly the mixed instances of the (H, H*)
    system fail, while the pure associativity/coassociativity instances
    still pass."""
    from braidalg.hopf import Bialgebra, check_bialgebra

    b = group_algebra(Z2_TABLE, Z2_NAMES)
    delta = LinMap(
        (b.space,),
        (b.space, b.space),
        SparseMatrix(QQ, 4, 2, {(0, 0): QQ.one, (2, 1): QQ.one, (1, 1): QQ.one}),
    )
    eps = LinMap((b.space,), (), SparseMatrix(QQ, 1, 2, {(0, 0): QQ.one}))
    h = Bialgebra(b.space, b.mu, b.nu, delta, eps)
    assert check_bialgebra(h, "algebra").passed
    assert check_bialgebra(h, "coalgebra").passed
    assert not check_bialgebra(h, "bialgebra")["bialg_delta_mu"].passed
    s = yd_system(yd_base(h), [], "yd")
    rep = verify_cybe(s)
    assert rep["cYBE(1,1,1)"].passed
    assert rep["cYBE(2,2,2)"].passed
    assert not rep["cYBE(1,1,2)"].passed
    assert not rep["cYBE(1,2,2)"].passed
