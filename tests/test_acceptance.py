"""Acceptance suite: the end-to-end exactness gates, one line per criterion.

Every check is exact (tolerance zero); the timed criteria assert their
wall-clock budgets.  Run with `pytest tests/test_acceptance.py -v -s` to
see the per-criterion lines.
"""

import itertools
import random
import time

from braidalg.homology import (
    eps_characters,
    generic_differentials,
    homology_dims,
    pi_commutation_suite,
    coefficient_complex,
    verify_bicomplex,
    yd_bidifferential,
)
from braidalg.hopf import (
    check_bialgebra,
    cyclic_group_table,
    dual_bialgebra,
    group_algebra,
    monoid_algebra,
    s3_table,
    solve_antipode,
)
from braidalg.linalg import GF, QQ, SparseMatrix, inverse as matrix_inverse
from braidalg.rmatrix import antipode_inverse_r, check_r, r_braiding, unit_r_matrix, verify_r_inverse, yd_from_r
from braidalg.systems import (
    build_yd_system,
    dual_action,
    glue,
    invertibility_report,
    precision_harness,
    random_precision_data,
    ring_braiding,
    verify_cybe,
    yd_base,
)
from braidalg.tensor import LinMap, compose_chain, flip, identity
from braidalg.yd import (
    YDModule,
    change_of_basis,
    check_yd,
    left_regular_module,
    regular_yd_group_algebra,
    tensor_yd,
    unit_yd,
    yd_braiding,
)

S3_TABLE, S3_NAMES = s3_table()
Z2_TABLE, Z2_NAMES = cyclic_group_table(2)
Z3_TABLE, Z3_NAMES = cyclic_group_table(3)


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def test_acceptance_1_axiom_suite():
    start = time.monotonic()
    b = group_algebra(S3_TABLE, S3_NAMES, field=QQ)
    hopf_ok = check_bialgebra(b, "hopf").passed
    m = regular_yd_group_algebra(S3_TABLE, S3_NAMES, field=QQ)
    yd_ok = check_yd(m, "yd").passed
    # braiding values on all 36 basis pairs against a permutation oracle
    c, _ = yd_braiding(m, m, "standard")
    elems = sorted(itertools.permutations(range(3)))
    braid_ok = True
    for hi, h in enumerate(elems):
        for gi, g in enumerate(elems):
            ginv = tuple(g.index(x) for x in range(3))
            conj = elems.index(tuple(g[h[ginv[x]]] for x in range(3)))
            col = hi * 6 + gi
            entries = {r for (r, cc) in c.matrix.entries if cc == col}
            braid_ok &= entries == {gi * 6 + conj} and c.matrix.get(gi * 6 + conj, col) == QQ.one
    # Yang-Baxter on all 216 basis triples, as an exact matrix identity
    idm = identity([m.space], QQ)
    lhs = compose_chain([c.tensor(idm), idm.tensor(c), c.tensor(idm)])
    rhs = compose_chain([idm.tensor(c), c.tensor(idm), idm.tensor(c)])
    ybe_ok = lhs.matrix == rhs.matrix
    elapsed = time.monotonic() - start
    ok = hopf_ok and yd_ok and braid_ok and ybe_ok and elapsed < 5.0
    assert report(1, ok, f"S3 Hopf+YD axioms, braiding values, YBE on 216 triples ({elapsed:.2f}s)")


def test_acceptance_2_cybe_suite():
    start = time.monotonic()
    b = group_algebra(Z3_TABLE, Z3_NAMES, field=QQ)
    m = regular_yd_group_algebra(Z3_TABLE, Z3_NAMES, field=QQ)
    s = build_yd_system(b, [m], "yd")
    rep = verify_cybe(s)
    elapsed = time.monotonic() - start
    ok = rep.passed and len(rep.checks) == 10 and elapsed < 10.0
    assert report(2, ok, f"kZ/3 YD system: all 10 cYBE instances exact ({elapsed:.2f}s)")


def test_acceptance_2_flip_perturbation_fails_the_mixed_instance():
    # The flip in sigma_{H,M} = ring_braiding(Delta_H, lam_M) is the trivial
    # action eps(h)m.  Over a commutative base every comodule with the
    # trivial action is YD (compatibility reduces to h m_(-1) = m_(-1) h), so
    # the flip cannot break any cYBE instance there; for the regular kZ/3
    # module sigma_{H,M} is the flip already.  The perturbation that must be
    # detected is one that breaks YD compatibility: the left-regular action
    # h.m = hm against the grading coaction m -> m (x) m.  (On a
    # noncommutative base the flip itself is a real break; see
    # test_systems.test_flip_perturbation_detected_on_s3.)
    b = group_algebra(Z3_TABLE, Z3_NAMES, field=QQ)
    m = regular_yd_group_algebra(Z3_TABLE, Z3_NAMES, field=QQ)
    s = build_yd_system(b, [m], "yd")
    the_flip = flip(s.space(1), s.space(2), QQ)
    assert s.sigma[(1, 2)].matrix == the_flip.matrix
    assert verify_cybe(s.with_sigma(1, 2, the_flip)).passed

    lam_reg = LinMap((b.space, m.space), (m.space,), b.mu.matrix)
    rep = verify_cybe(s.with_sigma(1, 2, ring_braiding(b.delta, lam_reg, QQ)))
    detected = rep["cYBE(1,2,3)"].witness is not None
    localised = [c.name for c in rep.checks if not c.passed] == ["cYBE(1,2,3)"]
    oracle = check_yd(YDModule(b, m.space, lam_reg, m.delta), "yd")
    oracle_agrees = [c.name for c in oracle.checks if not c.passed] == ["yd_compatibility"]
    ok = detected and localised and oracle_agrees
    assert report(2, ok, "left-regular perturbation of sigma_{H,M} detected at cYBE(1,2,3) on kZ/3")


def test_acceptance_3_precision_equivalences():
    start = time.monotonic()
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=GF(5))
    base = yd_base(b)
    rng = random.Random(20240)
    ok = True
    for _trial in range(100):
        rows = precision_harness(random_precision_data(b, 2, rng), base)
        for row in rows:
            ok &= row["side"] and (row["cybe"] == row["axiom"])
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    assert report(3, ok, f"100 random trials x 6 rows: cYBE bool == axiom bool ({elapsed:.2f}s)")


def test_acceptance_4_antipode_invertibility_duality():
    ok = True
    for b, expect in (
        (group_algebra(Z2_TABLE, Z2_NAMES), True),
        (group_algebra(S3_TABLE, S3_NAMES), True),
        (monoid_algebra([[0, 1], [1, 1]]), False),
    ):
        s = build_yd_system(b, [], "yd")
        inv = invertibility_report(s)[(1, 2)]
        ok &= inv["invertible"] == expect
        ok &= (solve_antipode(b) is not None) == expect
        if not expect:
            ok &= inv["rank"] < inv["size"]
    assert report(4, ok, "sigma_{H,H*} invertible iff the antipode exists (kZ/2, kS3, monoid)")


def test_acceptance_5_r_matrix_chart():
    b = group_algebra(S3_TABLE, S3_NAMES)
    r = unit_r_matrix(b)
    ok = check_r(r, "weak").passed and check_r(r, "strong").passed
    mod = left_regular_module(b)
    ydm = yd_from_r(mod, r)
    ok &= check_yd(ydm, "yd").passed
    # c_R equals the YD braiding of the induced modules, entrywise
    c_r, _ = r_braiding(mod, mod, r)
    c_yd, _ = yd_braiding(ydm, ydm, "standard")
    ok &= c_r.matrix == c_yd.matrix
    filled = antipode_inverse_r(r)
    ok &= verify_r_inverse(filled)
    rep = check_r(unit_r_matrix(dual_bialgebra(b)), "weak")
    ok &= not rep["weak_3_R_delta"].passed and rep["weak_3_R_delta"].witness is not None
    ok &= rep["weak_1_delta_R"].passed and rep["weak_2_eps_R"].passed
    assert report(5, ok, "R-matrix chart on kS3 (+ axiom-3 witness on the dual)")


def test_acceptance_6_homology_identities():
    start = time.monotonic()
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    triv = unit_yd(b)
    ok = True
    for line in (1, 2, 3, 4):
        cx = coefficient_complex(b, m, triv, line, 4)
        rep = verify_bicomplex(cx)
        ok &= rep.passed
    pis = pi_commutation_suite(b, m, triv, 3)
    ok &= pis.passed and len(pis.checks) == 6
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    assert report(6, ok, f"four bidifferential lines at n+m<=4 + 6 commuting pairs ({elapsed:.2f}s)")


def test_acceptance_7_dual_path_oracle():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    s = build_yd_system(b, [m], "yd")
    ch_h, ch_hs = eps_characters(s)
    gcx = generic_differentials(s, ch_hs, ch_h, 4)
    ycx = yd_bidifferential(b, m, 3)
    ok = True
    for n in range(4):
        for mm in range(4 - n):
            if mm >= 1:
                ok &= gcx.d_blocks[(n, 1, mm), (n, 1, mm - 1)] == ycx.d_blocks[(n, mm), (n, mm - 1)]
            if n >= 1:
                ok &= gcx.dprime_blocks[(n, 1, mm), (n - 1, 1, mm)] == ycx.dprime_blocks[(n, mm), (n - 1, mm)]
    assert report(7, ok, "generic engine == hand-coded Sweedler differentials, entrywise (n+m<=3)")


def test_acceptance_8_homology_output_sanity():
    F = GF(5)
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=F)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES, field=F)
    triv = unit_yd(b)
    ok = True
    # the window Euler identity (chain sum corrected by the rank entering
    # the window boundary) holds on every computed report
    reports = []
    for line in (1, 2, 3, 4):
        cx = coefficient_complex(b, m, triv, line, 3)
        for which in ("d", "d_prime", "total"):
            res = homology_dims(cx, which)
            reports.append(res)
            ok &= res["euler_identity_holds"]
            # and the uncorrected form whenever the boundary vanishes
            if res["boundary_rank"] == 0:
                ok &= res["euler_homology"] == res["euler_chain"]
    # basis-change invariance of the dimension tables: 10 random invertible
    # changes of basis on M over F5
    base = homology_dims(coefficient_complex(b, m, triv, 4, 3), "d")
    base_dims = [r["homology_dim"] for r in base["rows"]]
    rng = random.Random(8)
    done = 0
    while done < 10:
        p = SparseMatrix.from_rows(F, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
        if matrix_inverse(p) is None:
            continue
        done += 1
        mc = change_of_basis(m, p)
        res = homology_dims(coefficient_complex(b, mc, triv, 4, 3), "d")
        ok &= [r["homology_dim"] for r in res["rows"]] == base_dims
        ok &= res["euler_identity_holds"]
    assert report(8, ok, f"Euler identity on {len(reports)} reports + basis-change invariance (10 trials)")


def test_acceptance_9_gluing():
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    m1 = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    m2 = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    s = build_yd_system(b, [m1, m2], "yd")
    g = glue(s, 2, 3)
    ok = verify_cybe(g).passed
    # the glued braiding with H is the rotated YD braiding of the twisted
    # tensor-product module, which this simultaneously certifies
    tw = tensor_yd(m1, m2, "twisted")
    ok &= check_yd(tw, "yd").passed
    ok &= g.sigma[(1, 2)].matrix == ring_braiding(b.delta, tw.lam, QQ).matrix
    ok &= g.sigma[(2, 3)].matrix == ring_braiding(tw.delta, dual_action(b, dual_bialgebra(b)), QQ).matrix
    assert report(9, ok, "glued (H, M1(x)M2, H*) passes cYBE and matches the twisted tensor structure")
