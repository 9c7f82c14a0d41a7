"""File formats: round trips, diagnostics; CLI workflows and exit codes."""

import json
import os

import pytest

from braidalg import io as bio
from braidalg.cli import main
from braidalg.hopf import check_bialgebra, cyclic_group_table, dual_bialgebra, group_algebra, s3_table
from braidalg.linalg import GF
from braidalg.systems import build_yd_system
from braidalg.yd import YDModuleAlgebra, dual_yd, formal_unit_extend, regular_yd_group_algebra

S3_TABLE, S3_NAMES = s3_table()
Z2_TABLE, Z2_NAMES = cyclic_group_table(2)


def test_bialgebra_round_trip_is_byte_identical(tmp_path):
    b = group_algebra(S3_TABLE, S3_NAMES)
    p1 = tmp_path / "s3.json"
    bio.save_bialgebra(p1, b)
    loaded = bio.load_bialgebra(p1)
    assert loaded.same_structure(b) and loaded.antipode.matrix == b.antipode.matrix
    p2 = tmp_path / "s3_again.json"
    bio.save_bialgebra(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_yd_module_round_trip(tmp_path):
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=GF(5))
    bio.save_bialgebra(tmp_path / "h.json", b)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES, field=GF(5))
    bio.save_yd_module(tmp_path / "m.json", m, "h.json")
    loaded = bio.load_yd_module(tmp_path / "m.json")
    assert loaded.lam.matrix == m.lam.matrix and loaded.delta.matrix == m.delta.matrix
    # module algebras round-trip through the optional mul/unit fields
    ext = formal_unit_extend(m)
    bio.save_yd_module(tmp_path / "ma.json", ext, "h.json")
    loaded = bio.load_yd_module(tmp_path / "ma.json")
    assert isinstance(loaded, YDModuleAlgebra)
    assert loaded.mu.matrix == ext.mu.matrix and loaded.nu.matrix == ext.nu.matrix


def test_malformed_fraction_names_the_field(tmp_path):
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    data = bio.bialgebra_to_json(b)
    data["mul"][0][1][0] = "1/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(bio.SchemaError, match=r"mul\[0\]\[1\]\[0\]"):
        bio.load_bialgebra(path)


def test_fp_coefficient_normalized_with_warning(tmp_path):
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=GF(5))
    data = bio.bialgebra_to_json(b)
    data["counit"][1] = 6  # == 1 mod 5
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(data))
    with pytest.warns(UserWarning, match="normalised modulo 5"):
        loaded = bio.load_bialgebra(path)
    assert loaded.eps.matrix.get(0, 1) == 1


def test_missing_keys_and_bad_field(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"field": {"kind": "Q"}, "dim": 1}))
    with pytest.raises(bio.SchemaError, match="missing key"):
        bio.load_bialgebra(path)
    full = {
        "field": {"kind": "Fp", "p": 4},
        "dim": 1,
        "mul": [[[1]]],
        "unit": [1],
        "comul": [[[1]]],
        "counit": [1],
    }
    path.write_text(json.dumps(full))
    with pytest.raises(bio.SchemaError, match="prime"):
        bio.load_bialgebra(path)


def test_system_round_trip(tmp_path):
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    m = regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)
    s = build_yd_system(b, [m], "yd")
    p = tmp_path / "sys.json"
    bio.save_system(p, s)
    loaded = bio.load_system(p)
    assert loaded.rank == 3
    for key, sig in s.sigma.items():
        assert loaded.sigma[key].matrix == sig.matrix
    p2 = tmp_path / "sys2.json"
    bio.save_system(p2, loaded)
    assert p.read_bytes() == p2.read_bytes()


def test_structure_constant_layouts_follow_the_schema(tmp_path):
    """Each cube field, read from the file, against the schema in the io docstring.

    Round trips cannot see a saver and its loader that swap the same two cube
    indices.  S3 is not abelian, so such a swap changes the S3 fields below.
    """
    n = len(S3_TABLE)
    e = next(x for x in range(n) if all(S3_TABLE[x][a] == a for a in range(n)))
    inv = [next(y for y in range(n) if S3_TABLE[x][y] == e) for x in range(n)]

    def conj(g, h):
        return S3_TABLE[S3_TABLE[g][h]][inv[g]]

    def cube(shape, pred):
        da, db, dc = shape
        return [[["1" if pred(a, b, c) else "0" for c in range(dc)] for b in range(db)] for a in range(da)]

    def saved(name, obj, base=None):
        path = tmp_path / name
        if base is None:
            bio.save_bialgebra(path, obj)
        else:
            bio.save_yd_module(path, obj, base)
        return json.loads(path.read_text())

    b = group_algebra(S3_TABLE, S3_NAMES)
    m = regular_yd_group_algebra(b)
    s6 = (n, n, n)
    # mul[i][j][k]: coefficient of k in i j
    assert saved("s3.json", b)["mul"] == cube(s6, lambda i, j, k: k == S3_TABLE[i][j])
    # action[g][h][k]: coefficient of k in g.h = g h g^-1
    assert saved("reg.json", m, "s3.json")["action"] == cube(s6, lambda g, h, k: k == conj(g, h))
    # comul[k][x][y] of H*: coefficient of x* (x) y* in Delta(k*), [y x == k] under the order-reversing pairing
    assert saved("dual.json", dual_bialgebra(b))["comul"] == cube(s6, lambda k, x, y: S3_TABLE[y][x] == k)
    # coaction[k][x][g] of N*: coefficient of x* (x) g* in delta(k*), i.e. [g x g^-1 == k]
    dual_reg = saved("dual_reg.json", dual_yd(m), "dual.json")
    assert dual_reg["coaction"] == cube(s6, lambda k, x, g: conj(g, x) == k)
    # mul[a][b][c] of k (+) M: the formal unit 0 is two-sided, M.M = 0
    s7 = (n + 1, n + 1, n + 1)
    ext = saved("ext.json", formal_unit_extend(m), "s3.json")
    assert ext["mul"] == cube(s7, lambda a, c, d: (a == 0 and c == d) or (c == 0 and a == d))


# -- CLI ------------------------------------------------------------------------


def run(*argv):
    return main(list(argv))


def test_cli_gen_check_pipeline(tmp_path, capsys):
    h = str(tmp_path / "s3.json")
    assert run("gen", "group-algebra", "--group", "S3", "-o", h) == 0
    assert run("check", "hopf", h) == 0
    out = capsys.readouterr().out
    assert "PASS antipode_left" in out


def test_cli_custom_table_and_field(tmp_path):
    table_file = str(tmp_path / "table.json")
    with open(table_file, "w") as fh:
        json.dump({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "names": ["e", "g", "g2"]}, fh)
    h = str(tmp_path / "z3.json")
    assert run("gen", "group-algebra", "--group", "table", table_file, "--field", "Fp:7", "-o", h) == 0
    b = bio.load_bialgebra(h)
    assert b.field == GF(7) and check_bialgebra(b, "hopf").passed


def test_cli_gen_rejects_non_group(tmp_path):
    table_file = str(tmp_path / "table.json")
    with open(table_file, "w") as fh:
        json.dump({"table": [[0, 1], [1, 1]]}, fh)
    assert run("gen", "group-algebra", "--group", "table", table_file, "-o", str(tmp_path / "x.json")) == 2


def test_cli_check_failure_exit_code(tmp_path, capsys):
    h = str(tmp_path / "s3.json")
    hd = str(tmp_path / "s3_dual.json")
    r = str(tmp_path / "r.json")
    assert run("gen", "group-algebra", "--group", "S3", "-o", h) == 0
    assert run("dual", "bialgebra", h, "-o", hd) == 0
    # nu (x) nu over the dual: the unit of (kS3)* is eps, i.e. the all-ones vector
    with open(r, "w") as fh:
        json.dump({"bialgebra": "s3_dual.json", "vector": ["1"] * 36}, fh)
    assert run("check", "rmatrix", "--level", "weak", r) == 1
    out = capsys.readouterr().out
    assert "FAIL weak_3_R_delta" in out and "input basis" in out
    assert run("check", "rmatrix", "--level", "quantum", r) == 0


def test_cli_missing_file_is_input_error(tmp_path, capsys):
    assert run("check", "hopf", str(tmp_path / "nope.json")) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_yd_pipeline_and_system(tmp_path):
    h = str(tmp_path / "z2.json")
    m = str(tmp_path / "m.json")
    t = str(tmp_path / "t.json")
    sysf = str(tmp_path / "sys.json")
    glued = str(tmp_path / "glued.json")
    assert run("gen", "group-algebra", "--group", "Z2", "-o", h) == 0
    assert run("gen", "regular-yd", "--hopf", h, "-o", m) == 0
    assert run("gen", "trivial-yd", "--hopf", h, "-o", t) == 0
    assert run("check", "yd", m, t) == 0
    assert run("build", "yd-system", "--hopf", h, "--mod", m, "--mod", t, "--variant", "yd", "-o", sysf) == 0
    assert run("verify", "cybe", sysf) == 0
    assert run("glue", "--system", sysf, "--lo", "2", "--hi", "3", "-o", glued) == 0
    assert run("verify", "cybe", glued) == 0


def test_cli_verify_morphism(tmp_path):
    h = str(tmp_path / "z2.json")
    m = str(tmp_path / "m.json")
    sysf = str(tmp_path / "sys.json")
    maps = str(tmp_path / "maps.json")
    run("gen", "group-algebra", "--group", "Z2", "-o", h)
    run("gen", "regular-yd", "--hopf", h, "-o", m)
    run("build", "yd-system", "--hopf", h, "--mod", m, "--variant", "yd", "-o", sysf)
    ident = [["1", "0"], ["0", "1"]]
    with open(maps, "w") as fh:
        json.dump({"maps": [ident, ident, ident]}, fh)
    assert run("verify", "morphism", "--from", sysf, "--to", sysf, "--maps", maps) == 0
    # a map that breaks the grading on M fails
    swap = [["0", "1"], ["1", "0"]]
    with open(maps, "w") as fh:
        json.dump({"maps": [ident, swap, ident]}, fh)
    assert run("verify", "morphism", "--from", sysf, "--to", sysf, "--maps", maps) == 1


def test_cli_dual_yd(tmp_path):
    h = str(tmp_path / "z2.json")
    m = str(tmp_path / "m.json")
    dm = str(tmp_path / "m_dual.json")
    run("gen", "group-algebra", "--group", "Z2", "-o", h)
    run("gen", "regular-yd", "--hopf", h, "-o", m)
    assert run("dual", "yd", m, "-o", dm) == 0
    assert os.path.exists(str(tmp_path / "m_dual_base.json"))
    assert run("check", "yd", dm) == 0


def test_cli_rmatrix_flow(tmp_path):
    h = str(tmp_path / "z3.json")
    m = str(tmp_path / "mod.json")
    r = str(tmp_path / "r.json")
    out = str(tmp_path / "yd.json")
    rinv = str(tmp_path / "r_inv.json")
    run("gen", "group-algebra", "--group", "Z3", "-o", h)
    b = bio.load_bialgebra(h)
    from braidalg.yd import left_regular_module

    bio.save_yd_module(m, left_regular_module(b), "z3.json")
    with open(r, "w") as fh:
        json.dump({"bialgebra": "z3.json", "vector": ["1"] + ["0"] * 8}, fh)
    assert run("check", "rmatrix", "--level", "strong", r) == 0
    assert run("rmatrix", "coaction", "--module", m, "--r", r, "-o", out) == 0
    assert run("check", "yd", out) == 0
    assert run("rmatrix", "inverse", "--r", r, "-o", rinv) == 0
    loaded = bio.load_rmatrix(rinv)
    assert loaded.inverse is not None


def test_cli_rmatrix_inverse_fails_without_antipode(tmp_path, capsys):
    from braidalg.hopf import monoid_algebra

    h = str(tmp_path / "mon.json")
    bio.save_bialgebra(h, monoid_algebra([[0, 1], [1, 1]]))
    r = str(tmp_path / "r.json")
    with open(r, "w") as fh:
        json.dump({"bialgebra": "mon.json", "vector": ["1", "0", "0", "0"]}, fh)
    assert run("rmatrix", "inverse", "--r", r, "-o", str(tmp_path / "out.json")) == 1
    assert "no antipode" in capsys.readouterr().out


def test_cli_harness_precision(tmp_path, capsys):
    h = str(tmp_path / "z2.json")
    assert run("gen", "group-algebra", "--group", "Z2", "--field", "Fp:5", "-o", h) == 0
    assert run("harness", "precision", "--hopf", h, "--dim", "2", "--trials", "5", "--seed", "3") == 0
    out = capsys.readouterr().out
    assert "0 equivalence violations" in out


def test_cli_homology_report_deterministic(tmp_path):
    h = str(tmp_path / "z2.json")
    m = str(tmp_path / "m.json")
    t = str(tmp_path / "t.json")
    rep1 = str(tmp_path / "rep1.json")
    rep2 = str(tmp_path / "rep2.json")
    run("gen", "group-algebra", "--group", "Z2", "-o", h)
    run("gen", "regular-yd", "--hopf", h, "-o", m)
    run("gen", "trivial-yd", "--hopf", h, "-o", t)
    code = run("homology", "--hopf", h, "--mod", m, "--coeff", t, "--line", "4", "--max-degree", "4", "-o", rep1)
    assert code == 0
    run("homology", "--hopf", h, "--mod", m, "--coeff", t, "--line", "4", "--max-degree", "4", "-o", rep2)
    assert open(rep1, "rb").read() == open(rep2, "rb").read()
    report = json.load(open(rep1))
    assert report["identities"] == {"d_squared": True, "d_prime_squared": True, "anticommute": True}
    assert [row["homology_dim"] for row in report["degrees"]] == [2, 4, 8, 16]
    assert report["euler"]["identity_holds"]
    # cohomology flag
    rep3 = str(tmp_path / "rep3.json")
    assert (
        run("homology", "--hopf", h, "--mod", m, "--coeff", t, "--line", "4", "--max-degree", "3", "--cohomology", "-o", rep3)
        == 0
    )


def test_cli_build_rejects_mismatched_base(tmp_path, capsys):
    h2 = str(tmp_path / "z2.json")
    h3 = str(tmp_path / "z3.json")
    m = str(tmp_path / "m.json")
    run("gen", "group-algebra", "--group", "Z2", "-o", h2)
    run("gen", "group-algebra", "--group", "Z3", "-o", h3)
    run("gen", "regular-yd", "--hopf", h2, "-o", m)
    assert run("build", "yd-system", "--hopf", h3, "--mod", m, "--variant", "yd", "-o", str(tmp_path / "s.json")) == 2


def test_gen_outputs_reverify(tmp_path):
    for group in ("Z2", "Z3", "S3", "D4"):
        h = str(tmp_path / f"{group}.json")
        assert run("gen", "group-algebra", "--group", group, "-o", h) == 0
        assert run("check", "hopf", h) == 0


def test_cli_morphism_rank_mismatch_is_input_error(tmp_path):
    h = str(tmp_path / "z2.json")
    m = str(tmp_path / "m.json")
    s2 = str(tmp_path / "s2.json")
    s3 = str(tmp_path / "s3.json")
    run("gen", "group-algebra", "--group", "Z2", "-o", h)
    run("gen", "regular-yd", "--hopf", h, "-o", m)
    run("build", "yd-system", "--hopf", h, "--variant", "yd", "-o", s2)
    run("build", "yd-system", "--hopf", h, "--mod", m, "--variant", "yd", "-o", s3)
    maps = str(tmp_path / "maps.json")
    with open(maps, "w") as fh:
        json.dump({"maps": []}, fh)
    assert run("verify", "morphism", "--from", s2, "--to", s3, "--maps", maps) == 2


def test_cli_homology_needs_full_modules(tmp_path):
    h = str(tmp_path / "z2.json")
    m = str(tmp_path / "mod.json")
    t = str(tmp_path / "t.json")
    run("gen", "group-algebra", "--group", "Z2", "-o", h)
    run("gen", "trivial-yd", "--hopf", h, "-o", t)
    b = bio.load_bialgebra(h)
    from braidalg.yd import left_regular_module

    bio.save_yd_module(m, left_regular_module(b), "z2.json")  # no coaction
    code = run("homology", "--hopf", h, "--mod", m, "--coeff", t, "--line", "1", "--max-degree", "2", "-o", str(tmp_path / "r.json"))
    assert code == 2

