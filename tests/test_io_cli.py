"""File formats: round trips, diagnostics; CLI workflows and exit codes."""

import hashlib
import json
import os
import shlex
import tempfile
from fractions import Fraction
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings, strategies as st

from braidalg import cli, io as bio, systems
from braidalg.cli import build_parser, main
from braidalg.hopf import Bialgebra, check_bialgebra, cyclic_group_table, dual_bialgebra, group_algebra, s3_table
from braidalg.linalg import GF, QQ
from braidalg.rmatrix import RMatrix, unit_r_matrix
from braidalg.systems import BraidedSystem, build_yd_system
from braidalg.tensor import DimensionMismatch, Space, from_terms
from braidalg.yd import YDModule, YDModuleAlgebra, dual_yd, formal_unit_extend, regular_yd_group_algebra

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


def test_fp_string_coefficient_normalized_with_warning(tmp_path):
    # a string outside [0, p) warns as the int does, once per occurrence
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=GF(5))
    data = bio.bialgebra_to_json(b)
    data["counit"] = ["6", "6"]  # == 1 mod 5
    data["mul"][0][0][0] = "-4"
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(data))
    with pytest.warns(UserWarning) as caught:
        loaded = bio.load_bialgebra(path)
    assert [str(w.message) for w in caught] == [
        f"{path}.mul[0][0][0]: coefficient -4 normalised modulo 5",
        f"{path}.counit[0]: coefficient 6 normalised modulo 5",
        f"{path}.counit[1]: coefficient 6 normalised modulo 5",
    ]
    assert loaded.same_structure(b)


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
    for p in (4, None, [5]):
        full["field"]["p"] = p
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
    assert repr(s) == repr(loaded) == "BraidedSystem(H,H_yd,H*)"
    for key, sig in s.sigma.items():
        assert loaded.sigma[key].matrix == sig.matrix
    p2 = tmp_path / "sys2.json"
    bio.save_system(p2, loaded)
    assert p.read_bytes() == p2.read_bytes()


# -- random files: save(load(file)) is byte-identical -----------------------------

ROUND_TRIP_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)
ROUND_TRIP_FIELDS = (QQ, GF(2), GF(5), GF(2**61 - 1))


def raw_scalars(field):
    """Exact values to reduce: over Q ints and fractions of either sign, over F_p unreduced ints."""
    if field.p is None:
        big = st.integers(-(10**20), 10**20)
        return st.one_of(st.integers(-9, 9), big, st.builds(Fraction, big, st.integers(1, 10**20)))
    return st.integers(-field.p, 2 * field.p)


@st.composite
def random_maps(draw, field, domain, codomain):
    index = lambda spaces: st.tuples(*(st.integers(0, s.dim - 1) for s in spaces))
    terms = draw(st.lists(st.tuples(index(codomain), index(domain), raw_scalars(field)), max_size=8))
    return from_terms(domain, codomain, terms, field)


@st.composite
def random_bialgebras(draw, field):
    d = draw(st.integers(1, 3))
    h = Space(d, "H", draw(st.sampled_from([None, tuple(f"x{i}" for i in range(d))])))
    shapes = [((h, h), (h,)), ((), (h,)), ((h,), (h, h)), ((h,), ())]
    maps = [draw(random_maps(field, dom, cod)) for dom, cod in shapes]
    return Bialgebra(h, *maps, draw(st.one_of(st.none(), random_maps(field, (h,), (h,)))))


@st.composite
def random_modules(draw, h):
    f, m = h.field, Space(draw(st.integers(1, 3)), "M")
    lam = draw(random_maps(f, (h.space, m), (m,)))
    delta = draw(st.one_of(st.none(), random_maps(f, (m,), (m, h.space))))
    if draw(st.booleans()):
        mu, nu = draw(random_maps(f, (m, m), (m,))), draw(random_maps(f, (), (m,)))
        return YDModuleAlgebra(h, m, lam, delta, mu=mu, nu=nu)
    return YDModule(h, m, lam, delta)


@st.composite
def random_rmatrices(draw, h):
    hh = (h.space, h.space)
    inverse = draw(st.one_of(st.none(), random_maps(h.field, (), hh)))
    return RMatrix(h, draw(random_maps(h.field, (), hh)), inverse)


@st.composite
def random_systems(draw, field):
    comps = tuple(Space(draw(st.integers(1, 2)), f"V{t}") for t in range(draw(st.integers(1, 3))))
    r = len(comps)
    sigma = {
        (i, j): draw(random_maps(field, (comps[i - 1], comps[j - 1]), (comps[j - 1], comps[i - 1])))
        for i in range(1, r + 1)
        for j in range(i, r + 1)
    }
    return BraidedSystem(comps, sigma, field)


@pytest.mark.parametrize("kind", ["bialgebra", "module", "rmatrix", "system"])
@ROUND_TRIP_SETTINGS
@given(data=st.data())
def test_saving_a_loaded_random_file_is_byte_identical(kind, data):
    field = data.draw(st.sampled_from(ROUND_TRIP_FIELDS))
    with tempfile.TemporaryDirectory() as tmp:
        first, again = os.path.join(tmp, "first.json"), os.path.join(tmp, "again.json")
        if kind == "system":
            bio.save_system(first, data.draw(random_systems(field)))
            bio.save_system(again, bio.load_system(first))
        else:
            h = data.draw(random_bialgebras(field))
            bio.save_bialgebra(os.path.join(tmp, "h.json"), h)
            if kind == "bialgebra":
                bio.save_bialgebra(first, h)
                bio.save_bialgebra(again, bio.load_bialgebra(first))
            elif kind == "module":
                bio.save_yd_module(first, data.draw(random_modules(h)), "h.json")
                bio.save_yd_module(again, bio.load_yd_module(first), "h.json")
            else:
                bio.save_rmatrix(first, data.draw(random_rmatrices(h)), "h.json")
                bio.save_rmatrix(again, bio.load_rmatrix(first), "h.json")
        with open(first, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()


@ROUND_TRIP_SETTINGS
@given(st.sampled_from(ROUND_TRIP_FIELDS).flatmap(lambda f: st.tuples(st.just(f), raw_scalars(f))))
def test_every_canonical_scalar_survives_to_json_and_parse(case):
    field, raw = case
    x = field.reduce(raw)
    got = field.parse(json.loads(json.dumps(field.to_json(x))))
    assert got == x and type(got) is type(x)


LEGACY_SYSTEM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "legacy_system_z2_f5.json")
LEGACY_CYBE_STDOUT = "cYBE for BraidedSystem(H,M,H*)\n" + "".join(
    f"PASS cYBE({i},{j},{k})\n" for i in range(1, 4) for j in range(i, 4) for k in range(j, 4)
)


def test_legacy_dense_system_file_loads_like_the_sparse_one(tmp_path, capsys):
    """A dense-rows file (kZ/2 over F_5, rank 3) loads to the sigmas of the sparse file of the same system."""
    h, m, sysf = (str(tmp_path / name) for name in ("z2.json", "m.json", "sys.json"))
    assert run("gen", "group-algebra", "--group", "Z2", "--field", "Fp:5", "-o", h) == 0
    assert run("gen", "regular-yd", "--hopf", h, "-o", m) == 0
    assert run("build", "yd-system", "--hopf", h, "--mod", m, "--variant", "yd", "-o", sysf) == 0
    sparse = json.loads((tmp_path / "sys.json").read_text())
    assert all(set(block) == {"entries"} for block in sparse["sigma"].values())
    legacy, new = bio.load_system(LEGACY_SYSTEM), bio.load_system(sysf)
    assert [(c.dim, c.label) for c in legacy.components] == [(c.dim, c.label) for c in new.components]
    assert legacy.sigma.keys() == new.sigma.keys()
    for key, sig in new.sigma.items():
        assert legacy.sigma[key].matrix == sig.matrix
    capsys.readouterr()
    assert run("verify", "cybe", LEGACY_SYSTEM) == 0
    assert capsys.readouterr().out == LEGACY_CYBE_STDOUT
    resaved = tmp_path / "resaved.json"
    bio.save_system(resaved, legacy)
    assert resaved.read_text() == (tmp_path / "sys.json").read_text()


@pytest.mark.parametrize(
    "bad_entry, message",
    [
        ([4, 0, 1], "int row and col"),  # sigma[1,2] is 4 x 4
        ([0, -1, 1], "int row and col"),
        ([0, "0", 1], "int row and col"),
        ([0.0, 0, 1], "int row and col"),
        ([0, 0], "int row and col"),
        ("dup", "duplicate entry"),
        ([0, 1, "x"], "malformed F_5 scalar"),
    ],
)
def test_sparse_sigma_entries_are_schema_checked(tmp_path, capsys, bad_entry, message):
    b = group_algebra(Z2_TABLE, Z2_NAMES, field=GF(5))
    data = bio.system_to_json(build_yd_system(b, [regular_yd_group_algebra(Z2_TABLE, Z2_NAMES, field=GF(5))], "yd"))
    entries = data["sigma"]["1,2"]["entries"]
    entries.append(list(entries[0]) if bad_entry == "dup" else bad_entry)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(bio.SchemaError, match=message) as err:
        bio.load_system(path)
    assert f"sigma[1,2].entries[{len(entries) - 1}]" in str(err.value)
    assert run("verify", "cybe", str(path)) == 2
    assert "sigma[1,2]" in capsys.readouterr().err


def test_sigma_must_be_rows_or_entries(tmp_path):
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    data = bio.system_to_json(build_yd_system(b, [], "yd"))
    data["sigma"]["1,2"] = {"rows": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(bio.SchemaError, match=r"sigma\[1,2\]: expected dense rows or an object"):
        bio.load_system(path)


@pytest.mark.parametrize(
    "path, value, location",
    [
        (("components", 0, "dim"), 0, "components[0].dim"),
        (("components", 0, "dim"), "2", "components[0].dim"),
        (("components", 0, "label"), 3, "components[0].label"),
        (("components", 0), 2, "components[0]"),
        (("components",), 3, "components"),
        (("sigma",), [], "sigma"),
    ],
    ids=["dim-zero", "dim-string", "label-number", "component-number", "components-number", "sigma-list"],
)
def test_malformed_system_file_is_an_input_error(tmp_path, capsys, path, value, location):
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    data = bio.system_to_json(build_yd_system(b, [regular_yd_group_algebra(Z2_TABLE, Z2_NAMES)], "yd"))
    reduce(getitem, path[:-1], data)[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run("verify", "cybe", str(bad)) == 2
    assert f"bad.json.{location}: expected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("basis", ["a", "a"], "basis: expected 2 distinct names"),
        ("bialgebra", 5, "bialgebra: expected a file path"),
        ("dim", True, "dim: expected a positive integer"),
    ],
    ids=["basis-repeated", "bialgebra-number", "dim-true"],
)
def test_malformed_yd_module_file_is_an_input_error(tmp_path, capsys, key, value, message):
    h, m = str(tmp_path / "z2.json"), tmp_path / "m.json"
    assert run("gen", "group-algebra", "--group", "Z2", "-o", h) == 0
    assert run("gen", "regular-yd", "--hopf", h, "-o", str(m)) == 0
    data = json.loads(m.read_text())
    data[key] = value
    m.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("check", "yd", str(m)) == 2
    assert f"m.json.{message}" in capsys.readouterr().err


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


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_commands(text):
    """The argument lists of the ``braidalg`` lines in the first code block under "## Command line",
    with continuation lines joined and ``#`` comments stripped."""
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```", 2)[1]
    argvs = (shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines())
    return [argv[1:] for argv in argvs if argv[:1] == ["braidalg"]]


def test_readme_commands_joins_continuations_and_strips_comments():
    text = "## Other\n```sh\nbraidalg skipped\n```\n## Command line\n\n```sh\nbraidalg a --b c \\\n    --d e  # f\npython x\n```\n"
    assert readme_commands(text) == [["a", "--b", "c", "--d", "e"]]


def test_every_readme_command_parses():
    with open(README) as fh:
        argvs = readme_commands(fh.read())
    assert len(argvs) >= 14
    parser = build_parser()
    for argv in argvs:
        try:
            assert callable(parser.parse_args(argv).func)
        except SystemExit:
            pytest.fail(f"README command does not parse: braidalg {' '.join(argv)}")


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


@pytest.mark.parametrize("name", ["", "Z", "Z0", "A5"])
def test_cli_gen_unknown_stock_group_is_an_input_error(tmp_path, capsys, name):
    out = str(tmp_path / "h.json")
    assert run("gen", "group-algebra", "--group", name, "-o", out) == 2
    assert f"input error: unknown group name {name!r}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "data, location",
    [
        ({"table": 3}, ".table: expected a list of rows"),
        ({"table": [[0, 1], 5]}, ".table[1]: expected a list of 2 integers"),
        ({"table": [[0, 1], [1, "a"]]}, ".table[1][1]: expected an integer"),
        ({"table": [[0, 1], [1, 1.0]]}, ".table[1][1]: expected an integer"),
        ({"table": [[0, True], [True, 0]]}, ".table[0][1]: expected an integer"),
        ({"table": [[0, 1], [1, 0]], "names": 5}, ".names: expected 2 distinct names"),
        ({"table": [[0, 1], [1, 0]], "names": "ab"}, ".names: expected 2 distinct names"),
        ({"table": [[0, 1], [1, 0]], "names": [1, 2]}, ".names: expected 2 distinct names"),
        ({"table": [[0, 1], [1, 0]], "names": ["a", "a"]}, ".names: expected 2 distinct names"),
        (3, ": missing key 'table'"),
    ],
    ids=["table-number", "row-number", "entry-string", "entry-float", "entry-bool",
         "names-number", "names-string", "names-ints", "names-repeated", "file-number"],
)
def test_malformed_group_table_file_is_an_input_error(tmp_path, capsys, data, location):
    table_file = tmp_path / "table.json"
    table_file.write_text(json.dumps(data))
    out = str(tmp_path / "h.json")
    assert run("gen", "group-algebra", "--group", "table", str(table_file), "-o", out) == 2
    assert f"table.json{location}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_gen_regular_yd_on_a_dual_group_algebra(tmp_path):
    h, hd, m = (str(tmp_path / name) for name in ("s3.json", "s3_dual.json", "m.json"))
    assert run("gen", "group-algebra", "--group", "S3", "--field", "Fp:5", "-o", h) == 0
    assert run("dual", "bialgebra", h, "-o", hd) == 0
    assert run("gen", "regular-yd", "--hopf", hd, "-o", m) == 0
    assert run("check", "yd", m) == 0


def test_cli_gen_regular_yd_without_an_antipode_is_an_input_error(tmp_path, capsys):
    from braidalg.hopf import monoid_algebra

    h, out = str(tmp_path / "mon.json"), str(tmp_path / "m.json")
    bio.save_bialgebra(h, monoid_algebra([[0, 1], [1, 1]]))
    assert run("gen", "regular-yd", "--hopf", h, "-o", out) == 2
    assert "mon.json: H has no antipode" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("what", ["regular-yd", "trivial-yd"])
def test_cli_gen_module_takes_no_field(tmp_path, capsys, what):
    h = str(tmp_path / "z2.json")
    assert run("gen", "group-algebra", "--group", "Z2", "--field", "Fp:5", "-o", h) == 0
    with pytest.raises(SystemExit) as exc:
        run("gen", what, "--hopf", h, "--field", "Q", "-o", str(tmp_path / "m.json"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --field" in capsys.readouterr().err


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


@pytest.mark.parametrize("value", [3, [1, 2], "text"], ids=["number", "list", "string"])
@pytest.mark.parametrize(
    "argv",
    [("check", "hopf"), ("check", "yd"), ("check", "rmatrix", "--level", "weak"), ("verify", "cybe")],
    ids=["hopf", "yd", "rmatrix", "cybe"],
)
def test_a_file_that_is_not_a_json_object_is_an_input_error(tmp_path, capsys, argv, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(value))
    assert run(*argv, str(path)) == 2
    err = capsys.readouterr().err
    assert "bad.json: expected a JSON object" in err
    assert "Traceback" not in err


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


def test_cli_rmatrix_coaction_parses_the_base_once(tmp_path, monkeypatch, capsys):
    from braidalg.yd import left_regular_module

    monkeypatch.chdir(tmp_path)
    for name, group in (("z2.json", "Z2"), ("z2_copy.json", "Z2"), ("z3.json", "Z3")):
        run("gen", "group-algebra", "--group", group, "-o", name)
    bio.save_yd_module("m.json", left_regular_module(bio.load_bialgebra("z2.json")), "z2.json")
    for name, base, d in (("r.json", "z2.json", 2), ("r_copy.json", "z2_copy.json", 2), ("r3.json", "z3.json", 3)):
        with open(name, "w") as fh:
            json.dump({"bialgebra": base, "vector": ["1"] + ["0"] * (d * d - 1)}, fh)
    loads = []
    real_load = bio.load_bialgebra
    monkeypatch.setattr(bio, "load_bialgebra", lambda path: loads.append(os.path.basename(path)) or real_load(path))
    argv = ("rmatrix", "coaction", "--module", "m.json", "-o", "yd.json")
    assert run(*argv, "--r", "r.json") == 0
    assert loads == ["z2.json"]
    loads.clear()
    assert run(*argv, "--r", "r_copy.json") == 0
    assert loads == ["z2.json", "z2_copy.json"]
    capsys.readouterr()
    assert run(*argv, "--r", "r3.json") == 2
    assert "module and R-matrix reference different bialgebras" in capsys.readouterr().err


def test_cli_rmatrix_inverse_fails_without_antipode(tmp_path, capsys):
    # like gen regular-yd on the same base: an input error, since there is no check to witness
    from braidalg.hopf import monoid_algebra

    h = str(tmp_path / "mon.json")
    bio.save_bialgebra(h, monoid_algebra([[0, 1], [1, 1]]))
    r = str(tmp_path / "r.json")
    with open(r, "w") as fh:
        json.dump({"bialgebra": "mon.json", "vector": ["1", "0", "0", "0"]}, fh)
    assert run("rmatrix", "inverse", "--r", r, "-o", str(tmp_path / "out.json")) == 2
    assert capsys.readouterr() == ("", f"input error: {r}: no antipode on H\n")
    assert not (tmp_path / "out.json").exists()


def test_cli_rmatrix_inverse_reports_a_failed_inverse_law(tmp_path, capsys):
    # R = 1 (x) 1 + g (x) g on kZ/2 over F_5: (s (x) Id) o R is R itself, and R R = 2 R != 1 (x) 1
    h, r = str(tmp_path / "z2.json"), str(tmp_path / "r.json")
    assert run("gen", "group-algebra", "--group", "Z2", "--field", "Fp:5", "-o", h) == 0
    with open(r, "w") as fh:
        json.dump({"bialgebra": "z2.json", "vector": [1, 0, 0, 1]}, fh)
    capsys.readouterr()
    assert run("rmatrix", "inverse", "--r", r, "-o", str(tmp_path / "out.json")) == 1
    out, err = capsys.readouterr()
    assert out == "FAIL (s (x) Id) o R failed the two-sided inverse law\n"
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "out.json")


def test_cli_harness_precision(tmp_path, capsys):
    h = str(tmp_path / "z2.json")
    assert run("gen", "group-algebra", "--group", "Z2", "--field", "Fp:5", "-o", h) == 0
    assert run("harness", "precision", "--hopf", h, "--dim", "2", "--trials", "5", "--seed", "3") == 0
    out = capsys.readouterr().out
    assert "0 equivalence violations" in out


@pytest.mark.parametrize(
    "group, dim, trials, seed, digest",
    [
        ("Z2", "2", "300", "1", "04938636328a916ea366a186ebae94e05eda75d635e4f8093fb1c160668b4e5b"),
        ("Z2", "3", "100", "7", "3b670f1cfb02d780b375b35cdbcbc768839565351ded146f101484bc2defb7c2"),
        ("S3", "2", "50", "99", "003bb792aab26ba0a354f846c0a1025e7b01d1b6a487da2ce80c8a2c5a019af5"),
    ],
)
def test_cli_harness_precision_stdout_is_pinned(tmp_path, capsys, group, dim, trials, seed, digest):
    """SHA-256 of the whole stdout over F_5: the per-row counts of true axioms pin every cYBE instance."""
    h = str(tmp_path / "h.json")
    assert run("gen", "group-algebra", "--group", group, "--field", "Fp:5", "-o", h) == 0
    capsys.readouterr()
    assert run("harness", "precision", "--hopf", h, "--dim", dim, "--trials", trials, "--seed", seed) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_verify_cybe_and_glue_are_pinned_on_rank_four_s3(tmp_path, monkeypatch, capsys):
    """(kS3, regular M, k, kS3*) over F_5: SHA-256 of the built file, of `verify cybe` stdout and of the
    file `glue --lo 1 --hi 3` writes."""
    monkeypatch.chdir(tmp_path)
    assert run("gen", "group-algebra", "--group", "S3", "--field", "Fp:5", "-o", "s3.json") == 0
    assert run("gen", "regular-yd", "--hopf", "s3.json", "-o", "reg.json") == 0
    assert run("gen", "trivial-yd", "--hopf", "s3.json", "-o", "triv.json") == 0
    build = ("build", "yd-system", "--hopf", "s3.json", "--mod", "reg.json", "--mod", "triv.json")
    assert run(*build, "--variant", "yd", "-o", "sys.json") == 0
    capsys.readouterr()
    assert run("verify", "cybe", "sys.json") == 0
    verify_out = capsys.readouterr().out.encode()
    assert run("glue", "--system", "sys.json", "--lo", "1", "--hi", "3", "-o", "glued.json") == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("sys.json", "glued.json")}
    assert digests == {
        "sys.json": "678e261d8f184837770346f26a86894a1faa81bbcf450b78da8ec6c69c96243b",
        "glued.json": "4571174df719fd7f61339b1c76b2f5fe989e287b239d8cb6f66c84201f354203",
    }
    assert hashlib.sha256(verify_out).hexdigest() == "6a995956d9f112b249dc0e866351bfda406e2882d73adc75ed4a1691c9980a7b"


def test_cli_build_parses_and_checks_a_repeated_module_once(tmp_path, monkeypatch):
    """`build yd-system --mod X --mod X` over kD4/Q parses X once, also when the second name spells the
    same file differently, checks it once, and writes the file it wrote when it did both twice."""
    monkeypatch.chdir(tmp_path)
    assert run("gen", "group-algebra", "--group", "D4", "-o", "d4.json") == 0
    assert run("gen", "regular-yd", "--hopf", "d4.json", "-o", "reg.json") == 0
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(bio, "load_yd_module", counted("load", bio.load_yd_module))
    monkeypatch.setattr(systems, "check_yd", counted("check", systems.check_yd))
    build = ("build", "yd-system", "--hopf", "d4.json", "--mod", "reg.json", "--mod", "./reg.json")
    assert run(*build, "--variant", "yd", "-o", "sys.json") == 0
    assert sorted(calls) == ["check", "load"]
    digest = hashlib.sha256((tmp_path / "sys.json").read_bytes()).hexdigest()
    assert digest == "809bd335896b2d6bb2c0251bf949a435f3a68968545f98886f7a8b0fa5d11cf3"


def test_cli_verify_cybe_failure_is_pinned_on_perturbed_s3(tmp_path, monkeypatch, capsys):
    """(kS3, regular M, kS3*) over F_5 with sigma_{H,M} replaced by the flip: exit 1, and SHA-256 of the
    whole stdout, which carries every failing instance's first-failure witness."""
    monkeypatch.chdir(tmp_path)
    assert run("gen", "group-algebra", "--group", "S3", "--field", "Fp:5", "-o", "s3.json") == 0
    assert run("gen", "regular-yd", "--hopf", "s3.json", "-o", "reg.json") == 0
    assert run("build", "yd-system", "--hopf", "s3.json", "--mod", "reg.json", "--variant", "yd", "-o", "sys.json") == 0
    data = json.loads((tmp_path / "sys.json").read_text())
    data["sigma"]["1,2"] = {"entries": sorted([b * 6 + a, a * 6 + b, 1] for a in range(6) for b in range(6))}
    (tmp_path / "pert.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert run("verify", "cybe", "pert.json") == 1
    out = capsys.readouterr().out
    assert "FAIL cYBE(1,2,3) @ input basis (2, 1, 3) / output basis (0, 1, 2): lhs=0 rhs=1\n" in out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "5a903e20caa06abbcec406e46f2e2998a8eecda65a9e7b22c1c7419741d3923a"


def test_cli_harness_refuses_trials_below_one(tmp_path, capsys):
    h = str(tmp_path / "z2.json")
    assert run("gen", "group-algebra", "--group", "Z2", "--field", "Fp:5", "-o", h) == 0
    capsys.readouterr()
    for trials in ("-3", "0"):
        assert run("harness", "precision", "--hopf", h, "--dim", "2", "--trials", trials, "--seed", "3") == 2
        out, err = capsys.readouterr()
        assert "--trials must be at least 1" in err and "trials," not in out


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


@pytest.mark.parametrize("group, field, max_degree", [("Z2", "Fp:5", "5"), ("S3", "Q", "3")])
def test_cli_cohomology_changes_only_the_report_label(tmp_path, monkeypatch, capsys, group, field, max_degree):
    """Over a field dim H^k = dim H_k: --cohomology sets "cohomology": true and leaves stdout and every
    other field of the line-4 report as they are, for each --which."""
    monkeypatch.chdir(tmp_path)
    assert run("gen", "group-algebra", "--group", group, "--field", field, "-o", "h.json") == 0
    assert run("gen", "regular-yd", "--hopf", "h.json", "-o", "m.json") == 0
    assert run("gen", "trivial-yd", "--hopf", "h.json", "-o", "t.json") == 0
    homology = ("homology", "--hopf", "h.json", "--mod", "m.json", "--coeff", "t.json", "--line", "4")
    for which in ("d", "d_prime", "total"):
        outputs = []
        for flag in ((), ("--cohomology",)):
            capsys.readouterr()
            assert run(*homology, "--max-degree", max_degree, "--which", which, *flag, "-o", "rep.json") == 0
            outputs.append((capsys.readouterr().out, json.loads((tmp_path / "rep.json").read_text())))
        (out, plain), (co_out, co) = outputs
        assert not plain["cohomology"] and co["cohomology"]
        assert co_out == out and co == dict(plain, cohomology=True)


def test_cli_harness_refuses_only_bad_inputs_and_raises_a_fault(tmp_path, monkeypatch, capsys):
    """--dim 0, a base over Q and a unit that is not a basis vector exit 2 with an input error; a
    fault raised inside the harness propagates instead of being reported as one."""
    monkeypatch.chdir(tmp_path)
    assert run("gen", "group-algebra", "--group", "Z2", "--field", "Fp:5", "-o", "z2.json") == 0
    assert run("gen", "group-algebra", "--group", "Z2", "-o", "z2q.json") == 0
    # the functions on Z/2: its unit delta_e + delta_g is not a basis vector
    assert run("dual", "bialgebra", "z2.json", "-o", "dual.json") == 0
    refusals = {
        ("z2.json", "0"): "space 'V' needs dim >= 1",
        ("z2q.json", "2"): "precision sampling is defined over F_p",
        ("dual.json", "2"): "precision sampling needs nu = a basis vector with eps(nu) = 1",
    }
    for (h, dim), message in refusals.items():
        capsys.readouterr()
        assert run("harness", "precision", "--hopf", h, "--dim", dim, "--trials", "3", "--seed", "1") == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"input error: {message}\n"

    def fault(alg, base):
        raise DimensionMismatch("fault inside the harness")

    monkeypatch.setattr(cli, "precision_harness", fault)
    with pytest.raises(DimensionMismatch, match="fault inside the harness"):
        run("harness", "precision", "--hopf", "z2.json", "--dim", "2", "--trials", "3", "--seed", "1")


def test_cli_homology_s3_line4_degree4_matches_the_golden_report(tmp_path):
    # kS3 over Q, regular M, trivial N, line 4: d_3 is 648 x 5184 and the
    # degree-4 Sweedler blocks are the largest the suite builds
    h, m, t = (str(tmp_path / name) for name in ("s3.json", "m.json", "t.json"))
    rep = tmp_path / "report.json"
    run("gen", "group-algebra", "--group", "S3", "--field", "Q", "-o", h)
    run("gen", "regular-yd", "--hopf", h, "-o", m)
    run("gen", "trivial-yd", "--hopf", h, "-o", t)
    code = run("homology", "--hopf", h, "--mod", m, "--coeff", t, "--line", "4", "--max-degree", "4", "-o", str(rep))
    assert code == 0
    golden = os.path.join(os.path.dirname(__file__), "data", "homology_s3_q_line4_deg4.json")
    assert rep.read_bytes() == open(golden, "rb").read()


def test_cli_homology_refuses_max_degree_below_one(tmp_path, capsys):
    h = str(tmp_path / "z2.json")
    t = str(tmp_path / "t.json")
    run("gen", "group-algebra", "--group", "Z2", "-o", h)
    run("gen", "trivial-yd", "--hopf", h, "-o", t)
    capsys.readouterr()
    for degree in ("-1", "0"):
        rep = tmp_path / f"rep{degree}.json"
        code = run("homology", "--hopf", h, "--mod", t, "--coeff", t, "--line", "1", "--max-degree", degree, "-o", str(rep))
        assert code == 2
        out, err = capsys.readouterr()
        assert "--max-degree must be at least 1" in err and "PASS" not in out
        assert not rep.exists()


def test_cli_build_rejects_mismatched_base(tmp_path, capsys):
    h2 = str(tmp_path / "z2.json")
    h3 = str(tmp_path / "z3.json")
    m = str(tmp_path / "m.json")
    run("gen", "group-algebra", "--group", "Z2", "-o", h2)
    run("gen", "group-algebra", "--group", "Z3", "-o", h3)
    run("gen", "regular-yd", "--hopf", h2, "-o", m)
    assert run("build", "yd-system", "--hopf", h3, "--mod", m, "--variant", "yd", "-o", str(tmp_path / "s.json")) == 2


COUNIT_FAILS = "FAIL counit_{} @ input basis (1,) / output basis (1,): lhs=2 rhs=1\n"
YD_FAILS = "FAIL yd_compatibility @ input basis (1, 1) / output basis (0, 0): lhs=0 rhs=1\n"

# a failed required check on kZ/2 over F_5: the exact stdout (exit 1) and no output file.
# bad_h.json has eps(g) = 2; nonyd.json is left multiplication with the grading coaction (a module
# and a comodule, not YD); nonmod.json acts by zero; r_nonweak.json is R = 1 (x) 1 + 1 (x) g
CHECK_FAILURE_RUNS = {
    "build-bad-base": (
        ("build", "yd-system", "--hopf", "bad_h.json", "--variant", "yd", "-o", "out.json"),
        "FAIL base bialgebra fails axioms: " + COUNIT_FAILS.format("left"),
    ),
    "build-non-yd-module": (
        ("build", "yd-system", "--hopf", "h.json", "--mod", "nonyd.json", "--variant", "yd", "-o", "out.json"),
        "FAIL module fails axioms: " + YD_FAILS,
    ),
    "homology-non-yd-M": (
        ("homology", "--hopf", "h.json", "--mod", "nonyd.json", "--coeff", "triv.json", "--line", "4",
         "--max-degree", "3", "-o", "out.json"),
        "FAIL module M fails YD axioms: " + YD_FAILS,
    ),
    "homology-non-yd-N": (
        ("homology", "--hopf", "h.json", "--mod", "reg.json", "--coeff", "nonyd.json", "--line", "1",
         "--max-degree", "2", "-o", "out.json"),
        "FAIL module N fails YD axioms: " + YD_FAILS,
    ),
    "rmatrix-coaction-non-module": (
        ("rmatrix", "coaction", "--module", "nonmod.json", "--r", "r_nonweak.json", "-o", "out.json"),
        "module axioms for M\nPASS action_associativity\n"
        "FAIL action_unit @ input basis (0,) / output basis (0,): lhs=0 rhs=1\n",
    ),
    "rmatrix-coaction-non-weak-r": (
        ("rmatrix", "coaction", "--module", "reg.json", "--r", "r_nonweak.json", "-o", "out.json"),
        "weak R-matrix axioms over H\nPASS base_prerequisites\n"
        "FAIL weak_1_delta_R @ input basis () / output basis (0, 0, 0): lhs=1 rhs=2\n"
        "FAIL weak_2_eps_R @ input basis () / output basis (1,): lhs=1 rhs=0\nPASS weak_3_R_delta\n",
    ),
    "harness-precision-bad-base": (
        ("harness", "precision", "--hopf", "bad_h.json", "--dim", "2", "--trials", "3", "--seed", "1"),
        "bialgebra axioms for H\nPASS associativity\nPASS unit_left\nPASS unit_right\nPASS coassociativity\n"
        + COUNIT_FAILS.format("left")
        + COUNIT_FAILS.format("right")
        + "PASS bialg_delta_mu\nPASS bialg_delta_nu\n"
        "FAIL bialg_eps_mu @ input basis (1, 1) / output basis (): lhs=1 rhs=4\nPASS bialg_eps_nu\n",
    ),
}


def write_failure_inputs(tmp_path):
    """The kZ/2 F_5 files of CHECK_FAILURE_RUNS and INPUT_ERROR_RUNS, written in the current directory."""
    assert run("gen", "group-algebra", "--group", "Z2", "--field", "Fp:5", "-o", "h.json") == 0
    assert run("gen", "regular-yd", "--hopf", "h.json", "-o", "reg.json") == 0
    assert run("gen", "trivial-yd", "--hopf", "h.json", "-o", "triv.json") == 0
    edits = {
        "bad_h.json": ("h.json", "counit", [1, 2]),
        "nonyd.json": ("reg.json", "action", [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
        "nonmod.json": ("reg.json", "action", [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]),
    }
    for name, (source, key, value) in edits.items():
        data = json.loads((tmp_path / source).read_text())
        data[key] = value
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "r_nonweak.json").write_text(json.dumps({"bialgebra": "h.json", "vector": [1, 1, 0, 0]}))
    (tmp_path / "utf16.json").write_bytes("{}".encode("utf-16"))  # starts with the bytes ff fe
    data = json.loads((tmp_path / "h.json").read_text())
    data["counit"][0] = "digits"
    (tmp_path / "big_int.json").write_text(json.dumps(data).replace('"digits"', "9" * 5000))
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    data["field"], data["counit"] = {"kind": "Q"}, ["1e10000000", "1"]
    (tmp_path / "huge_exponent.json").write_text(json.dumps(data))
    # kS3 over Q with eps(e) = 10**4299 (4300 digits, the most str() writes), 10**4300 and 10**-4300
    assert run("gen", "group-algebra", "--group", "S3", "-o", "s3.json") == 0
    for value in ("1e4299", "1e4300", "1e-4300"):
        data = json.loads((tmp_path / "s3.json").read_text())
        data["counit"][0] = value
        (tmp_path / f"s3_{value}.json").write_text(json.dumps(data))


@pytest.mark.parametrize("case", CHECK_FAILURE_RUNS, ids=list(CHECK_FAILURE_RUNS))
def test_cli_prints_the_failed_required_check(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    write_failure_inputs(tmp_path)
    argv, stdout = CHECK_FAILURE_RUNS[case]
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr() == (stdout, "")
    assert not (tmp_path / "out.json").exists()


NOT_AN_ALGEBRA = "input error: reg.json: no multiplication data (not a module algebra)\n"

# an input error on the files of write_failure_inputs: exit 2, nothing on stdout, one line on stderr
# that starts with the given text, and no output file; missing/ is a directory that does not exist
INPUT_ERROR_RUNS = {
    "build-ydalg-plain-module": (
        ("build", "yd-system", "--hopf", "h.json", "--mod", "reg.json", "--variant", "ydalg", "-o", "out.json"),
        NOT_AN_ALGEBRA,
    ),
    "check-yd-algebra-plain-module": (("check", "yd-algebra", "reg.json"), NOT_AN_ALGEBRA),
    "gen-unwritable-output": (
        ("gen", "group-algebra", "--group", "Z2", "-o", "missing/out.json"),
        "input error: cannot write missing/out.json: ",
    ),
    "homology-unwritable-output": (
        ("homology", "--hopf", "h.json", "--mod", "reg.json", "--coeff", "triv.json", "--line", "4",
         "--max-degree", "2", "-o", "missing/out.json"),
        "input error: cannot write missing/out.json: ",
    ),
    "check-hopf-non-utf8": (
        ("check", "hopf", "utf16.json"),
        "input error: utf16.json: invalid JSON ('utf-8' codec can't decode byte 0xff in position 0",
    ),
    "check-hopf-5000-digit-int": (
        ("check", "hopf", "big_int.json"),
        "input error: big_int.json: invalid JSON (Exceeds the limit (4300 digits) for integer string conversion",
    ),
    "check-hopf-deep-nesting": (
        ("check", "hopf", "deep.json"),
        "input error: deep.json: invalid JSON (maximum recursion depth exceeded",
    ),
    "check-hopf-huge-exponent": (
        ("check", "hopf", "huge_exponent.json"),
        "input error: malformed rational '1e10000000' at huge_exponent.json.counit[0]\n",
    ),
    # a rational of more than 4300 digits, which the program could not write back
    **{
        f"{argv[0]}-{argv[1]}-{value}": (
            tuple(a.format(f"s3_{value}.json") for a in argv),
            f"input error: malformed rational '{value}' at s3_{value}.json.counit[0]\n",
        )
        for argv in (("check", "hopf", "{}"), ("dual", "bialgebra", "{}", "-o", "out.json"))
        for value in ("1e4300", "1e-4300")
    },
}


@pytest.mark.parametrize("case", INPUT_ERROR_RUNS, ids=list(INPUT_ERROR_RUNS))
def test_cli_refuses_the_input_with_exit_two(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    write_failure_inputs(tmp_path)
    argv, stderr = INPUT_ERROR_RUNS[case]
    capsys.readouterr()
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(stderr) and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "missing").exists()


def test_cli_prints_a_witness_entry_past_the_digits_str_writes_in_a_bounded_form(tmp_path, monkeypatch, capsys):
    # eps(e) = 10**4299 on kS3/Q: bialg_eps_mu compares eps(e e) = 10**4299 with eps(e) eps(e) = 10**8598
    monkeypatch.chdir(tmp_path)
    write_failure_inputs(tmp_path)
    capsys.readouterr()
    assert run("check", "hopf", "s3_1e4299.json") == 1
    out, err = capsys.readouterr()
    big = "1" + "0" * 4299
    assert f"FAIL counit_left @ input basis (0,) / output basis (0,): lhs={big} rhs=1\n" in out
    assert f"FAIL bialg_eps_mu @ input basis (0, 0) / output basis (): lhs={big} rhs=~1.000000e+8598\n" in out
    assert err == ""


def test_cli_dual_of_a_4300_digit_counit_reloads_equal(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_failure_inputs(tmp_path)
    assert run("dual", "bialgebra", "s3_1e4299.json", "-o", "dual.json") == 0
    assert bio.load_bialgebra("dual.json").same_structure(dual_bialgebra(bio.load_bialgebra("s3_1e4299.json")))


def test_saving_a_value_past_the_digits_str_writes_is_a_schema_error(tmp_path):
    b = group_algebra(Z2_TABLE, Z2_NAMES)
    big = Bialgebra(b.space, b.mu, b.nu, b.delta, b.eps.scale(10**4400), b.antipode)
    path = tmp_path / "big.json"
    with pytest.raises(bio.SchemaError, match="cannot write .*big.json: a rational with more than 4300 digits"):
        bio.save_bialgebra(str(path), big)
    assert not path.exists()


# every command that reads a file, with the file under test in place of {kind}; its other files are valid
FILE_READERS = {
    "gen-regular-yd": ("gen", "regular-yd", "--hopf", "{bialgebra}", "-o", "out.json"),
    "gen-trivial-yd": ("gen", "trivial-yd", "--hopf", "{bialgebra}", "-o", "out.json"),
    "check-bialgebra": ("check", "bialgebra", "{bialgebra}"),
    "check-hopf": ("check", "hopf", "{bialgebra}"),
    "check-yd": ("check", "yd", "{module}"),
    "check-yd-algebra": ("check", "yd-algebra", "{module}"),
    "check-rmatrix": ("check", "rmatrix", "--level", "weak", "{rmatrix}"),
    "dual-bialgebra": ("dual", "bialgebra", "{bialgebra}", "-o", "out.json"),
    "dual-yd": ("dual", "yd", "{module}", "-o", "out.json"),
    "rmatrix-coaction-module": ("rmatrix", "coaction", "--module", "{module}", "--r", "r_nonweak.json", "-o", "out.json"),
    "rmatrix-coaction-r": ("rmatrix", "coaction", "--module", "reg.json", "--r", "{rmatrix}", "-o", "out.json"),
    "rmatrix-inverse": ("rmatrix", "inverse", "--r", "{rmatrix}", "-o", "out.json"),
    "build-hopf": ("build", "yd-system", "--hopf", "{bialgebra}", "--variant", "yd", "-o", "out.json"),
    "build-mod": ("build", "yd-system", "--hopf", "h.json", "--mod", "{module}", "--variant", "yd", "-o", "out.json"),
    "verify-cybe": ("verify", "cybe", "{system}"),
    "verify-morphism-from": ("verify", "morphism", "--from", "{system}", "--to", "sys.json", "--maps", "maps.json"),
    "verify-morphism-maps": ("verify", "morphism", "--from", "sys.json", "--to", "sys.json", "--maps", "{maps}"),
    "glue": ("glue", "--system", "{system}", "--lo", "1", "--hi", "2", "-o", "out.json"),
    "harness-precision": ("harness", "precision", "--hopf", "{bialgebra}", "--dim", "2", "--trials", "2", "--seed", "1"),
    "homology-hopf": ("homology", "--hopf", "{bialgebra}", "--mod", "reg.json", "--coeff", "triv.json", "--line", "1",
                      "--max-degree", "2", "-o", "out.json"),
    "homology-mod": ("homology", "--hopf", "h.json", "--mod", "{module}", "--coeff", "triv.json", "--line", "1",
                     "--max-degree", "2", "-o", "out.json"),
}
# a valid file of each kind, and its first required key
FIRST_KEYS = {"bialgebra": ("h.json", "field"), "module": ("reg.json", "bialgebra"), "rmatrix": ("r_nonweak.json", "bialgebra"),
              "system": ("sys.json", "field"), "maps": ("maps.json", "maps")}
BAD_FILES = {"missing": "missing.json", "non-utf8": "utf16.json", "list": "list.json", "no-first-key": "no_key_{kind}.json"}
BAD_BIALGEBRAS = {value: f"s3_{value}.json" for value in ("1e4299", "1e4300", "1e-4300")}
READER_CASES = {
    f"{cmd}-{tag}": (cmd, path)
    for cmd, argv in FILE_READERS.items()
    for tag, path in {**BAD_FILES, **(BAD_BIALGEBRAS if "{bialgebra}" in argv else {})}.items()
}


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("readers")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        write_failure_inputs(tmp_path)
        assert run("build", "yd-system", "--hopf", "h.json", "--variant", "yd", "-o", "sys.json") == 0
    (tmp_path / "maps.json").write_text(json.dumps({"maps": [[[1, 0], [0, 1]]] * 2}))
    (tmp_path / "list.json").write_text("[1, 2]")
    for kind, (source, key) in FIRST_KEYS.items():
        data = json.loads((tmp_path / source).read_text())
        del data[key]
        (tmp_path / f"no_key_{kind}.json").write_text(json.dumps(data))
    return tmp_path


@pytest.mark.parametrize("case", READER_CASES, ids=list(READER_CASES))
def test_cli_main_returns_on_every_bad_file(reader_inputs, monkeypatch, capsys, case):
    """main returns an exit code on each bad file every reading command gets; exit 2 prints one input error line."""
    cmd, path = READER_CASES[case]
    monkeypatch.chdir(reader_inputs)
    argv = FILE_READERS[cmd]
    kind = next(a[1:-1] for a in argv if a.startswith("{"))
    code = run(*(path.format(kind=kind) if a.startswith("{") else a for a in argv))
    err = capsys.readouterr().err
    if path in BAD_FILES.values() or path in (BAD_BIALGEBRAS["1e4300"], BAD_BIALGEBRAS["1e-4300"]):
        assert code == 2
    if code == 2:
        assert err.startswith("input error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert code in (0, 1) and err == ""


def test_cli_prints_a_failed_theorem_check_of_build_and_homology(tmp_path, monkeypatch, capsys):
    """The cYBE check of ``build`` and the bidifferential check of ``homology`` can fail only on a
    faulty library, so each is forced to fail here: FAIL with the failed check on stdout, exit 1."""
    from braidalg import homology, systems
    from braidalg.report import AxiomReport
    from braidalg.tensor import flip

    monkeypatch.chdir(tmp_path)
    assert run("gen", "group-algebra", "--group", "S3", "--field", "Fp:5", "-o", "s3.json") == 0
    assert run("gen", "regular-yd", "--hopf", "s3.json", "-o", "reg.json") == 0
    real_verify_cybe = systems.verify_cybe

    def verify_with_flip(s):
        # the system with sigma_{H,M} replaced by the flip, as in the perturbed-S3 pin above
        sigma = dict(s.sigma)
        sigma[(1, 2)] = flip(s.space(1), s.space(2), s.field)
        return real_verify_cybe(BraidedSystem(s.components, sigma, s.field))

    monkeypatch.setattr(systems, "verify_cybe", verify_with_flip)
    failing = AxiomReport().add("d_squared@1", True).add("d_squared@2", False)
    monkeypatch.setattr(homology, "verify_bicomplex", lambda c: failing)
    capsys.readouterr()
    assert run("build", "yd-system", "--hopf", "s3.json", "--mod", "reg.json", "--variant", "yd", "-o", "sys.json") == 1
    assert capsys.readouterr() == (
        "FAIL constructed system fails cYBE: "
        "FAIL cYBE(1,2,3) @ input basis (2, 1, 3) / output basis (0, 1, 2): lhs=0 rhs=1\n",
        "",
    )
    argv = ("homology", "--hopf", "s3.json", "--mod", "reg.json", "--coeff", "reg.json", "--line", "1")
    assert run(*argv, "--max-degree", "2", "-o", "report.json") == 1
    assert capsys.readouterr() == ("FAIL bidifferential identities fail: FAIL d_squared@2\n", "")
    assert not (tmp_path / "sys.json").exists() and not (tmp_path / "report.json").exists()


def test_cli_parses_the_hopf_file_once_and_checks_every_other_base(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run("gen", "group-algebra", "--group", "Z2", "-o", "z2.json")
    run("gen", "group-algebra", "--group", "Z2", "-o", "z2_copy.json")
    run("gen", "group-algebra", "--group", "Z3", "-o", "z3.json")
    run("gen", "regular-yd", "--hopf", "z2.json", "-o", "m.json")
    run("gen", "trivial-yd", "--hopf", "z2_copy.json", "-o", "t.json")
    run("gen", "trivial-yd", "--hopf", "z3.json", "-o", "t3.json")
    loads = []
    real_load = bio.load_bialgebra
    monkeypatch.setattr(bio, "load_bialgebra", lambda path: loads.append(os.path.basename(path)) or real_load(path))
    build = ("build", "yd-system", "--hopf", "z2.json", "--variant", "yd", "-o", "s.json")
    assert run(*build, "--mod", "m.json", "--mod", "m.json") == 0
    assert loads == ["z2.json"]
    loads.clear()
    argv = ("homology", "--hopf", "z2.json", "--mod", "m.json", "--line", "4", "--max-degree", "2", "-o", "r.json")
    assert run(*argv, "--coeff", "t.json") == 0
    assert loads == ["z2.json", "z2_copy.json"]
    capsys.readouterr()
    assert run(*argv, "--coeff", "t3.json") == 2
    assert "t3.json: module base differs from z2.json" in capsys.readouterr().err


def test_cli_check_parses_a_base_that_several_files_name_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run("gen", "group-algebra", "--group", "Z2", "-o", "z2.json")
    run("gen", "group-algebra", "--group", "Z2", "-o", "z2_copy.json")
    run("gen", "regular-yd", "--hopf", "z2.json", "-o", "m.json")
    run("gen", "trivial-yd", "--hopf", "z2.json", "-o", "t.json")
    run("gen", "trivial-yd", "--hopf", "z2_copy.json", "-o", "t_copy.json")
    for name, base in (("r.json", "z2.json"), ("r_copy.json", "z2_copy.json")):
        (tmp_path / name).write_text(json.dumps({"bialgebra": base, "vector": ["1", "0", "0", "0"]}))
    loads = []
    real_load = bio.load_bialgebra
    monkeypatch.setattr(bio, "load_bialgebra", lambda path: loads.append(os.path.basename(path)) or real_load(path))
    assert run("check", "yd", "m.json", "t.json") == 0
    assert loads == ["z2.json"]
    loads.clear()
    assert run("check", "yd", "m.json", "t_copy.json", "t.json") == 0
    assert loads == ["z2.json", "z2_copy.json"]
    loads.clear()
    assert run("check", "rmatrix", "--level", "strong", "r.json", "r_copy.json", "r.json") == 0
    assert loads == ["z2.json", "z2_copy.json"]


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


def test_cli_morphism_field_mismatch_is_input_error(tmp_path, capsys):
    systems = {}
    for field in ("Q", "Fp:5"):
        h, s = str(tmp_path / f"z2-{field}.json"), str(tmp_path / f"sys-{field}.json")
        run("gen", "group-algebra", "--group", "Z2", "--field", field, "-o", h)
        run("build", "yd-system", "--hopf", h, "--variant", "yd", "-o", s)
        systems[field] = s
    maps = str(tmp_path / "maps.json")
    with open(maps, "w") as fh:
        json.dump({"maps": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}, fh)
    capsys.readouterr()
    for a, b, fields in (("Q", "Fp:5", "QQ vs GF(5)"), ("Fp:5", "Q", "GF(5) vs QQ")):
        assert run("verify", "morphism", "--from", systems[a], "--to", systems[b], "--maps", maps) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"input error: field mismatch: {fields}\n")


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


# formal_unit_extend(regular kS3 over Q) through every command that reads a
# module file: each exits 0, and stdout and every file it writes are pinned
# by SHA-256 digest
MODULE_ALGEBRA_RUNS = (
    (
        ("check", "yd-algebra", "ma.json"),
        {
            "stdout": "e645e702d4312b28879b2080c31dbfb7ed2081b29eaf6c9727d0de26ad2354de",
        },
    ),
    (
        ("check", "yd", "ma.json"),
        {
            "stdout": "0fd5070f7c72cd59f2b7cc92f7edb24e6975e4263766b8daac361fa3d84547cd",
        },
    ),
    (
        ("build", "yd-system", "--hopf", "s3.json", "--mod", "ma.json", "--variant", "ydalg", "-o", "alg.json"),
        {
            "stdout": "762832688201ecc08fb5a67859aaae0ad6b1c9530c8f074c019f88e45afa1140",
            "alg.json": "fcda0283559991f49a18fe62f86a5119db1adae266acd0b95bcdaafe4e2a3602",
        },
    ),
    (
        ("build", "yd-system", "--hopf", "s3.json", "--mod", "ma.json", "--variant", "yd", "-o", "yd.json"),
        {
            "stdout": "cfb9ee375690a4fa906f63bda35e08038ae395cf2359f2cf9c239a443ece83f4",
            "yd.json": "1a2219668be757e87b1ab2c7c9745c60dea0089f9c653f3187ed8d6cd3e464ec",
        },
    ),
    (
        ("verify", "cybe", "alg.json"),
        {
            "stdout": "67e1e1069358312370832be64494ff423fa6d6516cd172acfc5f17ee3e912c8b",
        },
    ),
    (
        ("verify", "cybe", "yd.json"),
        {
            "stdout": "67e1e1069358312370832be64494ff423fa6d6516cd172acfc5f17ee3e912c8b",
        },
    ),
    (
        ("dual", "yd", "ma.json", "-o", "dual.json"),
        {
            "stdout": "d907fe9e6f04a51edbd165fd5483a43c31e1a49e9c986333880a08d73618c3a9",
            "dual.json": "e4fdc577155ea810c7b265dae1e4a1796275800de3b5911e684ddf9793f13be4",
            "dual_base.json": "2b9c6326a0034b35ab14cb9891c6341005e8eb8a0d313a2a0a470a5a3b4fcee5",
        },
    ),
    (
        ("rmatrix", "coaction", "--module", "ma.json", "--r", "r.json", "-o", "rc.json"),
        {
            "stdout": "f7e110988daa938201b20b74f8c2d07f2df688bdf6616b0e4e4cf7e40b3ffe1f",
            "rc.json": "d941110fe649bcee0c3f424cf9fb30009e7076b30477d83f2e40dd0cab91852b",
        },
    ),
    (
        ("homology", "--hopf", "s3.json", "--mod", "ma.json", "--coeff", "t.json", "--line", "4", "--max-degree", "3",
         "-o", "mod.json"),
        {
            "stdout": "3207c28b842e6d52f85a846f0879101c0515290b2c374c971cb3c82545811119",
            "mod.json": "7539e0a24f05bd2adba99bfa580e618d7d0506eb10c1f1da47533a2ab0c0b7a2",
        },
    ),
    (
        ("homology", "--hopf", "s3.json", "--mod", "t.json", "--coeff", "ma.json", "--line", "4", "--max-degree", "3",
         "-o", "coeff.json"),
        {
            "stdout": "cacb57771218ebde41fd43566c5a141e3aabc304ef986b6546c08278d6b30d4d",
            "coeff.json": "7539e0a24f05bd2adba99bfa580e618d7d0506eb10c1f1da47533a2ab0c0b7a2",
        },
    ),
)


def test_cli_reads_a_module_algebra_file_in_every_command(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("gen", "group-algebra", "--group", "S3", "-o", "s3.json") == 0
    assert run("gen", "regular-yd", "--hopf", "s3.json", "-o", "m.json") == 0
    assert run("gen", "trivial-yd", "--hopf", "s3.json", "-o", "t.json") == 0
    bio.save_yd_module("ma.json", formal_unit_extend(bio.load_yd_module("m.json")), "s3.json")
    bio.save_rmatrix("r.json", unit_r_matrix(bio.load_bialgebra("s3.json")), "s3.json")
    capsys.readouterr()
    for argv, digests in MODULE_ALGEBRA_RUNS:
        assert run(*argv) == 0, argv
        outputs = {"stdout": capsys.readouterr().out.encode()}
        outputs.update((name, (tmp_path / name).read_bytes()) for name in digests if name != "stdout")
        assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == digests, argv
