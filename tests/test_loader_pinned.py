"""What the JSON loaders read, pinned by digest, and their exact diagnostics.

Every map that ``load_bialgebra``, ``load_yd_module``, ``load_system``,
``load_rmatrix`` and ``load_maps`` read from ``tests/data`` and from ``gen``
outputs over Q and F_5 goes into one sha256 digest per loader, entry order
and scalar types included.  Malformed cubes (a short list at each depth, a
scalar where a list belongs, ``true``, ``1.5``, ``"1/0"``, ``"abc"``) and
out-of-range F_5 ints pin the full error text and the list of warnings.
The pins were recorded before the cube loader parsed each distinct scalar
once.
"""

import copy
import hashlib
import json
import os
import warnings

from braidalg import io as bio
from braidalg.cli import main
from braidalg.hopf import cyclic_group_table, group_algebra
from braidalg.linalg import GF, QQ
from braidalg.rmatrix import unit_r_matrix
from braidalg.yd import formal_unit_extend, regular_yd_group_algebra

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
FIELDS = {"Q": QQ, "Fp:5": GF(5)}


def _show(lm):
    if lm is None:
        return "None"
    dom = ",".join(f"{s.label}{s.basis_names}" for s in lm.domain)
    cod = ",".join(f"{s.label}{s.basis_names}" for s in lm.codomain)
    m = lm.matrix
    return f"{dom} -> {cod} {m.field!r} {m.n_rows}x{m.n_cols}: {list(m.entries.items())!r}"


def _show_bialgebra(b):
    return "\n".join(_show(x) for x in (b.mu, b.nu, b.delta, b.eps, b.antipode))


def _show_module(m):
    parts = [_show_bialgebra(m.base), type(m).__name__, _show(m.lam), _show(m.delta)]
    if hasattr(m, "mu"):
        parts += [_show(m.mu), _show(m.nu)]
    return "\n".join(parts)


def _show_system(s):
    comps = ",".join(f"{c.label}:{c.dim}" for c in s.components)
    return "\n".join([f"{s.field!r} {comps}"] + [f"{k} {_show(v)}" for k, v in s.sigma.items()])


def _run(*args):
    assert main([str(a) for a in args]) == 0


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _gen_files(tmp):
    """{loader: [text of each loaded object]} over CLI outputs and hand-written files."""
    out = {k: [] for k in ("bialgebra", "yd", "system", "rmatrix", "maps")}
    for field in FIELDS:
        tag = field.replace(":", "")
        for group in ("Z2", "S3", "D4"):
            h, reg, triv = (tmp / f"{group}_{tag}_{x}.json" for x in ("h", "reg", "triv"))
            _run("gen", "group-algebra", "--group", group, "--field", field, "-o", h)
            _run("gen", "regular-yd", "--hopf", h, "-o", reg)
            _run("gen", "trivial-yd", "--hopf", h, "-o", triv)
            out["bialgebra"].append(_show_bialgebra(bio.load_bialgebra(h)))
            out["yd"] += [_show_module(bio.load_yd_module(p)) for p in (reg, triv)]
            r = tmp / f"{group}_{tag}_r.json"
            bio.save_rmatrix(r, unit_r_matrix(bio.load_bialgebra(h)), h.name)
            out["rmatrix"].append(_show(bio.load_rmatrix(r).vector) + _show(bio.load_rmatrix(r).inverse))
        h, reg = tmp / f"Z2_{tag}_h.json", tmp / f"Z2_{tag}_reg.json"
        dual = tmp / f"Z2_{tag}_dual.json"
        _run("dual", "yd", reg, "-o", dual)
        out["yd"].append(_show_module(bio.load_yd_module(dual)))
        out["bialgebra"].append(_show_bialgebra(bio.load_bialgebra(tmp / f"Z2_{tag}_dual_base.json")))
        alg = tmp / f"Z2_{tag}_alg.json"
        bio.save_yd_module(alg, formal_unit_extend(regular_yd_group_algebra(bio.load_bialgebra(h))), h.name)
        out["yd"].append(_show_module(bio.load_yd_module(alg)))
        sysf = tmp / f"Z2_{tag}_sys.json"
        _run("build", "yd-system", "--hopf", h, "--mod", reg, "--variant", "yd", "-o", sysf)
        s = bio.load_system(sysf)
        out["system"].append(_show_system(s))
        # hand-written scalars: fractions, decimals, signs, spaces, ints out of range
        raw = ["2/4", "-0", " 3", 7] if field == "Q" else ["3", "-0", " 3", 4]
        if field == "Q":
            raw_inv = ["1.5", "1e2", -2, "-6/4"]
        else:
            raw_inv = [0, "12", "+2", 1]
        r = _write(tmp / f"Z2_{tag}_r_raw.json", {"bialgebra": h.name, "vector": raw, "inverse": raw_inv})
        out["rmatrix"].append(_show(bio.load_rmatrix(r).vector) + _show(bio.load_rmatrix(r).inverse))
        ident, swap = [["1", "0"], ["0", 1]], [[0, "1"], ["2/2" if field == "Q" else "6", "0"]]
        maps = _write(tmp / f"Z2_{tag}_maps.json", {"maps": [ident, swap, ident]})
        out["maps"].append("\n".join(_show(f) for f in bio.load_maps(maps, s, s)))
    out["system"].append(_show_system(bio.load_system(os.path.join(DATA, "legacy_system_z2_f5.json"))))
    return out


PINNED_DIGESTS = {
    "bialgebra": "4e4526df3a182d4eac9127ebdad2c7c89c941a1a18bacc1bce5564a1aa74853b",
    "maps": "f26d124ced9bcb55ddaae7bdd870980cd08e22786f469df1fc38c0553d8a3f23",
    "rmatrix": "e5cb3bff04bb4e804e8426ec327370a71f997369842b6b05443197cc046d9761",
    "system": "7167006251a0f4fc75280abb7f9df678e3eea358fa59d708a01f8ac233002be9",
    "yd": "7c149dcbaca92c5421a57072236c7da34bb18911f54b5bf5900b1d54260a1082",
}


def test_loaded_maps_are_pinned(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        texts = _gen_files(tmp_path)
    digests = {k: hashlib.sha256("\n\n".join(v).encode()).hexdigest() for k, v in texts.items()}
    assert digests == PINNED_DIGESTS


def _set(obj, path, value):
    for i in path[:-1]:
        obj = obj[i]
    obj[path[-1]] = value


def _cases(field):
    """(name, loader over a JSON dict, edits) of the malformed-input cases over ``field``."""
    f = FIELDS[field]
    b = group_algebra(*cyclic_group_table(2), field=f)
    bdata = bio.bialgebra_to_json(b)
    mdata = bio.yd_module_to_json(regular_yd_group_algebra(b), "h.json")
    rdata = bio.rmatrix_to_json(unit_r_matrix(b), "h.json")
    with open(os.path.join(DATA, "legacy_system_z2_f5.json")) as fh:
        sdata = json.load(fh)
    sdata["field"] = bio.field_spec_json(f)
    s = bio.system_from_json(sdata)
    mapdata = {"maps": [[[1, 0], [0, 1]] for _ in range(3)]}

    loaders = {
        "bialgebra": (bdata, lambda d: bio.bialgebra_from_json(d, "h")),
        "yd": (mdata, lambda d: bio.yd_module_from_json(d, b, "m")),
        "rmatrix": (rdata, lambda d: bio.rmatrix_from_json(d, b, "r")),
        "system": (sdata, lambda d: bio.system_from_json(d, "s")),
        "entries": (bio.system_to_json(s), lambda d: bio.system_from_json(d, "s")),
        "maps": (mapdata, lambda d: bio.maps_from_json(d, s, s, "f")),
    }
    # (first leaf, a later leaf, lists from the outside in) that each loader's edits aim at
    spots = {
        "bialgebra": (["mul", 0, 0, 0], ["mul", 1, 0, 1], [["mul"], ["mul", 1], ["mul", 1, 0]]),
        "yd": (["coaction", 0, 0, 0], ["coaction", 1, 0, 1], [["coaction"], ["coaction", 1], ["coaction", 1, 0]]),
        "rmatrix": (["vector", 0], ["vector", 3], [["vector"]]),
        "system": (["sigma", "1,2", 0, 0], ["sigma", "1,2", 2, 3], [["sigma", "1,2"], ["sigma", "1,2", 2]]),
        "entries": (["sigma", "1,2", "entries", 0, 2], ["sigma", "1,2", "entries", 2, 2], [["sigma", "1,2", "entries", 2]]),
        "maps": (["maps", 0, 0, 0], ["maps", 1, 1, 0], [["maps", 1], ["maps", 1, 1]]),
    }
    for kind, (data, load) in loaders.items():
        first, leaf, lists = spots[kind]
        for depth, lst in enumerate(lists):
            yield f"{kind} short list at depth {depth}", load, data, [(lst, "short")]
            yield f"{kind} scalar for list at depth {depth}", load, data, [(lst, 0)]
        for bad in (True, 1.5, "1/0", "abc", None, [0]):
            yield f"{kind} leaf {bad!r}", load, data, [(leaf, bad)]
        yield f"{kind} ints -1 and 7 at two positions", load, data, [(first, -1), (leaf, 7)]
        yield f"{kind} -1 twice", load, data, [(first, -1), (leaf, -1)]
        yield f"{kind} warning then bad leaf", load, data, [(first, 7), (leaf, "abc")]
        yield f"{kind} bad leaf then short list", load, data, [(first, "abc"), (lists[-1], "short")]
        yield f"{kind} warning then short list", load, data, [(first, -1), (lists[-1], "short")]
    data, load = loaders["entries"]
    entry = ["sigma", "1,2", "entries", 2]
    yield "entries row out of range", load, data, [(entry + [0], 4)]
    yield "entries duplicate", load, data, [(entry[:-1] + [0, 2], 7), (entry, list(data["sigma"]["1,2"]["entries"][0]))]


def _outcome(load, data, edits):
    data = copy.deepcopy(data)
    for path, value in edits:
        if value == "short":
            lst = data
            for i in path:
                lst = lst[i]
            del lst[-1]
        else:
            _set(data, path, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            load(data)
            error = None
        except (bio.SchemaError, ValueError) as e:
            error = f"{type(e).__name__}: {e}"
    return [str(w.message) for w in caught], error


# sha256 of the sorted (case, (warnings, error)) pairs of the 184 cases
PINNED_DIAGNOSTICS = "7c8c317f2c24af6d0951711ee5849abc108880886c14edd5b5d6e57344fae377"


def test_loader_diagnostics_are_pinned():
    got = {}
    for field in FIELDS:
        for name, load, data, edits in _cases(field):
            got[f"{field} {name}"] = _outcome(load, data, edits)
    # a sample in full: every warning in order, then the first error, each located
    assert got["Fp:5 bialgebra warning then short list"] == (
        ["h.mul[0][0][0]: coefficient -1 normalised modulo 5"],
        "SchemaError: h.mul[1][0]: expected a list of length 2",
    )
    assert got["Fp:5 bialgebra -1 twice"] == (
        ["h.mul[0][0][0]: coefficient -1 normalised modulo 5", "h.mul[1][0][1]: coefficient -1 normalised modulo 5"],
        None,
    )
    assert got["Q yd bad leaf then short list"] == ([], "SchemaError: malformed rational 'abc' at m.coaction[0][0][0]")
    assert got["Fp:5 maps leaf True"] == ([], "SchemaError: malformed F_5 scalar True at f.maps[1][1][0]")
    assert got["Fp:5 entries duplicate"] == (
        ["s.sigma[1,2].entries[0]: coefficient 7 normalised modulo 5"],
        "SchemaError: s.sigma[1,2].entries[2]: duplicate entry (0, 0)",
    )
    assert hashlib.sha256(repr(sorted(got.items())).encode()).hexdigest() == PINNED_DIAGNOSTICS
