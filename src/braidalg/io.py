"""JSON schemas and loaders/savers for every object kind.

All scalar coefficients are serialised as strings "a/b" over Q and as
plain integers over F_p; files are written with sorted keys so that
save(load(f)) is byte-identical after canonicalisation.

Schemas:

* bialgebra: field, dim, basis, mul[i][j][k], unit[k], comul[i][j][k],
  counit[i], optional antipode[i][j];
* yd-module: bialgebra (path), dim, action[i][a][b], coaction[a][b][i]
  (optional for plain modules), optional mul/unit for module algebras;
* r-matrix: bialgebra (path), vector (dim^2 coefficients, left-major),
  optional inverse;
* braided-system: field, components (dim+label list), sigma "i,j" ->
  {"entries": [[row, col, scalar], ...]}, the nonzero entries sorted by
  (row, col); a list value is read as legacy dense row-major rows.
"""

from __future__ import annotations

import json
import os
import warnings

from .hopf import Bialgebra
from .linalg import GF, QQ, FieldError, SparseMatrix
from .systems import BraidedSystem
from .tensor import LinMap, Space, from_cube
from .yd import YDModule, YDModuleAlgebra


class SchemaError(ValueError):
    """A file violates its schema; carries a field-precise location."""


def parse_field_spec(spec, where="field"):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError(f"{where}: expected an object with a 'kind'")
    kind = spec["kind"]
    if kind == "Q":
        return QQ
    if kind == "Fp":
        p = spec.get("p")
        try:
            return GF(p)
        except FieldError as e:
            raise SchemaError(f"{where}: {e}") from None
    raise SchemaError(f"{where}: unknown field kind {kind!r}")


def field_spec_json(f):
    if f.kind == "Q":
        return {"kind": "Q"}
    return {"kind": "Fp", "p": f.p}


def _basis_names(names, d, where):
    """The optional basis names of a d-dimensional space: None or d distinct strings."""
    if names is None:
        return None
    strings = isinstance(names, list) and all(isinstance(x, str) for x in names)
    if not (strings and len(set(names)) == len(names) == d):
        raise SchemaError(f"{where}: expected {d} distinct names")
    return tuple(names)


def _read_scalar(f, raw, locate):
    """The scalar over f that raw stores.

    ``locate()`` spells out raw's location, for a value that fails or warns (over F_p, one outside 0..p-1).
    """
    try:
        v = f.parse(raw)
    except FieldError as e:
        raise SchemaError(f"{e} at {locate()}") from None
    if f.p is not None and not 0 <= int(raw) < f.p:
        where = locate()
        warnings.warn(f"{where}: coefficient {raw} normalised modulo {f.p}")
    return v


def _flatten(data, shape, out):
    """Append the leaves of a nested list to ``out`` depth first; None, or the
    index path of the first list whose length is not the shape's."""
    if not isinstance(data, list) or len(data) != shape[0]:
        return ()
    if len(shape) == 1:
        out.extend(data)
        return None
    for i, x in enumerate(data):
        bad = _flatten(x, shape[1:], out)
        if bad is not None:
            return (i, *bad)
    return None


def _parse_cube(f, data, shape, where):
    """The scalars of a nested list of the given shape, flattened row-major.

    The errors and warnings are those of a depth-first walk parsing each
    scalar in turn, in the same order.
    """
    leaves = []
    bad = _flatten(data, shape, leaves)

    def locate(k):
        index = []
        for n in reversed(shape):
            k, i = divmod(k, n)
            index.append(f"[{i}]")
        return where + "".join(reversed(index))

    out = [_read_scalar(f, raw, lambda: locate(k)) for k, raw in enumerate(leaves)]
    if bad is not None:
        raise SchemaError(f"{where}{''.join(f'[{i}]' for i in bad)}: expected a list of length {shape[len(bad)]}")
    return out


# A map A1 (x) ... (x) Ap -> B1 (x) ... (x) Bq is stored as the cube
# [a1]...[ap][b1]...[bq], the coefficient of b1 (x) ... (x) bq in the image of
# a1 (x) ... (x) ap: mul[a][b][c], comul[a][b][c], unit[c], counit[a],
# antipode[a][b], action[h][a][b] and coaction[a][b][h].


def _map_from_json(f, raw, domain, codomain, where):
    return from_cube(domain, codomain, _parse_cube(f, raw, [s.dim for s in domain + codomain], where), f)


def _rows(cube, n):
    return [cube[i : i + n] for i in range(0, len(cube), n)]


def _map_json(m):
    f = m.field
    coeff = {inp + out: v for out, inp, v in m.terms()}
    dims = [s.dim for s in m.domain + m.codomain]

    def cube(t):
        if len(t) == len(dims):
            return f.to_json(coeff.get(t, f.zero))
        return [cube(t + (i,)) for i in range(dims[len(t)])]

    return cube(())


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from None
    except (ValueError, RecursionError) as e:  # also an int past the digit limit, or lists nested too deep
        raise SchemaError(f"{path}: invalid JSON ({e})") from None


def _load_object(path):
    """The JSON object a file holds; any other top-level value is a schema error."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return data


def _dump_json(path, to_json, *args):
    try:
        text = canonical_json(to_json(*args))  # FieldError: a value too long to write
        with open(path, "w") as fh:
            fh.write(text)
    except (FieldError, OSError) as e:
        raise SchemaError(f"cannot write {path}: {e}") from None


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- bialgebras -------------------------------------------------------------


def bialgebra_to_json(b):
    d = b.dim
    out = {
        "field": field_spec_json(b.field),
        "dim": d,
        "basis": [b.space.name(i) for i in range(d)],
        "mul": _map_json(b.mu),
        "unit": _map_json(b.nu),
        "comul": _map_json(b.delta),
        "counit": _map_json(b.eps),
    }
    if b.antipode is not None:
        out["antipode"] = _map_json(b.antipode)
    return out


def bialgebra_from_json(data, where="bialgebra"):
    for key in ("field", "dim", "mul", "unit", "comul", "counit"):
        if key not in data:
            raise SchemaError(f"{where}: missing key {key!r}")
    f = parse_field_spec(data["field"], f"{where}.field")
    d = data["dim"]
    if type(d) is not int or d < 1:
        raise SchemaError(f"{where}.dim: expected a positive integer")
    space = Space(d, "H", _basis_names(data.get("basis"), d, f"{where}.basis"))
    mu = _map_from_json(f, data["mul"], (space, space), (space,), f"{where}.mul")
    nu = _map_from_json(f, data["unit"], (), (space,), f"{where}.unit")
    delta = _map_from_json(f, data["comul"], (space,), (space, space), f"{where}.comul")
    eps = _map_from_json(f, data["counit"], (space,), (), f"{where}.counit")
    antipode = None
    if "antipode" in data:
        antipode = _map_from_json(f, data["antipode"], (space,), (space,), f"{where}.antipode")
    return Bialgebra(space, mu, nu, delta, eps, antipode)


def save_bialgebra(path, b):
    _dump_json(path, bialgebra_to_json, b)


def load_bialgebra(path):
    return bialgebra_from_json(_load_object(path), where=path)


def load_group_table(path):
    """The (table, names) of a group-table file: n rows of n ints, optionally n distinct names."""
    data = _load_json(path)
    if not isinstance(data, dict) or "table" not in data:
        raise SchemaError(f"{path}: missing key 'table'")
    table = data["table"]
    if not isinstance(table, list):
        raise SchemaError(f"{path}.table: expected a list of rows")
    n = len(table)
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}.table[{i}]: expected a list of {n} integers")
        for j, v in enumerate(row):
            if type(v) is not int:
                raise SchemaError(f"{path}.table[{i}][{j}]: expected an integer")
    return table, _basis_names(data.get("names"), n, f"{path}.names")


# -- YD modules --------------------------------------------------------------


def yd_module_to_json(m, bialgebra_path):
    out = {
        "bialgebra": bialgebra_path,
        "dim": m.dim,
        "basis": [m.space.name(i) for i in range(m.dim)],
        "action": _map_json(m.lam),
    }
    if m.delta is not None:
        out["coaction"] = _map_json(m.delta)
    if isinstance(m, YDModuleAlgebra):
        out["mul"] = _map_json(m.mu)
        out["unit"] = _map_json(m.nu)
    return out


def yd_module_from_json(data, base, where="yd-module"):
    for key in ("dim", "action"):
        if key not in data:
            raise SchemaError(f"{where}: missing key {key!r}")
    f = base.field
    dM = data["dim"]
    if type(dM) is not int or dM < 1:
        raise SchemaError(f"{where}.dim: expected a positive integer")
    space = Space(dM, "M", _basis_names(data.get("basis"), dM, f"{where}.basis"))
    lam = _map_from_json(f, data["action"], (base.space, space), (space,), f"{where}.action")
    delta = None
    if "coaction" in data:
        delta = _map_from_json(f, data["coaction"], (space,), (space, base.space), f"{where}.coaction")
    if "mul" in data:
        if "unit" not in data:
            raise SchemaError(f"{where}: 'mul' without 'unit'")
        mu = _map_from_json(f, data["mul"], (space, space), (space,), f"{where}.mul")
        nu = _map_from_json(f, data["unit"], (), (space,), f"{where}.unit")
        return YDModuleAlgebra(base, space, lam, delta, mu=mu, nu=nu)
    return YDModule(base, space, lam, delta)


def resolve_reference(path, ref):
    """The path of the bialgebra file ``ref`` that the file at ``path`` names."""
    if not isinstance(ref, str):
        raise SchemaError(f"{path}.bialgebra: expected a file path")
    if os.path.isabs(ref):
        return ref
    return os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(path)), ref))


def load_with_base(path, from_json, bases=None):
    """(the object of a file that names its base bialgebra, the base's path).

    The object is ``from_json(data, base, where=path)``.  ``base`` is
    ``bases[resolved path]`` when ``bases`` (resolved path -> Bialgebra)
    holds it; otherwise it is loaded from the resolved path and recorded in
    ``bases``, so a later file naming the same base reuses it.
    """
    data = _load_object(path)
    if "bialgebra" not in data:
        raise SchemaError(f"{path}: missing key 'bialgebra'")
    base_path = resolve_reference(path, data["bialgebra"])
    if bases is None:
        bases = {}
    if base_path not in bases:
        bases[base_path] = load_bialgebra(base_path)
    return from_json(data, bases[base_path], where=path), base_path


def load_yd_module(path, bases=None):
    """Load a module file together with its referenced base bialgebra (see ``load_with_base``)."""
    return load_with_base(path, yd_module_from_json, bases)[0]


def save_yd_module(path, m, bialgebra_path):
    _dump_json(path, yd_module_to_json, m, bialgebra_path)


# -- R-matrices ---------------------------------------------------------------


def rmatrix_to_json(r, bialgebra_path):
    f = r.field
    d = r.base.dim
    out = {
        "bialgebra": bialgebra_path,
        "vector": [f.to_json(r.vector.matrix.get(i, 0)) for i in range(d * d)],
    }
    if r.inverse is not None:
        out["inverse"] = [f.to_json(r.inverse.matrix.get(i, 0)) for i in range(d * d)]
    return out


def rmatrix_from_json(data, base, where="r-matrix"):
    from .rmatrix import RMatrix

    if "vector" not in data:
        raise SchemaError(f"{where}: missing key 'vector'")
    f = base.field
    d = base.dim
    vec = _parse_cube(f, data["vector"], (d * d,), f"{where}.vector")
    inv = None
    if "inverse" in data:
        inv = _parse_cube(f, data["inverse"], (d * d,), f"{where}.inverse")
    return RMatrix.from_coefficients(base, vec, inv)


def load_rmatrix(path, bases=None):
    """Load an R-matrix file together with its referenced base bialgebra (see ``load_with_base``)."""
    return load_with_base(path, rmatrix_from_json, bases)[0]


def save_rmatrix(path, r, bialgebra_path):
    _dump_json(path, rmatrix_to_json, r, bialgebra_path)


# -- braided systems -----------------------------------------------------------


def system_to_json(s):
    f = s.field
    out = {
        "field": field_spec_json(f),
        "components": [{"dim": sp.dim, "label": sp.label} for sp in s.components],
        "sigma": {},
    }
    for (i, j), sig in sorted(s.sigma.items()):
        entries = [[r, c, f.to_json(v)] for (r, c), v in sorted(sig.matrix.entries.items())]
        out["sigma"][f"{i},{j}"] = {"entries": entries}
    return out


def _parse_entries(f, raw, n, where):
    """The {(row, col): scalar} of a sparse n x n sigma, every entry schema-checked."""
    if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
        raise SchemaError(f"{where}: expected dense rows or an object with a list 'entries'")
    ent = {}
    for t, e in enumerate(raw["entries"]):
        if not (isinstance(e, list) and len(e) == 3 and all(type(x) is int and 0 <= x < n for x in e[:2])):
            raise SchemaError(f"{where}.entries[{t}]: expected [row, col, scalar] with int row and col in [0, {n})")
        if (e[0], e[1]) in ent:
            raise SchemaError(f"{where}.entries[{t}]: duplicate entry ({e[0]}, {e[1]})")
        ent[e[0], e[1]] = _read_scalar(f, e[2], lambda: f"{where}.entries[{t}]")
    return ent


def system_from_json(data, where="braided-system"):
    for key in ("field", "components", "sigma"):
        if key not in data:
            raise SchemaError(f"{where}: missing key {key!r}")
    f = parse_field_spec(data["field"], f"{where}.field")
    if not isinstance(data["components"], list):
        raise SchemaError(f"{where}.components: expected a list")
    comps = []
    for t, c in enumerate(data["components"], start=1):
        loc = f"{where}.components[{t - 1}]"
        if not isinstance(c, dict) or "dim" not in c:
            raise SchemaError(f"{loc}: expected an object with a 'dim'")
        if type(c["dim"]) is not int or c["dim"] < 1:
            raise SchemaError(f"{loc}.dim: expected a positive integer")
        if not isinstance(c.get("label", ""), str):
            raise SchemaError(f"{loc}.label: expected a string")
        comps.append(Space(c["dim"], c.get("label", f"V{t}")))
    r = len(comps)
    if not isinstance(data["sigma"], dict):
        raise SchemaError(f"{where}.sigma: expected an object")
    sigma = {}
    for key, raw in data["sigma"].items():
        try:
            i, j = (int(x) for x in key.split(","))
        except ValueError:
            raise SchemaError(f"{where}.sigma: bad key {key!r}") from None
        if not (1 <= i <= j <= r):
            raise SchemaError(f"{where}.sigma: index pair {key!r} out of range")
        n = comps[i - 1].dim * comps[j - 1].dim
        loc = f"{where}.sigma[{key}]"
        if isinstance(raw, list):
            matrix = SparseMatrix.from_rows(f, _rows(_parse_cube(f, raw, (n, n), loc), n))
        else:
            matrix = SparseMatrix(f, n, n, _parse_entries(f, raw, n, loc))
        sigma[(i, j)] = LinMap((comps[i - 1], comps[j - 1]), (comps[j - 1], comps[i - 1]), matrix)
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            if (i, j) not in sigma:
                raise SchemaError(f"{where}.sigma: missing component {i},{j}")
    return BraidedSystem(tuple(comps), sigma, f)


def load_system(path):
    return system_from_json(_load_object(path), where=path)


def save_system(path, s):
    _dump_json(path, system_to_json, s)


# -- linear map bundles (braided morphisms) ------------------------------------


def maps_from_json(data, src, dst, where="maps"):
    if "maps" not in data or not isinstance(data["maps"], list):
        raise SchemaError(f"{where}: missing list 'maps'")
    if len(data["maps"]) != src.rank:
        raise SchemaError(f"{where}: expected {src.rank} maps")
    f = src.field
    out = []
    for t, rows in enumerate(data["maps"], start=1):
        dsrc, ddst = src.space(t).dim, dst.space(t).dim
        cube = _parse_cube(f, rows, (ddst, dsrc), f"{where}.maps[{t - 1}]")
        out.append(LinMap((src.space(t),), (dst.space(t),), SparseMatrix.from_rows(f, _rows(cube, dsrc))))
    return out


def load_maps(path, src, dst):
    return maps_from_json(_load_object(path), src, dst, where=path)


# -- homology reports -----------------------------------------------------------


def homology_report(cx, which="d", cohomology=False):
    """The report of ``homology_dims(cx, which)``; ``cohomology`` is a label (over a field dim H^k = dim H_k)."""
    from .homology import homology_dims

    idrep = cx.bicomplex_report
    res = homology_dims(cx, which)
    degrees = []
    for row in res["rows"]:
        k = row["degree"]
        degrees.append(
            {
                "degree": k,
                "chain_dim": row["chain_dim"],
                "rank_d": cx.rank("d", k),
                "rank_d_prime": cx.rank("d_prime", k),
                "homology_dim": row["homology_dim"],
            }
        )
    return {
        "line": cx.line,
        "truncation": cx.max_total,
        "which": which,
        "cohomology": bool(cohomology),
        "identities": {
            "d_squared": all(c.passed for c in idrep.checks if c.name.startswith("d_squared")),
            "d_prime_squared": all(c.passed for c in idrep.checks if c.name.startswith("d_prime_squared")),
            "anticommute": all(c.passed for c in idrep.checks if c.name.startswith("anticommute")),
        },
        "degrees": degrees,
        "euler": {
            "homology": res["euler_homology"],
            "chain": res["euler_chain"],
            "boundary_rank": res["boundary_rank"],
            "identity_holds": res["euler_identity_holds"],
        },
    }


def save_report(path, report):
    _dump_json(path, lambda: report)
