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
* braided-system: field, components (dim+label list), sigma "i,j" -> dense
  row-major matrix.
"""

from __future__ import annotations

import json
import os
import warnings

from .hopf import Bialgebra
from .linalg import GF, QQ, FieldError, SparseMatrix
from .rmatrix import RMatrix
from .systems import BraidedSystem
from .tensor import LinMap, Space
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


def _parse_scalar(f, raw, where):
    if f.kind == "Fp" and isinstance(raw, int) and not (0 <= raw < f.p):
        warnings.warn(f"{where}: coefficient {raw} normalised modulo {f.p}")
    try:
        return f.parse(raw, where)
    except FieldError as e:
        raise SchemaError(str(e)) from None


def _parse_cube(f, data, shape, where):
    """Parse a nested list of scalars with the given shape."""
    if len(shape) == 0:
        return _parse_scalar(f, data, where)
    if not isinstance(data, list) or len(data) != shape[0]:
        raise SchemaError(f"{where}: expected a list of length {shape[0]}")
    return [_parse_cube(f, x, shape[1:], f"{where}[{i}]") for i, x in enumerate(data)]


def _cube_json(f, cube):
    if isinstance(cube, list):
        return [_cube_json(f, x) for x in cube]
    return f.to_json(cube)


# A map A (x) B -> C is stored as cube[a][b][c], the coefficient of c in the
# image of a (x) b; a map A -> B (x) C as cube[a][b][c], the coefficient of
# b (x) c in the image of a.


def _product_from_json(f, raw, spaces, where):
    A, B, C = spaces
    cube = _parse_cube(f, raw, (A.dim, B.dim, C.dim), where)
    ent = {(c, a * B.dim + b): cube[a][b][c] for a in range(A.dim) for b in range(B.dim) for c in range(C.dim)}
    return LinMap((A, B), (C,), SparseMatrix(f, C.dim, A.dim * B.dim, ent))


def _product_json(m, da, db, dc):
    cube = [[[m.matrix.get(c, a * db + b) for c in range(dc)] for b in range(db)] for a in range(da)]
    return _cube_json(m.field, cube)


def _coproduct_from_json(f, raw, spaces, where):
    A, B, C = spaces
    cube = _parse_cube(f, raw, (A.dim, B.dim, C.dim), where)
    ent = {(b * C.dim + c, a): cube[a][b][c] for a in range(A.dim) for b in range(B.dim) for c in range(C.dim)}
    return LinMap((A,), (B, C), SparseMatrix(f, B.dim * C.dim, A.dim, ent))


def _coproduct_json(m, da, db, dc):
    cube = [[[m.matrix.get(b * dc + c, a) for c in range(dc)] for b in range(db)] for a in range(da)]
    return _cube_json(m.field, cube)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON ({e})") from None


def _dump_json(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- bialgebras -------------------------------------------------------------


def bialgebra_to_json(b):
    f = b.field
    d = b.dim
    out = {
        "field": field_spec_json(f),
        "dim": d,
        "basis": [b.space.name(i) for i in range(d)],
        "mul": _product_json(b.mu, d, d, d),
        "unit": _cube_json(f, [b.nu.matrix.get(k, 0) for k in range(d)]),
        "comul": _coproduct_json(b.delta, d, d, d),
        "counit": _cube_json(f, [b.eps.matrix.get(0, i) for i in range(d)]),
    }
    if b.antipode is not None:
        out["antipode"] = _cube_json(
            f, [[b.antipode.matrix.get(j, i) for j in range(d)] for i in range(d)]
        )
    return out


def bialgebra_from_json(data, label="H", where="bialgebra"):
    for key in ("field", "dim", "mul", "unit", "comul", "counit"):
        if key not in data:
            raise SchemaError(f"{where}: missing key {key!r}")
    f = parse_field_spec(data["field"], f"{where}.field")
    d = data["dim"]
    if not isinstance(d, int) or d < 1:
        raise SchemaError(f"{where}.dim: expected a positive integer")
    basis = data.get("basis")
    if basis is not None and (len(basis) != d or len(set(basis)) != d):
        raise SchemaError(f"{where}.basis: expected {d} distinct names")
    space = Space(d, label, tuple(basis) if basis else None)
    mu = _product_from_json(f, data["mul"], (space, space, space), f"{where}.mul")
    unit = _parse_cube(f, data["unit"], (d,), f"{where}.unit")
    delta = _coproduct_from_json(f, data["comul"], (space, space, space), f"{where}.comul")
    counit = _parse_cube(f, data["counit"], (d,), f"{where}.counit")
    nu = LinMap((), (space,), SparseMatrix(f, d, 1, {(k, 0): unit[k] for k in range(d)}))
    eps = LinMap((space,), (), SparseMatrix(f, 1, d, {(0, i): counit[i] for i in range(d)}))
    antipode = None
    if "antipode" in data:
        anti = _parse_cube(f, data["antipode"], (d, d), f"{where}.antipode")
        antipode = LinMap(
            (space,), (space,), SparseMatrix(f, d, d, {(j, i): anti[i][j] for i in range(d) for j in range(d)})
        )
    return Bialgebra(space, mu, nu, delta, eps, antipode)


def save_bialgebra(path, b):
    _dump_json(path, bialgebra_to_json(b))


def load_bialgebra(path):
    return bialgebra_from_json(_load_json(path), where=path)


# -- YD modules --------------------------------------------------------------


def yd_module_to_json(m, bialgebra_path, mu=None, nu=None):
    f = m.field
    dH, dM = m.base.dim, m.dim
    out = {
        "bialgebra": bialgebra_path,
        "dim": dM,
        "basis": [m.space.name(i) for i in range(dM)],
        "action": _product_json(m.lam, dH, dM, dM),
    }
    if m.delta is not None:
        out["coaction"] = _coproduct_json(m.delta, dM, dM, dH)
    if mu is not None:
        out["mul"] = _product_json(mu, dM, dM, dM)
        out["unit"] = _cube_json(f, [nu.matrix.get(k, 0) for k in range(dM)])
    return out


def yd_module_from_json(data, base, label="M", where="yd-module"):
    for key in ("dim", "action"):
        if key not in data:
            raise SchemaError(f"{where}: missing key {key!r}")
    f = base.field
    dM = data["dim"]
    if not isinstance(dM, int) or dM < 1:
        raise SchemaError(f"{where}.dim: expected a positive integer")
    basis = data.get("basis")
    if basis is not None and len(basis) != dM:
        raise SchemaError(f"{where}.basis: expected {dM} names")
    space = Space(dM, label, tuple(basis) if basis else None)
    lam = _product_from_json(f, data["action"], (base.space, space, space), f"{where}.action")
    delta = None
    if "coaction" in data:
        delta = _coproduct_from_json(f, data["coaction"], (space, space, base.space), f"{where}.coaction")
    yd = YDModule(base, space, lam, delta)
    if "mul" in data:
        if "unit" not in data:
            raise SchemaError(f"{where}: 'mul' without 'unit'")
        mu = _product_from_json(f, data["mul"], (space, space, space), f"{where}.mul")
        unit = _parse_cube(f, data["unit"], (dM,), f"{where}.unit")
        nu = LinMap((), (space,), SparseMatrix(f, dM, 1, {(k, 0): unit[k] for k in range(dM)}))
        return YDModuleAlgebra(yd, mu, nu)
    return yd


def resolve_reference(path, ref):
    if os.path.isabs(ref):
        return ref
    return os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(path)), ref))


def load_yd_module(path):
    """Load a module file together with its referenced base bialgebra."""
    data = _load_json(path)
    if "bialgebra" not in data:
        raise SchemaError(f"{path}: missing key 'bialgebra'")
    base = load_bialgebra(resolve_reference(path, data["bialgebra"]))
    return yd_module_from_json(data, base, where=path)


def save_yd_module(path, m, bialgebra_path):
    if isinstance(m, YDModuleAlgebra):
        _dump_json(path, yd_module_to_json(m.yd, bialgebra_path, m.mu, m.nu))
    else:
        _dump_json(path, yd_module_to_json(m, bialgebra_path))


# -- R-matrices ---------------------------------------------------------------


def rmatrix_to_json(r, bialgebra_path):
    f = r.field
    d = r.base.dim
    out = {
        "bialgebra": bialgebra_path,
        "vector": _cube_json(f, [r.vector.matrix.get(i, 0) for i in range(d * d)]),
    }
    if r.inverse is not None:
        out["inverse"] = _cube_json(f, [r.inverse.matrix.get(i, 0) for i in range(d * d)])
    return out


def rmatrix_from_json(data, base, where="r-matrix"):
    if "vector" not in data:
        raise SchemaError(f"{where}: missing key 'vector'")
    f = base.field
    d = base.dim
    vec = _parse_cube(f, data["vector"], (d * d,), f"{where}.vector")
    inv = None
    if "inverse" in data:
        inv = _parse_cube(f, data["inverse"], (d * d,), f"{where}.inverse")
    return RMatrix.from_coefficients(base, vec, inv)


def load_rmatrix(path):
    data = _load_json(path)
    if "bialgebra" not in data:
        raise SchemaError(f"{path}: missing key 'bialgebra'")
    base = load_bialgebra(resolve_reference(path, data["bialgebra"]))
    return rmatrix_from_json(data, base, where=path)


def save_rmatrix(path, r, bialgebra_path):
    _dump_json(path, rmatrix_to_json(r, bialgebra_path))


# -- braided systems -----------------------------------------------------------


def system_to_json(s):
    f = s.field
    out = {
        "field": field_spec_json(f),
        "components": [{"dim": sp.dim, "label": sp.label} for sp in s.components],
        "sigma": {},
    }
    for (i, j), sig in sorted(s.sigma.items()):
        rows = [
            [f.to_json(sig.matrix.get(r, c)) for c in range(sig.matrix.n_cols)]
            for r in range(sig.matrix.n_rows)
        ]
        out["sigma"][f"{i},{j}"] = rows
    return out


def system_from_json(data, where="braided-system"):
    for key in ("field", "components", "sigma"):
        if key not in data:
            raise SchemaError(f"{where}: missing key {key!r}")
    f = parse_field_spec(data["field"], f"{where}.field")
    comps = []
    for t, c in enumerate(data["components"], start=1):
        if "dim" not in c:
            raise SchemaError(f"{where}.components[{t - 1}]: missing 'dim'")
        comps.append(Space(c["dim"], c.get("label", f"V{t}")))
    r = len(comps)
    sigma = {}
    for key, rows in data["sigma"].items():
        try:
            i, j = (int(x) for x in key.split(","))
        except ValueError:
            raise SchemaError(f"{where}.sigma: bad key {key!r}") from None
        if not (1 <= i <= j <= r):
            raise SchemaError(f"{where}.sigma: index pair {key!r} out of range")
        di, dj = comps[i - 1].dim, comps[j - 1].dim
        cube = _parse_cube(f, rows, (di * dj, di * dj), f"{where}.sigma[{key}]")
        sigma[(i, j)] = LinMap(
            (comps[i - 1], comps[j - 1]), (comps[j - 1], comps[i - 1]), SparseMatrix.from_rows(f, cube)
        )
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            if (i, j) not in sigma:
                raise SchemaError(f"{where}.sigma: missing component {i},{j}")
    return BraidedSystem(tuple(comps), sigma, f)


def load_system(path):
    return system_from_json(_load_json(path), where=path)


def save_system(path, s):
    _dump_json(path, system_to_json(s))


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
        out.append(LinMap((src.space(t),), (dst.space(t),), SparseMatrix.from_rows(f, cube)))
    return out


def load_maps(path, src, dst):
    return maps_from_json(_load_json(path), src, dst, where=path)


# -- homology reports -----------------------------------------------------------


def homology_report(cx, which="d", cohomology=False):
    from .homology import homology_dims, verify_bicomplex

    idrep = cx.bicomplex_report
    if idrep is None:
        idrep = verify_bicomplex(cx)
    res = homology_dims(cx, which, cohomology=cohomology)
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
        "line": cx.meta.get("line"),
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
    _dump_json(path, report)
