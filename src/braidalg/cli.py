"""Command-line workflows tying the library together.

Exit codes: 0 = all checks pass, 1 = a mathematical check failed (a
witness is printed), 2 = input/schema error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import io as bio
from .hopf import check_bialgebra, dual_bialgebra, group_algebra, stock_group_table
from .linalg import GF, QQ
from .rmatrix import AntipodeMissingError, antipode_inverse_r, check_r, yd_from_r
from .systems import (
    build_yd_system,
    check_braided_morphism,
    glue,
    precision_harness,
    random_precision_data,
    verify_cybe,
)
from .yd import YDModule, YDModuleAlgebra, check_yd, dual_yd, regular_yd_group_algebra, unit_yd
from .homology import coefficient_complex


class InputError(Exception):
    pass


def _parse_field(text):
    if text is None or text == "Q":
        return QQ
    if text.startswith("Fp:"):
        try:
            return GF(int(text[3:]))
        except Exception as e:
            raise InputError(f"bad field spec {text!r}: {e}") from None
    raise InputError(f"bad field spec {text!r} (expected Q or Fp:<prime>)")


def _print_report(rep):
    print(rep)
    return 0 if rep.passed else 1


def _relref(target, out_path):
    return os.path.relpath(os.path.abspath(target), os.path.dirname(os.path.abspath(out_path)) or ".")


# -- gen ----------------------------------------------------------------------


def cmd_gen(args):
    field = _parse_field(args.field)
    if args.what == "group-algebra":
        spec = args.group
        if spec[0] == "table":
            if len(spec) != 2:
                raise InputError("--group table needs a file argument")
            data = bio._load_json(spec[1])
            if "table" not in data:
                raise bio.SchemaError(f"{spec[1]}: missing key 'table'")
            table, names = data["table"], data.get("names")
        elif len(spec) == 1:
            try:
                table, names = stock_group_table(spec[0])
            except ValueError as e:
                raise InputError(str(e)) from None
        else:
            raise InputError(f"bad --group arguments {spec}")
        try:
            b = group_algebra(table, names=names, field=field)
        except ValueError as e:
            raise InputError(f"not a group table: {e}") from None
        bio.save_bialgebra(args.output, b)
        print(f"wrote {args.output}")
        return 0
    # regular-yd / trivial-yd need a base bialgebra file
    b = bio.load_bialgebra(args.hopf)
    if args.what == "regular-yd":
        try:
            m = regular_yd_group_algebra(b)
        except ValueError as e:
            raise InputError(f"{args.hopf} is not a group algebra: {e}") from None
    else:
        m = unit_yd(b)
    bio.save_yd_module(args.output, m, _relref(args.hopf, args.output))
    print(f"wrote {args.output}")
    return 0


# -- check ---------------------------------------------------------------------


def cmd_check(args):
    worst = 0
    for path in args.files:
        if args.what in ("bialgebra", "hopf"):
            b = bio.load_bialgebra(path)
            rep = check_bialgebra(b, args.what)
        elif args.what in ("yd", "yd-algebra"):
            m = bio.load_yd_module(path)
            if args.what == "yd-algebra" and not isinstance(m, YDModuleAlgebra):
                raise InputError(f"{path}: no multiplication data (not a module algebra)")
            rep = check_yd(m, "yd_algebra" if args.what == "yd-algebra" else "yd")
        else:  # rmatrix
            r = bio.load_rmatrix(path)
            level = {"weak": "weak", "strong": "strong", "quantum": "quantum_ybe"}[args.level]
            rep = check_r(r, level)
        print(f"== {path}")
        worst = max(worst, _print_report(rep))
    return worst


# -- dual ------------------------------------------------------------------------


def cmd_dual(args):
    if args.what == "bialgebra":
        b = bio.load_bialgebra(args.file)
        bio.save_bialgebra(args.output, dual_bialgebra(b))
        print(f"wrote {args.output}")
        return 0
    m = bio.load_yd_module(args.file)
    if isinstance(m, YDModuleAlgebra):
        m = m.yd
    if m.delta is None:
        raise InputError(f"{args.file}: plain module has no coaction to dualise")
    dm = dual_yd(m)
    base_out = args.base_output
    if base_out is None:
        root, ext = os.path.splitext(args.output)
        base_out = root + "_base" + (ext or ".json")
    bio.save_bialgebra(base_out, dm.base)
    bio.save_yd_module(args.output, dm, _relref(base_out, args.output))
    print(f"wrote {args.output} (base: {base_out})")
    return 0


# -- rmatrix ----------------------------------------------------------------------


def cmd_rmatrix(args):
    if args.what == "coaction":
        m = bio.load_yd_module(args.module)
        if isinstance(m, YDModuleAlgebra):
            m = m.yd
        r = bio.load_rmatrix(args.r)
        if not m.base.same_structure(r.base):
            raise InputError("module and R-matrix reference different bialgebras")
        mod_rep = check_yd(m, "module")
        weak_rep = check_r(r, "weak")
        if not mod_rep.passed:
            print(mod_rep)
            return 1
        if not weak_rep.passed:
            print(weak_rep)
            return 1
        out = yd_from_r(m, r)
        data = bio._load_json(args.module)
        bio.save_yd_module(args.output, out, _relref(bio.resolve_reference(args.module, data["bialgebra"]), args.output))
        print(f"wrote {args.output}")
        return 0
    # inverse
    r = bio.load_rmatrix(args.r)
    try:
        filled = antipode_inverse_r(r)
    except AntipodeMissingError as e:
        print(f"FAIL no antipode: {e}")
        return 1
    data = bio._load_json(args.r)
    bio.save_rmatrix(args.output, filled, _relref(bio.resolve_reference(args.r, data["bialgebra"]), args.output))
    print(f"wrote {args.output}")
    return 0


# -- build / verify / glue ----------------------------------------------------------


def cmd_build(args):
    b = bio.load_bialgebra(args.hopf)
    mods = []
    for path in args.mod or []:
        m = bio.load_yd_module(path)
        yd = m.yd if isinstance(m, YDModuleAlgebra) else m
        if not yd.base.same_structure(b):
            raise InputError(f"{path}: module base differs from {args.hopf}")
        rebased = YDModule(b, yd.space, yd.lam, yd.delta)
        mods.append(YDModuleAlgebra(rebased, m.mu, m.nu) if isinstance(m, YDModuleAlgebra) else rebased)
    variant = {"yd": "yd", "ydalg": "ydalg"}[args.variant]
    try:
        sys_ = build_yd_system(b, mods, variant)
    except (ValueError, TypeError) as e:
        print(f"FAIL {e}")
        return 1
    bio.save_system(args.output, sys_)
    print(f"wrote {args.output}")
    return 0


def cmd_verify(args):
    if args.what == "cybe":
        s = bio.load_system(args.file)
        return _print_report(verify_cybe(s))
    src = bio.load_system(getattr(args, "from"))
    dst = bio.load_system(args.to)
    if src.rank != dst.rank:
        raise InputError(f"rank mismatch: {src.rank} vs {dst.rank}")
    fs = bio.load_maps(args.maps, src, dst)
    return _print_report(check_braided_morphism(fs, src, dst))


def cmd_glue(args):
    s = bio.load_system(args.system)
    try:
        out = glue(s, args.lo, args.hi)
    except ValueError as e:
        raise InputError(str(e)) from None
    except AssertionError as e:
        print(f"FAIL {e}")
        return 1
    bio.save_system(args.output, out)
    print(f"wrote {args.output}")
    return 0


# -- harness ---------------------------------------------------------------------


def cmd_harness(args):
    b = bio.load_bialgebra(args.hopf)
    rep_pre = check_bialgebra(b, "bialgebra")
    if not rep_pre.passed:
        print(rep_pre)
        return 1
    rng = random.Random(args.seed)
    failures = 0
    counts = {}
    try:
        for trial in range(args.trials):
            v, lam, delta, mu, nu = random_precision_data(b, args.dim, rng)
            rep, rows = precision_harness(b, v, lam, delta, mu, nu)
            for row in rows:
                held = (not row["side"]) or row["cybe"] == row["axiom"]
                stats = counts.setdefault(row["row"], [0, 0, 0])
                stats[0] += int(row["axiom"])
                stats[1] += int(held)
                stats[2] += 1
                if not held:
                    failures += 1
                    print(f"FAIL trial {trial} row {row['row']}: cYBE={row['cybe']} axiom={row['axiom']}")
    except ValueError as e:
        raise InputError(str(e)) from None
    for name, (true_count, held, total) in sorted(counts.items()):
        print(f"row {name}: equivalence held in {held}/{total} trials (axiom true in {true_count})")
    print(f"{args.trials} trials, {failures} equivalence violations")
    return 1 if failures else 0


# -- homology ---------------------------------------------------------------------


def cmd_homology(args):
    b = bio.load_bialgebra(args.hopf)
    m = bio.load_yd_module(args.mod)
    n = bio.load_yd_module(args.coeff)
    if isinstance(m, YDModuleAlgebra):
        m = m.yd
    if isinstance(n, YDModuleAlgebra):
        n = n.yd
    for mod, path in ((m, args.mod), (n, args.coeff)):
        if not mod.base.same_structure(b):
            raise InputError(f"{path}: module base differs from {args.hopf}")
        if mod.delta is None:
            raise InputError(f"{path}: homology needs a full YD module (coaction)")
    try:
        cx = coefficient_complex(b, m, n, args.line, args.max_degree)
    except ValueError as e:
        print(f"FAIL {e}")
        return 1
    report = bio.homology_report(cx, which=args.which, cohomology=args.cohomology)
    bio.save_report(args.output, report)
    ids = report["identities"]
    for name, ok in ids.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    for row in report["degrees"]:
        print(
            f"degree {row['degree']}: chain_dim={row['chain_dim']} rank_d={row['rank_d']} "
            f"rank_d'={row['rank_d_prime']} homology_dim={row['homology_dim']}"
        )
    print(f"wrote {args.output}")
    return 0 if all(ids.values()) else 1


# -- parser -----------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="braidalg",
        description="Exact checks for bialgebras, YD modules, R-matrices, braided systems and homology.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate example objects")
    gs = g.add_subparsers(dest="what", required=True)
    ga = gs.add_parser("group-algebra")
    ga.add_argument("--group", nargs="+", required=True, metavar="Zn|S3|D4|table FILE")
    ga.add_argument("--field", default="Q", metavar="Q|Fp:<p>")
    ga.add_argument("-o", "--output", required=True)
    ga.set_defaults(func=cmd_gen)
    for name in ("regular-yd", "trivial-yd"):
        gm = gs.add_parser(name)
        gm.add_argument("--hopf", required=True)
        gm.add_argument("--field", default=None, help=argparse.SUPPRESS)
        gm.add_argument("-o", "--output", required=True)
        gm.set_defaults(func=cmd_gen)

    c = sub.add_parser("check", help="verify axioms of stored objects")
    cs = c.add_subparsers(dest="what", required=True)
    for name in ("bialgebra", "hopf", "yd", "yd-algebra"):
        cc = cs.add_parser(name)
        cc.add_argument("files", nargs="+")
        cc.set_defaults(func=cmd_check)
    cr = cs.add_parser("rmatrix")
    cr.add_argument("--level", choices=("weak", "strong", "quantum"), required=True)
    cr.add_argument("files", nargs="+")
    cr.set_defaults(func=cmd_check)

    d = sub.add_parser("dual", help="dualise a bialgebra or YD module")
    ds = d.add_subparsers(dest="what", required=True)
    for name in ("bialgebra", "yd"):
        dd = ds.add_parser(name)
        dd.add_argument("file")
        dd.add_argument("-o", "--output", required=True)
        if name == "yd":
            dd.add_argument("--base-o", dest="base_output", default=None, help="output path for the dual base bialgebra")
        dd.set_defaults(func=cmd_dual)

    r = sub.add_parser("rmatrix", help="R-matrix constructions")
    rs = r.add_subparsers(dest="what", required=True)
    rc = rs.add_parser("coaction")
    rc.add_argument("--module", required=True)
    rc.add_argument("--r", required=True)
    rc.add_argument("-o", "--output", required=True)
    rc.set_defaults(func=cmd_rmatrix)
    ri = rs.add_parser("inverse")
    ri.add_argument("--r", required=True)
    ri.add_argument("-o", "--output", required=True)
    ri.set_defaults(func=cmd_rmatrix)

    b = sub.add_parser("build", help="build braided systems")
    bs = b.add_subparsers(dest="what", required=True)
    by = bs.add_parser("yd-system")
    by.add_argument("--hopf", required=True)
    by.add_argument("--mod", action="append", default=[])
    by.add_argument("--variant", choices=("ydalg", "yd"), required=True)
    by.add_argument("-o", "--output", required=True)
    by.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="verify braided-system properties")
    vs = v.add_subparsers(dest="what", required=True)
    vc = vs.add_parser("cybe")
    vc.add_argument("file")
    vc.set_defaults(func=cmd_verify)
    vm = vs.add_parser("morphism")
    vm.add_argument("--from", required=True)
    vm.add_argument("--to", required=True)
    vm.add_argument("--maps", required=True)
    vm.set_defaults(func=cmd_verify)

    gl = sub.add_parser("glue", help="glue consecutive components")
    gl.add_argument("--system", required=True)
    gl.add_argument("--lo", type=int, required=True)
    gl.add_argument("--hi", type=int, required=True)
    gl.add_argument("-o", "--output", required=True)
    gl.set_defaults(func=cmd_glue)

    h = sub.add_parser("harness", help="randomised equivalence harnesses")
    hs = h.add_subparsers(dest="what", required=True)
    hp = hs.add_parser("precision")
    hp.add_argument("--hopf", required=True)
    hp.add_argument("--dim", type=int, required=True)
    hp.add_argument("--trials", type=int, required=True)
    hp.add_argument("--seed", type=int, required=True)
    hp.set_defaults(func=cmd_harness)

    ho = sub.add_parser("homology", help="build and measure a bidifferential complex")
    ho.add_argument("--hopf", required=True)
    ho.add_argument("--mod", required=True)
    ho.add_argument("--coeff", required=True)
    ho.add_argument("--line", type=int, choices=(1, 2, 3, 4), required=True)
    ho.add_argument("--max-degree", type=int, required=True)
    ho.add_argument("--cohomology", action="store_true")
    ho.add_argument("--which", choices=("d", "d_prime", "total"), default="d")
    ho.add_argument("-o", "--output", required=True)
    ho.set_defaults(func=cmd_homology)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (bio.SchemaError, InputError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
