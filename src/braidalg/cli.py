"""Command-line workflows tying the library together.

Exit codes: 0 = all checks pass, 1 = a mathematical check failed (a witness
is printed; ``main`` alone turns ``CheckFailed`` into 1), 2 = input/schema error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import io as bio
from .hopf import check_bialgebra, dual_bialgebra, group_algebra, stock_group_table
from .linalg import GF, QQ
from .report import CheckFailed
from .systems import (
    build_yd_system,
    check_braided_morphism,
    glue,
    precision_harness,
    random_precision_data,
    verify_cybe,
    yd_base,
)
from .yd import YDModuleAlgebra, adjoint_yd, check_yd, dual_yd, unit_yd


class InputError(Exception):
    pass


def _parse_field(text):
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        try:
            return GF(int(text[3:]))
        except ValueError as e:
            raise InputError(f"bad field spec {text!r}: {e}") from None
    raise InputError(f"bad field spec {text!r} (expected Q or Fp:<prime>)")


def _print_report(rep):
    print(rep)
    return 0 if rep.passed else 1


def _need_algebra(m, path):
    """Refuse a plain module where a YD module algebra is needed."""
    if not isinstance(m, YDModuleAlgebra):
        raise InputError(f"{path}: no multiplication data (not a module algebra)")


def _need_coaction(m, path):
    if m.delta is None:
        raise InputError(f"{path}: homology needs a full YD module (coaction)")


def _load_over_hopf(hopf, paths, need=None):
    """The bialgebra of ``hopf`` and the modules of ``paths``, each file parsed once, each module
    over an equal base and accepted by ``need(m, path)`` when given."""
    b = bio.load_bialgebra(hopf)
    bases = {os.path.abspath(hopf): b}  # a module naming this file reuses it
    loaded = {}  # resolved path -> module: a file named twice is parsed once
    for path in paths:
        if (key := os.path.abspath(path)) not in loaded:
            loaded[key] = bio.load_yd_module(path, bases)
    mods = [loaded[os.path.abspath(path)] for path in paths]
    for m, path in zip(mods, paths):
        if not m.base.same_structure(b):
            raise InputError(f"{path}: module base differs from {hopf}")
        if need is not None:
            need(m, path)
    return b, mods


def _relref(target, out_path):
    return os.path.relpath(os.path.abspath(target), os.path.dirname(os.path.abspath(out_path)) or ".")


# -- gen ----------------------------------------------------------------------


def cmd_gen(args):
    if args.what == "group-algebra":
        spec = args.group
        if spec[0] == "table":
            if len(spec) != 2:
                raise InputError("--group table needs a file argument")
            table, names = bio.load_group_table(spec[1])
        elif len(spec) == 1:
            try:
                table, names = stock_group_table(spec[0])
            except ValueError as e:
                raise InputError(str(e)) from None
        else:
            raise InputError(f"bad --group arguments {spec}")
        try:
            b = group_algebra(table, names=names, field=_parse_field(args.field))
        except ValueError as e:
            raise InputError(f"not a group table: {e}") from None
        bio.save_bialgebra(args.output, b)
        print(f"wrote {args.output}")
        return 0
    # regular-yd / trivial-yd need a base bialgebra file
    b = bio.load_bialgebra(args.hopf)
    if args.what == "regular-yd":
        try:
            m = adjoint_yd(b)
        except ValueError as e:
            raise InputError(f"{args.hopf}: {e}") from None
    else:
        m = unit_yd(b)
    bio.save_yd_module(args.output, m, _relref(args.hopf, args.output))
    print(f"wrote {args.output}")
    return 0


# -- check ---------------------------------------------------------------------


def cmd_check(args):
    worst = 0
    bases = {}  # files naming one base bialgebra parse it once
    for path in args.files:
        if args.what in ("bialgebra", "hopf"):
            b = bio.load_bialgebra(path)
            rep = check_bialgebra(b, args.what)
        elif args.what in ("yd", "yd-algebra"):
            m = bio.load_yd_module(path, bases)
            if args.what == "yd-algebra":
                _need_algebra(m, path)
            rep = check_yd(m, "yd_algebra" if args.what == "yd-algebra" else "yd")
        else:  # rmatrix
            from .rmatrix import check_r

            r = bio.load_rmatrix(path, bases)
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
    from .rmatrix import AntipodeMissingError, antipode_inverse_r, check_r, yd_from_r

    if args.what == "coaction":
        bases = {}
        m, base_path = bio.load_with_base(args.module, bio.yd_module_from_json, bases)
        r = bio.load_rmatrix(args.r, bases)
        if not m.base.same_structure(r.base):
            raise InputError("module and R-matrix reference different bialgebras")
        rep = check_yd(m, "module")
        if rep.passed:
            rep = check_r(r, "weak")
        if not rep.passed:
            return _print_report(rep)
        out = yd_from_r(m, r)
        bio.save_yd_module(args.output, out, _relref(base_path, args.output))
        print(f"wrote {args.output}")
        return 0
    # inverse
    r, base_path = bio.load_with_base(args.r, bio.rmatrix_from_json)
    try:
        filled = antipode_inverse_r(r)
    except AntipodeMissingError as e:
        raise InputError(f"{args.r}: {e}") from None
    bio.save_rmatrix(args.output, filled, _relref(base_path, args.output))
    print(f"wrote {args.output}")
    return 0


# -- build / verify / glue ----------------------------------------------------------


def cmd_build(args):
    b, mods = _load_over_hopf(args.hopf, args.mod, _need_algebra if args.variant == "ydalg" else None)
    bio.save_system(args.output, build_yd_system(b, mods, args.variant))
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
    if src.field != dst.field:
        raise InputError(f"field mismatch: {src.field!r} vs {dst.field!r}")
    fs = bio.load_maps(args.maps, src, dst)
    return _print_report(check_braided_morphism(fs, src, dst))


def cmd_glue(args):
    s = bio.load_system(args.system)
    try:
        out = glue(s, args.lo, args.hi)
    except ValueError as e:
        raise InputError(str(e)) from None
    bio.save_system(args.output, out)
    print(f"wrote {args.output}")
    return 0


# -- harness ---------------------------------------------------------------------


def cmd_harness(args):
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    b = bio.load_bialgebra(args.hopf)
    rep = check_bialgebra(b, "bialgebra")
    if not rep.passed:
        return _print_report(rep)
    base = yd_base(b)
    rng = random.Random(args.seed)
    failures = 0
    counts = {}
    for trial in range(args.trials):
        try:
            alg = random_precision_data(b, args.dim, rng)
        except ValueError as e:
            raise InputError(str(e)) from None
        for row in precision_harness(alg, base):
            stats = counts.setdefault(row["row"], [0, 0, 0])
            stats[0] += int(row["axiom"])
            stats[1] += int(row["equivalence"])
            stats[2] += 1
            if not row["equivalence"]:
                failures += 1
                print(f"FAIL trial {trial} row {row['row']}: cYBE={row['cybe']} axiom={row['axiom']}")
    for name, (true_count, held, total) in sorted(counts.items()):
        print(f"row {name}: equivalence held in {held}/{total} trials (axiom true in {true_count})")
    print(f"{args.trials} trials, {failures} equivalence violations")
    return 1 if failures else 0


# -- homology ---------------------------------------------------------------------


def cmd_homology(args):
    from .homology import coefficient_complex

    if args.max_degree < 1:
        raise InputError(f"--max-degree must be at least 1, got {args.max_degree}")
    b, (m, n) = _load_over_hopf(args.hopf, (args.mod, args.coeff), _need_coaction)
    cx = coefficient_complex(b, m, n, args.line, args.max_degree)
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
    except CheckFailed as e:
        print(f"FAIL {e}")
        return 1
    except (bio.SchemaError, InputError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
