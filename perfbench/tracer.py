"""Run one braidalg CLI command with a span around every call into each layer.

    python perfbench/tracer.py SPANS_FILE <braidalg arguments...>

Standard output, output files and exit code are those of
``python -m braidalg.cli <arguments>``.  The program is not changed: the
wrappers below rebind the public functions and methods of each layer, and
every module-level alias of them that the package imported at load time
(``homology.matrix_rank``, the ``tensor`` names in ``hopf``, the ``cli``
imports and so on).  Spans (name, start, end, parent) and counters stay in
memory and are written to SPANS_FILE when the command ends: one JSON header
line, then the span arrays as raw machine bytes (see ``read_spans``).
"""

from __future__ import annotations

import array
import collections
import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name).  A call made while a span of the same group
# is innermost belongs to that span: rank -> rref -> rref_data is one rank
# span, load_yd_module -> load_bialgebra is one load span.
SPANS = (
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "rref", "linalg.elim_other"),
    ("linalg", "kernel_basis", "linalg.elim_other"),
    ("linalg", "solve_linear", "linalg.elim_other"),
    ("linalg", "inverse", "linalg.elim_other"),
    ("linalg", "SparseMatrix.rref_data", "linalg.elim_other"),
    ("linalg", "SparseMatrix.__matmul__", "linalg.matmul"),
    ("linalg", "SparseMatrix.kronecker", "linalg.kronecker"),
    ("linalg", "kronecker", "linalg.kronecker"),
    ("tensor", "LinMap.compose", "tensor.compose"),
    ("tensor", "LinMap.tensor", "tensor.tensor"),
    ("tensor", "tensor_maps", "tensor.tensor"),
    ("tensor", "embed_at", "tensor.tensor"),
    ("tensor", "permutation_map", "tensor.permutation"),
    ("hopf", "check_bialgebra", "hopf.check_bialgebra"),
    ("hopf", "dual_bialgebra", "hopf.dual_bialgebra"),
    ("yd", "check_yd", "yd.check_yd"),
    ("systems", "verify_cybe", "systems.verify_cybe"),
    ("systems", "build_yd_system", "systems.build_yd_system"),
    ("systems", "precision_harness", "systems.precision_harness"),
    ("systems", "random_precision_data", "systems.random_precision_data"),
    ("homology", "coefficient_complex", "homology.coefficient_complex"),
    ("homology", "verify_bicomplex", "homology.verify_bicomplex"),
    ("homology", "GradedComplex.assemble", "homology.assemble"),
    ("homology", "homology_dims", "homology.homology_dims"),
    ("io", "homology_report", "io.homology_report"),
    ("io", "_load_json", "io.load"),
    ("io", "load_bialgebra", "io.load"),
    ("io", "load_yd_module", "io.load"),
    ("io", "load_rmatrix", "io.load"),
    ("io", "load_system", "io.load"),
    ("io", "load_maps", "io.load"),
    ("io", "_dump_json", "io.save"),
    ("io", "save_bialgebra", "io.save"),
    ("io", "save_yd_module", "io.save"),
    ("io", "save_rmatrix", "io.save"),
    ("io", "save_system", "io.save"),
    ("io", "save_report", "io.save"),
)
GROUPS = {"linalg.rank": "linalg.elim", "linalg.elim_other": "linalg.elim"}
MAIN = "cli.main"
COUNTERS = "trace.counters"  # time spent in the counters below, kept out of every layer
SPAN_NAMES = tuple(dict.fromkeys([s for _, _, s in SPANS] + [MAIN, COUNTERS]))


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._open = []  # (span index, group), innermost last
        self.counters = collections.Counter()
        self.rank_inputs = []  # (rows, cols, nnz) of each rank input
        self._rank_keys = set()

    def _begin(self, name_id, group):
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._open[-1][0] if self._open else -1)
        self.ends.append(0.0)
        self._open.append((idx, group))
        self.starts.append(time.perf_counter())
        return idx

    def _end(self, idx):
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, group, count=None):
        """fn inside a span; ``count(args, result)`` then runs in a span of its own."""
        name_id, count_id = self._id(name), self._id(COUNTERS)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open and self._open[-1][1] == group:
                result = fn(*args, **kwargs)
            else:
                idx = self._begin(name_id, group)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._end(idx)
            if count is not None:
                idx = self._begin(count_id, COUNTERS)
                try:
                    count(self, args, result)
                finally:
                    self._end(idx)
            return result

        return traced

    # -- counters: shapes, nnz, distinct rank inputs and JSON bytes ---------

    def count_rank(self, args, result):
        m = args[0]
        self.rank_inputs.append((m.n_rows, m.n_cols, len(m.entries)))
        self._rank_keys.add(hash((m.field, m.n_rows, m.n_cols, frozenset(m.entries.items()))))
        self.counters["linalg.rank.nnz_in"] += len(m.entries)
        self.counters["linalg.rank.distinct"] = len(self._rank_keys)

    def count_matmul(self, args, result):
        self.counters["linalg.matmul.nnz_out"] += len(result.entries)

    def count_kronecker(self, args, result):
        self.counters["linalg.kronecker.nnz_out"] += len(result.entries)

    def count_load(self, args, result):
        self.counters["io.load.bytes"] += os.path.getsize(args[0])

    def count_save(self, args, result):
        self.counters["io.save.bytes"] += os.path.getsize(args[0])

    def dump(self, path):
        header = {
            "names": self.names,
            "counters": dict(self.counters),
            "rank_inputs": self.rank_inputs,
            "spans": len(self.starts),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                fh.write(arr.tobytes())


COUNTS = {
    ("linalg", "rank"): Tracer.count_rank,
    ("linalg", "SparseMatrix.__matmul__"): Tracer.count_matmul,
    ("linalg", "SparseMatrix.kronecker"): Tracer.count_kronecker,
    ("io", "_load_json"): Tracer.count_load,
    ("io", "_dump_json"): Tracer.count_save,
}


def install(tracer):
    """Rebind every function in SPANS, and each alias of it, to its traced wrapper."""
    package = [m for n, m in sys.modules.items() if n == "braidalg" or n.startswith("braidalg.")]
    for module_name, attr, span in SPANS:
        module = importlib.import_module(f"braidalg.{module_name}")
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, name)
        wrapper = tracer.wrap(original, span, GROUPS.get(span, span), COUNTS.get((module_name, attr)))
        setattr(owner, name, wrapper)
        if owner_name:
            continue
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def read_spans(path):
    """(header, name_ids, parents, starts, ends) as written by ``Tracer.dump``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in "iidd":
            arr = array.array(code)
            arr.frombytes(fh.read(n * arr.itemsize))
            arrays.append(arr)
    return (header, *arrays)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    import braidalg.cli as cli

    tracer = Tracer()
    install(tracer)
    traced_main = tracer.wrap(cli.main, MAIN, MAIN)
    try:
        code = traced_main(cli_args)
    except SystemExit as e:
        code = e.code
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
