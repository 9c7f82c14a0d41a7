"""Benchmark of the braidalg command line: whole CLI jobs on seeded inputs, each checked by an oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports nothing that is not there and
writes only into a scratch directory under the checkout, removed on exit.

Each job runs as a fresh ``python -m braidalg.cli ...`` process (two for
``cybe-d4-rank4``), one at a time, in a closed loop with one client, because
a user starts a new process for every command: an in-process loop would
carry module-level caches from job to job.  Jobs start until the next one
would overrun ``--seconds``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: the median job wall
time (interpreter start-up included), the largest child peak RSS taken from
``os.wait4``, the median of several set-ups (seeded input generation) and the
share of jobs the oracle accepted.  With ``--trace 1`` untraced and traced
jobs alternate; traced jobs run under ``tracer.py`` and give the per-layer
self times and counters, as means per job, so that the layers' self times
plus ``cli.startup_s`` add up to ``trace.job_s_mean``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass

from tracer import MAIN, SPAN_NAMES, read_spans
from workloads import TABLE, WORKLOADS, job_seed, relabel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")

# Job i runs on relabelling i mod LABELINGS, each set up on first use, so that
# one run samples several pivot orders; setup_s is the median set-up time.
LABELINGS = 6
STEP_TIMEOUT_S = 40  # a process still running after this is killed and its job fails

# ok_ratio is 1 - failed / attempted, the complement of the fail ratio, so that no
# end-to-end metric reads 0 on a healthy run.
END_TO_END = {"job_s_p50": "s", "peak_rss_mb": "MiB", "setup_s": "s", "ok_ratio": "ratio"}
PER_LAYER = {
    **{f"{n}.{k}": u for n in SPAN_NAMES for k, u in (("calls", "count"), ("self_s", "s"))},
    "linalg.rank.nnz_in": "count",
    "linalg.rank.distinct_ratio": "ratio",
    "linalg.matmul.nnz_out": "count",
    "linalg.kronecker.nnz_out": "count",
    "io.load.bytes": "B",
    "io.save.bytes": "B",
    "cli.startup_s": "s",
    "trace.job_s_mean": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Job:
    ok: bool
    wall: float
    max_rss_kb: int
    steps: list  # (exit code, stdout) per process
    outputs: dict  # {file name: bytes} of the files the job wrote


def run_process(argv, cwd, env):
    """(exit code, stdout text, wall seconds, peak RSS in KB) of one child process."""
    t0 = time.perf_counter()
    with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
    killer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    finally:
        killer.cancel()
        killer.join()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), time.perf_counter() - t0, usage.ru_maxrss


def setup(workload, seed, workdir, env):
    """Write one seeded, relabelled set of inputs into workdir; returns the seconds it took."""
    from braidalg.hopf import stock_group_table

    t0 = time.perf_counter()
    os.makedirs(workdir)
    table, names = relabel(*stock_group_table(workload.group), random.Random(seed))
    with open(os.path.join(workdir, TABLE), "w") as fh:
        json.dump({"table": table, "names": names}, fh)
    for args in workload.setup_commands():
        rc, out, _, _ = run_process([sys.executable, "-m", "braidalg.cli", *args], workdir, env)
        if rc != 0:
            raise RuntimeError(f"set-up command {args} exited {rc}: {out}")
    return time.perf_counter() - t0


class Inputs:
    """The run's input directories, one per seeded relabelling, each set up on first use."""

    def __init__(self, workload, seed, workdir, env):
        self.workload, self.seed, self.workdir, self.env = workload, seed, workdir, env
        self.setup_s = []

    def dir(self, index):
        k = index % LABELINGS
        path = os.path.join(self.workdir, f"inputs{k}")
        if not os.path.isdir(path):
            self.setup_s.append(setup(self.workload, f"{self.seed}:{k}", path, self.env))
        return path


def run_job(workload, seed, index, workdir, env, spans_prefix=None):
    """Job ``index`` in the inputs directory ``workdir``.

    Traced when ``spans_prefix`` is given, with one spans file per process.
    """
    for name in workload.outputs:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            os.remove(path)
    steps, wall, max_rss = [], 0.0, 0
    for s, args in enumerate(workload.job(job_seed(seed, index))):
        if spans_prefix is None:
            argv = [sys.executable, "-m", "braidalg.cli", *args]
        else:
            argv = [sys.executable, TRACER, f"{spans_prefix}.{s}", *args]
        rc, out, dt, rss = run_process(argv, workdir, env)
        steps.append((rc, out))
        wall += dt
        max_rss = max(max_rss, rss)
    ok = workload.check(steps, workdir)
    outputs = {}
    for name in workload.outputs:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                outputs[name] = fh.read()
    if not ok:
        with open(os.path.join(workdir, "stderr.txt")) as fh:
            print(f"job {index} failed the oracle: steps={steps!r} stderr={fh.read()!r}", file=sys.stderr)
    return Job(ok, wall, max_rss, steps, outputs)


def closed_loop(seconds, run_one):
    """Call run_one(i) for i = 0, 1, ... until one more call would overrun ``seconds``."""
    t0 = time.perf_counter()
    durations, results = [], []
    while True:
        start = time.perf_counter()
        results.append(run_one(len(results)))
        durations.append(time.perf_counter() - start)
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            return results


class LayerTotals:
    """Per-layer self times and counters summed over traced processes."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counters = Counter()
        self.main_s = 0.0

    def add(self, path):
        header, name_ids, parents, starts, ends = read_spans(path)
        names = header["names"]
        n = len(starts)
        dur = [ends[i] - starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            name = names[name_ids[i]]
            self.calls[name] += 1
            self.self_s[name] += dur[i]
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
                self.self_s[names[name_ids[p]]] -= dur[i]
            elif name == MAIN:
                self.main_s += dur[i]
            else:
                raise ValueError(f"span {name} outside {MAIN}")
        # children run one after another inside their parent, so none may
        # cover more than the parent's own duration
        if any(child[i] > dur[i] + 1e-9 for i in range(n)):
            raise ValueError("child spans cover more than their parent")
        counters = header["counters"]
        self.counters["linalg.rank.distinct"] += counters.pop("linalg.rank.distinct", 0)
        self.counters.update(counters)


def layer_metrics(traced, untraced, totals):
    jobs = len(traced)
    wall_sum = sum(j.wall for j in traced)
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = totals.calls[name] / jobs
        m[f"{name}.self_s"] = totals.self_s[name] / jobs
    rank_calls = totals.calls["linalg.rank"]
    m["linalg.rank.nnz_in"] = totals.counters["linalg.rank.nnz_in"] / jobs
    m["linalg.rank.distinct_ratio"] = totals.counters["linalg.rank.distinct"] / rank_calls if rank_calls else 0.0
    for key in ("linalg.matmul.nnz_out", "linalg.kronecker.nnz_out", "io.load.bytes", "io.save.bytes"):
        m[key] = totals.counters[key] / jobs
    m["cli.startup_s"] = (wall_sum - totals.main_s) / jobs
    m["trace.job_s_mean"] = wall_sum / jobs
    m["trace.overhead_s"] = statistics.median(j.wall for j in traced) - statistics.median(j.wall for j in untraced)
    layers = sum(m[f"{name}.self_s"] for name in SPAN_NAMES) + m["cli.startup_s"]
    if abs(layers - m["trace.job_s_mean"]) > 1e-6 * max(1.0, m["trace.job_s_mean"]):
        raise ValueError(f"layer self times sum to {layers}, traced jobs took {m['trace.job_s_mean']}")
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "braidalg", "cli.py")):
        print(f"no braidalg sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))

    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        inputs = Inputs(workload, args.seed, workdir, env)
        inputs.dir(0)  # the first job starts once this set-up ends
        if args.trace:
            traced, untraced, totals = [], [], LayerTotals()

            def pair(i):
                d = inputs.dir(i)
                plain = run_job(workload, args.seed, i, d, env)
                prefix = os.path.join(workdir, f"spans{i}")
                job = run_job(workload, args.seed, i, d, env, prefix)
                # the traced job must print and write exactly what the untraced one did
                job.ok = job.ok and job.steps == plain.steps and job.outputs == plain.outputs
                spans = [f"{prefix}.{s}" for s in range(len(job.steps))]
                if all(os.path.exists(path) for path in spans):
                    for path in spans:
                        totals.add(path)
                    untraced.append(plain)
                    traced.append(job)
                else:
                    job.ok = False
                return plain, job

            jobs = [j for both in closed_loop(args.seconds, pair) for j in both]
            if not traced:
                raise RuntimeError("no traced job wrote its spans")
            metrics = {k: (v, PER_LAYER[k]) for k, v in layer_metrics(traced, untraced, totals).items()}
            failed = sum(not j.ok for j in jobs)
        else:
            jobs = closed_loop(args.seconds, lambda i: run_job(workload, args.seed, i, inputs.dir(i), env))
            failed = sum(not j.ok for j in jobs)
            values = {
                "job_s_p50": statistics.median(j.wall for j in jobs),
                "peak_rss_mb": max(j.max_rss_kb for j in jobs) / 1024,
                "setup_s": statistics.median(inputs.setup_s),
                "ok_ratio": 1 - failed / len(jobs),
            }
            metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
