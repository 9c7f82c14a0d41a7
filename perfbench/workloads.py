"""The benchmark's workloads: seeded inputs, the CLI jobs run on them, and their oracles.

Every workload starts from a stock group table (S3, D4 or Z2) whose elements
are relabelled by a permutation drawn from the workload seed.  Relabelling
leaves every mathematical answer unchanged but changes the basis order, and
with it the pivot order of every elimination, so no change can tune itself
to one basis order.  The relabelled table reaches the program only as a
file, through ``gen group-algebra --group table FILE``.
"""

from __future__ import annotations

import json
import os
import random
import re

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Files one set-up writes into the work directory.
TABLE, HOPF, REGULAR, TRIVIAL = "table.json", "hopf.json", "regular.json", "trivial.json"

HARNESS_TRIALS = 1000
HARNESS_ROWS = 6
CYBE_INSTANCES = 20  # triples i <= j <= k of a rank-4 system

_ROW_RE = re.compile(r"^row (\w+): equivalence held in (\d+)/(\d+) trials \(axiom true in \d+\)$")


def relabel(table, names, rng):
    """The same group with element a renamed perm[a], perm drawn from rng."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    new_table = [[0] * n for _ in range(n)]
    new_names = [None] * n
    for a in range(n):
        new_names[perm[a]] = names[a]
        for b in range(n):
            new_table[perm[a]][perm[b]] = perm[table[a][b]]
    return new_table, new_names


def job_seed(workload_seed, index):
    """The seed handed to a job's command, fixed by the workload seed and the job's index."""
    return random.Random(f"{workload_seed}:{index}").randrange(1, 2**31)


class Workload:
    """One workload: which group and field to start from, what a job runs, and its oracle."""

    outputs = ()  # files a job writes; removed before each job

    def __init__(self, name, why, group, field):
        self.name = name
        self.why = why
        self.group = group
        self.field = field

    def setup_commands(self):
        """CLI argument lists that turn the relabelled table file into the input files."""
        return [
            ["gen", "group-algebra", "--group", "table", TABLE, "--field", self.field, "-o", HOPF],
            ["gen", "regular-yd", "--hopf", HOPF, "-o", REGULAR],
        ]

    def job(self, seed):
        """The CLI argument lists of one job; each runs as a process of its own."""
        raise NotImplementedError

    def check(self, steps, workdir):
        """True when a job gave the oracle's answer; ``steps`` holds (exit code, stdout) per process."""
        raise NotImplementedError


class HomologyWorkload(Workload):
    outputs = ("report.json",)

    def __init__(self, name, why, group, field, max_degree, golden):
        super().__init__(name, why, group, field)
        self.max_degree = max_degree
        self.golden = os.path.join(GOLDEN_DIR, golden)

    def setup_commands(self):
        return super().setup_commands() + [["gen", "trivial-yd", "--hopf", HOPF, "-o", TRIVIAL]]

    def job(self, seed):
        return [
            [
                "homology", "--hopf", HOPF, "--mod", REGULAR, "--coeff", TRIVIAL,
                "--line", "4", "--max-degree", str(self.max_degree), "-o", "report.json",
            ]
        ]

    def check(self, steps, workdir):
        ((rc, _out),) = steps
        path = os.path.join(workdir, "report.json")
        if rc != 0 or not os.path.exists(path):
            return False
        with open(path) as fh:
            try:
                report = json.load(fh)
            except json.JSONDecodeError:
                return False
        with open(self.golden) as fh:
            return report == json.load(fh)


class CybeWorkload(Workload):
    outputs = ("system.json",)

    def job(self, seed):
        return [
            ["build", "yd-system", "--hopf", HOPF, "--mod", REGULAR, "--mod", REGULAR,
             "--variant", "yd", "-o", "system.json"],
            ["verify", "cybe", "system.json"],
        ]

    def check(self, steps, workdir):
        (rc_build, out_build), (rc_verify, out_verify) = steps
        if rc_build != 0 or out_build != "wrote system.json\n" or rc_verify != 0:
            return False
        lines = out_verify.splitlines()
        passed = [ln for ln in lines if ln.startswith("PASS cYBE(")]
        return len(passed) == CYBE_INSTANCES and not any(ln.startswith("FAIL") for ln in lines)


class HarnessWorkload(Workload):
    def job(self, seed):
        return [
            ["harness", "precision", "--hopf", HOPF, "--dim", "2",
             "--trials", str(HARNESS_TRIALS), "--seed", str(seed)]
        ]

    def check(self, steps, workdir):
        ((rc, out),) = steps
        lines = out.splitlines()
        if rc != 0 or not lines or lines[-1] != f"{HARNESS_TRIALS} trials, 0 equivalence violations":
            return False
        rows = [m for m in map(_ROW_RE.match, lines) if m]
        return len(rows) == HARNESS_ROWS and all(
            int(m.group(2)) == int(m.group(3)) == HARNESS_TRIALS for m in rows
        )


WORKLOADS = {
    w.name: w
    for w in (
        HomologyWorkload(
            "homology-s3-q",
            "few large Q eliminations (d_3 is 648x5184): Fraction rank, Sweedler assembly and the bicomplex check",
            "S3", "Q", 3, "homology_s3_q_line4_deg3.json",
        ),
        HomologyWorkload(
            "homology-z2-f5-deep",
            "many small F_5 blocks over eight degrees: Sweedler assembly and prime-field rank, no Fraction",
            "Z2", "Fp:5", 7, "homology_z2_f5_line4_deg7.json",
        ),
        CybeWorkload(
            "cybe-d4-rank4",
            "build then verify the rank-4 kD4 system: Kronecker-expanded identities, Q matmul, a 543 KB JSON file, no elimination",
            "D4", "Q",
        ),
        HarnessWorkload(
            "harness-z2-f5",
            "tens of thousands of tiny F_5 matrices: per-call overhead in linalg, tensor and the axiom checkers",
            "Z2", "Fp:5",
        ),
    )
}
