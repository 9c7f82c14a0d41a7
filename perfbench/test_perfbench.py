"""Tests of the benchmark itself: oracles, relabelling, tracing and its contract file.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
import tracer
from workloads import WORKLOADS, relabel

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from braidalg.hopf import check_bialgebra, group_algebra, stock_group_table  # noqa: E402


def _write_report(workdir, report):
    with open(os.path.join(workdir, "report.json"), "w") as fh:
        json.dump(report, fh)


@pytest.mark.parametrize("name", ["homology-s3-q", "homology-z2-f5-deep"])
def test_homology_oracle_rejects_a_perturbed_report(tmp_path, name):
    w = WORKLOADS[name]
    with open(w.golden) as fh:
        golden = json.load(fh)
    _write_report(tmp_path, golden)
    assert w.check([(0, "")], str(tmp_path))
    assert not w.check([(1, "")], str(tmp_path))

    wrong = json.loads(json.dumps(golden))
    wrong["degrees"][-1]["rank_d"] += 1
    _write_report(tmp_path, wrong)
    assert not w.check([(0, "")], str(tmp_path))

    os.remove(tmp_path / "report.json")
    assert not w.check([(0, "")], str(tmp_path))


def test_cybe_oracle_needs_every_instance(tmp_path):
    w = WORKLOADS["cybe-d4-rank4"]
    triples = [(i, j, k) for i in range(1, 5) for j in range(i, 5) for k in range(j, 5)]
    verify = "cYBE\n" + "".join(f"PASS cYBE({i},{j},{k})\n" for i, j, k in triples)
    build = (0, "wrote system.json\n")
    assert w.check([build, (0, verify)], str(tmp_path))
    assert not w.check([build, (0, verify.replace("PASS cYBE(4,4,4)", "FAIL cYBE(4,4,4)"))], str(tmp_path))
    assert not w.check([build, (1, verify)], str(tmp_path))
    assert not w.check([(1, ""), (0, verify)], str(tmp_path))


def test_harness_oracle_needs_held_equal_total(tmp_path):
    w = WORKLOADS["harness-z2-f5"]
    rows = ["yd_compatibility", "action_associativity", "coaction_coassociativity",
            "action_respects_mu", "coaction_respects_mu", "mu_associativity"]
    good = "".join(f"row {r}: equivalence held in 1000/1000 trials (axiom true in 7)\n" for r in rows)
    good += "1000 trials, 0 equivalence violations\n"
    assert w.check([(0, good)], str(tmp_path))
    assert not w.check([(0, good.replace("held in 1000/1000", "held in 999/1000", 1))], str(tmp_path))
    assert not w.check([(1, good)], str(tmp_path))


@pytest.mark.parametrize("group", ["Z2", "Z5", "S3", "D4"])
def test_relabelled_tables_are_valid_groups(group):
    table, names = stock_group_table(group)
    for seed in range(5):
        new_table, new_names = relabel(table, names, random.Random(seed))
        assert sorted(new_names) == sorted(names)
        b = group_algebra(new_table, names=new_names)
        assert check_bialgebra(b, "hopf").passed


def test_relabelling_depends_only_on_the_seed():
    table, names = stock_group_table("D4")
    assert relabel(table, names, random.Random("3:1")) == relabel(table, names, random.Random("3:1"))
    assert relabel(table, names, random.Random("3:1")) != relabel(table, names, random.Random("4:1"))


def test_self_times_add_up_and_nested_calls_of_one_group_are_one_span(tmp_path):
    t = tracer.Tracer()

    def inner(x):
        return sum(range(x))

    inner_w = t.wrap(inner, "inner", "inner")
    outer_same = t.wrap(lambda x: inner_w(x), "inner", "inner")
    outer_w = t.wrap(lambda x: inner_w(x) + inner_w(x), "outer", "outer")
    main = t.wrap(lambda: outer_w(10_000) + outer_same(10), tracer.MAIN, tracer.MAIN)
    main()
    path = tmp_path / "spans"
    t.dump(path)

    totals = run.LayerTotals()
    totals.add(path)
    assert totals.calls == {tracer.MAIN: 1, "outer": 1, "inner": 3}
    assert sum(totals.self_s.values()) == pytest.approx(totals.main_s, abs=1e-9)
    assert all(v >= 0 for v in totals.self_s.values())


def test_install_rebinds_every_alias():
    code = """
import sys
import braidalg.cli, braidalg.homology as h, braidalg.systems as s, braidalg.yd as y, braidalg.hopf as hp
import tracer
originals = {(m, a): getattr(__import__("braidalg." + m, fromlist=["_"]), a)
             for m, a, _ in tracer.SPANS if "." not in a}
tracer.install(tracer.Tracer())
left = [(name, key) for name, mod in sys.modules.items() if name.startswith("braidalg")
        for key, v in vars(mod).items() if any(v is o for o in originals.values())]
assert not left, left
assert h.matrix_rank.__wrapped__ is originals[("linalg", "rank")]
assert s.matrix_inverse.__wrapped__ is originals[("linalg", "inverse")]
assert y.matrix_inverse.__wrapped__ is originals[("linalg", "inverse")]
assert hp.permutation_map.__wrapped__ is originals[("tensor", "permutation_map")]
assert braidalg.cli.verify_cybe.__wrapped__ is originals[("systems", "verify_cybe")]
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize("name", ["homology-z2-f5-deep", "cybe-d4-rank4"])
def test_traced_run_matches_untraced_and_accounts_for_all_time(name, capsys):
    # a trace run runs one untraced and one traced job per pair and counts the
    # pair as failed unless stdout and output files are byte-identical
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert set(result["metrics"]) == set(run.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "harness-z2-f5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
