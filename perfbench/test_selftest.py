"""Self-test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json names appears with its unit, that
the exact counts repeat for the same seed, and that a tampered output is
counted as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

EXACT = ("scanner.snapshot_bytes", "model.digests", "hierarchy.plan_entries", "dedupe.chunks",
         "dedupe.physical_bytes", "dedupe.dedup_ratio", "landfill.hit_ratio", "landfill.evictions",
         "landfill.fades", "penalty.delivered_bytes", "scanner.atime_moved_files")


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_and_metrics_the_runner_has():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_appears_with_its_unit(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = bench(workload, trace)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 8
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        assert got == want


def test_exact_counts_repeat_for_the_same_seed():
    first, second = bench("store-sim", 1, seed=5), bench("store-sim", 1, seed=5)
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    other = bench("store-sim", 1, seed=6)
    assert any(first["metrics"][n]["value"] != other["metrics"][n]["value"] for n in EXACT)


@pytest.fixture()
def one_pass():
    """Tiny inputs with one checked pass, built inside the checkout."""
    cli, fixtures, _ = run.import_wastekit(CHECKOUT)
    work = os.path.join(CHECKOUT, ".perfbench_work", f"selftest-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = run.Inputs(os.path.join(work, "in"), 4, run.TINY, cli, fixtures)
        os.makedirs(os.path.join(work, "out"))
        b = run.Bench(cli, inputs, os.path.join(work, "out"))
        b.run_pass(record=False)
        assert b.failed == 0, b.failures
        yield b
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _tamper_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def test_tampered_outputs_fail_their_checks(one_pass):
    b, inp = one_pass, one_pass.inp
    tree = inp.tree
    exp = tree.expected(b.moved)
    out = lambda cmd: os.path.join(b.out_dir, f"{cmd}.out")  # noqa: E731

    def text(cmd):
        with open(out(cmd), encoding="utf-8") as fh:
            return fh.read()

    _tamper_json(out("report"), lambda o: o["per_category"]["Used"].__setitem__("files", 1 + o["per_category"]["Used"]["files"]))
    assert W.check_json("report", exp["report"], text("report"))
    _tamper_json(out("plan"), lambda o: o["plan"]["entries"].pop())
    assert W.check_json("plan", exp["plan"], text("plan"))
    _tamper_json(out("recover"), lambda o: o.__setitem__("waste_bytes", o["waste_bytes"] - 1))
    assert W.check_json("recover", exp["recover"], text("recover"))
    _tamper_json(out("diff"), lambda o: o["added"].append("p00/s00/zzz"))
    assert W.check_json("diff", exp["diff"], text("diff"))
    _tamper_json(out("dedup"), lambda o: o.__setitem__("physical_bytes", o["logical_bytes"] + 1))
    assert W.check_dedup(inp.corpus, text("dedup"))
    _tamper_json(out("penalty-sim"), lambda o: o["delivered_per_tick_total"].__setitem__(0, 0))
    assert W.check_penalty(inp.penalty, text("penalty-sim"))[0]

    with open(out("landfill"), encoding="utf-8") as fh:
        lines = fh.readlines()
    ev = json.loads(lines[-1])
    ev["stats"]["live_bytes"] = inp.landfill.capacity + 1
    lines[-1] = json.dumps(ev) + "\n"
    with open(out("landfill"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    with open(out("landfill"), encoding="utf-8") as fh:
        assert W.check_landfill(inp.landfill, fh)[0]

    # A snapshot record that does not match the tree on disk.
    with open(tree.new_snap, encoding="utf-8") as fh:
        lines = fh.readlines()
    rec = json.loads(lines[-1])
    rec["size_bytes"] += 1
    lines[-1] = json.dumps(rec) + "\n"
    with open(tree.new_snap, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    assert W.check_snapshot(tree, b.moved)

    # And through the runner: a failed check counts as a failed call.
    before = b.failed
    b.call("report", ["--format", "json", "report", tree.new_snap, "--rules", tree.rules_path],
           lambda p: W.check_json("report", {**exp["report"], "total_files": -1}, text("report")))
    assert b.failed == before + 1
