"""Acceptance gate: nine shipped criteria, one test each.

Every test prints an `acceptance N: PASS/FAIL` line (bypassing pytest's
capture, so it shows up in plain `pytest -v` output) and then asserts,
so a red criterion is both visible and fails the run.
"""

import io
import itertools
import json
import os
import random
import time
from fractions import Fraction

import pytest

from wastekit.dedupe import ChunkingConfig, ChunkStore
from wastekit.fixtures import build_never_accessed_tree
from wastekit.hierarchy import (
    SELECTABLE_ACTIONS,
    CostModel,
    FeasibilityMask,
    HierarchyAction,
    estimate_cost,
    plan,
)
from wastekit.landfill import DigitalLandfill, LandfillConfig
from wastekit.model import FileKind, FileRecord, RuleSet, WasteCategory, f_lifetime
from wastekit.penalty import SchedulerConfig, parse_workload, simulate
from wastekit.scanner import ScanOptions, dump_snapshot, report, scan

from naive_landfill import (
    NaiveLandfill,
    assert_same_observables,
    naive_observables,
    random_ops,
    run_store,
    store_observables,
)
from naive_penalty import naive_fair_sim


@pytest.fixture
def check(capsys):
    def _check(criterion: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {criterion}: {detail}"

    return _check


def regular(path, size=0, mtime=0, atime=0):
    return FileRecord(path=path, kind=FileKind.REGULAR, size_bytes=size, mtime=mtime, atime=atime)


# -- 1: never-accessed profile reproduction ------------------------------

# (never-accessed % of files, never-accessed % of used space) profiles
# observed on real machines: a personal laptop, a desktop workstation,
# and a shared lab server.
REFERENCE_PROFILES = {
    "laptop": (20.6, 98.5),
    "desktop": (47.4, 38.1),
    "server": (57.1, 99.5),
}


def test_criterion_1_profile_reproduction(tmp_path, check):
    problems = []
    worst = 0.0
    for name, (files_pct, space_pct) in REFERENCE_PROFILES.items():
        tree = str(tmp_path / name)
        build_never_accessed_tree(tree, files_pct, space_pct)
        t0 = time.perf_counter()
        snapshot = scan(tree, ScanOptions())
        rep = report(snapshot, RuleSet())
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        if abs(rep.never_accessed_files_pct - files_pct) > 0.1:
            problems.append(f"{name}: files pct {rep.never_accessed_files_pct} != {files_pct}")
        if abs(rep.never_accessed_space_pct - space_pct) > 0.1:
            problems.append(f"{name}: space pct {rep.never_accessed_space_pct} != {space_pct}")
        if elapsed >= 5.0:
            problems.append(f"{name}: took {elapsed:.2f}s")
    check(
        1,
        not problems,
        "; ".join(problems) or f"three profiles within ±0.1, slowest tree {worst:.2f}s",
    )


# -- 2: compile-byproduct byte share -------------------------------------


def test_criterion_2_byproduct_share(tmp_path, check):
    # The output of compiling a mid-size C project: 13.6 MB of installed
    # libraries, the intended products, beside 44.5 MB of object code,
    # pure by-products.
    tree = tmp_path / "build"
    for subdir, name, count, size in (
        ("lib", "libproduct{}.so", 4, 3_400_000),
        ("obj", "unit{:03d}.o", 89, 500_000),
    ):
        os.makedirs(tree / subdir)
        for i in range(count):
            path = tree / subdir / name.format(i)
            path.write_bytes(b"\x7fELF" + b"\0" * (size - 4))
            os.utime(path, (1_600_000_000, 1_600_000_000))
    snapshot = scan(str(tree), ScanOptions())
    rules = RuleSet(not_waste_globs=("lib/*",), unintentional_globs=("obj/*",))
    rep = report(snapshot, rules)
    share = 100.0 * rep.per_category[WasteCategory.UNINTENTIONAL][1] / rep.total_bytes
    ok = abs(share - 76.6) <= 0.1
    check(2, ok, f"unintentional byte share {share:.3f}% (want 76.6 ± 0.1)")


# -- 3: f-lifetime oracle -------------------------------------------------


def test_criterion_3_f_lifetime_oracle(check):
    rng = random.Random(0x1F3)
    mismatches = 0
    for _ in range(10_000):
        mtime = rng.randrange(0, 2**33)
        atime = rng.randrange(0, 2**33)
        rec = regular("f", mtime=mtime, atime=atime)
        life = f_lifetime(rec)
        if life != max(0, atime - mtime) or (life == 0) != (atime <= mtime):
            mismatches += 1
    check(3, mismatches == 0, f"{mismatches} mismatches over 10,000 random (mtime, atime) pairs")


# -- 4: hierarchy selection vs brute force, argmin invariance -------------


def test_criterion_4_hierarchy_selection(check):
    problems = []
    masks = [
        FeasibilityMask(reduce_ok=a, reuse_ok=b, recycle_ok=c, recover_ok=d)
        for a, b, c, d in itertools.product((False, True), repeat=4)
    ]
    for mask in masks:
        allowed = [a for a in SELECTABLE_ACTIONS if mask.allows(a)]
        expected = min(allowed, key=int)
        got = plan([(regular("x", size=10), WasteCategory.UNWANTED, mask)]).entries[0].action
        if got is not expected:
            problems.append(f"{mask}: chose {got.label}, oracle says {expected.label}")

    rng = random.Random(0x4AC)
    entries = [
        (regular(f"f{i}", size=rng.randrange(0, 10**6)), WasteCategory.UNWANTED, rng.choice(masks))
        for i in range(30)
    ]
    baseline = [e.action for e in plan(entries).entries]
    base_cost = estimate_cost(plan(entries), CostModel())
    flips = 0
    for _ in range(1000):
        s = rng.uniform(0.001, 1000.0)
        scaled = CostModel(
            action_cost_weights={a: w * s for a, w in CostModel().action_cost_weights.items()}
        )
        replanned = plan(entries)
        if [e.action for e in replanned.entries] != baseline:
            flips += 1
        got = estimate_cost(replanned, scaled)
        if abs(got.energy_units - s * base_cost.energy_units) > 1e-6 * max(1.0, got.energy_units):
            problems.append(f"energy not linear under scale {s}")
            break
    if flips:
        problems.append(f"{flips} scalings changed the chosen actions")
    check(4, not problems, "; ".join(problems) or "16/16 masks match oracle; 1000 scalings argmin-invariant")


# -- 5: MLC vs SLC endurance ratio ----------------------------------------


def test_criterion_5_flash_endurance_ratio(check):
    rng = random.Random(0x5C5)
    masks = [
        FeasibilityMask(reduce_ok=a, reuse_ok=b, recycle_ok=c, recover_ok=d)
        for a, b, c, d in itertools.product((False, True), repeat=4)
    ]
    bad = 0
    for _ in range(300):
        entries = [
            (regular(f"f{i}", size=rng.randrange(0, 10**7)), WasteCategory.UNWANTED, rng.choice(masks))
            for i in range(rng.randrange(1, 40))
        ]
        # guarantee at least one disposed byte, else both fractions are zero
        entries.append((regular("junk", size=1 + rng.randrange(10**6)), WasteCategory.UNWANTED, FeasibilityMask()))
        p = plan(entries)
        mlc = estimate_cost(p, CostModel.for_device("MLC"))
        slc = estimate_cost(p, CostModel.for_device("SLC"))
        if mlc.endurance_fraction / slc.endurance_fraction != 100:
            bad += 1
    check(5, bad == 0, f"{bad}/300 random plans broke the exact 100.000 MLC/SLC ratio")


# -- 6: landfill oracle equivalence ---------------------------------------


def test_criterion_6_landfill_oracle(check):
    # The bound is on the store's own time: ops are generated, and the
    # list reference run, outside the timed region.
    store_s = 0.0
    loop_t0 = time.perf_counter()
    for seed in range(100):
        rng = random.Random(seed)
        ops = random_ops(rng, 100_000)
        real = DigitalLandfill(LandfillConfig(capacity_bytes=800, fade_lifetime_epochs=3))
        t0 = time.perf_counter()
        record = run_store(real, ops)
        store_s += time.perf_counter() - t0
        naive = NaiveLandfill(capacity_bytes=800, fade_lifetime_epochs=3)
        assert_same_observables(ops, store_observables(ops, *record), naive_observables(naive, ops))
    loop_s = time.perf_counter() - loop_t0
    check(
        6,
        store_s < 60.0,
        f"100 traces x 10^5 ops bit-identical to the list reference; "
        f"store {store_s:.1f}s (< 60s), whole loop {loop_s:.1f}s",
    )


# -- 7: penalty scheduler properties ---------------------------------------


def test_criterion_7_penalty_properties(check):
    rng = random.Random(0x7AC)
    problems = []
    for trial in range(1000):
        n_prod = rng.randrange(1, 5)
        ticks = rng.randrange(1, 10)
        lines = [f"0 p0 {rng.randrange(1, 400)} {rng.randrange(0, 11) / 10}"]
        for t in range(ticks):
            for p in range(n_prod):
                if rng.random() < 0.6:
                    lines.append(f"{t} p{p} {rng.randrange(0, 400)} {rng.randrange(0, 11) / 10}")
        trace = parse_workload(lines)
        bandwidth = rng.randrange(50, 700)
        alpha = Fraction(rng.randrange(0, 9), 2)
        rep = simulate(trace, SchedulerConfig(total_bandwidth=bandwidth, alpha=alpha, tick_count=ticks))

        # conservation, recomputed from the trace and the report alone
        requested_at = [0] * ticks
        for line in lines:
            t, _, req, _ = line.split()
            requested_at[int(t)] += int(req)
        outstanding = 0
        for t in range(ticks):
            outstanding += requested_at[t]
            delivered = rep.delivered_per_tick_total[t]
            if delivered != min(bandwidth, outstanding):
                problems.append(f"trial {trial} tick {t}: {delivered} != min(bw, outstanding)")
                break
            outstanding -= delivered
        if problems:
            break

        # zero-waste neutrality: same requests, no waste -> factor exactly 1
        clean_lines = [" ".join(line.split()[:3]) + " 0" for line in lines]
        clean = simulate(parse_workload(clean_lines), SchedulerConfig(total_bandwidth=bandwidth, alpha=alpha, tick_count=ticks))
        if any(r.final_factor != 1 for r in clean.producers.values()):
            problems.append(f"trial {trial}: zero-waste factor != 1.0")
            break

        # monotone penalty: raising one producer's waste never raises its factor
        dirty_lines = []
        for line in lines:
            t, p, req, w = line.split()
            if p == "p0":
                w = str((Fraction(w) + 1) / 2)
            dirty_lines.append(f"{t} {p} {req} {w}")
        dirty = simulate(parse_workload(dirty_lines), SchedulerConfig(total_bandwidth=bandwidth, alpha=alpha, tick_count=ticks))
        if dirty.producers["p0"].final_factor > rep.producers["p0"].final_factor:
            problems.append(f"trial {trial}: factor rose with extra waste")
            break

        # alpha = 0 is weighted fair sharing, bit for bit
        rep0 = simulate(trace, SchedulerConfig(total_bandwidth=bandwidth, alpha=0, tick_count=ticks))
        fair = naive_fair_sim(trace, bandwidth, ticks, {p: Fraction(1) for p in trace.producers})
        if {p: r.delivered_per_tick for p, r in rep0.producers.items()} != fair:
            problems.append(f"trial {trial}: alpha=0 deviates from fair sharing")
            break
    check(7, not problems, "; ".join(problems) or "1000 traces: conservation, neutrality, monotonicity, alpha-0 fairness")


# -- 8: dedup round trip, copies, prepend ----------------------------------


def test_criterion_8_dedup(check):
    problems = []

    rng = random.Random(0x8DD)
    small = ChunkingConfig(min_chunk=64, target_chunk=256, max_chunk=1024, window=16)
    store = ChunkStore(config=small)
    originals = {}
    for i in range(1000):
        data = rng.randbytes(rng.randrange(0, 4000))
        originals[f"o{i}"] = data
        store.ingest(f"o{i}", data)
    broken = sum(1 for oid, data in originals.items() if store.restore(oid) != data)
    if broken:
        problems.append(f"{broken}/1000 objects failed byte-exact round trip")

    copies = ChunkStore()
    blob = rng.randbytes(300_000)
    first = copies.ingest("c0", blob)
    dup_bytes = [copies.ingest(f"c{i}", blob).physical_new_bytes for i in range(1, 8)]
    if first.physical_new_bytes == 0 or any(dup_bytes):
        problems.append(f"identical copies added bytes: first={first.physical_new_bytes}, rest={dup_bytes}")

    prepend = ChunkStore()
    obj = rng.randbytes(1024 * 1024)
    prepend.ingest("orig", obj)
    shifted = prepend.ingest("shifted", b"\x01" + obj)
    pct = 100.0 * shifted.physical_new_bytes / len(obj)
    if shifted.physical_new_bytes >= 0.10 * len(obj):
        problems.append(f"prepend cost {pct:.2f}% of 1 MiB (want < 10%)")

    check(8, not problems, "; ".join(problems) or f"1000 round trips exact; copies free; prepend cost {pct:.2f}% of 1 MiB")


# -- 9: determinism ----------------------------------------------------------


def test_criterion_9_determinism(tmp_path, check):
    problems = []
    tree = tmp_path / "tree"
    build_never_accessed_tree(str(tree), 20.6, 98.5)

    def dumps(workers):
        snapshot = scan(str(tree), ScanOptions(workers=workers), now=1_800_000_000)
        out = io.StringIO()
        dump_snapshot(snapshot, out)
        return out.getvalue()

    serial = dumps(1)
    if any(dumps(w) != serial for w in (2, 8)):
        problems.append("snapshots differ across worker counts")

    rules = RuleSet(unintentional_globs=("*.dat",))

    def report_json():
        snapshot = scan(str(tree), ScanOptions(workers=4), now=1_800_000_000)
        return json.dumps(report(snapshot, rules).to_json_obj(), sort_keys=True)

    if report_json() != report_json():
        problems.append("report JSON differs between repeated runs")

    lines = ["0 a 100 0.25", "1 b 300 0.5", "2 a 50 0"]
    def penalty_json():
        cfg = SchedulerConfig(total_bandwidth=120, alpha=Fraction(1, 2), tick_count=6)
        return json.dumps(simulate(parse_workload(lines), cfg).to_json_obj(), sort_keys=True, separators=(",", ":"))

    if penalty_json() != penalty_json():
        problems.append("penalty report JSON differs between repeated runs")

    check(9, not problems, "; ".join(problems) or "worker counts and repeated runs byte-identical")
