"""wastekit benchmark: one closed-loop client driving every subcommand.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds seeded inputs under
`.perfbench_work/`, runs one untimed warm-up pass, then runs passes back
to back for S seconds. A pass calls each of the eight subcommands once
through `wastekit.cli.run(argv)` with `--format json`, and each output is
checked against what the input generators worked out on their own. The
last line of stdout is one JSON object: `correct`, `attempted`, `failed`
(CLI calls, a call fails when it exits non-zero or its output check
fails) and `metrics` (the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`). A fuller record, with the
environment, input sizes and sample counts, goes to
`.perfbench_work/results/`.

Every workload runs all eight subcommands so that every metric exists on
every workload; the workload decides which input family is full size
and dominates the pass. See NOTES.md for the reasons.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as W  # noqa: E402

MIB = 1 << 20
SETUP_REPEATS = 3

TREE_FULL = W.TreeSize(leaf_files=12000, top_dirs=16, sub_dirs=20, tmp_files=300, golden_files=200, fixture_files=1000)
TREE_SMALL = W.TreeSize(leaf_files=2500, top_dirs=4, sub_dirs=8, tmp_files=40, golden_files=20, fixture_files=500)
CORPUS_FULL = W.CorpusSize(large=2 * MIB + 128 * 1024, tiny=6, edits=6)
CORPUS_SMALL = W.CorpusSize(large=256 * 1024, tiny=3, edits=6)
LANDFILL_FULL = W.LandfillSize(ops=100_000, hot_keys=1500, adv_every=1000)
LANDFILL_SMALL = W.LandfillSize(ops=20_000, hot_keys=300, adv_every=500)
PENALTY_FULL = W.PenaltySize(producers=50, ticks=300)
PENALTY_SMALL = W.PenaltySize(producers=30, ticks=150)


@dataclass(frozen=True)
class Profile:
    tree: W.TreeSize
    corpus: W.CorpusSize
    landfill: W.LandfillSize
    penalty: W.PenaltySize
    # Calls per pass of each family's subcommands (tree, corpus, landfill,
    # penalty). Short calls repeat so that every rate gets enough samples
    # in one run; see NOTES.md.
    calls: tuple[int, int, int, int] = (1, 1, 1, 1)


WORKLOADS = {
    "tree-lifecycle": Profile(TREE_FULL, CORPUS_SMALL, LANDFILL_SMALL, PENALTY_SMALL, calls=(1, 2, 2, 2)),
    "dedup-corpus": Profile(TREE_SMALL, CORPUS_FULL, LANDFILL_SMALL, PENALTY_SMALL, calls=(2, 1, 2, 2)),
    "store-sim": Profile(TREE_SMALL, CORPUS_SMALL, LANDFILL_FULL, PENALTY_FULL, calls=(2, 2, 1, 2)),
}
# Small enough for the self-test to run every workload in seconds.
TINY = Profile(
    W.TreeSize(leaf_files=300, top_dirs=2, sub_dirs=3, tmp_files=10, golden_files=8, fixture_files=500),
    W.CorpusSize(large=128 * 1024, tiny=2, edits=3),
    W.LandfillSize(ops=3000, hot_keys=60, adv_every=200),
    W.PenaltySize(producers=6, ticks=30),
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "scan_entries_per_s": "entries/s",
    "report_records_per_s": "records/s",
    "plan_records_per_s": "records/s",
    "recover_records_per_s": "records/s",
    "diff_records_per_s": "records/s",
    "dedup_mib_per_s": "MiB/s",
    "landfill_ops_per_s": "ops/s",
    "penalty_ticks_per_s": "ticks/s",
    "peak_rss_mib": "MiB",
}
COMMANDS = ("scan", "report", "plan", "recover", "diff", "dedup", "landfill", "penalty-sim")

# Speed normalisation. Shared hosts run interpreter-bound code up to 2x
# slower in phases of seconds to minutes. A fixed job that does not touch
# wastekit runs between consecutive calls, and each call's time is scaled
# by PROBE_REF_S / (the probe's time around that call): the rates read as
# on a machine that runs the probe in PROBE_REF_S. `dedup` spends its time
# in numpy and sha256, which the drift barely touches, so it is not
# scaled. `setup_s` is divided by the run's median slowness: one probe per
# set-up repeat is too noisy, and the drift lasts longer than a run. See
# NOTES.md.
PROBE_REF_S = 0.007
RAW_COMMANDS = frozenset({"dedup"})
_PROBE_RX = re.compile(r"(?:.*\.o)\Z|(?:.*\.tmp)\Z|(?:tmp/.*)\Z")
_PROBE_RECORDS = [{"path": f"p{i % 40}/s{i % 7}/f{i}.{('o', 'c', 'txt', 'tmp')[i % 4]}", "size": 7 * i,
                   "mtime": 10**9 + i} for i in range(3000)]


def probe() -> float:
    """Seconds that one fixed interpreter-bound job (JSON round trip, glob
    regexes, grouping) takes right now."""
    t = time.perf_counter()
    groups: dict = {}
    for o in json.loads(json.dumps(_PROBE_RECORDS)):
        p = o["path"]
        waste = _PROBE_RX.match(p) is not None or _PROBE_RX.match(os.path.basename(p)) is not None
        groups.setdefault(waste, []).append(o["size"])
    return time.perf_counter() - t


def layer_unit(name: str) -> str:
    for suffix, unit in (
        ("entries_per_s", "entries/s"), ("records_per_s", "records/s"), ("paths_per_s", "paths/s"),
        ("mib_per_s", "MiB/s"), ("ops_per_s", "ops/s"), ("events_per_s", "events/s"),
        ("_us", "us"), ("_s", "s"), ("_frac", "ratio"), ("_ratio", "ratio"),
    ):
        if name.endswith(suffix):
            return unit
    return "bytes" if name.endswith("_bytes") else "count"


class Inputs:
    """Every input family of one workload, built under one directory."""

    def __init__(self, dest: str, seed: int, profile: Profile, cli, fixtures):
        os.makedirs(dest)

        def build_fixture(*args, **kw):
            t = time.perf_counter()
            fixtures.build_never_accessed_tree(*args, **kw)
            return time.perf_counter() - t

        def scan_old(root, out):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.run(["--format", "json", "scan", root, "-o", out])
            if rc != 0:
                raise RuntimeError(f"scan of the OLD tree exited {rc}")

        self.tree = W.Tree(dest, seed, profile.tree, int(time.time()), build_fixture, scan_old)
        self.corpus = W.Corpus(dest, seed, profile.corpus)
        self.landfill = W.LandfillTrace(dest, seed, profile.landfill)
        self.penalty = W.PenaltyWorkload(dest, seed, profile.penalty)

    def sizes(self) -> dict:
        return {"tree": self.tree.sizes(), "corpus": self.corpus.sizes(),
                "landfill": self.landfill.sizes(), "penalty": self.penalty.sizes()}


class Bench:
    """Runs passes, times each CLI call and checks its output."""

    def __init__(self, cli, inputs: Inputs, out_dir: str, calls=(1, 1, 1, 1)):
        self.cli = cli
        self.calls = calls
        self.inp = inputs
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # cmd -> [(work, seconds, slowness)], slowness = probe time around the call / PROBE_REF_S
        self.samples: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        gc.collect()
        self.last_probe = probe()
        self.pass_seconds: list[tuple[bool, float]] = []  # (traced, seconds of CLI calls)
        self.facts: dict = {}
        self._good: set = set()  # (command, state, output digest) already checked
        self.moved: tuple = ()
        self.tracer: tracing.Tracer | None = None

    def call(self, cmd: str, argv: list[str], check) -> tuple[float, float]:
        """Run one CLI call; returns its seconds and the host's slowness
        around it."""
        out_path = os.path.join(self.out_dir, f"{cmd}.out")
        err = io.StringIO()
        # Keep the benchmark's own objects out of the collector's way, as
        # they would be in a process that runs only the CLI.
        gc.collect()
        gc.freeze()
        span = self.tracer.span(f"cli.{cmd}") if self.tracer else contextlib.nullcontext()
        with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh), \
                contextlib.redirect_stderr(err), span:
            t = time.perf_counter()
            try:
                rc = self.cli.run(argv)
            except Exception:  # a traceback is a failed call, not a crashed benchmark
                rc = traceback.format_exc()
            dt = time.perf_counter() - t
        gc.collect()  # the probe starts from a clean heap, whatever the call left
        after = probe()
        slowness = (self.last_probe + after) / 2 / PROBE_REF_S
        self.last_probe = after
        self.attempted += 1
        problems = [f"{cmd}: exit {rc} {err.getvalue()[-500:]}"] if rc != 0 else self._check(cmd, out_path, check)
        if problems:
            self.failed += 1
            self.failures.extend(problems[:5])
        return dt, slowness

    def _check(self, cmd, out_path, check) -> list[str]:
        with open(out_path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        key = (cmd, self.moved, digest)
        if key in self._good and cmd != "scan":
            return []
        try:
            problems = check(out_path)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"{cmd}: unreadable output: {exc!r}"]
        if not problems:
            self._good.add(key)
        return problems

    def run_pass(self, record: bool, calls=None) -> None:
        tree, inp = self.inp.tree, self.inp
        rules = ["--rules", tree.rules_path]
        total = 0.0

        def step(cmd, argv, check, work):
            nonlocal total
            dt, slowness = self.call(cmd, argv, check)
            total += dt
            if record:
                self.samples[cmd].append((work, dt, slowness))

        def text(check):
            def run_check(path):
                with open(path, encoding="utf-8") as fh:
                    return check(fh.read())
            return run_check

        n_old, n_new = len(tree.old), len(tree.new)
        tree_calls, corpus_calls, landfill_calls, penalty_calls = calls or self.calls
        for _ in range(tree_calls):
            step("scan", ["--format", "json", "scan", tree.root, "-o", tree.new_snap], self._check_scan, n_new)
            exp = tree.expected(self.moved)
            step("report", ["--format", "json", "report", tree.new_snap, *rules],
                 text(lambda s: W.check_json("report", exp["report"], s)), n_new)
            step("plan", ["--format", "json", "plan", tree.new_snap, *rules, "--masks", tree.masks_path],
                 text(lambda s: W.check_json("plan", exp["plan"], s)), n_new)
            step("recover", ["--format", "json", "recover", tree.new_snap, *rules],
                 text(lambda s: W.check_json("recover", exp["recover"], s)), n_new)
            step("diff", ["--format", "json", "diff", tree.old_snap, tree.new_snap, *rules],
                 text(lambda s: W.check_json("diff", exp["diff"], s)), n_old + n_new)
        for _ in range(corpus_calls):
            step("dedup", ["--format", "json", "dedup", inp.corpus.root], text(self._check_dedup),
                 inp.corpus.logical / MIB)
        for _ in range(landfill_calls):
            step("landfill", inp.landfill.argv(), self._check_landfill, len(inp.landfill.ops))
        for _ in range(penalty_calls):
            step("penalty-sim", inp.penalty.argv(), text(self._check_penalty), inp.penalty.ticks)
        self.pass_seconds.append((self.tracer is not None, total))

    def _check_scan(self, path):
        # A scan after report/plan/recover/diff have hashed the checked
        # files may see their atimes moved by those reads (relatime).
        self.moved = self.inp.tree.observed_atimes()
        with open(path, encoding="utf-8") as fh:
            return W.check_scan(self.inp.tree, self.moved, self.inp.tree.new_snap, fh.read())

    def _check_dedup(self, s):
        problems = W.check_dedup(self.inp.corpus, s)
        obj = json.loads(s)
        facts = {k: obj[k] for k in ("chunks", "physical_bytes", "dedup_ratio")}
        if self.facts.setdefault("dedup", facts) != facts:
            problems.append(f"dedup: {facts} differs from an earlier pass {self.facts['dedup']}")
        return problems

    def _check_landfill(self, path):
        with open(path, encoding="utf-8") as fh:
            problems, facts = W.check_landfill(self.inp.landfill, fh)
        if not problems:
            self.facts["landfill"] = facts
        return problems

    def _check_penalty(self, s):
        problems, facts = W.check_penalty(self.inp.penalty, s)
        if not problems:
            self.facts["penalty"] = facts
        return problems

    def rate(self, cmd: str, scaled: bool = True) -> float:
        """Total work over total time of the command's calls in the run,
        each call's time scaled to the reference speed unless `scaled` is
        false or the command is in RAW_COMMANDS."""
        scale = scaled and cmd not in RAW_COMMANDS
        seconds = sum(s / k if scale else s for _, s, k in self.samples[cmd])
        return sum(w for w, _, _ in self.samples[cmd]) / seconds if seconds else 0.0


def environment(work_dir: str) -> dict:
    def read(path, default="unknown"):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return default

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo", "").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in range(5):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = read(f"{base}/level", "").strip()
        if level in ("2", "3"):
            caches[f"l{level}_per_instance"] = read(f"{base}/size").strip()
            caches[f"l{level}_shared_cpus"] = read(f"{base}/shared_cpu_list").strip()
    fs, opts, best = "unknown", "unknown", ""
    real = os.path.realpath(work_dir)
    for line in read("/proc/self/mounts", "").splitlines():
        parts = line.split()
        if len(parts) >= 4 and (real + "/").startswith(parts[1].rstrip("/") + "/") and len(parts[1]) >= len(best):
            best, fs, opts = parts[1], parts[2], parts[3]
    flags = os.statvfs(work_dir).f_flag
    atime = "noatime" if flags & os.ST_NOATIME else "relatime" if flags & os.ST_RELATIME else "strictatime"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu, **caches,
        "python": platform.python_version(), "numpy": numpy_version,
        "filesystem": fs, "mount": best, "mount_options": opts, "atime_policy": atime,
    }


def import_wastekit(checkout: str):
    """Import wastekit from this checkout's src/, and nowhere else."""
    src = os.path.join(checkout, "src")
    sys.path.insert(0, src)
    try:
        import wastekit
        from wastekit import cli, fixtures, scanner
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import wastekit from {src}: {exc}")
    if not os.path.abspath(wastekit.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: wastekit imported from {wastekit.__file__}, not from {src}")
    return cli, fixtures, scanner


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's input sizes")
    args = p.parse_args(argv)

    checkout = os.path.dirname(HERE)
    cli, fixtures, scanner = import_wastekit(checkout)
    base = os.path.join(checkout, ".perfbench_work")
    # The work path is part of every snapshot, so it must not vary between
    # runs of one configuration for the snapshot size to repeat exactly.
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(base, run_id)
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    profile = TINY if args.size == "tiny" else WORKLOADS[args.workload]
    try:
        return _run(args, profile, cli, fixtures, scanner, work,
                    os.path.join(results, f"{run_id}-{os.getpid()}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, profile, cli, fixtures, scanner, work, result_path) -> int:
    setup_s, fixture_s = [], []
    for rep in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = Inputs(os.path.join(work, f"setup{rep}"), args.seed, profile, cli, fixtures)
        setup_s.append(time.perf_counter() - t)
        fixture_s.append(inputs.tree.fixture_s)
    for rep in range(SETUP_REPEATS - 1):  # removed only now, so no removal overlaps a timed set-up
        shutil.rmtree(os.path.join(work, f"setup{rep}"))
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir)
    bench = Bench(cli, inputs, out_dir, profile.calls)

    # Warm-up, each subcommand once: page cache, lazy tables, first-read atime moves.
    bench.run_pass(record=False, calls=(1, 1, 1, 1))
    tracer = tracing.Tracer() if args.trace else None
    traced_passes = 0
    start = time.perf_counter()
    while True:
        if tracer is not None and len(bench.pass_seconds) % 2 == 0:
            # Alternate traced and untraced passes so drift hits both alike.
            bench.tracer = tracer
            with tracer.instrument(cli, scanner):
                bench.run_pass(record=False)
            bench.tracer = None
            traced_passes += 1
        else:
            bench.run_pass(record=tracer is None)
        # Stop once another pass would overrun the budget by more than half a pass.
        done = time.perf_counter() - start + bench.pass_seconds[-1][1] / 2 >= args.seconds
        if done and (tracer is None or traced_passes >= 1 and len(bench.pass_seconds) > 2 * traced_passes):
            break
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Median slowness of the run (probe time / PROBE_REF_S), over the calls that are scaled.
    slowness = statistics.median(
        [k for cmd, samples in bench.samples.items() if cmd not in RAW_COMMANDS for _, _, k in samples] or [1.0]
    )
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_s) / slowness,
            "scan_entries_per_s": bench.rate("scan"),
            "report_records_per_s": bench.rate("report"),
            "plan_records_per_s": bench.rate("plan"),
            "recover_records_per_s": bench.rate("recover"),
            "diff_records_per_s": bench.rate("diff"),
            "dedup_mib_per_s": bench.rate("dedup"),
            "landfill_ops_per_s": bench.rate("landfill"),
            "penalty_ticks_per_s": bench.rate("penalty-sim"),
            "peak_rss_mib": peak_rss,
        }
        units = END_TO_END_UNITS
    else:
        metrics = tracing.layer_metrics(tracer, traced_passes)
        metrics.update(tracing.harness_loops(inputs, tracer))
        traced = [s for tr, s in bench.pass_seconds[1:] if tr]
        plain = [s for tr, s in bench.pass_seconds[1:] if not tr]
        metrics["trace.overhead_frac"] = statistics.mean(traced) / statistics.mean(plain) - 1
        metrics["scanner.snapshot_bytes"] = os.path.getsize(inputs.tree.new_snap)
        metrics["scanner.atime_moved_files"] = inputs.tree.moved_atime_files()
        metrics["fixtures.build_tree_s"] = statistics.median(fixture_s)
        # Counts from checked outputs; 0 when no output passed its check
        # (the run then reports correct: false).
        for family, layer, keys in (("dedup", "dedupe", ("chunks", "physical_bytes", "dedup_ratio")),
                                    ("landfill", "landfill", ("hit_ratio", "evictions", "fades")),
                                    ("penalty", "penalty", ("delivered_bytes",))):
            for k in keys:
                metrics[f"{layer}.{k}"] = bench.facts.get(family, {}).get(k, 0)
        units = {k: layer_unit(k) for k in metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "environment": environment(work), "inputs": inputs.sizes(),
        "raw_setup_s_samples": setup_s, "probe_ref_s": PROBE_REF_S, "median_slowness": slowness,
        "raw_rates": {cmd: bench.rate(cmd, scaled=False) for cmd in COMMANDS},
        "passes": {"warmup": 1, "measured": len(bench.pass_seconds) - 1, "traced": traced_passes},
        "samples": {cmd: bench.samples[cmd] for cmd in COMMANDS},
        "sample_counts": {cmd: len(bench.samples[cmd]) for cmd in COMMANDS},
        "error_rate": bench.failed / max(1, bench.attempted),
        "failures": bench.failures[:50], "category_tallies": tree_tallies(inputs, bench.moved), "facts": bench.facts,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"fs={env['filesystem']}/{env['atime_policy']} python={env['python']} numpy={env['numpy']}")
    print(f"# inputs: {json.dumps(record['inputs'], sort_keys=True)}")
    print(f"# passes: {json.dumps(record['passes'])}  samples per command: {json.dumps(record['sample_counts'])}")
    print(f"# error_rate {record['error_rate']:.6g} ({bench.failed}/{bench.attempted} CLI calls)")
    for f in bench.failures[:10]:
        print(f"# FAILED {f[:300]}")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    print(f"# full record: {os.path.relpath(result_path)}")
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": record["metrics"],
    }))
    return 0


def tree_tallies(inputs: Inputs, moved: tuple) -> dict:
    return {c: v["files"] for c, v in inputs.tree.expected(moved)["report"]["per_category"].items()}


if __name__ == "__main__":
    sys.exit(main())
