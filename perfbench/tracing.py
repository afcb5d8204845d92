"""Spans around calls into wastekit's layers, recorded from the
benchmark's side, and the harness loops that time per-record functions.

Coarse functions are wrapped where `wastekit.cli` looks them up, only for
the length of a traced pass, so each span's parent is the `cli.<cmd>`
span of the subcommand that made the call. Functions that run once per
record (such as `classify`) are never wrapped; the harness loops time
them separately so tracing stays cheap. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import statistics
import time
from collections import defaultdict

MIB = 1 << 20

# Names looked up in wastekit.cli -> (span name, work counter).
CLI_NAMES = {
    "scan": ("scanner.scan", lambda args, kw, out: len(out.records)),
    "write_snapshot": ("scanner.write_snapshot", lambda args, kw, out: len(args[0].records)),
    "read_snapshot": ("scanner.read_snapshot", lambda args, kw, out: len(out.records)),
    "report": ("scanner.report", lambda args, kw, out: len(args[0].records)),
    "diff": ("scanner.diff", lambda args, kw, out: len(args[0].records) + len(args[1].records)),
    "load_rules": ("model.load_rules", None),
    "load_mask_rules": ("hierarchy.load_mask_rules", None),
    "build_plan": ("hierarchy.plan", lambda args, kw, out: len(out.entries)),
    "estimate_cost": ("hierarchy.estimate_cost", None),
    "recover_summary": ("dedupe.recover_summary", lambda args, kw, out: len(args[0].records)),
    "load_trace": ("landfill.load_trace", lambda args, kw, out: len(out)),
    "load_workload": ("penalty.load_workload", lambda args, kw, out: len(out.events)),
    "simulate": ("penalty.simulate", lambda args, kw, out: args[1].tick_count),
}
LAYERS = ("scanner", "model", "hierarchy", "dedupe", "landfill", "penalty")


class Span:
    __slots__ = ("name", "parent", "dur", "work")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.dur = 0.0
        self.work = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.last_simulation = None

    def open(self, name: str) -> Span:
        sp = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(sp)
        return sp

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self.open(name)
        self._stack.append(sp)
        t = time.perf_counter()
        try:
            yield sp
        finally:
            sp.dur += time.perf_counter() - t
            self._stack.pop()

    def wrap(self, fn, name, count):
        def traced(*args, **kw):
            with self.span(name) as sp:
                out = fn(*args, **kw)
            if count is not None:
                sp.work += count(args, kw, out)
            if name == "penalty.simulate":
                self.last_simulation = out
            return out

        return traced

    def wrap_generator(self, fn, name):
        """A generator's span covers only the time spent inside next(), so
        what the consumer does with each item stays in the caller."""

        def traced(*args, **kw):
            sp = self.open(name)
            it = fn(*args, **kw)
            while True:
                t = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    sp.dur += time.perf_counter() - t
                    return
                sp.dur += time.perf_counter() - t
                sp.work += 1
                yield item

        return traced

    def wrap_digest(self, fn):
        def traced(path):
            with self.span("model.sha256") as sp:
                out = fn(path)
            sp.work += os.path.getsize(path)
            return out

        return traced

    @contextlib.contextmanager
    def instrument(self, cli_module, scanner_module):
        """Swap traced versions of the coarse functions into the modules
        that call them, and put the originals back afterwards."""
        missing = [n for n in (*CLI_NAMES, "replay", "ChunkStore") if not hasattr(cli_module, n)]
        if not hasattr(scanner_module, "sha256_file"):
            missing.append("scanner.sha256_file")
        if missing:
            raise LookupError(f"cannot trace: wastekit.cli no longer has {missing}")
        saved = {n: getattr(cli_module, n) for n in (*CLI_NAMES, "replay", "ChunkStore")}
        saved_digest = scanner_module.sha256_file
        tracer = self

        class TracedChunkStore(saved["ChunkStore"]):
            def ingest(self, object_id, data):
                with tracer.span("dedupe.ingest") as sp:
                    out = super().ingest(object_id, data)
                sp.work += len(data)
                return out

            def stats(self):
                with tracer.span("dedupe.stats"):
                    return super().stats()

        try:
            for n, (name, count) in CLI_NAMES.items():
                setattr(cli_module, n, self.wrap(saved[n], name, count))
            cli_module.replay = self.wrap_generator(saved["replay"], "landfill.replay")
            cli_module.ChunkStore = TracedChunkStore
            scanner_module.sha256_file = self.wrap_digest(saved_digest)
            yield
        finally:
            for n, fn in saved.items():
                setattr(cli_module, n, fn)
            scanner_module.sha256_file = saved_digest

    # -- summaries -------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """span name -> [calls, seconds, work]"""
        out = defaultdict(lambda: [0, 0.0, 0])
        for sp in self.spans:
            t = out[sp.name]
            t[0] += 1
            t[1] += sp.dur
            t[2] += sp.work
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time of its children."""
        child = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child[id(sp.parent)] += sp.dur
        out = defaultdict(float)
        for sp in self.spans:
            out[sp.name] += sp.dur - child[id(sp)]
        return out


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _timed_until(fn, min_seconds: float) -> tuple[int, float]:
    """Call fn() until min_seconds have passed; returns (calls, seconds)."""
    calls, spent = 0, 0.0
    while calls == 0 or spent < min_seconds:
        t = time.perf_counter()
        fn()
        spent += time.perf_counter() - t
        calls += 1
    return calls, spent


def harness_loops(inputs, tracer: Tracer, budget: float = 0.5) -> dict:
    """Per-record functions timed in loops of their own, outside the CLI."""
    from wastekit import dedupe, hierarchy, landfill, model, scanner

    m = {}
    snap = scanner.read_snapshot(inputs.tree.new_snap)
    rules = model.load_rules(inputs.tree.rules_path)

    def digest(path):
        with open(os.path.join(snap.root, path), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    digests = {p: digest(p) for p in inputs.tree.checked_paths}
    records = snap.records

    def classify_all():
        for rec in records:
            model.classify(rec, rules, snap.taken_at, digests.get)

    calls, spent = _timed_until(classify_all, budget)
    m["model.classify.records_per_s"] = _rate(calls * len(records), spent)

    masks = hierarchy.load_mask_rules(inputs.tree.masks_path)
    paths = [r.path for r in records]

    def mask_all():
        for p in paths:
            masks.mask_for(p)

    calls, spent = _timed_until(mask_all, budget)
    m["hierarchy.mask_for.paths_per_s"] = _rate(calls * len(paths), spent)

    # Chunk whole corpus files, largest first, until the budget is spent.
    chunk_bytes = chunk_s = hashed = hash_s = 0.0
    names = sorted(inputs.corpus.sizes_by_file, key=lambda n: (-inputs.corpus.sizes_by_file[n], n))
    for name in names:
        with open(os.path.join(inputs.corpus.root, name), "rb") as fh:
            data = fh.read()
        t = time.perf_counter()
        pieces = dedupe.chunk(data)
        chunk_s += time.perf_counter() - t
        chunk_bytes += len(data)
        t = time.perf_counter()
        for piece in pieces:
            hashlib.sha256(piece).hexdigest()
        hash_s += time.perf_counter() - t
        hashed += len(data)
        if chunk_s >= 2 * budget:
            break
    m["dedupe.chunk.mib_per_s"] = _rate(chunk_bytes / MIB, chunk_s)
    m["dedupe.chunk_sha256.mib_per_s"] = _rate(hashed / MIB, hash_s)

    ops = landfill.load_trace(inputs.landfill.path)

    def new_store():
        return landfill.DigitalLandfill(landfill.LandfillConfig(inputs.landfill.capacity, inputs.landfill.FADE_EPOCHS))

    t = time.perf_counter()
    for _ in landfill.replay(new_store(), ops):
        pass
    m["landfill.replay.ops_per_s"] = _rate(len(ops), time.perf_counter() - t)

    store = new_store()
    lat = defaultdict(list)
    clock = time.perf_counter_ns
    for op in ops:
        if op[0] == "PUT":
            value = b"\x00" * op[2]
            t = clock()
            store.put(op[1], value)
            lat["put"].append(clock() - t)
        elif op[0] == "GET":
            t = clock()
            store.get(op[1])
            lat["get"].append(clock() - t)
        else:
            t = clock()
            store.advance_epoch(op[1])
            lat["advance_epoch"].append(clock() - t)
        t = clock()
        store.stats()
        lat["stats"].append(clock() - t)
    for name in ("put", "get", "advance_epoch"):
        m[f"landfill.{name}.p50_us"] = _percentile(lat[name], 50) / 1000
        m[f"landfill.{name}.p99_us"] = _percentile(lat[name], 99) / 1000
    m["landfill.stats.p50_us"] = _percentile(lat["stats"], 50) / 1000

    rep = tracer.last_simulation
    encodes = []
    for _ in range(5):
        t = time.perf_counter()
        json.dumps(rep.to_json_obj(), sort_keys=True)
        encodes.append(time.perf_counter() - t)
    m["penalty.report_encode_s"] = statistics.median(encodes)
    return m


def _percentile(values: list[int], q: float) -> float:
    s = sorted(values)
    return float(s[min(len(s) - 1, int(len(s) * q / 100))])


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Rates and per-pass self times from the spans of `passes` traced passes."""
    tot = tracer.totals()
    self_s = tracer.self_times()

    def rate(name, scale=1.0):
        calls, seconds, work = tot[name]
        return _rate(work / scale, seconds)

    m = {
        "scanner.scan.entries_per_s": rate("scanner.scan"),
        "scanner.write_snapshot.records_per_s": rate("scanner.write_snapshot"),
        "scanner.read_snapshot.records_per_s": rate("scanner.read_snapshot"),
        "scanner.report.records_per_s": rate("scanner.report"),
        "scanner.diff.records_per_s": rate("scanner.diff"),
        "model.digests": tot["model.sha256"][0] / passes,
        "model.sha256.mib_per_s": rate("model.sha256", MIB),
        "hierarchy.plan.entries_per_s": rate("hierarchy.plan"),
        "hierarchy.plan_entries": tot["hierarchy.plan"][2] / passes,
        "dedupe.ingest.mib_per_s": rate("dedupe.ingest", MIB),
        "dedupe.recover_summary.records_per_s": rate("dedupe.recover_summary"),
        "landfill.load_trace.ops_per_s": rate("landfill.load_trace"),
        "penalty.load_workload.events_per_s": rate("penalty.load_workload"),
        "penalty.simulate.tick_mean_us": 1e6 * tot["penalty.simulate"][1] / max(1, tot["penalty.simulate"][2]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / passes
    for name, v in self_s.items():
        if name.startswith("cli."):
            m[f"{name}.self_s"] = v / passes
    return m
