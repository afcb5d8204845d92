"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad rules, bad trace, unreadable
input), 2 usage error. Human-readable tables by default; `--format
json` switches every subcommand to schema-stable JSON on stdout.

The only paths ever written are explicit `-o` targets (and the files a
confirmed `plan --execute --yes` removes); scanning and reporting never
modify the tree being examined, atimes included: files and directories
are read with O_NOATIME, and each pass warns once with the count of
those the kernel refused it for (files the caller does not own). Every
file a snapshot names, whether digested, deduplicated or disposed of,
is reached through a `TreeOpener` from the snapshot root, never
through a symlink.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import stat
import sys

from ._version import __version__
from .dedupe import ChunkIndex, ChunkingConfig
from .dedupe import ChunkStore  # unused here; perfbench's tracer looks the name up in this module
from .errors import WastekitError, shown, too_long
from .hierarchy import (
    CostModel,
    HierarchyAction,
    MaskRules,
    dump_plan,
    estimate_cost,
    load_mask_rules,
    plan as build_plan,
)
from .landfill import DigitalLandfill, LandfillConfig, load_trace, replay
from .model import (
    FileKind,
    OutsideRoot,
    TreeOpener,
    WasteCategory,
    atime_moved_warning,
    load_rules,
)
from .penalty import SchedulerConfig, load_workload, simulate
from .scanner import (
    ScanOptions,
    classify_snapshot,
    diff,
    dump_snapshot,
    read_snapshot,
    read_snapshot_pair,
    recover_summary,
    report,
    scan,
    write_snapshot,
)

RULES_ENV = "WASTEKIT_RULES"

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns the code."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _rules_path(args) -> str:
    path = args.rules or os.environ.get(RULES_ENV)
    if not path:
        raise WastekitError(f"no rules file: pass --rules or set ${RULES_ENV}")
    return path


def _warn(warnings) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def _int_arg(spelling: str) -> int:
    """`int` as an option's type, which refuses a spelling with argparse's
    own words but shows it as `shown` does, and names a number past
    Python's digit limit for str-to-int as too long to read."""
    try:
        return int(spelling)
    except ValueError:
        what = "a number too long to read" if too_long(spelling, int) else shown(spelling)
        raise argparse.ArgumentTypeError(f"invalid int value: {what}") from None


def _add_rules_arg(sub) -> None:
    sub.add_argument("--rules", help=f"classification rules JSON (default: ${RULES_ENV})")


def build_parser() -> _Parser:
    parser = _Parser(prog="wastekit", description="Classify, measure and manage waste data on a filesystem.")
    parser.add_argument("--version", action="version", version=f"wastekit {__version__}")
    parser.add_argument("--format", choices=("table", "json"), default="table", help="output format")
    parser.add_argument("-v", "--verbose", action="count", default=0, help="more detail in table output")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("scan", help="walk a directory tree and write a snapshot")
    p.add_argument("root")
    p.add_argument("-o", "--output", default="-", help="snapshot path ('-' for stdout)")
    p.add_argument("--workers", type=_int_arg, default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--follow-symlinks", action="store_true")
    p.add_argument("--one-filesystem", action="store_true")
    p.add_argument("--exclude", action="append", default=[], metavar="GLOB")

    p = sub.add_parser("report", help="classify a snapshot and print waste totals")
    p.add_argument("snapshot")
    _add_rules_arg(p)

    p = sub.add_parser("diff", help="compare two snapshots of the same root")
    p.add_argument("old")
    p.add_argument("new")
    _add_rules_arg(p)

    p = sub.add_parser("plan", help="choose a hierarchy action per waste file and price it")
    p.add_argument("snapshot")
    _add_rules_arg(p)
    p.add_argument("--masks", help="feasibility mask rules JSON (default: dispose only)")
    p.add_argument("--device", default="MLC", help="flash type for the cost model: MLC, SLC or Other")
    p.add_argument("--endurance", type=_int_arg, help="override device endurance cycles")
    p.add_argument("--erase-block", type=_int_arg, default=256 * 1024, help="erase block size in bytes")
    p.add_argument("--execute", action="store_true", help="delete the files planned for Dispose")
    p.add_argument("--yes", action="store_true", help="confirm --execute")

    p = sub.add_parser("landfill", help="replay an operation trace against the fading store")
    p.add_argument("--trace", required=True)
    p.add_argument("--capacity", required=True, type=_int_arg, help="capacity in bytes")
    p.add_argument("--fade", required=True, type=_int_arg, help="fade lifetime in epochs")
    p.add_argument("--no-refresh-on-read", action="store_true")
    p.add_argument("--log", help="append-only operation log to write")

    p = sub.add_parser("penalty-sim", help="simulate pay-as-you-throw bandwidth sharing")
    p.add_argument("--trace", required=True, help="workload trace file")
    p.add_argument("--alpha", required=True, help="penalty strength (rational, e.g. 0.5)")
    p.add_argument("--bandwidth", required=True, type=_int_arg, help="total bytes per tick")
    p.add_argument("--ticks", required=True, type=_int_arg, help="ticks to simulate")
    p.add_argument("--weight", action="append", default=[], metavar="ID=W", help="producer base weight")

    p = sub.add_parser("dedup", help="measure chunk-level duplication in a tree or snapshot")
    p.add_argument("path", help="directory to ingest, or a snapshot file")
    for f in dataclasses.fields(ChunkingConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=_int_arg, default=f.default)

    p = sub.add_parser("recover", help="emit an anonymized summary of a snapshot's waste")
    p.add_argument("snapshot")
    _add_rules_arg(p)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(parser.format_usage())
        handler = _HANDLERS[args.command]
        return handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (WastekitError, OSError) as exc:
        print(f"wastekit: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


# -- handlers ----------------------------------------------------------


def _cmd_scan(args) -> int:
    opts = ScanOptions(
        follow_symlinks=args.follow_symlinks,
        one_filesystem=args.one_filesystem,
        exclude_globs=tuple(args.exclude),
        workers=args.workers,
    )
    snapshot = scan(args.root, opts)
    if args.output == "-":
        dump_snapshot(snapshot, sys.stdout)
        return 0
    write_snapshot(snapshot, args.output)
    if args.format == "json":
        _print_json(
            {
                "root": snapshot.root,
                "records": len(snapshot.records),
                "warnings": snapshot.warnings,
                "output": args.output,
            }
        )
    else:
        print(f"scanned {len(snapshot.records)} entries under {snapshot.root} -> {args.output}")
        _warn(snapshot.warnings)
    return 0


def _cmd_report(args) -> int:
    snapshot = read_snapshot(args.snapshot)
    rules = load_rules(_rules_path(args))
    rep = report(snapshot, rules)
    if args.format == "json":
        _print_json({"root": snapshot.root, **rep.to_json_obj()})
        return 0
    print(f"root: {snapshot.root}")
    print(f"entries: {rep.total_files}")
    print(f"total bytes: {rep.total_bytes}")
    print(f"% of files never accessed: {rep.never_accessed_files_pct:.1f}")
    print(f"% of used space never accessed: {rep.never_accessed_space_pct:.1f}")
    print(f"{'category':<14}{'files':>10}{'bytes':>16}")
    for cat in WasteCategory:
        files, nbytes = rep.per_category[cat]
        print(f"{cat.value:<14}{files:>10}{nbytes:>16}")
    _warn(rep.warnings)
    return 0


def _cmd_diff(args) -> int:
    old, new = read_snapshot_pair(args.old, args.new)
    rules = load_rules(_rules_path(args))
    churn = diff(old, new, rules)
    _warn(churn.warnings)
    if args.format == "json":
        _print_json(churn.to_json_obj())
        return 0
    print(f"added: {len(churn.added)}")
    print(f"removed: {len(churn.removed)}")
    print(f"became waste: {len(churn.became_waste)}")
    print(f"reactivated: {len(churn.reactivated)}")
    if args.verbose:
        for label, paths in (
            ("+", churn.added),
            ("-", churn.removed),
            ("w", churn.became_waste),
            ("r", churn.reactivated),
        ):
            for path in paths:
                print(f"{label} {path}")
    return 0


def _is_filesystem_root(path: str) -> bool:
    resolved = os.path.realpath(path)
    return resolved == os.path.sep or os.path.ismount(resolved)


def _cmd_plan(args) -> int:
    snapshot = read_snapshot(args.snapshot)
    rules = load_rules(_rules_path(args))
    masks = load_mask_rules(args.masks) if args.masks else MaskRules()
    categories, warnings = classify_snapshot(snapshot, rules)
    _warn(warnings)
    entries = [
        (rec, category, masks.mask_for(rec.path))
        for rec, category in zip(snapshot.records, categories)
        if category is not WasteCategory.NOT_WASTE
    ]
    action_plan = build_plan(entries)
    model_kwargs = {"erase_block_bytes": args.erase_block}
    if args.endurance is not None:
        model_kwargs["device_endurance_cycles"] = args.endurance
    cost = estimate_cost(action_plan, CostModel.for_device(args.device, **model_kwargs))

    executed = None
    if args.execute:
        if not args.yes:
            raise _UsageError("wastekit plan: error: --execute requires --yes to confirm deletion")
        executed = _execute_dispose(snapshot.root, action_plan, snapshot)

    if args.format == "json":
        dump_plan(sys.stdout, snapshot.root, action_plan, cost, executed)
        return 0
    for action in sorted(action_plan.totals, key=int):
        files, nbytes = action_plan.totals[action]
        print(f"{action.label:<10}{files:>10} files{nbytes:>16} bytes")
    print(f"erase cycles: {cost.erase_cycles_consumed}")
    print(f"endurance fraction: {float(cost.endurance_fraction):.6g}")
    print(f"energy units: {cost.energy_units:.6g}")
    if args.verbose:
        for entry in action_plan.entries:
            print(f"{entry.action.label:<10} {entry.category.value:<14} {entry.path}")
    if executed is not None:
        print(f"deleted: {executed['deleted']} files, {executed['bytes_freed']} bytes")
        _warn(executed["failures"])
    return 0


def _execute_dispose(root: str, action_plan, snapshot) -> dict:
    """Remove the Regular files the plan marked Dispose. Refuses to run
    at a filesystem root — disposal is the ladder's last resort and the
    one irreversible subcommand, so the blast radius stays bounded. A
    target is reached from the root without following any symlink, and
    is deleted only if its size and mtime still match the snapshot; the
    check and the unlink act on the same pinned parent directory."""
    if _is_filesystem_root(root):
        raise WastekitError(f"refusing to execute dispose at filesystem root {root!r}")
    if not os.path.isdir(root):
        raise WastekitError(f"snapshot root is not a directory: {root!r}")
    records = {rec.path: rec for rec in snapshot.records}
    deleted = 0
    freed = 0
    failures = []
    with TreeOpener(root) as files:
        for entry in action_plan.entries:
            if entry.action is not HierarchyAction.DISPOSE:
                continue
            rec = records.get(entry.path)
            if rec is None or rec.kind is not FileKind.REGULAR:
                continue
            try:
                parent_fd, name = files.parent(entry.path)
                st = os.stat(name, dir_fd=parent_fd, follow_symlinks=False)
                if not stat.S_ISREG(st.st_mode):
                    failures.append(f"not a regular file any more, skipped: {entry.path}")
                    continue
                if st.st_size != rec.size_bytes or int(st.st_mtime) != rec.mtime:
                    failures.append(f"changed since the snapshot, skipped: {entry.path}")
                    continue
                os.unlink(name, dir_fd=parent_fd)
                deleted += 1
                freed += entry.bytes_affected
            except OutsideRoot:
                failures.append(f"resolves outside the root, skipped: {entry.path}")
            except OSError as exc:
                failures.append(f"could not delete {entry.path}: {exc}")
    return {"deleted": deleted, "bytes_freed": freed, "failures": failures}


def _cmd_landfill(args) -> int:
    ops = load_trace(args.trace)
    config = LandfillConfig(
        capacity_bytes=args.capacity,
        fade_lifetime_epochs=args.fade,
        refresh_on_read=not args.no_refresh_on_read,
    )
    if args.log and os.path.exists(args.log) and os.path.samefile(args.log, args.trace):
        raise WastekitError(f"--log {args.log} names the trace file; it would overwrite the trace")
    log_fh = open(args.log, "w", encoding="utf-8") if args.log else None
    try:
        lines = replay(DigitalLandfill(config, log=log_fh), ops)
        # One write per 256 lines: a write per line costs more than the text
        # it writes.
        while batch := "".join(itertools.islice(lines, 256)):
            sys.stdout.write(batch)
    finally:
        if log_fh is not None:
            log_fh.close()
    return 0


def _cmd_penalty_sim(args) -> int:
    trace = load_workload(args.trace)
    config = SchedulerConfig(total_bandwidth=args.bandwidth, alpha=args.alpha, tick_count=args.ticks)
    weights = {}
    for spec_ in args.weight:
        pid, sep, w = spec_.partition("=")
        if not sep or not pid:
            raise _UsageError(f"wastekit penalty-sim: error: --weight expects ID=W, got {spec_!r}")
        if pid in weights:
            raise _UsageError(f"wastekit penalty-sim: error: --weight given twice for {pid!r}")
        weights[pid] = w
    obj = simulate(trace, config, base_weights=weights or None).to_json_obj()
    if args.format == "json":
        _print_json(obj)
        return 0
    print(f"ticks: {config.tick_count}  bandwidth/tick: {config.total_bandwidth}  alpha: {obj['alpha']}")
    print(f"{'producer':<12}{'requested':>12}{'delivered':>12}{'done@':>8}{'factor':>10}")
    for pid, r in obj["producers"].items():
        done = r["completion_tick"] if r["completion_tick"] is not None else "-"
        print(f"{pid:<12}{r['requested_total']:>12}{r['delivered_total']:>12}{done!s:>8}{r['final_factor']:>10.4f}")
    if args.verbose:
        for tick, total in enumerate(obj["delivered_per_tick_total"]):
            per = "  ".join(f"{pid}={r['delivered_per_tick'][tick]}" for pid, r in obj["producers"].items())
            print(f"tick {tick:>4}: total {total}  {per}")
    return 0


def _cmd_dedup(args) -> int:
    config = ChunkingConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ChunkingConfig)})
    if os.path.isdir(args.path):
        snapshot = scan(args.path)
        _warn(snapshot.warnings)
    else:
        snapshot = read_snapshot(args.path)
    index = ChunkIndex(config=config)
    skipped = []
    with TreeOpener(snapshot.root) as files:
        for rec in snapshot.records:
            if rec.kind is not FileKind.REGULAR:
                continue
            try:
                fd = files.open(rec.path)
                if fd is None:
                    skipped.append(f"{rec.path}: not a regular file")
                    continue
                with open(fd, "rb", buffering=0) as fh:
                    index.ingest_file(rec.path, fh)
            except OutsideRoot:
                skipped.append(f"{rec.path}: resolves outside the root")
            except OSError as exc:
                skipped.append(f"{rec.path}: {exc}")
    if files.atime_moved:
        _warn([atime_moved_warning(files.atime_moved)])
    stats = index.stats()
    stats["skipped"] = skipped
    if args.format == "json":
        _print_json(stats)
        return 0
    print(f"objects: {stats['objects']}")
    print(f"chunks: {stats['chunks']}")
    print(f"logical bytes: {stats['logical_bytes']}")
    print(f"physical bytes: {stats['physical_bytes']}")
    print(f"dedup ratio: {stats['dedup_ratio']:.4f}")
    _warn(f"skipped {s}" for s in skipped)
    return 0


def _cmd_recover(args) -> int:
    snapshot = read_snapshot(args.snapshot)
    rules = load_rules(_rules_path(args))
    summary = recover_summary(snapshot, rules)
    _warn(summary.warnings)
    _print_json(summary.to_json_obj())
    return 0


_HANDLERS = {
    "scan": _cmd_scan,
    "report": _cmd_report,
    "diff": _cmd_diff,
    "plan": _cmd_plan,
    "landfill": _cmd_landfill,
    "penalty-sim": _cmd_penalty_sim,
    "dedup": _cmd_dedup,
    "recover": _cmd_recover,
}
