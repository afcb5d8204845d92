"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad rules, bad trace, unreadable
input), 2 usage error. Human-readable tables by default; `--format
json` switches every subcommand to schema-stable JSON on stdout.

The only paths ever written are explicit `-o` targets (and the files a
confirmed `plan --execute --yes` removes); scanning and reporting never
modify the tree being examined.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys

from ._version import __version__
from .dedupe import ChunkingConfig, ChunkStore, recover_summary
from .errors import WastekitError
from .hierarchy import (
    CostModel,
    FeasibilityMask,
    HierarchyAction,
    MaskRules,
    estimate_cost,
    load_mask_rules,
    plan as build_plan,
)
from .landfill import DigitalLandfill, LandfillConfig, load_trace, replay
from .model import FileKind, WasteCategory, load_rules
from .penalty import SchedulerConfig, load_workload, simulate
from .scanner import (
    ScanOptions,
    classify_snapshot,
    diff,
    dump_snapshot,
    read_snapshot,
    report,
    scan,
    write_snapshot,
)

RULES_ENV = "WASTEKIT_RULES"

CATEGORY_ORDER = (
    WasteCategory.UNINTENTIONAL,
    WasteCategory.USED,
    WasteCategory.DEGRADED,
    WasteCategory.UNWANTED,
    WasteCategory.NOT_WASTE,
)


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
    p.add_argument("--workers", type=int, default=1)
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
    p.add_argument("--endurance", type=int, help="override device endurance cycles")
    p.add_argument("--erase-block", type=int, default=256 * 1024, help="erase block size in bytes")
    p.add_argument("--execute", action="store_true", help="delete the files planned for Dispose")
    p.add_argument("--yes", action="store_true", help="confirm --execute")

    p = sub.add_parser("landfill", help="replay an operation trace against the fading store")
    p.add_argument("--trace", required=True)
    p.add_argument("--capacity", required=True, type=int, help="capacity in bytes")
    p.add_argument("--fade", required=True, type=int, help="fade lifetime in epochs")
    p.add_argument("--no-refresh-on-read", action="store_true")
    p.add_argument("--log", help="append-only operation log to write")

    p = sub.add_parser("penalty-sim", help="simulate pay-as-you-throw bandwidth sharing")
    p.add_argument("--trace", required=True, help="workload trace file")
    p.add_argument("--alpha", required=True, help="penalty strength (rational, e.g. 0.5)")
    p.add_argument("--bandwidth", required=True, type=int, help="total bytes per tick")
    p.add_argument("--ticks", required=True, type=int, help="ticks to simulate")
    p.add_argument("--weight", action="append", default=[], metavar="ID=W", help="producer base weight")

    p = sub.add_parser("dedup", help="measure chunk-level duplication in a tree or snapshot")
    p.add_argument("path", help="directory to ingest, or a snapshot file")
    p.add_argument("--min-chunk", type=int, default=ChunkingConfig().min_chunk)
    p.add_argument("--target-chunk", type=int, default=ChunkingConfig().target_chunk)
    p.add_argument("--max-chunk", type=int, default=ChunkingConfig().max_chunk)
    p.add_argument("--window", type=int, default=ChunkingConfig().window)

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
    except WastekitError as exc:
        print(f"wastekit: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
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
        for w in snapshot.warnings:
            print(f"warning: {w}", file=sys.stderr)
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
    for cat in CATEGORY_ORDER:
        files, nbytes = rep.per_category[cat]
        print(f"{cat.value:<14}{files:>10}{nbytes:>16}")
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _cmd_diff(args) -> int:
    old = read_snapshot(args.old)
    new = read_snapshot(args.new)
    rules = load_rules(_rules_path(args))
    churn = diff(old, new, rules)
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
    masks = load_mask_rules(args.masks) if args.masks else MaskRules(default=FeasibilityMask())
    categories, _ = classify_snapshot(snapshot, rules)
    entries = [
        (rec, category, masks.mask_for(rec.path))
        for rec, category in zip(snapshot.records, categories)
        if category.is_waste()
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
        obj = {"root": snapshot.root, "plan": action_plan.to_json_obj(), "cost": cost.to_json_obj()}
        if executed is not None:
            obj["executed"] = executed
        _print_json(obj)
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
        for failure in executed["failures"]:
            print(f"warning: {failure}", file=sys.stderr)
    return 0


class _OutsideRoot(Exception):
    pass


_DIR_FLAGS = os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW


def _open_parent(root_fd: int, parts: list[str]) -> int:
    """Open the directory that holds parts[-1] by walking down from
    root_fd one component at a time, never through a symlink. The
    returned fd pins that directory: swapping a directory on the path
    for a symlink afterwards cannot redirect what is done through it."""
    fd = os.dup(root_fd)
    try:
        for name in parts[:-1]:
            try:
                child = os.open(name, _DIR_FLAGS, dir_fd=fd)
            except OSError:
                if stat.S_ISLNK(os.stat(name, dir_fd=fd, follow_symlinks=False).st_mode):
                    raise _OutsideRoot from None
                raise
            os.close(fd)
            fd = child
    except BaseException:
        os.close(fd)
        raise
    return fd


def _execute_dispose(root: str, action_plan, snapshot) -> dict:
    """Remove the Regular files the plan marked Dispose. Refuses to run
    at a filesystem root — disposal is the ladder's last resort and the
    one irreversible subcommand, so the blast radius stays bounded. A
    target is reached from the root without following any symlink, and
    is deleted only if its size and mtime still match the snapshot; the
    check and the unlink act on the same pinned parent directory."""
    if _is_filesystem_root(root):
        raise WastekitError(f"refusing to execute dispose at filesystem root {root!r}")
    records = {rec.path: rec for rec in snapshot.records}
    deleted = 0
    freed = 0
    failures = []
    root_fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
    try:
        for entry in action_plan.entries:
            if entry.action is not HierarchyAction.DISPOSE:
                continue
            rec = records.get(entry.path)
            if rec is None or rec.kind is not FileKind.REGULAR:
                continue
            parts = entry.path.split("/")
            try:
                if any(part in ("", ".", "..") for part in parts):
                    raise _OutsideRoot
                parent_fd = _open_parent(root_fd, parts)
                try:
                    st = os.stat(parts[-1], dir_fd=parent_fd, follow_symlinks=False)
                    if not stat.S_ISREG(st.st_mode):
                        failures.append(f"not a regular file any more, skipped: {entry.path}")
                        continue
                    if st.st_size != rec.size_bytes or int(st.st_mtime) != rec.mtime:
                        failures.append(f"changed since the snapshot, skipped: {entry.path}")
                        continue
                    os.unlink(parts[-1], dir_fd=parent_fd)
                finally:
                    os.close(parent_fd)
                deleted += 1
                freed += entry.bytes_affected
            except _OutsideRoot:
                failures.append(f"resolves outside the root, skipped: {entry.path}")
            except OSError as exc:
                failures.append(f"could not delete {entry.path}: {exc}")
    finally:
        os.close(root_fd)
    return {"deleted": deleted, "bytes_freed": freed, "failures": failures}


def _cmd_landfill(args) -> int:
    ops = load_trace(args.trace)
    config = LandfillConfig(
        capacity_bytes=args.capacity,
        fade_lifetime_epochs=args.fade,
        refresh_on_read=not args.no_refresh_on_read,
    )
    log_fh = open(args.log, "w", encoding="utf-8") if args.log else None
    try:
        sys.stdout.writelines(replay(DigitalLandfill(config, log=log_fh), ops))
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
        weights[pid] = w
    rep = simulate(trace, config, base_weights=weights or None)
    if args.format == "json":
        _print_json(rep.to_json_obj())
        return 0
    obj = rep.to_json_obj()
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
    config = ChunkingConfig(
        min_chunk=args.min_chunk,
        target_chunk=args.target_chunk,
        max_chunk=args.max_chunk,
        window=args.window,
    )
    snapshot = scan(args.path) if os.path.isdir(args.path) else read_snapshot(args.path)
    store = ChunkStore(config=config)
    skipped = []
    for rec in snapshot.records:
        if rec.kind is not FileKind.REGULAR:
            continue
        try:
            with open(os.path.join(snapshot.root, rec.path), "rb") as fh:
                data = fh.read()
        except OSError as exc:
            skipped.append(f"{rec.path}: {exc}")
            continue
        store.ingest(rec.path, data)
    stats = store.stats()
    stats["skipped"] = skipped
    if args.format == "json":
        _print_json(stats)
        return 0
    print(f"objects: {stats['objects']}")
    print(f"chunks: {stats['chunks']}")
    print(f"logical bytes: {stats['logical_bytes']}")
    print(f"physical bytes: {stats['physical_bytes']}")
    print(f"dedup ratio: {stats['dedup_ratio']:.4f}")
    for s in skipped:
        print(f"warning: skipped {s}", file=sys.stderr)
    return 0


def _cmd_recover(args) -> int:
    snapshot = read_snapshot(args.snapshot)
    rules = load_rules(_rules_path(args))
    summary = recover_summary(snapshot, rules)
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
