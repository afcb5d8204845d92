"""Command-line surface: exit codes, output schemas, and the one
destructive path (plan --execute)."""

import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wastekit.cli import run
from wastekit.fixtures import build_never_accessed_tree
from wastekit.model import atime_moved_warning
from wastekit.landfill import DigitalLandfill, LandfillConfig, parse_trace, replay

from naive_landfill import NaiveLandfill, naive_replay_events

# -- output schemas ------------------------------------------------------

HIST = {
    "type": "object",
    "additionalProperties": {
        "type": "object",
        "properties": {"files": {"type": "integer"}, "bytes": {"type": "integer"}},
        "required": ["files", "bytes"],
        "additionalProperties": False,
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "root": {"type": "string"},
        "total_files": {"type": "integer", "minimum": 0},
        "total_bytes": {"type": "integer", "minimum": 0},
        "never_accessed_files_pct": {"type": "number"},
        "never_accessed_space_pct": {"type": "number"},
        "per_category": {
            "type": "object",
            "properties": {
                cat: HIST["additionalProperties"]
                for cat in ("Unintentional", "Used", "Degraded", "Unwanted", "NotWaste")
            },
            "required": ["Unintentional", "Used", "Degraded", "Unwanted", "NotWaste"],
            "additionalProperties": False,
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["root", "total_files", "total_bytes", "per_category"],
    "additionalProperties": False,
}

DIFF_SCHEMA = {
    "type": "object",
    "properties": {
        k: {"type": "array", "items": {"type": "string"}}
        for k in ("added", "removed", "became_waste", "reactivated")
    },
    "required": ["added", "removed", "became_waste", "reactivated"],
    "additionalProperties": False,
}

PLAN_SCHEMA = {
    "type": "object",
    "properties": {
        "root": {"type": "string"},
        "plan": {
            "type": "object",
            "properties": {
                "entries": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "path": {"type": "string"},
                            "category": {"type": "string"},
                            "action": {
                                "enum": ["Reduce", "Reuse", "Recycle", "Recover", "Dispose"]
                            },
                            "bytes_affected": {"type": "integer", "minimum": 0},
                        },
                        "required": ["path", "category", "action", "bytes_affected"],
                        "additionalProperties": False,
                    },
                },
                "totals": HIST,
            },
            "required": ["entries", "totals"],
        },
        "cost": {
            "type": "object",
            "properties": {
                "bytes_erased": {"type": "integer", "minimum": 0},
                "erase_cycles_consumed": {"type": "integer", "minimum": 0},
                "endurance_fraction": {"type": "number", "minimum": 0},
                "energy_units": {"type": "number", "minimum": 0},
            },
            "required": [
                "bytes_erased",
                "erase_cycles_consumed",
                "endurance_fraction",
                "energy_units",
            ],
            "additionalProperties": False,
        },
        "executed": {"type": "object"},
    },
    "required": ["root", "plan", "cost"],
}

LANDFILL_STATS = {
    "type": "object",
    "properties": {
        k: {"type": "integer", "minimum": 0}
        for k in (
            "live_entries",
            "live_bytes",
            "capacity_bytes",
            "current_epoch",
            "lifetime_evictions",
            "lifetime_fades",
        )
    },
    "required": ["live_entries", "live_bytes", "capacity_bytes", "current_epoch"],
    "additionalProperties": False,
}

LANDFILL_EVENT_SCHEMA = {
    "type": "object",
    "properties": {
        "op": {"enum": ["PUT", "GET", "ADV"]},
        "key": {"type": "string"},
        "size": {"type": "integer"},
        "outcome": {"enum": ["stored", "rejected_too_large"]},
        "result": {"enum": ["hit", "faded"]},
        "n": {"type": "integer"},
        "entries_faded": {"type": "integer"},
        "bytes_reclaimed": {"type": "integer"},
        "index": {"type": "integer", "minimum": 0},
        "stats": LANDFILL_STATS,
    },
    "required": ["op", "index", "stats"],
    "additionalProperties": False,
}

PENALTY_SCHEMA = {
    "type": "object",
    "properties": {
        "total_bandwidth": {"type": "integer", "minimum": 1},
        "alpha": {"type": "number", "minimum": 0},
        "tick_count": {"type": "integer", "minimum": 1},
        "delivered_per_tick_total": {"type": "array", "items": {"type": "integer"}},
        "producers": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "properties": {
                    "delivered_per_tick": {"type": "array", "items": {"type": "integer"}},
                    "requested_total": {"type": "integer", "minimum": 0},
                    "delivered_total": {"type": "integer", "minimum": 0},
                    "completion_tick": {"type": ["integer", "null"]},
                    "useful_bytes": {"type": "number"},
                    "waste_bytes": {"type": "number"},
                    "final_factor": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                },
                "required": [
                    "delivered_per_tick",
                    "requested_total",
                    "delivered_total",
                    "completion_tick",
                    "final_factor",
                ],
                "additionalProperties": False,
            },
        },
    },
    "required": ["total_bandwidth", "alpha", "tick_count", "producers"],
    "additionalProperties": False,
}

DEDUP_SCHEMA = {
    "type": "object",
    "properties": {
        "objects": {"type": "integer", "minimum": 0},
        "chunks": {"type": "integer", "minimum": 0},
        "logical_bytes": {"type": "integer", "minimum": 0},
        "physical_bytes": {"type": "integer", "minimum": 0},
        "dedup_ratio": {"type": "number", "minimum": 1.0},
        "skipped": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["objects", "chunks", "logical_bytes", "physical_bytes", "dedup_ratio"],
    "additionalProperties": False,
}

RECOVER_SCHEMA = {
    "type": "object",
    "properties": {
        "extension_histogram": HIST,
        "size_histogram": HIST,
        "age_histogram": HIST,
        "waste_files": {"type": "integer", "minimum": 0},
        "waste_bytes": {"type": "integer", "minimum": 0},
    },
    "required": [
        "extension_histogram",
        "size_histogram",
        "age_histogram",
        "waste_files",
        "waste_bytes",
    ],
    "additionalProperties": False,
}


# -- helpers -------------------------------------------------------------


def cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_json(capsys, *argv):
    code, out, err = cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(
        json.dumps(
            {
                "not_waste_globs": ["keep/*"],
                "unintentional_globs": ["*.tmp", "*.o"],
                "unwanted_globs": ["*.junk"],
            }
        )
    )
    return str(path)


@pytest.fixture
def small_tree(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "keep").mkdir()
    (root / "keep" / "precious.junk").write_bytes(b"k" * 10)
    (root / "report.txt").write_bytes(b"r" * 100)
    (root / "scratch.tmp").write_bytes(b"s" * 200)
    (root / "old.junk").write_bytes(b"j" * 300)
    return root


def scan_to(capsys, root, dest):
    code, _, err = cli(capsys, "scan", str(root), "-o", str(dest))
    assert code == 0, err
    return str(dest)


def outside_state(base, root):
    """Path, size and mtime of every entry under base that is not under root."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(base):
        if dirpath == str(root):
            dirnames.clear()
            continue
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            if path != str(root):
                st = os.lstat(path)
                state[path] = (st.st_size, st.st_mtime_ns)
    return state


# -- exit code basics ----------------------------------------------------


def _snapshot_with_record(**fields) -> bytes:
    """A one-record snapshot; `fields` override the record's values."""
    header = {"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": 10}
    record = {"path": "a.txt", "size_bytes": 5, "mtime": 1, "atime": 2, "kind": "Regular"} | fields
    return (json.dumps(header) + "\n" + json.dumps(record) + "\n").encode()


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = cli(capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        code, _, err = cli(capsys, "compost")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = cli(capsys, "--help")
        assert code == 0
        assert "scan" in out and "penalty-sim" in out

    def test_version_exits_zero(self, capsys):
        code, out, _ = cli(capsys, "--version")
        assert code == 0

    def test_python_dash_m_runs_the_cli(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "wastekit", "--version"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("wastekit ")

    def test_missing_required_option(self, capsys):
        code, _, _ = cli(capsys, "landfill", "--capacity", "10", "--fade", "1")
        assert code == 2  # --trace is required

    def test_missing_input_file_is_domain_error(self, capsys, rules_file):
        code, _, err = cli(capsys, "report", "/nonexistent.snap", "--rules", rules_file)
        assert code == 1
        assert "error" in err

    def test_report_without_rules(self, capsys, small_tree, tmp_path, monkeypatch):
        monkeypatch.delenv("WASTEKIT_RULES", raising=False)
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        code, _, err = cli(capsys, "report", snap)
        assert code == 1
        assert "rules" in err

    @pytest.mark.parametrize(
        "content, argv",
        [
            (b'{"format": "wastekit-snapshot-v1", "taken_at": 1}\n', ["report", "{bad}", "--rules", "{rules}"]),
            (b'{"format": "wastekit-snapshot-v1", "root": "/r"}\n', ["report", "{bad}", "--rules", "{rules}"]),
            (b'{"format": "wastekit-snapshot-v1", "root": 5, "taken_at": 1}\n', ["report", "{bad}", "--rules", "{rules}"]),
            (b'{"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": "1"}\n', ["report", "{bad}", "--rules", "{rules}"]),
            (b'{"format": "wastekit-snapshot-v1", "root": "/r", "taken_at": 1, "warnings": 5}\n', ["report", "{bad}", "--rules", "{rules}"]),
            (b'{"unwanted_globs": ["\xff"]}', ["report", "{snap}", "--rules", "{bad}"]),
            (b'{"rules": [{"glob": "\xff"}]}', ["plan", "{snap}", "--rules", "{rules}", "--masks", "{bad}"]),
            (b'{"format": "wastekit-snapshot-v1", "root": "\xff", "taken_at": 1}\n', ["report", "{bad}", "--rules", "{rules}"]),
            (b"PUT \xff\xfe 3\n", ["landfill", "--trace", "{bad}", "--capacity", "10", "--fade", "1"]),
            (b"0 \xff 100 0.0\n", ["penalty-sim", "--trace", "{bad}", "--alpha", "0", "--bandwidth", "10", "--ticks", "1"]),
            (_snapshot_with_record(size_bytes=2.5), ["report", "{bad}", "--rules", "{rules}"]),
            (_snapshot_with_record(mtime=True), ["report", "{bad}", "--rules", "{rules}"]),
            (_snapshot_with_record(atime="1"), ["report", "{bad}", "--rules", "{rules}"]),
            (_snapshot_with_record(size_bytes=None), ["report", "{bad}", "--rules", "{rules}"]),
            (_snapshot_with_record(allocated_bytes=4096.0), ["report", "{bad}", "--rules", "{rules}"]),
            (_snapshot_with_record(allocated_bytes=False), ["report", "{bad}", "--rules", "{rules}"]),
            (_snapshot_with_record().replace(b"\n{", b"\n" + b"[" * 100_000 + b"\n{"), ["report", "{bad}", "--rules", "{rules}"]),
            (b"[" * 100_000 + b"\n", ["report", "{bad}", "--rules", "{rules}"]),
            (b"[" * 100_000, ["report", "{snap}", "--rules", "{bad}"]),
            (b'{"rules": ' + b"[" * 100_000, ["plan", "{snap}", "--rules", "{rules}", "--masks", "{bad}"]),
        ],
        ids=[
            "header-no-root", "header-no-taken-at", "header-root-number", "header-taken-at-string", "header-warnings-number",
            "rules-not-utf8", "masks-not-utf8", "snapshot-not-utf8", "trace-not-utf8", "workload-not-utf8",
            "record-size-float", "record-mtime-bool", "record-atime-string", "record-size-null",
            "record-allocated-float", "record-allocated-bool",
            "record-deep", "header-deep", "rules-deep", "masks-deep",
        ],
    )
    def test_bad_input_file_is_named_in_one_line(self, capsys, small_tree, tmp_path, rules_file, content, argv):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        bad = tmp_path / "bad.input"
        bad.write_bytes(content)
        code, _, err = cli(capsys, *(a.format(bad=bad, snap=snap, rules=rules_file) for a in argv))
        assert code == 1
        assert err.startswith("wastekit: error: ") and len(err.splitlines()) == 1
        assert str(bad) in err
        assert str(bad) in err

    @pytest.mark.parametrize("allocated", [{}, {"allocated_bytes": None}, {"allocated_bytes": 4096}])
    def test_integer_record_fields_are_read(self, capsys, tmp_path, rules_file, allocated):
        snap = tmp_path / "ok.snap"
        snap.write_bytes(_snapshot_with_record(**allocated))
        obj = cli_json(capsys, "--format", "json", "report", str(snap), "--rules", rules_file)
        assert obj["total_files"] == 1


# -- scan ----------------------------------------------------------------


class TestScan:
    def test_scan_to_file(self, capsys, small_tree, tmp_path):
        dest = tmp_path / "tree.snap"
        code, out, _ = cli(capsys, "scan", str(small_tree), "-o", str(dest))
        assert code == 0
        first = dest.read_text().splitlines()[0]
        assert json.loads(first)["format"] == "wastekit-snapshot-v1"
        assert "scanned" in out

    def test_scan_to_stdout(self, capsys, small_tree):
        code, out, _ = cli(capsys, "scan", str(small_tree))
        assert code == 0
        lines = out.splitlines()
        assert json.loads(lines[0])["format"] == "wastekit-snapshot-v1"
        # one record line per entry (5 files/dirs) after the header
        assert len(lines) == 1 + 5

    def test_scan_json_summary(self, capsys, small_tree, tmp_path):
        dest = tmp_path / "t.snap"
        obj = cli_json(capsys, "--format", "json", "scan", str(small_tree), "-o", str(dest))
        assert obj["records"] == 5
        assert obj["output"] == str(dest)

    def test_scan_missing_root(self, capsys):
        code, _, err = cli(capsys, "scan", "/no/such/dir")
        assert code == 1

    def test_scan_exclude(self, capsys, small_tree, tmp_path):
        dest = tmp_path / "t.snap"
        obj = cli_json(
            capsys, "--format", "json", "scan", str(small_tree), "-o", str(dest), "--exclude", "*.junk"
        )
        assert obj["records"] == 3  # keep/, report.txt, scratch.tmp


# -- report / diff -------------------------------------------------------


class TestReport:
    def test_json_matches_schema(self, capsys, small_tree, tmp_path, rules_file):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        obj = cli_json(capsys, "--format", "json", "report", snap, "--rules", rules_file)
        jsonschema.validate(obj, REPORT_SCHEMA)
        assert obj["per_category"]["Unintentional"] == {"files": 1, "bytes": 200}
        assert obj["per_category"]["Unwanted"] == {"files": 1, "bytes": 300}

    def test_rules_from_environment(self, capsys, small_tree, tmp_path, rules_file, monkeypatch):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        monkeypatch.setenv("WASTEKIT_RULES", rules_file)
        obj = cli_json(capsys, "--format", "json", "report", snap)
        assert obj["per_category"]["Unwanted"]["files"] == 1

    @pytest.mark.parametrize(
        "rules",
        [
            {"unwanted_globs": "*.bak"},  # not a list: once read as the globs * . b a k
            {"unwanted_globs": 5},
            {"unwanted_globs": ["*.bak", 5]},
            {"degraded_checks": 5},
            {"used_threshold_secs": True},  # once accepted as 1 s
        ],
        ids=["glob-group-string", "glob-group-number", "glob-not-string", "checks-number", "threshold-bool"],
    )
    def test_invalid_rules_exit_1(self, capsys, small_tree, tmp_path, rules):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(rules))
        code, out, err = cli(capsys, "report", snap, "--rules", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("wastekit: error: ") and len(err.splitlines()) == 1

    def test_malformed_rules_file(self, capsys, small_tree, tmp_path):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        bad = tmp_path / "bad.json"
        bad.write_text('{"surprise_key": []}')
        code, _, err = cli(capsys, "report", snap, "--rules", str(bad))
        assert code == 1
        assert "surprise_key" in err

    def test_table_shows_laptop_profile(self, capsys, tmp_path, rules_file):
        tree = tmp_path / "laptop"
        build_never_accessed_tree(str(tree), 20.6, 98.5)
        snap = scan_to(capsys, tree, tmp_path / "laptop.snap")
        code, out, _ = cli(capsys, "report", snap, "--rules", rules_file)
        assert code == 0
        assert "% of files never accessed: 20.6" in out
        assert "% of used space never accessed: 98.5" in out

    @pytest.mark.parametrize("replacement", ["fifo", "symlink"])
    def test_digest_of_non_regular_file_counts_degraded(self, capsys, tmp_path, replacement):
        # Once a FIFO at a checked path blocked `report` forever in open().
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "p.o").write_bytes(b"intact")
        (tmp_path / "elsewhere").write_bytes(b"intact")
        snap = scan_to(capsys, tree, tmp_path / "t.snap")
        (tree / "p.o").unlink()
        if replacement == "fifo":
            os.mkfifo(tree / "p.o")
        else:
            # The link's target has the expected content; the digest does
            # not follow a symlink at the record's own path.
            os.symlink(tmp_path / "elsewhere", tree / "p.o")
        rules = tmp_path / "rules.json"
        check = {"glob": "*.o", "sha256": hashlib.sha256(b"intact").hexdigest()}
        rules.write_text(json.dumps({"degraded_checks": [check]}))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "wastekit", "--format", "json", "report", snap, "--rules", str(rules)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert obj["per_category"]["Degraded"] == {"files": 1, "bytes": 6}
        assert "digest unreadable, file counted Degraded: p.o" in obj["warnings"]


class TestDiff:
    def test_diff_two_snapshots(self, capsys, small_tree, tmp_path, rules_file):
        old = scan_to(capsys, small_tree, tmp_path / "old.snap")
        (small_tree / "fresh.txt").write_bytes(b"new")
        os.unlink(small_tree / "report.txt")
        new = scan_to(capsys, small_tree, tmp_path / "new.snap")
        obj = cli_json(capsys, "--format", "json", "diff", old, new, "--rules", rules_file)
        jsonschema.validate(obj, DIFF_SCHEMA)
        assert obj["added"] == ["fresh.txt"]
        assert obj["removed"] == ["report.txt"]

    def test_diff_differing_roots(self, capsys, small_tree, tmp_path, rules_file):
        other = tmp_path / "other"
        other.mkdir()
        a = scan_to(capsys, small_tree, tmp_path / "a.snap")
        b = scan_to(capsys, other, tmp_path / "b.snap")
        code, _, err = cli(capsys, "diff", a, b, "--rules", rules_file)
        assert code == 1


# -- plan ----------------------------------------------------------------


class TestPlan:
    def test_plan_json(self, capsys, small_tree, tmp_path, rules_file):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        obj = cli_json(capsys, "--format", "json", "plan", snap, "--rules", rules_file)
        jsonschema.validate(obj, PLAN_SCHEMA)
        # default masks: everything is dispose-only
        assert {e["action"] for e in obj["plan"]["entries"]} == {"Dispose"}
        assert obj["plan"]["totals"]["Dispose"] == {"files": 2, "bytes": 500}
        assert obj["cost"]["erase_cycles_consumed"] == 1

    def test_plan_with_masks(self, capsys, small_tree, tmp_path, rules_file):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        masks = tmp_path / "masks.json"
        masks.write_text(json.dumps({"rules": [{"glob": "*.tmp", "recycle_ok": True}]}))
        obj = cli_json(
            capsys, "--format", "json", "plan", snap, "--rules", rules_file, "--masks", str(masks)
        )
        actions = {e["path"]: e["action"] for e in obj["plan"]["entries"]}
        assert actions["scratch.tmp"] == "Recycle"
        assert actions["old.junk"] == "Dispose"

    @pytest.mark.parametrize(
        "masks",
        [
            {"rules": [{"glob": 5}]},  # once a TypeError traceback
            {"rules": [{"glob": "*.tmp", "reduce_ok": "false"}]},  # once read as true
            {"default": {"recycle_ok": 1}},
            {"rules": "*.tmp"},
            {"default": 5},
        ],
        ids=["glob-not-string", "bit-string", "bit-number", "rules-not-list", "default-not-object"],
    )
    def test_invalid_masks_exit_1(self, capsys, small_tree, tmp_path, rules_file, masks):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        bad = tmp_path / "masks.json"
        bad.write_text(json.dumps(masks))
        code, out, err = cli(capsys, "plan", snap, "--rules", rules_file, "--masks", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("wastekit: error: ") and len(err.splitlines()) == 1

    def test_execute_without_yes_is_usage_error(self, capsys, small_tree, tmp_path, rules_file):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        code, _, err = cli(capsys, "plan", snap, "--rules", rules_file, "--execute")
        assert code == 2
        assert "--yes" in err
        assert (small_tree / "old.junk").exists()  # nothing deleted

    def test_execute_with_yes_deletes_dispose_targets(self, capsys, small_tree, tmp_path, rules_file):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        obj = cli_json(
            capsys, "--format", "json", "plan", snap, "--rules", rules_file, "--execute", "--yes"
        )
        assert obj["executed"]["deleted"] == 2
        assert obj["executed"]["bytes_freed"] == 500
        assert not (small_tree / "old.junk").exists()
        assert not (small_tree / "scratch.tmp").exists()
        assert (small_tree / "report.txt").exists()
        assert (small_tree / "keep" / "precious.junk").exists()  # allowlisted

    def test_execute_refuses_filesystem_root(self, capsys, tmp_path, rules_file):
        # hand-build a snapshot claiming to live at /
        snap = tmp_path / "rooted.snap"
        header = {"format": "wastekit-snapshot-v1", "root": "/", "taken_at": 1_700_000_000,
                  "atime_reliable": True, "warnings": []}
        record = {"path": "old.junk", "kind": "Regular", "size_bytes": 1,
                  "mtime": 1, "atime": 1}
        snap.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        code, _, err = cli(capsys, "plan", str(snap), "--rules", rules_file, "--execute", "--yes")
        assert code == 1
        assert "refusing" in err

    @pytest.mark.parametrize("where", ["parent-dir", "absolute"])
    def test_execute_rejects_record_paths_leaving_the_root(self, capsys, small_tree, tmp_path, rules_file, where):
        victim = tmp_path / "victim.junk"
        victim.write_bytes(b"v" * 7)
        st = victim.stat()
        path = "../victim.junk" if where == "parent-dir" else str(victim)
        snap = tmp_path / "crafted.snap"
        header = {"format": "wastekit-snapshot-v1", "root": str(small_tree), "taken_at": 1_700_000_000}
        record = {"path": path, "kind": "Regular", "size_bytes": 7, "mtime": int(st.st_mtime), "atime": 1}
        snap.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        before = outside_state(tmp_path, small_tree)
        code, out, err = cli(capsys, "plan", str(snap), "--rules", rules_file, "--execute", "--yes")
        assert (code, out) == (1, "")
        assert err.startswith("wastekit: error: ") and len(err.splitlines()) == 1
        assert outside_state(tmp_path, small_tree) == before

    def test_execute_skips_targets_through_a_symlinked_directory(self, capsys, small_tree, tmp_path, rules_file):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "victim.junk").write_bytes(b"v" * 7)
        (small_tree / "link").symlink_to(elsewhere, target_is_directory=True)
        code, _, err = cli(capsys, "scan", str(small_tree), "--follow-symlinks", "-o", str(tmp_path / "t.snap"))
        assert code == 0, err
        before = outside_state(tmp_path, small_tree)
        obj = cli_json(
            capsys, "--format", "json", "plan", str(tmp_path / "t.snap"), "--rules", rules_file, "--execute", "--yes"
        )
        assert obj["executed"]["deleted"] == 2  # old.junk and scratch.tmp
        assert obj["executed"]["failures"] == ["resolves outside the root, skipped: link/victim.junk"]
        assert outside_state(tmp_path, small_tree) == before

    def test_execute_cannot_be_redirected_by_a_directory_swapped_for_a_symlink(
        self, capsys, small_tree, tmp_path, rules_file, monkeypatch
    ):
        # Between the checks on sub/gone.junk and its unlink, sub is moved
        # aside and replaced by a symlink to a directory outside the root
        # that holds a file of the same name, size and mtime.
        sub = small_tree / "sub"
        sub.mkdir()
        (sub / "gone.junk").write_bytes(b"g" * 9)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        victim = elsewhere / "gone.junk"
        victim.write_bytes(b"v" * 9)
        st = (sub / "gone.junk").stat()
        os.utime(victim, ns=(st.st_atime_ns, st.st_mtime_ns))
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        before = outside_state(tmp_path, small_tree)
        real_unlink = os.unlink

        def swap_then_unlink(path, *args, **kwargs):
            if os.fspath(path).endswith("gone.junk") and not sub.is_symlink():
                sub.rename(small_tree / "sub.moved")
                sub.symlink_to(elsewhere, target_is_directory=True)
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", swap_then_unlink)
        obj = cli_json(capsys, "--format", "json", "plan", snap, "--rules", rules_file, "--execute", "--yes")
        monkeypatch.undo()
        assert victim.read_bytes() == b"v" * 9
        assert outside_state(tmp_path, small_tree) == before
        assert obj["executed"]["deleted"] == 3  # old.junk, scratch.tmp and the moved gone.junk
        assert not (small_tree / "sub.moved" / "gone.junk").exists()

    @pytest.mark.parametrize("change", ["size", "mtime"])
    def test_execute_skips_files_changed_since_the_snapshot(self, capsys, small_tree, tmp_path, rules_file, change):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        junk = small_tree / "old.junk"
        if change == "size":
            junk.write_bytes(b"j" * 301)
        else:
            st = junk.stat()
            os.utime(junk, (st.st_atime, st.st_mtime - 100))
        before = outside_state(tmp_path, small_tree)
        obj = cli_json(capsys, "--format", "json", "plan", snap, "--rules", rules_file, "--execute", "--yes")
        assert obj["executed"]["deleted"] == 1  # scratch.tmp only
        assert obj["executed"]["failures"] == ["changed since the snapshot, skipped: old.junk"]
        assert junk.exists()
        assert outside_state(tmp_path, small_tree) == before

    def test_unknown_device_kind(self, capsys, small_tree, tmp_path, rules_file):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        code, _, _ = cli(capsys, "plan", snap, "--rules", rules_file, "--device", "QLC")
        assert code == 1


# -- landfill ------------------------------------------------------------


TRACE = """\
# three puts into a 25-byte store, then reads and idling
PUT alpha 10
PUT beta 10
PUT gamma 10
ADV 1
GET beta
ADV 2
GET beta
GET gamma
"""


_FUZZ_TOKEN = st.one_of(
    st.sampled_from(["PUT", "GET", "ADV", "put", "Adv", "FROB", "#", "k", "caf\u00e9", "\u65e5\u672c", "1_0", "0x10"]),
    st.integers(-(10**40), 10**40).map(str),
    st.text(max_size=4),
)
# A line is either made of trace-like tokens or arbitrary bytes, which
# covers non-UTF-8 input, stray control characters and missing fields.
_FUZZ_LINE = st.one_of(
    st.lists(_FUZZ_TOKEN, max_size=4).map(lambda tokens: " ".join(tokens).encode("utf-8")),
    st.binary(max_size=12),
)


class TestLandfillCommand:
    def test_replay_events(self, capsys, tmp_path):
        trace = tmp_path / "ops.trace"
        trace.write_text(TRACE)
        code, out, _ = cli(
            capsys, "landfill", "--trace", str(trace), "--capacity", "25", "--fade", "2"
        )
        assert code == 0
        events = [json.loads(line) for line in out.splitlines()]
        assert len(events) == 8
        for ev in events:
            jsonschema.validate(ev, LANDFILL_EVENT_SCHEMA)
        # alpha was evicted by gamma's arrival (oldest key wins the tie)
        assert events[2]["stats"]["lifetime_evictions"] == 1
        assert events[3]["entries_faded"] == 0
        assert events[4] == {
            "op": "GET", "key": "beta", "result": "hit", "index": 4,
            "stats": events[4]["stats"],
        }
        # after ADV 2 the un-refreshed gamma (idle 3 > 2) is gone, the
        # refreshed beta (idle 2) survives
        assert events[5]["entries_faded"] == 1
        assert events[6]["result"] == "hit"
        assert events[7]["result"] == "faded"

    def test_matches_reference_model(self, capsys, tmp_path):
        trace = tmp_path / "ops.trace"
        trace.write_text(TRACE)
        code, out, _ = cli(
            capsys, "landfill", "--trace", str(trace), "--capacity", "25", "--fade", "2"
        )
        assert code == 0
        naive = NaiveLandfill(capacity_bytes=25, fade_lifetime_epochs=2)
        expected = naive_replay_events(naive, parse_trace(TRACE.splitlines()))
        assert [json.loads(line) for line in out.splitlines()] == expected

    def test_operation_log_replays_identically(self, capsys, tmp_path):
        trace = tmp_path / "ops.trace"
        trace.write_text(TRACE)
        log = tmp_path / "ops.log"
        code, first, _ = cli(
            capsys, "landfill", "--trace", str(trace), "--capacity", "25", "--fade", "2",
            "--log", str(log),
        )
        assert code == 0
        code, second, _ = cli(
            capsys, "landfill", "--trace", str(log), "--capacity", "25", "--fade", "2"
        )
        assert code == 0
        assert first == second

    def test_log_of_rejected_put_replays_identically(self, capsys, tmp_path):
        trace = tmp_path / "ops.trace"
        trace.write_text("PUT a 100\nGET a\nADV 1\nPUT huge 5000\n")
        log = tmp_path / "ops.log"
        code, first, _ = cli(
            capsys, "landfill", "--trace", str(trace), "--capacity", "2000", "--fade", "3",
            "--log", str(log),
        )
        assert code == 0
        assert json.loads(first.splitlines()[-1])["outcome"] == "rejected_too_large"
        code, second, _ = cli(capsys, "landfill", "--trace", str(log), "--capacity", "2000", "--fade", "3")
        assert code == 0
        assert first == second

    def test_oversized_put_is_rejected_without_building_the_value(self, capsys, tmp_path):
        trace = tmp_path / "ops.trace"
        trace.write_text("PUT k 1000000000000\n")
        log = tmp_path / "ops.log"
        code, out, err = cli(
            capsys, "landfill", "--trace", str(trace), "--capacity", "2000", "--fade", "3", "--log", str(log),
        )
        assert code == 0, err
        event = json.loads(out)
        assert (event["size"], event["outcome"]) == (1000000000000, "rejected_too_large")
        assert log.read_text() == "PUT k 1000000000000\n"

    def test_bad_trace_line(self, capsys, tmp_path):
        trace = tmp_path / "bad.trace"
        trace.write_text("PUT onlykey\n")
        code, _, err = cli(capsys, "landfill", "--trace", str(trace), "--capacity", "10", "--fade", "1")
        assert code == 1
        assert "line 1" in err

    def test_bad_config(self, capsys, tmp_path):
        trace = tmp_path / "ops.trace"
        trace.write_text("PUT a 1\n")
        code, _, _ = cli(capsys, "landfill", "--trace", str(trace), "--capacity", "0", "--fade", "1")
        assert code == 1

    # Capacities stay small so that every fuzzed size above them is
    # rejected: the test never asks for a large store.
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        lines=st.lists(_FUZZ_LINE, max_size=8),
        capacity=st.integers(0, 10**6),
        fade=st.integers(0, 3),
        refresh=st.booleans(),
    )
    def test_fuzzed_trace_exits_0_or_1(self, capsys, tmp_path, lines, capacity, fade, refresh):
        trace = tmp_path / "fuzz.trace"
        trace.write_bytes(b"\n".join(lines))
        argv = ["landfill", "--trace", str(trace), "--capacity", str(capacity), "--fade", str(fade)]
        code, out, err = cli(capsys, *argv, *([] if refresh else ["--no-refresh-on-read"]))
        assert code in (0, 1)
        if code == 0:
            for line in out.splitlines():
                jsonschema.validate(json.loads(line), LANDFILL_EVENT_SCHEMA)
        else:
            assert err.startswith("wastekit: error: ") and err.count("\n") == 1


# -- penalty-sim ---------------------------------------------------------


WORKLOAD = """\
# tick producer requested waste_fraction
0 clean 300 0.0
0 dirty 300 0.9
1 clean 200 0.0
"""


class TestPenaltySim:
    def test_json_matches_schema(self, capsys, tmp_path):
        trace = tmp_path / "w.trace"
        trace.write_text(WORKLOAD)
        obj = cli_json(
            capsys, "--format", "json", "penalty-sim", "--trace", str(trace),
            "--alpha", "0.5", "--bandwidth", "100", "--ticks", "10",
        )
        jsonschema.validate(obj, PENALTY_SCHEMA)
        assert set(obj["producers"]) == {"clean", "dirty"}
        assert sum(obj["delivered_per_tick_total"]) == 800
        assert obj["producers"]["clean"]["final_factor"] == 1.0
        assert obj["producers"]["dirty"]["final_factor"] < 1.0

    def test_table_output(self, capsys, tmp_path):
        trace = tmp_path / "w.trace"
        trace.write_text(WORKLOAD)
        code, out, _ = cli(
            capsys, "penalty-sim", "--trace", str(trace),
            "--alpha", "1/2", "--bandwidth", "100", "--ticks", "10",
        )
        assert code == 0
        assert "producer" in out and "clean" in out and "dirty" in out

    def test_weights_flag(self, capsys, tmp_path):
        trace = tmp_path / "w.trace"
        trace.write_text("0 a 100 0.0\n0 b 100 0.0\n")
        obj = cli_json(
            capsys, "--format", "json", "penalty-sim", "--trace", str(trace),
            "--alpha", "0", "--bandwidth", "90", "--ticks", "1", "--weight", "a=2", "--weight", "b=1",
        )
        assert obj["producers"]["a"]["delivered_total"] == 60
        assert obj["producers"]["b"]["delivered_total"] == 30

    def test_bad_weight_spec(self, capsys, tmp_path):
        trace = tmp_path / "w.trace"
        trace.write_text("0 a 100 0.0\n")
        code, _, _ = cli(
            capsys, "penalty-sim", "--trace", str(trace),
            "--alpha", "0", "--bandwidth", "10", "--ticks", "1", "--weight", "nodelimiter",
        )
        assert code == 2

    def test_bad_workload(self, capsys, tmp_path):
        trace = tmp_path / "w.trace"
        trace.write_text("0 a 100 1.5\n")  # waste fraction out of range
        code, _, err = cli(
            capsys, "penalty-sim", "--trace", str(trace),
            "--alpha", "0", "--bandwidth", "10", "--ticks", "1",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "workload, options, spelling",
        [
            ("0 a 100 1e-5\n", ["--alpha", "0"], "1e-5"),
            ("0 a 100 0E5\n", ["--alpha", "0"], "0E5"),
            ("0 a 100 0.5\n", ["--alpha", "1e-5"], "1e-5"),
            ("0 a 100 0.5\n", ["--alpha", "0.5", "--weight", "a=0e5"], "0e5"),
        ],
        ids=["waste-fraction", "waste-fraction-upper", "alpha", "weight"],
    )
    def test_exponent_is_rejected(self, capsys, tmp_path, workload, options, spelling):
        trace = tmp_path / "w.trace"
        trace.write_text(workload)
        code, _, err = cli(capsys, "penalty-sim", "--trace", str(trace), "--bandwidth", "10", "--ticks", "1", *options)
        assert code == 1
        assert err.startswith("wastekit: error: ") and len(err.splitlines()) == 1
        assert repr(spelling) in err and "exponent" in err

    @pytest.mark.parametrize(
        "weights, message",
        [
            (["ghost=2"], "'ghost'"),
            (["a=2", "ghost=abc", "zz=1"], "'ghost', 'zz'"),
            (["a=abc"], "'abc'"),
            (["a=0"], "base_weight must be > 0"),
        ],
        ids=["unknown", "unknown-listed", "bad-value", "zero"],
    )
    def test_weight_must_name_a_trace_producer(self, capsys, tmp_path, weights, message):
        trace = tmp_path / "w.trace"
        trace.write_text("0 a 100 0.0\n")
        args = [a for w in weights for a in ("--weight", w)]
        code, _, err = cli(capsys, "penalty-sim", "--trace", str(trace), "--alpha", "0", "--bandwidth", "10",
                           "--ticks", "1", *args)
        assert code == 1
        assert err.startswith("wastekit: error: ") and len(err.splitlines()) == 1
        assert message in err

    def test_trace_beyond_ticks(self, capsys, tmp_path):
        trace = tmp_path / "w.trace"
        trace.write_text("5 a 100 0.0\n")
        code, _, _ = cli(
            capsys, "penalty-sim", "--trace", str(trace),
            "--alpha", "0", "--bandwidth", "10", "--ticks", "3",
        )
        assert code == 1


# -- reads leave no trace ------------------------------------------------


class TestReadsLeaveNoTrace:
    """Scanning, digests and dedup reads open with O_NOATIME, so the
    atimes that the never-accessed measure rests on stay where they were,
    even where relatime would move them (atime < mtime)."""

    DIRS = ("", "sub", "sub/deeper", "keep")
    FILES = {"sub/a.o": b"intact", "sub/deeper/b.o": b"changed", "c.txt": b"c" * 50, "d.junk": b"d", "keep/e.o": b"e"}

    @pytest.fixture
    def tree(self, tmp_path):
        root = tmp_path / "tree"
        for d in self.DIRS:
            (root / d).mkdir(exist_ok=True)
        for path, data in self.FILES.items():
            (root / path).write_bytes(data)
        mtime = int(time.time()) - 3600
        for path in [*self.FILES, *reversed(self.DIRS)]:
            os.utime(root / path, (mtime - 1000, mtime))
        rules = tmp_path / "rules.json"
        check = {"glob": "*.o", "sha256": hashlib.sha256(b"intact").hexdigest()}
        rules.write_text(json.dumps({"not_waste_globs": ["keep/*"], "unwanted_globs": ["*.junk"], "degraded_checks": [check]}))
        return root, str(rules)

    def atimes(self, root):
        # Stat'ed by known path: listing a directory would move its atime.
        return {path: os.stat(root / path).st_atime_ns for path in [*self.DIRS, *self.FILES]}

    def run_all(self, capsys, root, rules, tmp_path):
        """Every subcommand that reads the tree; returns (argv, stdout, stderr) per call."""
        old, new = str(tmp_path / "old.snap"), str(tmp_path / "new.snap")
        calls = [
            ["scan", str(root), "-o", old],
            ["scan", str(root), "-o", new],
            ["report", old, "--rules", rules],
            ["diff", old, new, "--rules", rules],
            ["plan", old, "--rules", rules],
            ["recover", old, "--rules", rules],
            ["dedup", str(root)],
            ["dedup", old],
        ]
        out = []
        for argv in calls:
            code, stdout, stderr = cli(capsys, "--format", "json", *argv)
            assert code == 0, stderr
            out.append((argv[0], json.loads(stdout), stderr))
        return out

    def test_atimes_unchanged(self, capsys, tree, tmp_path):
        root, rules = tree
        before = self.atimes(root)
        assert all(os.stat(root / p).st_atime < os.stat(root / p).st_mtime for p in before)
        results = self.run_all(capsys, root, rules, tmp_path)
        assert self.atimes(root) == before
        report = results[2][1]
        assert report["per_category"]["Degraded"]["files"] == 1  # both checked files were read
        assert all("atime" not in err for _, _, err in results)
        assert not any("atime moved" in w for w in report["warnings"])

    def test_refused_noatime_gives_one_warning_per_command(self, capsys, tree, tmp_path, monkeypatch):
        root, rules = tree
        real_open = os.open

        def refuse_noatime(path, flags, *args, **kw):
            if flags & os.O_NOATIME:
                raise PermissionError(errno.EPERM, "Operation not permitted", path)
            return real_open(path, flags, *args, **kw)

        monkeypatch.setattr(os, "open", refuse_noatime)
        results = self.run_all(capsys, root, rules, tmp_path)
        dirs, checked, regular = len(self.DIRS), 2, len(self.FILES)
        (_, scan_obj, _), _, (_, report, _) = results[:3]
        assert scan_obj["warnings"] == [atime_moved_warning(dirs)]
        # The snapshot's own warning, then the report's for its digests.
        moved = [w for w in report["warnings"] if w.startswith("atime moved")]
        assert moved == [atime_moved_warning(dirs), atime_moved_warning(checked)]
        # Elsewhere the count goes to stderr, once. `diff` reads each checked
        # file once per snapshot; `dedup DIR` lists the directories too.
        for (command, _, err), moved in zip(results[3:], [2 * checked, checked, checked, dirs + regular, regular]):
            assert err == f"warning: {atime_moved_warning(moved)}\n", command


# -- dedup / recover -----------------------------------------------------


class TestDedup:
    def test_duplicate_tree(self, capsys, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        blob = os.urandom(200_000)
        (root / "one.bin").write_bytes(blob)
        (root / "two.bin").write_bytes(blob)
        obj = cli_json(capsys, "--format", "json", "dedup", str(root))
        jsonschema.validate(obj, DEDUP_SCHEMA)
        assert obj["objects"] == 2
        assert obj["logical_bytes"] == 400_000
        assert obj["physical_bytes"] == 200_000
        assert obj["dedup_ratio"] == 2.0

    def test_snapshot_input(self, capsys, small_tree, tmp_path):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        obj = cli_json(capsys, "--format", "json", "dedup", snap)
        jsonschema.validate(obj, DEDUP_SCHEMA)
        assert obj["objects"] == 4  # regular files only, no directory

    def test_tree_counts_like_its_snapshot(self, capsys, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        (root / "one.bin").write_bytes(os.urandom(50_000))
        os.link(root / "one.bin", root / "hardlink.bin")
        os.symlink("one.bin", root / "symlink.bin")
        (root / "sub").mkdir()
        (root / "sub" / "two.bin").write_bytes(os.urandom(30_000))
        snap = scan_to(capsys, root, tmp_path / "t.snap")
        from_tree = cli_json(capsys, "--format", "json", "dedup", str(root))
        from_snapshot = cli_json(capsys, "--format", "json", "dedup", snap)
        assert from_tree == from_snapshot
        assert (from_tree["objects"], from_tree["dedup_ratio"]) == (2, 1.0)

    def test_snapshot_path_now_a_fifo_is_skipped(self, tmp_path):
        # Once `dedup` of a snapshot blocked forever opening a FIFO that
        # had replaced one of its regular files.
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "a.bin").write_bytes(b"abc")
        (tree / "b.bin").write_bytes(b"def")
        snap = tmp_path / "t.snap"
        assert run(["scan", str(tree), "-o", str(snap)]) == 0
        (tree / "a.bin").unlink()
        os.mkfifo(tree / "a.bin")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "wastekit", "--format", "json", "dedup", str(snap)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert (obj["objects"], obj["logical_bytes"]) == (1, 3)
        assert obj["skipped"] == ["a.bin: not a regular file"]

    def test_snapshot_path_now_a_symlink_is_skipped(self, capsys, tmp_path):
        # A symlink swapped in since the scan must not be read through:
        # the bytes it reaches lie outside the snapshot's root.
        (tmp_path / "outside").write_bytes(b"14 bytes here\n")
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "a.bin").write_bytes(b"abc")
        (tree / "b.bin").write_bytes(b"def")
        snap = scan_to(capsys, tree, tmp_path / "t.snap")
        (tree / "a.bin").unlink()
        os.symlink("../outside", tree / "a.bin")
        obj = cli_json(capsys, "--format", "json", "dedup", snap)
        assert (obj["objects"], obj["logical_bytes"]) == (1, 3)
        assert obj["skipped"] == ["a.bin: not a regular file"]

    def test_large_file_is_streamed(self, tmp_path):
        # Peak RSS of `dedup` on one 64 MiB file stays near that on a tree
        # of one small file: no whole file, copy or chunk bytes are held.
        # The peak is the child's VmHWM: its ru_maxrss would also count the
        # pages of this process, which it shares until exec.
        def peak_mib(root):
            src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
            code = ("import sys\n"
                    "from wastekit.cli import run\n"
                    "code = run(['--format', 'json', 'dedup', sys.argv[1]])\n"
                    "with open('/proc/self/status') as fh:\n"
                    "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')), file=sys.stderr)\n"
                    "sys.exit(code)\n")
            proc = subprocess.run([sys.executable, "-c", code, str(root)], env=dict(os.environ, PYTHONPATH=src),
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            return int(proc.stderr.split()[-1]) / 1024, json.loads(proc.stdout)

        small, big = tmp_path / "small", tmp_path / "big"
        small.mkdir()
        big.mkdir()
        (small / "one.bin").write_bytes(os.urandom(1000))
        with open(big / "one.bin", "wb") as fh:
            for _ in range(64):
                fh.write(os.urandom(1 << 20))
        baseline, _ = peak_mib(small)
        peak, obj = peak_mib(big)
        assert obj["logical_bytes"] == obj["physical_bytes"] == 64 << 20
        assert peak - baseline < 20, f"64 MiB file peaked at {peak:.0f} MiB against {baseline:.0f} MiB"

    def test_bad_chunk_params(self, capsys, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        code, _, _ = cli(capsys, "dedup", str(root), "--min-chunk", "0")
        assert code == 1


class TestRecover:
    def test_summary_schema_and_anonymity(self, capsys, small_tree, tmp_path, rules_file):
        snap = scan_to(capsys, small_tree, tmp_path / "t.snap")
        code, out, _ = cli(capsys, "recover", snap, "--rules", rules_file)
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, RECOVER_SCHEMA)
        assert obj["waste_files"] == 2
        assert obj["waste_bytes"] == 500
        assert set(obj["extension_histogram"]) == {"tmp", "junk"}
        assert "old" not in out and "scratch" not in out  # no path leakage


# -- fuzzed rules, masks and snapshots -----------------------------------


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(10**20), 10**20), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)
# Files of the fuzz tree: name -> size. All share one mtime, so records
# can match them exactly and `plan --execute` can reach the unlink.
# "link" is a symlink to a directory outside the tree.
_FUZZ_FILES = {"old.junk": 3, "scratch.tmp": 5, "keep/precious.junk": 7, "sub/deep.o": 11, "link/victim.junk": 13}
_FUZZ_MTIME = 1_000_000_000


def _fuzz_input(data, clean, mixed):
    """One input file's text: clean (every field valid), mixed (any field
    may be any JSON value instead) or raw bytes; clean is drawn most
    often."""
    shape = data.draw(st.sampled_from(["clean", "clean", "mixed", "bytes"]))
    if shape == "bytes":
        return data.draw(st.binary(max_size=60))
    return data.draw(clean if shape == "clean" else mixed).encode()


def _either(valid, mixed):
    return st.one_of(valid, _JSON) if mixed else valid


def _rules(mixed):
    glob = _either(st.sampled_from(["*.junk", "*.tmp", "keep/*", "sub/*", "*", "**", "[", "?", ""]), mixed)
    globs = _either(st.lists(glob, max_size=3), mixed)
    check = st.fixed_dictionaries({"glob": _either(st.sampled_from(["*.o", "*"]), mixed),
                                   "sha256": _either(st.sampled_from(["0" * 64, "A" * 64, "0"]), mixed)})
    return st.fixed_dictionaries(
        {"unintentional_globs": globs, "unwanted_globs": globs},
        optional={
            "not_waste_globs": globs,
            "degraded_checks": _either(st.lists(check, max_size=2), mixed),
            "used_threshold_secs": _either(st.integers(-2, 10**10), mixed),
        },
    ).map(json.dumps)


def _masks(mixed):
    bits = ("reduce_ok", "reuse_ok", "recycle_ok", "recover_ok")
    mask = st.fixed_dictionaries({}, optional={bit: _either(st.booleans(), mixed) for bit in bits})
    rule = st.fixed_dictionaries({"glob": _either(st.sampled_from(["*.junk", "sub/*", "*"]), mixed)},
                                 optional={bit: _either(st.booleans(), mixed) for bit in bits})
    masks = st.fixed_dictionaries(
        {}, optional={"rules": _either(st.lists(rule, max_size=3), mixed), "default": _either(mask, mixed)}
    )
    return masks.map(json.dumps)


def _snapshot(mixed, root):
    header = st.fixed_dictionaries(
        {"format": _either(st.just("wastekit-snapshot-v1"), mixed), "root": _either(root, mixed),
         "taken_at": _either(st.integers(0, 2 * _FUZZ_MTIME), mixed)},
        optional={"atime_reliable": _either(st.booleans(), mixed),
                  "warnings": _either(st.lists(st.text(max_size=4)), mixed)},
    )

    def record(path):
        return st.fixed_dictionaries(
            {
                "path": _either(st.just(path), mixed),
                "size_bytes": _either(st.sampled_from([_FUZZ_FILES.get(path, 0)] * 3 + [1]), mixed),
                "mtime": _either(st.sampled_from([_FUZZ_MTIME] * 3 + [0]), mixed),
                "atime": _either(st.integers(0, 2 * _FUZZ_MTIME), mixed),
                "kind": _either(st.sampled_from(["Regular"] * 3 + ["Directory", "Symlink", "Other"]), mixed),
            },
            optional={"allocated_bytes": _either(st.one_of(st.none(), st.integers(0, 100)), mixed)},
        )

    record_paths = st.sampled_from([*_FUZZ_FILES, "keep", "sub", "link", "missing.tmp"])
    # Records sorted by path and unique unless mixed: validation wants that.
    records = st.lists(
        record_paths.flatmap(record), min_size=1, max_size=6, unique_by=None if mixed else (lambda r: r["path"])
    )
    if not mixed:
        records = records.map(lambda rs: sorted(rs, key=lambda r: r["path"]))
    return st.tuples(header, records).map(lambda hr: "".join(json.dumps(o) + "\n" for o in [hr[0], *hr[1]]))


class TestInputFuzz:
    """Random rules, masks and snapshots through `report`, `plan`,
    `plan --execute` and `recover`. Relative roots resolve inside
    tmp_path, and `--execute` runs only on a snapshot rooted at the fuzz
    tree, whose symlink to a directory outside it a record can follow
    with a matching size and mtime."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        command=st.sampled_from(["report", "plan", "plan --execute", "recover"]),
        json_format=st.booleans(),
        data=st.data(),
    )
    def test_fuzzed_inputs_exit_0_1_or_2(self, capsys, tmp_path, monkeypatch, command, json_format, data):
        work = tmp_path / "work"
        if work.exists():
            shutil.rmtree(work)
        tree, outside = work / "tree", work / "outside"
        outside.mkdir(parents=True)
        for d in ("keep", "sub"):
            (tree / d).mkdir(parents=True)
        (tree / "link").symlink_to(outside, target_is_directory=True)
        for name, size in _FUZZ_FILES.items():
            (tree / name).write_bytes(b"x" * size)
            os.utime(tree / name, (_FUZZ_MTIME, _FUZZ_MTIME))
        monkeypatch.chdir(work)

        execute = command == "plan --execute"
        root = st.just(str(tree)) if execute else st.sampled_from([str(tree), "tree", "", ".", "/", "missing"])
        snapshot = _fuzz_input(data, _snapshot(False, root), _snapshot(not execute, root))
        rooted_at_tree = b'{"format": "wastekit-snapshot-v1", "root": ' + json.dumps(str(tree)).encode()
        if execute and not snapshot.startswith(rooted_at_tree):
            command = "plan"  # --execute only ever runs on the fuzz tree
        rules = _fuzz_input(data, _rules(False), st.one_of(_rules(True), _JSON.map(json.dumps)))
        (work / "rules.json").write_bytes(rules)
        (work / "snap").write_bytes(snapshot)
        argv = [*(["--format", "json"] if json_format else []), *command.split(), "snap", "--rules", "rules.json"]
        if command == "plan --execute":
            argv.append("--yes")
        if command.startswith("plan") and data.draw(st.booleans()):
            masks = _fuzz_input(data, _masks(False), st.one_of(_masks(True), _JSON.map(json.dumps)))
            (work / "masks.json").write_bytes(masks)
            argv += ["--masks", "masks.json"]

        before = outside_state(tmp_path, tree)
        code, out, err = cli(capsys, *argv)
        assert code in (0, 1, 2)
        if code == 0 and (json_format or command == "recover"):
            json.loads(out)
        if code == 1:
            assert err.startswith("wastekit: error: ") and err.count("\n") == 1
        assert outside_state(tmp_path, tree) == before
