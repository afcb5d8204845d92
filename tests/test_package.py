"""The package's export table: names resolve on first use, once each."""

import importlib
import os
import subprocess
import sys

import pytest

import wastekit

PUBLIC_NAMES = {
    "__version__",
    "WastekitError", "RuleSetError", "TraceError", "ObjectNotFoundError", "ChunkCorruptionError",
    "FileKind", "FileRecord", "RuleSet", "WasteCategory", "classify", "f_lifetime", "load_rules",
    "ruleset_from_json_obj", "sha256_file",
    "ScanOptions", "Snapshot", "WasteReport", "ChurnReport", "scan", "classify_snapshot", "report", "diff",
    "read_snapshot", "write_snapshot", "snapshot_digest_provider", "RecoverSummary", "recover_summary",
    "HierarchyAction", "FeasibilityMask", "MaskRules", "ActionPlan", "PlanEntry", "CostModel", "CostReport",
    "plan", "estimate_cost", "load_mask_rules",
    "DigitalLandfill", "LandfillConfig", "LandfillEntry", "LandfillStats", "FadeStats", "PutOutcome",
    "parse_trace", "load_trace", "TraceFile", "replay",
    "SchedulerConfig", "WorkloadTrace", "SimulationReport", "simulate", "parse_workload", "load_workload",
    "ChunkIndex", "ChunkingConfig", "ChunkStore", "IngestResult", "chunk",
}


def run_fresh(code: str) -> None:
    """Run `code` in a new interpreter that imports this wastekit."""
    src = os.path.dirname(os.path.dirname(wastekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_bare_import_loads_no_numpy():
    run_fresh("import sys, wastekit; assert 'numpy' not in sys.modules, 'numpy imported'")


def test_submodule_resolves_after_bare_import():
    run_fresh(
        "import sys, types, wastekit\n"
        "assert 'wastekit.model' not in sys.modules\n"
        "assert isinstance(wastekit.model, types.ModuleType) and wastekit.model.classify is wastekit.classify\n"
    )


def test_dedupe_imports_no_other_wastekit_module():
    run_fresh(
        "import sys, wastekit.dedupe\n"
        "loaded = {name for name in sys.modules if name.startswith('wastekit.')}\n"
        "assert loaded == {'wastekit._version', 'wastekit.errors', 'wastekit.dedupe'}, sorted(loaded)\n"
    )


def test_star_import_binds_exactly_all():
    assert len(PUBLIC_NAMES) == 59
    assert len(wastekit.__all__) == len(set(wastekit.__all__))
    assert set(wastekit.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from wastekit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES


def test_each_name_is_its_modules_object():
    exported = {name for names in wastekit._EXPORTS.values() for name in names}
    assert exported == PUBLIC_NAMES - {"__version__"}
    for module_name, names in wastekit._EXPORTS.items():
        module = importlib.import_module(f"wastekit.{module_name}")
        assert getattr(wastekit, module_name) is module
        for name in names:
            assert getattr(wastekit, name) is getattr(module, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        wastekit.no_such_name
