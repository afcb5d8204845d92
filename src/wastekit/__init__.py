"""wastekit: classify, measure, and manage waste data on a filesystem.

The library is organized around four mechanisms:

- classification and measurement (`model`, `scanner`): rule-driven
  waste categories over filesystem snapshots, never-accessed metrics;
- the action hierarchy (`hierarchy`): reduce / reuse / recycle /
  recover / dispose planning and flash-aware cost estimates;
- the fading store (`landfill`): capacity-bounded storage, evicted
  oldest access epoch first, whose unaccessed entries expire for free;
- incentives and reuse (`penalty`, `dedupe`): pay-as-you-throw
  bandwidth sharing and content-defined-chunking deduplication.

Each public name, and each module above, is imported on first use
(PEP 562), so `import wastekit` alone loads none of them.
"""

from importlib import import_module

from ._version import __version__

# Module -> the public names it exports.
_EXPORTS = {
    "errors": (
        "WastekitError",
        "RuleSetError",
        "TraceError",
        "ObjectNotFoundError",
        "ChunkCorruptionError",
    ),
    "model": (
        "FileKind",
        "FileRecord",
        "RuleSet",
        "WasteCategory",
        "classify",
        "f_lifetime",
        "load_rules",
        "ruleset_from_json_obj",
        "sha256_file",
    ),
    "scanner": (
        "ScanOptions",
        "Snapshot",
        "WasteReport",
        "ChurnReport",
        "scan",
        "classify_snapshot",
        "report",
        "diff",
        "read_snapshot",
        "write_snapshot",
        "snapshot_digest_provider",
        "RecoverSummary",
        "recover_summary",
    ),
    "hierarchy": (
        "HierarchyAction",
        "FeasibilityMask",
        "MaskRules",
        "ActionPlan",
        "PlanEntry",
        "CostModel",
        "CostReport",
        "plan",
        "estimate_cost",
        "load_mask_rules",
    ),
    "landfill": (
        "DigitalLandfill",
        "LandfillConfig",
        "LandfillEntry",
        "LandfillStats",
        "FadeStats",
        "PutOutcome",
        "parse_trace",
        "load_trace",
        "TraceFile",
        "replay",
    ),
    "penalty": (
        "SchedulerConfig",
        "WorkloadTrace",
        "SimulationReport",
        "simulate",
        "parse_workload",
        "load_workload",
    ),
    "dedupe": (
        "ChunkIndex",
        "ChunkingConfig",
        "ChunkStore",
        "IngestResult",
        "chunk",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
