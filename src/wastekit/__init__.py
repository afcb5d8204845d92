"""wastekit: classify, measure, and manage waste data on a filesystem.

The library is organized around four mechanisms:

- classification and measurement (`model`, `scanner`): rule-driven
  waste categories over filesystem snapshots, never-accessed metrics;
- the action hierarchy (`hierarchy`): reduce / reuse / recycle /
  recover / dispose planning and flash-aware cost estimates;
- the fading store (`landfill`): capacity-bounded LRU storage whose
  unaccessed entries expire for free;
- incentives and reuse (`penalty`, `dedupe`): pay-as-you-throw
  bandwidth sharing and content-defined-chunking deduplication.
"""

from ._version import __version__
from .errors import (
    ChunkCorruptionError,
    ObjectNotFoundError,
    RuleSetError,
    TraceError,
    WastekitError,
)
from .model import (
    FileKind,
    FileRecord,
    RuleSet,
    WasteCategory,
    classify,
    f_lifetime,
    load_rules,
    ruleset_from_json_obj,
    sha256_file,
)
from .scanner import (
    ChurnReport,
    ScanOptions,
    Snapshot,
    WasteReport,
    classify_snapshot,
    diff,
    read_snapshot,
    report,
    scan,
    snapshot_digest_provider,
    write_snapshot,
)
from .hierarchy import (
    ActionPlan,
    CostModel,
    CostReport,
    FeasibilityMask,
    HierarchyAction,
    MaskRules,
    PlanEntry,
    estimate_cost,
    load_mask_rules,
    plan,
)
from .landfill import (
    DigitalLandfill,
    FadeStats,
    LandfillConfig,
    LandfillEntry,
    LandfillStats,
    PutOutcome,
    load_trace,
    parse_trace,
    replay,
)
from .penalty import (
    SchedulerConfig,
    SimulationReport,
    WorkloadTrace,
    load_workload,
    parse_workload,
    simulate,
)
from .dedupe import (
    ChunkIndex,
    ChunkingConfig,
    ChunkStore,
    IngestResult,
    RecoverSummary,
    chunk,
    recover_summary,
)

__all__ = [
    "__version__",
    # errors
    "WastekitError",
    "RuleSetError",
    "TraceError",
    "ObjectNotFoundError",
    "ChunkCorruptionError",
    # model
    "FileKind",
    "FileRecord",
    "RuleSet",
    "WasteCategory",
    "classify",
    "f_lifetime",
    "load_rules",
    "ruleset_from_json_obj",
    "sha256_file",
    # scanner
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
    # hierarchy
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
    # landfill
    "DigitalLandfill",
    "LandfillConfig",
    "LandfillEntry",
    "LandfillStats",
    "FadeStats",
    "PutOutcome",
    "parse_trace",
    "load_trace",
    "replay",
    # penalty
    "SchedulerConfig",
    "WorkloadTrace",
    "SimulationReport",
    "simulate",
    "parse_workload",
    "load_workload",
    # dedupe
    "ChunkIndex",
    "ChunkingConfig",
    "ChunkStore",
    "IngestResult",
    "RecoverSummary",
    "chunk",
    "recover_summary",
]
