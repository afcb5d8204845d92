"""Action planning over classified waste and flash-aware cost reporting.

Actions form a fixed preference ladder; the planner picks the
highest-ranked feasible action per object. Cost is reporting only:
it never influences which action is chosen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

from .errors import WastekitError
from .model import FileRecord, GlobSet, WasteCategory, _validate_globs


class HierarchyAction(IntEnum):
    """Preference ladder; lower value is more preferable.

    ZERO_WASTE and PHYSICAL_ELIMINATION sit outside the ladder as
    markers (the ideal above it and the destructive escape hatch below
    it) and are never selectable by the planner.
    """

    ZERO_WASTE = -1
    REDUCE = 0
    REUSE = 1
    RECYCLE = 2
    RECOVER = 3
    DISPOSE = 4
    PHYSICAL_ELIMINATION = 5

    @property
    def label(self) -> str:
        return _ACTION_LABELS[self]


_ACTION_LABELS = {
    HierarchyAction.ZERO_WASTE: "ZeroWaste",
    HierarchyAction.REDUCE: "Reduce",
    HierarchyAction.REUSE: "Reuse",
    HierarchyAction.RECYCLE: "Recycle",
    HierarchyAction.RECOVER: "Recover",
    HierarchyAction.DISPOSE: "Dispose",
    HierarchyAction.PHYSICAL_ELIMINATION: "PhysicalElimination",
}

SELECTABLE_ACTIONS = (
    HierarchyAction.REDUCE,
    HierarchyAction.REUSE,
    HierarchyAction.RECYCLE,
    HierarchyAction.RECOVER,
    HierarchyAction.DISPOSE,
)


@dataclass(frozen=True)
class FeasibilityMask:
    """Which ladder rungs are available for one object.

    Disposal is always possible, so only the upper four rungs are
    inputs; `dispose_ok` is a constant.
    """

    reduce_ok: bool = False
    reuse_ok: bool = False
    recycle_ok: bool = False
    recover_ok: bool = False

    @property
    def dispose_ok(self) -> bool:
        return True

    def allows(self, action: HierarchyAction) -> bool:
        if action is HierarchyAction.DISPOSE:
            return True
        # _MASK_BITS names the four rungs above Dispose in ladder order.
        return HierarchyAction.REDUCE <= action < HierarchyAction.DISPOSE and getattr(self, _MASK_BITS[action])


# Per-byte burden multipliers relative to the base deletion cost.
# Encodes only the ordering of burden down the ladder; the values
# themselves are config, not measurements.
DEFAULT_ACTION_WEIGHTS = {
    HierarchyAction.REDUCE: 0.0,
    HierarchyAction.REUSE: 0.2,
    HierarchyAction.RECYCLE: 0.3,
    HierarchyAction.RECOVER: 0.4,
    HierarchyAction.DISPOSE: 1.0,
}

MLC_ENDURANCE_RANGE = (1000, 10000)  # write/erase cycles per cell
SLC_ENDURANCE = 100000


@dataclass(frozen=True)
class CostModel:
    """Flash-endurance and energy parameters for pricing a plan."""

    erase_block_bytes: int = 256 * 1024
    device_endurance_cycles: int = MLC_ENDURANCE_RANGE[0]
    device_kind: str = "MLC"
    delete_cost_per_byte: float = 1.0
    action_cost_weights: dict = field(default_factory=lambda: dict(DEFAULT_ACTION_WEIGHTS))

    def __post_init__(self):
        if self.erase_block_bytes <= 0:
            raise WastekitError("invalid cost model: erase_block_bytes must be > 0")
        if self.device_endurance_cycles <= 0:
            raise WastekitError("invalid cost model: device_endurance_cycles must be > 0")

    @classmethod
    def for_device(cls, kind: str, **kwargs) -> "CostModel":
        kind_norm = kind.upper()
        if kind_norm == "MLC":
            kwargs.setdefault("device_endurance_cycles", MLC_ENDURANCE_RANGE[0])
        elif kind_norm == "SLC":
            kwargs.setdefault("device_endurance_cycles", SLC_ENDURANCE)
        elif kind_norm != "OTHER":
            raise WastekitError(f"unknown device kind: {kind!r} (expected MLC, SLC, or Other)")
        return cls(device_kind=kind_norm if kind_norm != "OTHER" else "Other", **kwargs)


@dataclass(frozen=True)
class PlanEntry:
    path: str
    category: WasteCategory
    action: HierarchyAction
    bytes_affected: int

    def to_json_obj(self) -> dict:
        return {
            "path": self.path,
            "category": self.category.value,
            "action": self.action.label,
            "bytes_affected": self.bytes_affected,
        }


@dataclass
class ActionPlan:
    """Chosen action per object plus per-action totals."""

    entries: list[PlanEntry]
    totals: dict[HierarchyAction, tuple[int, int]]  # action -> (count, bytes)

    def to_json_obj(self) -> dict:
        return {
            "entries": [e.to_json_obj() for e in self.entries],
            "totals": {
                action.label: {"files": count, "bytes": nbytes}
                for action, (count, nbytes) in self.totals.items()
            },
        }


def plan(entries: list[tuple[FileRecord, WasteCategory, FeasibilityMask]]) -> ActionPlan:
    """Choose the most-preferred feasible action for every entry.

    Selection is pure rank argmin over the mask; disposal is always
    feasible, so every entry gets an action. NotWaste entries are the
    caller's responsibility to filter and are rejected here.

    Reduce is a creation-time property: choosing it flags the producer
    pattern for suppression and touches no bytes, so its byte estimate
    is zero.
    """
    plan_entries = []
    totals = {action: [0, 0] for action in SELECTABLE_ACTIONS}
    for record, category, mask in entries:
        if category is WasteCategory.NOT_WASTE:
            raise WastekitError(f"cannot plan an action for NotWaste entry: {record.path}")
        chosen = next(a for a in SELECTABLE_ACTIONS if mask.allows(a))
        nbytes = 0 if chosen is HierarchyAction.REDUCE else record.size_bytes
        plan_entries.append(PlanEntry(path=record.path, category=category, action=chosen, bytes_affected=nbytes))
        totals[chosen][0] += 1
        totals[chosen][1] += nbytes
    return ActionPlan(entries=plan_entries, totals={a: (c, b) for a, (c, b) in totals.items()})


@dataclass(frozen=True)
class CostReport:
    bytes_erased: int
    erase_cycles_consumed: int
    # exact: ratios between devices must not pick up float rounding
    endurance_fraction: Fraction
    energy_units: float

    def to_json_obj(self) -> dict:
        return {
            "bytes_erased": self.bytes_erased,
            "erase_cycles_consumed": self.erase_cycles_consumed,
            "endurance_fraction": float(self.endurance_fraction),
            "energy_units": self.energy_units,
        }


def estimate_cost(action_plan: ActionPlan, model: CostModel) -> CostReport:
    """Price a plan: erase cycles burned by disposal plus abstract energy.

    Erase accounting ignores write amplification; energy is
    bytes x delete_cost_per_byte x per-action weight.
    """
    disposed = action_plan.totals.get(HierarchyAction.DISPOSE, (0, 0))[1]
    cycles = (disposed + model.erase_block_bytes - 1) // model.erase_block_bytes
    energy = 0.0
    for action, (_, nbytes) in action_plan.totals.items():
        weight = model.action_cost_weights.get(action, 0.0)
        energy += nbytes * model.delete_cost_per_byte * weight
    return CostReport(
        bytes_erased=disposed,
        erase_cycles_consumed=cycles,
        endurance_fraction=Fraction(cycles, model.device_endurance_cycles),
        energy_units=energy,
    )


@dataclass(frozen=True)
class MaskRules:
    """Glob-to-mask mapping; first matching rule wins, else the default.

    The ladder gives no way to decide per-object feasibility of the
    upper rungs, so feasibility arrives as config. The default mask
    allows disposal only.
    """

    rules: tuple[tuple[str, FeasibilityMask], ...] = ()
    default: FeasibilityMask = FeasibilityMask()

    def __post_init__(self):
        object.__setattr__(self, "_globs", GlobSet(pattern for pattern, _ in self.rules))

    def mask_for(self, path: str) -> FeasibilityMask:
        index = self._globs.first(path)
        return self.default if index is None else self.rules[index][1]


_MASK_BITS = ("reduce_ok", "reuse_ok", "recycle_ok", "recover_ok")


def _mask_from_obj(obj, where: str) -> FeasibilityMask:
    if not isinstance(obj, dict):
        raise WastekitError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(_MASK_BITS) - {"glob"}
    if unknown:
        raise WastekitError(f"{where}: unknown mask keys {sorted(unknown)}")
    bits = {bit: obj.get(bit, False) for bit in _MASK_BITS}
    if any(type(value) is not bool for value in bits.values()):
        raise WastekitError(f"{where}: mask bits must be true or false, got {bits}")
    return FeasibilityMask(**bits)


def load_mask_rules(path: str) -> MaskRules:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise WastekitError(f"cannot read masks file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise WastekitError(f"masks file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) - {"rules", "default"} or not isinstance(obj.get("rules", []), list):
        raise WastekitError("masks config must be a JSON object with a 'rules' list and optional 'default'")
    rules = []
    for i, entry in enumerate(obj.get("rules", [])):
        if not isinstance(entry, dict) or "glob" not in entry:
            raise WastekitError(f"masks rule #{i} must be an object with a 'glob' key")
        (glob_pat,) = _validate_globs([entry["glob"]], f"masks rule #{i}")
        rules.append((glob_pat, _mask_from_obj(entry, f"masks rule #{i}")))
    default = _mask_from_obj(obj.get("default", {}), "masks default")
    return MaskRules(rules=tuple(rules), default=default)
