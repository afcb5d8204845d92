"""Action planning over classified waste and flash-aware cost reporting.

Actions form a fixed preference ladder; the planner picks the
highest-ranked feasible action per object. Each mask searches the
ladder once, when it is made, and the objects one mask rule matches
all share that mask.
Cost is reporting only: it never influences which action is chosen.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import NamedTuple

from .errors import WastekitError, require_int
from .model import FileRecord, GlobSet, WasteCategory, _validate_globs, load_json_file


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


# The names in CamelCase: ZERO_WASTE is "ZeroWaste".
_ACTION_LABELS = {action: action.name.title().replace("_", "") for action in HierarchyAction}

SELECTABLE_ACTIONS = (
    HierarchyAction.REDUCE,
    HierarchyAction.REUSE,
    HierarchyAction.RECYCLE,
    HierarchyAction.RECOVER,
    HierarchyAction.DISPOSE,
)

# The four rungs above Dispose in ladder order.
_MASK_BITS = ("reduce_ok", "reuse_ok", "recycle_ok", "recover_ok")


@dataclass(frozen=True)
class FeasibilityMask:
    """Which ladder rungs are available for one object.

    Disposal is always possible, so only the upper four rungs are
    inputs. `action` is the most preferred rung the mask allows, chosen
    once here: every object the mask covers gets it.
    """

    reduce_ok: bool = False
    reuse_ok: bool = False
    recycle_ok: bool = False
    recover_ok: bool = False

    def __post_init__(self):
        object.__setattr__(self, "action", next(a for a in SELECTABLE_ACTIONS if self.allows(a)))

    def allows(self, action: HierarchyAction) -> bool:
        if action is HierarchyAction.DISPOSE:
            return True
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
    """Flash-endurance and energy parameters for pricing a plan. The
    weights are kept as a read-only copy of the mapping given, so they
    stay as checked."""

    erase_block_bytes: int = 256 * 1024
    device_endurance_cycles: int = MLC_ENDURANCE_RANGE[0]
    action_cost_weights: Mapping = field(default_factory=lambda: DEFAULT_ACTION_WEIGHTS)

    def __post_init__(self):
        for name in ("erase_block_bytes", "device_endurance_cycles"):
            require_int(getattr(self, name), f"invalid cost model: {name}")
        weights = self.action_cost_weights
        if not isinstance(weights, (dict, MappingProxyType)):
            raise WastekitError(f"invalid cost model: action_cost_weights must be a dict, got {type(weights).__name__}")
        for action, weight in weights.items():
            if not isinstance(action, HierarchyAction):
                raise WastekitError(f"invalid cost model: weight key {action!r} is not a HierarchyAction")
            if type(weight) not in (int, float) or not 0 <= weight < math.inf:
                raise WastekitError(f"invalid cost model: weight of {action.label} must be a finite number >= 0, got {weight!r}")
        object.__setattr__(self, "action_cost_weights", MappingProxyType(dict(weights)))

    @classmethod
    def for_device(cls, kind: str, **kwargs) -> "CostModel":
        """The model of an MLC, SLC or Other device; only SLC changes the
        default endurance."""
        kind_norm = kind.upper()
        if kind_norm == "SLC":
            kwargs.setdefault("device_endurance_cycles", SLC_ENDURANCE)
        elif kind_norm not in ("MLC", "OTHER"):
            raise WastekitError(f"unknown device kind: {kind!r} (expected MLC, SLC, or Other)")
        return cls(**kwargs)


class PlanEntry(NamedTuple):
    """The action chosen for one object; a tuple, as one is built per entry."""

    path: str
    category: WasteCategory
    action: HierarchyAction
    bytes_affected: int


@dataclass
class ActionPlan:
    """Chosen action per object plus per-action totals."""

    entries: list[PlanEntry]
    totals: dict[HierarchyAction, tuple[int, int]]  # action -> (count, bytes)


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
    append = plan_entries.append
    new_entry = tuple.__new__  # PlanEntry's own __new__ is Python code
    totals = {action: [0, 0] for action in SELECTABLE_ACTIONS}
    for record, category, mask in entries:
        if category is WasteCategory.NOT_WASTE:
            raise WastekitError(f"cannot plan an action for NotWaste entry: {record.path}")
        chosen = mask.action
        nbytes = 0 if chosen is HierarchyAction.REDUCE else record.size_bytes
        append(new_entry(PlanEntry, (record.path, category, chosen, nbytes)))
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


def dump_plan(fh, root: str, action_plan: ActionPlan, cost: CostReport, executed: dict | None = None) -> None:
    """Write `plan`'s JSON object as one line: the bytes `json.dumps(obj,
    sort_keys=True)` gives, as sizes are the ints `FileRecord` ensures.
    Each entry is one f-string, keys sorted and the path quoted by the C
    function `json.dumps` uses; labels and category values are plain words."""
    quote, labels = encode_basestring_ascii, _ACTION_LABELS
    entries = ", ".join(
        [
            f'{{"action": "{labels[action]}", "bytes_affected": {nbytes}, '
            f'"category": "{category._value_}", "path": {quote(path)}}}'
            for path, category, action, nbytes in action_plan.entries
        ]
    )
    totals = {action.label: {"files": count, "bytes": nbytes} for action, (count, nbytes) in action_plan.totals.items()}
    executed_json = "" if executed is None else f', "executed": {json.dumps(executed, sort_keys=True)}'
    fh.write(
        f'{{"cost": {json.dumps(cost.to_json_obj(), sort_keys=True)}{executed_json}, "plan": {{"entries": [{entries}], '
        f'"totals": {json.dumps(totals, sort_keys=True)}}}, "root": {quote(root)}}}\n'
    )


def estimate_cost(action_plan: ActionPlan, model: CostModel) -> CostReport:
    """Price a plan: erase cycles burned by disposal plus abstract energy.

    Erase accounting ignores write amplification; energy is
    bytes x per-action weight.
    """
    disposed = action_plan.totals.get(HierarchyAction.DISPOSE, (0, 0))[1]
    cycles = (disposed + model.erase_block_bytes - 1) // model.erase_block_bytes
    energy = 0.0
    for action, (_, nbytes) in action_plan.totals.items():
        energy += nbytes * model.action_cost_weights.get(action, 0.0)
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
    obj = load_json_file(path, "masks file")
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
