"""Pay-as-you-throw bandwidth scheduler simulation.

Producers accumulate useful and waste bytes; a hyperbolic penalty
factor shrinks the effective weight of polluters, and a discrete-time
simulator shows the incentive playing out. All internal arithmetic is
exact (fractions.Fraction), so identical inputs give bit-identical
reports on any platform; floats appear only at the JSON boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import TraceError, WastekitError

Rational = Union[int, float, str, Fraction]


def _as_fraction(x: Rational, what: str) -> Fraction:
    """Exact conversion; decimal strings and floats go via their decimal
    spelling so that e.g. 0.1 means 1/10, not the nearest binary float."""
    try:
        if isinstance(x, float):
            return Fraction(str(x))
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise WastekitError(f"invalid {what}: {x!r}") from exc


@dataclass
class ProducerAccount:
    """Lifetime ledger for one producer. Pollution is permanent: the
    ratio uses cumulative totals, there is no decay of past waste."""

    id: str
    useful_bytes: Fraction = Fraction(0)
    waste_bytes: Fraction = Fraction(0)
    base_weight: Fraction = Fraction(1)

    def __post_init__(self):
        self.useful_bytes = _as_fraction(self.useful_bytes, "useful_bytes")
        self.waste_bytes = _as_fraction(self.waste_bytes, "waste_bytes")
        self.base_weight = _as_fraction(self.base_weight, "base_weight")
        if self.useful_bytes < 0 or self.waste_bytes < 0:
            raise WastekitError(f"account {self.id!r}: byte counters must be >= 0")
        if self.base_weight <= 0:
            raise WastekitError(f"account {self.id!r}: base_weight must be > 0")

    def accrue(self, useful: Rational, waste: Rational) -> None:
        useful = _as_fraction(useful, "useful bytes")
        waste = _as_fraction(waste, "waste bytes")
        if useful < 0 or waste < 0:
            raise WastekitError("accrual amounts must be >= 0")
        self.useful_bytes += useful
        self.waste_bytes += waste

    @property
    def waste_ratio(self) -> Fraction:
        return self.waste_bytes / max(1, self.useful_bytes + self.waste_bytes)


@dataclass(frozen=True)
class SchedulerConfig:
    total_bandwidth: int
    alpha: Fraction
    tick_count: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_fraction(self.alpha, "alpha"))
        if self.total_bandwidth <= 0:
            raise WastekitError("total_bandwidth must be > 0")
        if self.alpha < 0:
            raise WastekitError("alpha must be >= 0")
        if self.tick_count < 1:
            raise WastekitError("tick_count must be >= 1")


def penalty_factor(account: ProducerAccount, alpha: Rational) -> Fraction:
    """factor = 1 / (1 + alpha * waste_ratio), in (0, 1].

    Hyperbolic rather than linear so a producer is never starved
    outright — the factor stays strictly positive no matter how much
    it has polluted.
    """
    alpha = _as_fraction(alpha, "alpha")
    if alpha < 0:
        raise WastekitError("alpha must be >= 0")
    return 1 / (1 + alpha * account.waste_ratio)


def largest_remainder(total: int, weights: list[tuple[str, Fraction]]) -> dict[str, int]:
    """Apportion `total` integral units proportionally to weights so the
    result sums to `total` exactly. Leftover units go to the largest
    fractional remainders; remainder ties break by id."""
    denom = sum(w for _, w in weights)
    if denom <= 0:
        raise WastekitError("weights must sum to a positive value")
    exact = [(pid, total * w / denom) for pid, w in weights]
    shares = {pid: int(x) for pid, x in exact}  # int() == floor for x >= 0
    leftover = total - sum(shares.values())
    by_remainder = sorted(exact, key=lambda item: (-(item[1] - int(item[1])), item[0]))
    for pid, _ in by_remainder[:leftover]:
        shares[pid] += 1
    return shares


def allocate_shares(accounts: list[ProducerAccount], config: SchedulerConfig) -> dict[str, int]:
    """Integral bytes-per-tick per producer: bandwidth split in
    proportion to base_weight x penalty_factor, conserved exactly."""
    if not accounts:
        raise WastekitError("allocate_shares requires at least one account")
    weights = [(a.id, a.base_weight * penalty_factor(a, config.alpha)) for a in accounts]
    return largest_remainder(config.total_bandwidth, weights)


# -- workload traces ---------------------------------------------------
#
# Line format (whitespace separated, # comments and blank lines ok):
#   <tick> <producer> <requested_bytes> <waste_fraction>
# waste_fraction is a decimal in [0, 1] and is parsed exactly.


@dataclass(frozen=True)
class TraceEvent:
    tick: int
    producer: str
    requested_bytes: int
    waste_fraction: Fraction


@dataclass(frozen=True)
class WorkloadTrace:
    events: tuple[TraceEvent, ...]

    @property
    def producers(self) -> list[str]:
        return sorted({e.producer for e in self.events})

    @property
    def tick_span(self) -> int:
        """Number of ticks the trace covers (last event tick + 1)."""
        return max((e.tick for e in self.events), default=0) + 1 if self.events else 0


def parse_workload(lines) -> WorkloadTrace:
    events = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TraceError(f"workload line {lineno}: expected '<tick> <producer> <requested> <waste_fraction>'")
        try:
            tick = int(parts[0])
            requested = int(parts[2])
            fraction = Fraction(parts[3])
        except (ValueError, ZeroDivisionError) as exc:
            raise TraceError(f"workload line {lineno}: {exc}") from exc
        if tick < 0:
            raise TraceError(f"workload line {lineno}: tick must be >= 0")
        if requested < 0:
            raise TraceError(f"workload line {lineno}: requested_bytes must be >= 0")
        if not 0 <= fraction <= 1:
            raise TraceError(f"workload line {lineno}: waste_fraction must be in [0, 1]")
        events.append(TraceEvent(tick, parts[1], requested, fraction))
    return WorkloadTrace(events=tuple(events))


def load_workload(path: str) -> WorkloadTrace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_workload(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise WastekitError(f"cannot read workload file {path}: {exc}") from exc


# -- simulation --------------------------------------------------------


@dataclass
class ProducerResult:
    delivered_per_tick: list[int]
    requested_total: int
    delivered_total: int
    completion_tick: Optional[int]
    useful_bytes: Fraction
    waste_bytes: Fraction
    final_factor: Fraction


@dataclass
class SimulationReport:
    config: SchedulerConfig
    producers: dict[str, ProducerResult]
    delivered_per_tick_total: list[int] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        def num(x: Fraction):
            return int(x) if x.denominator == 1 else float(x)

        return {
            "total_bandwidth": self.config.total_bandwidth,
            "alpha": num(self.config.alpha),
            "tick_count": self.config.tick_count,
            "delivered_per_tick_total": self.delivered_per_tick_total,
            "producers": {
                pid: {
                    "delivered_per_tick": r.delivered_per_tick,
                    "requested_total": r.requested_total,
                    "delivered_total": r.delivered_total,
                    "completion_tick": r.completion_tick,
                    "useful_bytes": num(r.useful_bytes),
                    "waste_bytes": num(r.waste_bytes),
                    "final_factor": float(r.final_factor),
                }
                for pid, r in sorted(self.producers.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


def simulate(
    trace: WorkloadTrace,
    config: SchedulerConfig,
    base_weights: Optional[dict[str, Rational]] = None,
) -> SimulationReport:
    """Run the scheduler for config.tick_count ticks.

    Each tick: trace events for the tick join their producer's backlog
    and accrue to its account (pollution is charged when the bytes are
    requested, whether or not they are ever delivered); shares are then
    recomputed from the updated accounts and delivery is water-filled —
    producers whose backlog fits inside their proportional share are
    satisfied fully and their slack re-split among the still-hungry, so
    the tick delivers exactly min(bandwidth, total backlog).

    Requests outlive their tick: undelivered bytes stay in the backlog,
    which is how a penalized producer actually feels the penalty (same
    work, more ticks). completion_tick is the tick a producer finished
    its last requested byte, or None if the run ended first.
    """
    if trace.tick_span > config.tick_count:
        raise WastekitError(
            f"trace spans {trace.tick_span} ticks but config.tick_count is {config.tick_count}"
        )
    producers = trace.producers
    if not producers:
        raise WastekitError("workload trace names no producers")
    weights = {pid: _as_fraction((base_weights or {}).get(pid, 1), "base_weight") for pid in producers}
    accounts = {pid: ProducerAccount(id=pid, base_weight=weights[pid]) for pid in producers}

    backlog = {pid: 0 for pid in producers}
    requested_total = {pid: 0 for pid in producers}
    delivered_total = {pid: 0 for pid in producers}
    delivered_per_tick = {pid: [] for pid in producers}
    total_per_tick = []
    completion = {pid: None for pid in producers}
    last_event_tick = {pid: -1 for pid in producers}
    for e in trace.events:
        last_event_tick[e.producer] = max(last_event_tick[e.producer], e.tick)

    events_by_tick: dict[int, list[TraceEvent]] = {}
    for e in trace.events:
        events_by_tick.setdefault(e.tick, []).append(e)

    for tick in range(config.tick_count):
        for e in events_by_tick.get(tick, ()):
            backlog[e.producer] += e.requested_bytes
            requested_total[e.producer] += e.requested_bytes
            waste = e.requested_bytes * e.waste_fraction
            accounts[e.producer].accrue(e.requested_bytes - waste, waste)

        delivered = _deliver_tick(accounts, backlog, config)

        tick_total = 0
        for pid in producers:
            got = delivered.get(pid, 0)
            backlog[pid] -= got
            delivered_total[pid] += got
            delivered_per_tick[pid].append(got)
            tick_total += got
            if completion[pid] is None and backlog[pid] == 0 and tick >= last_event_tick[pid]:
                completion[pid] = tick
        total_per_tick.append(tick_total)

    results = {
        pid: ProducerResult(
            delivered_per_tick=delivered_per_tick[pid],
            requested_total=requested_total[pid],
            delivered_total=delivered_total[pid],
            completion_tick=completion[pid],
            useful_bytes=accounts[pid].useful_bytes,
            waste_bytes=accounts[pid].waste_bytes,
            final_factor=penalty_factor(accounts[pid], config.alpha),
        )
        for pid in producers
    }
    return SimulationReport(config=config, producers=results, delivered_per_tick_total=total_per_tick)


def _deliver_tick(
    accounts: dict[str, ProducerAccount],
    backlog: dict[str, int],
    config: SchedulerConfig,
) -> dict[str, int]:
    """Water-filling split of one tick's bandwidth.

    Iteratively: compute exact proportional shares over the hungry set;
    any producer whose whole backlog fits within its share is satisfied
    and removed, freeing its slack for the rest. When no cap binds, the
    leftover bandwidth is apportioned by largest remainder — each
    rounded share still fits under its producer's backlog because the
    exact share was strictly below an integer backlog.
    """
    delivered = {pid: 0 for pid in backlog}
    hungry = {pid for pid, b in backlog.items() if b > 0}
    remaining = config.total_bandwidth
    total_demand = sum(backlog[pid] for pid in hungry)
    if not hungry:
        return delivered
    if total_demand <= remaining:
        for pid in hungry:
            delivered[pid] = backlog[pid]
        return delivered

    eff = {pid: accounts[pid].base_weight * penalty_factor(accounts[pid], config.alpha) for pid in hungry}
    while True:
        denom = sum(eff[pid] for pid in hungry)
        capped = [pid for pid in hungry if remaining * eff[pid] / denom >= backlog[pid]]
        if not capped:
            break
        for pid in capped:
            delivered[pid] = backlog[pid]
            remaining -= backlog[pid]
            hungry.discard(pid)
        if not hungry:
            return delivered
    shares = largest_remainder(remaining, sorted((pid, eff[pid]) for pid in hungry))
    for pid, share in shares.items():
        delivered[pid] = share
    return delivered
