"""Independent references for the bandwidth scheduler.

`naive_apportion` and `naive_fair_sim` are written from the definitions,
not from the scheduler code: largest-remainder apportionment and
weighted fair sharing with backlog carry-over (no penalty). They exist
to catch the scheduler agreeing with itself.

`ProducerAccount`, `penalty_factor`, `largest_remainder` and
`allocate_shares` are the scheduler's Fraction-level building blocks,
once public in `wastekit.penalty`; `simulate` computes the same factor
and shares in integers. `fraction_simulate` and
`fraction_largest_remainder` are the scheduler's earlier Fraction
implementation, kept as it was: every tick recomputes each hungry
producer's `base_weight x penalty_factor` and water-fills with
`Fraction` shares. The library's integer tick loop must give
bit-identical reports.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from wastekit.errors import WastekitError
from wastekit.penalty import (
    ProducerResult,
    SchedulerConfig,
    SimulationReport,
    TraceEvent,
    WorkloadTrace,
    _apportion,
    _as_fraction,
)


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

    def accrue(self, useful, waste) -> None:
        useful = _as_fraction(useful, "useful bytes")
        waste = _as_fraction(waste, "waste bytes")
        if useful < 0 or waste < 0:
            raise WastekitError("accrual amounts must be >= 0")
        self.useful_bytes += useful
        self.waste_bytes += waste

    @property
    def waste_ratio(self) -> Fraction:
        return self.waste_bytes / max(1, self.useful_bytes + self.waste_bytes)


def penalty_factor(account: ProducerAccount, alpha) -> Fraction:
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
    fractional remainders; remainder ties break by id. Weights are ints
    or Fractions, each >= 0."""
    if sum(w for _, w in weights) <= 0:
        raise WastekitError("weights must sum to a positive value")
    if any(w < 0 for _, w in weights):
        raise WastekitError("weights must be >= 0")
    lcm = math.lcm(*(w.denominator for _, w in weights))
    return _apportion(total, [(pid, w.numerator * (lcm // w.denominator)) for pid, w in weights])


def allocate_shares(accounts: list[ProducerAccount], config: SchedulerConfig) -> dict[str, int]:
    """Integral bytes-per-tick per producer: bandwidth split in
    proportion to base_weight x penalty_factor, conserved exactly."""
    if not accounts:
        raise WastekitError("allocate_shares requires at least one account")
    weights = [(a.id, a.base_weight * penalty_factor(a, config.alpha)) for a in accounts]
    return largest_remainder(config.total_bandwidth, weights)


def naive_apportion(total, weights):
    """Independent largest-remainder: floors, then leftovers to the
    biggest fractional parts, ids breaking ties."""
    denom = sum(w for _, w in weights)
    quotas = {pid: Fraction(total) * w / denom for pid, w in weights}
    out = {pid: q.numerator // q.denominator for pid, q in quotas.items()}
    left = total - sum(out.values())
    ranked = sorted(quotas, key=lambda pid: (out[pid] - quotas[pid], pid))
    for pid in ranked[:left]:
        out[pid] += 1
    return out


def events_at(trace, tick):
    """The trace's events at one tick, in trace order."""
    return [e for e in trace.events if e.tick == tick]


def naive_fair_sim(trace, bandwidth, ticks, weights):
    """Reference weighted fair sharing with backlog carry-over, no
    penalty. Written independently of the scheduler module."""
    producers = trace.producers
    backlog = {p: 0 for p in producers}
    delivered = {p: [] for p in producers}
    for t in range(ticks):
        for e in events_at(trace, t):
            backlog[e.producer] += e.requested_bytes
        hungry = {p for p in producers if backlog[p] > 0}
        give = {p: 0 for p in producers}
        remaining = bandwidth
        if sum(backlog[p] for p in hungry) <= remaining:
            for p in hungry:
                give[p] = backlog[p]
        else:
            while True:
                denom = sum(weights[p] for p in hungry)
                sat = [p for p in sorted(hungry) if Fraction(remaining) * weights[p] / denom >= backlog[p]]
                if not sat:
                    break
                for p in sat:
                    give[p] = backlog[p]
                    remaining -= backlog[p]
                    hungry.discard(p)
            give.update(naive_apportion(remaining, sorted((p, weights[p]) for p in hungry)))
        for p in producers:
            backlog[p] -= give[p]
            delivered[p].append(give[p])
    return delivered


# -- the Fraction scheduler ----------------------------------------------


def fraction_largest_remainder(total: int, weights: list[tuple[str, Fraction]]) -> dict[str, int]:
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


def fraction_simulate(
    trace: WorkloadTrace,
    config: SchedulerConfig,
    base_weights: Optional[dict] = None,
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

        delivered = _fraction_deliver_tick(accounts, backlog, config)

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


def _fraction_deliver_tick(
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
    shares = fraction_largest_remainder(remaining, sorted((pid, eff[pid]) for pid in hungry))
    for pid, share in shares.items():
        delivered[pid] = share
    return delivered
