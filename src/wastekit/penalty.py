"""Pay-as-you-throw bandwidth scheduler simulation.

Producers accumulate useful and waste bytes; a hyperbolic penalty
factor, 1 / (1 + alpha x waste ratio), shrinks the effective weight of
polluters, and a discrete-time simulator shows the incentive playing
out. All internal arithmetic is exact, so identical inputs give
bit-identical reports on any platform; floats appear only at the JSON
boundary. The tick loop works in integers, with the water-filling over
weights scaled to a common denominator."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import TraceError, WastekitError

Rational = Union[int, float, str, Fraction]


def _as_fraction(x: Rational, what: str) -> Fraction:
    """Exact conversion; decimal strings and floats go via their decimal
    spelling so that e.g. 0.1 means 1/10, not the nearest binary float.
    A string may not use an exponent: Fraction("1e-999999999") would
    build 10**999999999 from a 12-byte input."""
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise WastekitError(f"invalid {what}: {x!r} (exponents are not accepted)")
    try:
        if isinstance(x, float):
            return Fraction(str(x))
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise WastekitError(f"invalid {what}: {x!r}") from exc


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


def _apportion(total: int, weights: list) -> dict:
    """Largest-remainder apportionment of `total` units over non-negative
    integer weights with a positive sum W: key i gets floor(total x w_i / W)
    and the leftover units go to the largest remainders of that division,
    ties to the smaller key."""
    denom = sum(w for _, w in weights)
    exact = [(key, *divmod(total * w, denom)) for key, w in weights]
    shares = {key: q for key, q, _ in exact}
    leftover = total - sum(shares.values())
    for key, _, _ in sorted(exact, key=lambda item: (-item[2], item[0]))[:leftover]:
        shares[key] += 1
    return shares


# -- workload traces ---------------------------------------------------
#
# Line format (whitespace separated, # comments and blank lines ok):
#   <tick> <producer> <requested_bytes> <waste_fraction>
# waste_fraction is a decimal or a ratio in [0, 1], without an exponent,
# and is parsed exactly.


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
    fractions: dict[str, Fraction] = {}  # each distinct spelling is parsed once
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
        except ValueError as exc:
            raise TraceError(f"workload line {lineno}: {exc}") from exc
        if tick < 0:
            raise TraceError(f"workload line {lineno}: tick must be >= 0")
        if requested < 0:
            raise TraceError(f"workload line {lineno}: requested_bytes must be >= 0")
        fraction = fractions.get(parts[3])
        if fraction is None:
            try:
                fraction = _as_fraction(parts[3], "waste_fraction")
            except WastekitError as exc:
                raise TraceError(f"workload line {lineno}: {exc}") from exc
            if not 0 <= fraction <= 1:
                raise TraceError(f"workload line {lineno}: waste_fraction must be in [0, 1]")
            fractions[parts[3]] = fraction
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

    base_weights may name only producers of the trace; the rest weigh 1.
    """
    if trace.tick_span > config.tick_count:
        raise WastekitError(
            f"trace spans {trace.tick_span} ticks but config.tick_count is {config.tick_count}"
        )
    producers = trace.producers
    if not producers:
        raise WastekitError("workload trace names no producers")
    base_weights = base_weights or {}
    unknown = sorted(set(base_weights) - set(producers))
    if unknown:
        raise WastekitError(f"weights given for producers not in the trace: {', '.join(map(repr, unknown))}")
    base = [_as_fraction(base_weights.get(pid, 1), "base_weight") for pid in producers]
    for pid, w in zip(producers, base):
        if w <= 0:
            raise WastekitError(f"account {pid!r}: base_weight must be > 0")

    # Integer ledgers. Useful plus waste bytes is the producer's integer
    # requested total R, so with M = max(1, R) the penalty factor is
    # M / (M + alpha * waste). Waste is kept scaled by the lcm of the
    # trace's waste_fraction denominators, which makes it an integer;
    # multiplying through by k = scale x alpha's denominator gives
    # factor = M*k / (M*k + alpha_num * scaled_waste). The effective
    # weight base x factor is kept as a reduced numerator/denominator
    # pair, recomputed only when the producer accrues.
    n = len(producers)
    index = {pid: i for i, pid in enumerate(producers)}
    scale = math.lcm(*{e.waste_fraction.denominator for e in trace.events})
    k = scale * config.alpha.denominator
    alpha_num = config.alpha.numerator
    eff_num = [w.numerator for w in base]
    eff_den = [w.denominator for w in base]
    scaled_waste = [0] * n
    requested_total = [0] * n
    backlog = [0] * n
    delivered_per_tick = [[] for _ in producers]
    total_per_tick = []
    completion = [None] * n
    last_event_tick = [-1] * n
    events_by_tick: dict[int, list[tuple[int, int, int]]] = {}
    for e in trace.events:
        i = index[e.producer]
        last_event_tick[i] = max(last_event_tick[i], e.tick)
        f = e.waste_fraction
        events_by_tick.setdefault(e.tick, []).append(
            (i, e.requested_bytes, e.requested_bytes * f.numerator * (scale // f.denominator))
        )

    for tick in range(config.tick_count):
        for i, requested, waste in events_by_tick.get(tick, ()):
            backlog[i] += requested
            requested_total[i] += requested
            scaled_waste[i] += waste
            m = max(1, requested_total[i]) * k
            num = base[i].numerator * m
            den = base[i].denominator * (m + alpha_num * scaled_waste[i])
            g = math.gcd(num, den)
            eff_num[i], eff_den[i] = num // g, den // g

        delivered = _water_fill(config.total_bandwidth, backlog, eff_num, eff_den)

        for i, got in enumerate(delivered):
            backlog[i] -= got
            delivered_per_tick[i].append(got)
            if completion[i] is None and backlog[i] == 0 and tick >= last_event_tick[i]:
                completion[i] = tick
        total_per_tick.append(sum(delivered))

    results = {}
    for i, pid in enumerate(producers):
        waste = Fraction(scaled_waste[i], scale)
        m = max(1, requested_total[i]) * k
        results[pid] = ProducerResult(
            delivered_per_tick=delivered_per_tick[i],
            requested_total=requested_total[i],
            delivered_total=sum(delivered_per_tick[i]),
            completion_tick=completion[i],
            useful_bytes=requested_total[i] - waste,
            waste_bytes=waste,
            final_factor=Fraction(m, m + alpha_num * scaled_waste[i]),
        )
    return SimulationReport(config=config, producers=results, delivered_per_tick_total=total_per_tick)


def _water_fill(bandwidth: int, backlog: list[int], eff_num: list[int], eff_den: list[int]) -> list[int]:
    """Water-filling split of one tick's bandwidth, producer by index.

    The hungry producers' effective weights are scaled to integers over
    the lcm of their denominators, so every test below is exact integer
    arithmetic. Iteratively: any producer whose whole backlog fits within
    its proportional share (remaining x w_i / W >= backlog_i, tested
    cross-multiplied) is satisfied and removed, freeing its slack for the
    rest. When no cap binds, the leftover bandwidth is apportioned by
    largest remainder — each rounded share still fits under its
    producer's backlog because the exact share was strictly below an
    integer backlog.
    """
    if sum(backlog) <= bandwidth:
        return backlog[:]
    delivered = [0] * len(backlog)
    hungry = [i for i, b in enumerate(backlog) if b]
    lcm = math.lcm(*(eff_den[i] for i in hungry))
    weight = {i: eff_num[i] * (lcm // eff_den[i]) for i in hungry}
    total_weight = sum(weight.values())
    remaining = bandwidth
    # The hungry backlog always exceeds `remaining`, so no round caps
    # every hungry producer.
    while True:
        capped = [i for i in hungry if remaining * weight[i] >= backlog[i] * total_weight]
        if not capped:
            break
        for i in capped:
            delivered[i] = backlog[i]
            remaining -= backlog[i]
            total_weight -= weight[i]
        hungry = [i for i in hungry if not delivered[i]]
    for i, share in _apportion(remaining, [(i, weight[i]) for i in hungry]).items():
        delivered[i] = share
    return delivered
